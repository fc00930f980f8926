"""The two walks that `slicev.interp.Walk` replaced: the evaluator that
computed values (`evaluate`) and the translator that built a path's result
term and constraint (`translate`), each walking `Expr` on its own.  Kept as
the reference for the differential test of the shared walk
(`test_walk_differential.py`), which requires the same translations and the
same runs from both.

The reference translator builds boolean-sorted terms of its own and lifts a
guard to a formula only at its `assert` (`_lift`)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from slicev.core import (
    OP_ADD, OP_AND, OP_EQ, OP_GE, OP_NOT, OP_OR, OP_SCALE,
    AssertE, BoolVal, Divide, EvalQ, Expr, If, IntervalVal, Lit, Mark, Op,
    PieceE, PieceVal, PointVal, ReadOnlyVal, ReadVar, SliceError, Split,
    TupleE, TupleVal, Value, Var, VltnVal, read,
)
from slicev.interp import (
    ASSERT_FAILED, DIVIDE_OUT_OF_RANGE, MARK_INFEASIBLE, MARK_REPLAY_MISMATCH,
    EvalTrace, RunResult, Stuck, vltn_value,
)
from slicev.logic import (
    AddT, EqF, FalseF, Formula, GeF, IntervalT, LogicError, NotF, OrF, ScaleT,
    Term, Translated, TrueF, TupleT, UnionT, ValT, YVar, conj, left, proj,
    right, term_of_value,
)
from slicev.valuation import TargetExceedsValue, ValuationSet, val_mark


# Boolean-sorted terms (operator images); lifted to formulas by `_lift`.
@dataclass(frozen=True)
class TAnd(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TOr(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TNot(Term):
    arg: Term


@dataclass(frozen=True)
class TGe(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class TEq(Term):
    left: Term
    right: Term


def _lift(t: Term) -> Formula:
    """Turn a boolean-sorted term into a formula; a boolean literal already
    is one (`term_of_value`)."""
    if isinstance(t, TAnd):
        return conj([_lift(t.left), _lift(t.right)])
    if isinstance(t, TOr):
        return OrF((_lift(t.left), _lift(t.right)))
    if isinstance(t, TNot):
        return NotF(_lift(t.arg))
    if isinstance(t, TGe):
        return GeF(t.left, t.right)
    if isinstance(t, TEq):
        return EqF(t.left, t.right)
    if isinstance(t, (TrueF, FalseF)):
        return t
    raise LogicError(f"not a boolean term: {t!r}")


def _is_affine_value(v: Value) -> bool:
    return isinstance(v, (IntervalVal, PieceVal, TupleVal))


class _Evaluator:
    def __init__(self, vs: ValuationSet, replay: Optional[dict]):
        self.vs = vs
        self.replay = replay
        self.trace = EvalTrace()

    def eval(self, e: Expr, env: dict) -> Value:
        v = self._eval(e, env)
        self.trace.collect(v)
        return v

    def _eval(self, e: Expr, env: dict) -> Value:
        if isinstance(e, Lit):
            return e.value
        if isinstance(e, Var):
            if e.name not in env:
                raise SliceError(f"unbound variable {e.name!r} at runtime")
            return env[e.name]
        if isinstance(e, ReadVar):
            key = "@" + e.name
            if key not in env:
                raise SliceError(f"unbound read-only variable @{e.name}")
            return env[key]
        if isinstance(e, TupleE):
            return TupleVal(tuple(self.eval(item, env) for item in e.items))
        if isinstance(e, Split):
            scrut = self.eval(e.scrutinee, env)
            comps = list(scrut.items) if isinstance(scrut, TupleVal) else [scrut]
            if len(comps) != len(e.binders):
                raise SliceError(
                    f"split arity mismatch: {len(e.binders)} binders, "
                    f"{len(comps)} components")
            inner = dict(env)
            for name, v in zip(e.binders, comps):
                inner[name] = v
                if _is_affine_value(v):
                    inner["@" + name] = read(v)
                else:
                    inner.pop("@" + name, None)
            return self.eval(e.body, inner)
        if isinstance(e, If):
            guard = self.eval(e.guard, env)
            if not isinstance(guard, BoolVal):
                raise SliceError("if-guard did not evaluate to a boolean")
            self.trace.branches.append((e.if_id, guard.flag))
            return self.eval(e.then if guard.flag else e.els, env)
        if isinstance(e, AssertE):
            guard = self.eval(e.guard, env)
            if not isinstance(guard, BoolVal):
                raise SliceError("assert-guard did not evaluate to a boolean")
            if not guard.flag:
                raise Stuck(ASSERT_FAILED)
            return self.eval(e.body, env)
        if isinstance(e, Op):
            return self.eval_op(e, env)
        if isinstance(e, Divide):
            iv = self.eval(e.interval, env)
            pt = self.eval(e.point, env)
            if not (isinstance(iv, IntervalVal) and isinstance(pt, PointVal)):
                raise SliceError("divide expects an interval and a point")
            if not iv.lo <= pt.point <= iv.hi:
                raise Stuck(DIVIDE_OUT_OF_RANGE,
                            f"{pt.point} outside [{iv.lo}, {iv.hi}]")
            return TupleVal((IntervalVal(iv.lo, pt.point),
                             IntervalVal(pt.point, iv.hi)))
        if isinstance(e, PieceE):
            parts = []
            for item in e.items:
                v = self.eval(item, env)
                if not isinstance(v, IntervalVal):
                    raise SliceError("piece expects intervals")
                parts.append(v)
            return PieceVal(tuple(parts))
        if isinstance(e, Mark):
            iv = self.eval(e.interval, env)
            if not (isinstance(iv, ReadOnlyVal)
                    and isinstance(iv.inner, IntervalVal)):
                raise SliceError("mark expects a read-only interval")
            tv = self.eval(e.target, env)
            if not isinstance(tv, VltnVal):
                raise SliceError("mark target must be a valuation")
            target = vltn_value(self.vs, tv)
            lo, hi = iv.inner.lo, iv.inner.hi
            agent_val = self.vs.agent(e.agent)
            if self.replay is not None and e.mark_id in self.replay:
                r = self.replay[e.mark_id]
                if r < lo or agent_val.eval_interval(lo, r) != target:
                    raise Stuck(MARK_REPLAY_MISMATCH,
                                f"mark {e.mark_id}: V[{lo},{r}] != {target}")
            else:
                try:
                    r = val_mark(agent_val, lo, hi, target)
                except TargetExceedsValue as exc:
                    raise Stuck(MARK_INFEASIBLE, str(exc)) from exc
            self.trace.mark_answers[e.mark_id] = r
            return PointVal(r)
        if isinstance(e, EvalQ):
            v = self.eval(e.arg, env)
            if not (isinstance(v, ReadOnlyVal)
                    and isinstance(v.inner, (IntervalVal, PieceVal))):
                raise SliceError("eval expects a read-only interval or piece")
            return VltnVal(((Fraction(1), e.agent, v.inner),))
        raise SliceError(f"unhandled expression {e!r}")

    def eval_op(self, e: Op, env: dict) -> Value:
        args = [self.eval(a, env) for a in e.args]
        op = e.op
        if op in (OP_AND, OP_OR):
            x, y = args
            if op == OP_AND:
                return BoolVal(x.flag and y.flag)
            return BoolVal(x.flag or y.flag)
        if op == OP_NOT:
            return BoolVal(not args[0].flag)
        if op == OP_GE:
            x, y = args
            if isinstance(x, PointVal) and isinstance(y, PointVal):
                return BoolVal(x.point >= y.point)
            return BoolVal(vltn_value(self.vs, x) >= vltn_value(self.vs, y))
        if op == OP_EQ:
            x, y = args
            return BoolVal(vltn_value(self.vs, x) == vltn_value(self.vs, y))
        if op == OP_ADD:
            x, y = args
            return VltnVal(x.terms + y.terms)
        if op == OP_SCALE:
            (x,) = args
            return VltnVal(tuple((e.coeff * c, a, p) for c, a, p in x.terms))
        raise SliceError(f"unknown operator {op!r}")


def evaluate(e: Expr, vs: ValuationSet,
             replay: Optional[dict] = None) -> RunResult:
    ev = _Evaluator(vs, replay)
    value = ev.eval(e, {})
    return RunResult(value, ev.trace)


def translate(path_expr: Expr) -> Translated:
    marks: list[int] = []

    def go(e: Expr, env: dict) -> tuple[Term, list[Formula]]:
        if isinstance(e, Lit):
            return term_of_value(e.value), []
        if isinstance(e, Var):
            if e.name not in env:
                raise LogicError(f"unbound variable {e.name!r} in path")
            return env[e.name], []
        if isinstance(e, ReadVar):
            if e.name not in env:
                raise LogicError(f"unbound read variable @{e.name} in path")
            return env[e.name], []
        if isinstance(e, TupleE):
            terms, cs = [], []
            for item in e.items:
                t, c = go(item, env)
                terms.append(t)
                cs.extend(c)
            return TupleT(tuple(terms)), cs
        if isinstance(e, Split):
            ts, cs = go(e.scrutinee, env)
            inner = dict(env)
            if len(e.binders) == 1:
                inner[e.binders[0]] = ts
            else:
                for i, name in enumerate(e.binders):
                    inner[name] = proj(i + 1, ts)
            tb, cb = go(e.body, inner)
            return tb, cs + cb
        if isinstance(e, AssertE):
            tg, cg = go(e.guard, env)
            tb, cb = go(e.body, env)
            return tb, [_lift(tg)] + cg + cb
        if isinstance(e, If):
            raise LogicError("if-expression inside a path")
        if isinstance(e, Op):
            terms, cs = [], []
            for a in e.args:
                t, c = go(a, env)
                terms.append(t)
                cs.extend(c)
            table = {OP_AND: TAnd, OP_OR: TOr, OP_GE: TGe, OP_EQ: TEq,
                     OP_ADD: AddT}
            if e.op in table:
                return table[e.op](*terms), cs
            if e.op == OP_NOT:
                return TNot(terms[0]), cs
            if e.op == OP_SCALE:
                return ScaleT(e.coeff, terms[0]), cs
            raise LogicError(f"unknown operator {e.op!r}")
        if isinstance(e, Divide):
            t1, c1 = go(e.interval, env)
            t2, c2 = go(e.point, env)
            pair = TupleT((IntervalT(left(t1), t2), IntervalT(t2, right(t1))))
            side = [GeF(t2, left(t1)), GeF(right(t1), t2)]
            return pair, c1 + c2 + side
        if isinstance(e, PieceE):
            terms, cs = [], []
            for item in e.items:
                t, c = go(item, env)
                terms.append(t)
                cs.extend(c)
            return UnionT(tuple(terms)), cs
        if isinstance(e, Mark):
            if e.mark_id is None:
                raise LogicError("mark without identifier")
            marks.append(e.mark_id)
            t1, c1 = go(e.interval, env)
            t2, c2 = go(e.target, env)
            y = YVar(e.mark_id)
            side = EqF(ValT(e.agent, IntervalT(left(t1), y)), t2)
            return y, c1 + c2 + [side]
        if isinstance(e, EvalQ):
            t, c = go(e.arg, env)
            return ValT(e.agent, t), c
        raise LogicError(f"unhandled path expression {e!r}")

    result, cs = go(path_expr, {})
    return Translated(result, conj(cs), tuple(marks))
