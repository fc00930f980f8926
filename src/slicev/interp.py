"""Big-step evaluator for Slice with runtime envy and disjointness checks.

Evaluation keeps valuation values symbolic (sums of coeff * V_a(piece)) and
only compares them numerically when an operator demands it.  Mark queries
answer with the leftmost satisfying point unless a replay table pins the
answers, which is how counterexamples and replication tests re-execute a
run bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import (
    OP_ADD, OP_AND, OP_EQ, OP_GE, OP_NOT, OP_OR, OP_SCALE,
    AssertE, AffVar, BoolVal, Cake, Divide, EvalQ, Expr, If, IntervalVal, Lit,
    Mark, Op, PieceE, PieceVal, PointVal, ReadOnlyVal, ReadVar, SliceError,
    Split, TupleE, TupleVal, Value, Var, VltnVal, read,
)
from .valuation import TargetExceedsValue, ValuationSet, val_eval, val_mark


class Stuck(SliceError):
    """Execution reached a rule whose side condition fails."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"stuck: {reason}" + (f" ({detail})" if detail else ""))
        self.reason = reason


DIVIDE_OUT_OF_RANGE = "DivideOutOfRange"
MARK_INFEASIBLE = "MarkInfeasible"
MARK_REPLAY_MISMATCH = "MarkReplayMismatch"
ASSERT_FAILED = "AssertFailed"


@dataclass
class EvalTrace:
    """Points touched by a derivation plus the answers every mark gave."""

    points: set = field(default_factory=set)
    mark_answers: dict = field(default_factory=dict)   # mark id -> Fraction
    branches: list = field(default_factory=list)       # (if id, guard value)

    def collect(self, v: Value) -> None:
        if isinstance(v, PointVal):
            self.points.add(v.point)
        elif isinstance(v, IntervalVal):
            self.points.add(v.lo)
            self.points.add(v.hi)
        elif isinstance(v, PieceVal):
            for iv in v.intervals:
                self.collect(iv)
        elif isinstance(v, TupleVal):
            for item in v.items:
                self.collect(item)
        elif isinstance(v, ReadOnlyVal):
            self.collect(v.inner)
        elif isinstance(v, VltnVal):
            for _c, _a, target in v.terms:
                self.collect(target)


@dataclass
class RunResult:
    value: Value
    trace: EvalTrace


def vltn_value(vs: ValuationSet, v: VltnVal) -> Fraction:
    """Numeric worth of a symbolic valuation value under a valuation set."""
    total = Fraction(0)
    for coeff, agent, target in v.terms:
        total += coeff * val_eval(vs.agent(agent), target)
    return total


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
        if isinstance(e, (Var, AffVar)):
            if e.name not in env:
                raise SliceError(f"unbound variable {e.name!r} at runtime")
            return env[e.name]
        if isinstance(e, ReadVar):
            key = "@" + e.name
            if key not in env:
                raise SliceError(f"unbound read-only variable @{e.name}")
            return env[key]
        if isinstance(e, Cake):
            return IntervalVal(Fraction(0), Fraction(1))
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
    """Run a (typechecked) expression under a valuation set.

    `replay` maps mark ids to pinned answer points; each pinned answer is
    validated against the mark's equation before being used.
    """
    ev = _Evaluator(vs, replay)
    value = ev.eval(e, {})
    return RunResult(value, ev.trace)


@dataclass(frozen=True)
class EnvyWitness:
    envious: int
    envied: int
    own_value: Fraction
    other_value: Fraction

    def __str__(self):
        return (f"agent {self.envious} values agent {self.envied}'s piece at "
                f"{self.other_value} but its own at {self.own_value}")


def check_envy_free(alloc: Value, vs: ValuationSet
                    ) -> tuple[bool, Optional[EnvyWitness]]:
    """Exact envy-freeness of an allocation tuple of pieces."""
    alloc = _as_piece_tuple(alloc, vs.n_agents)
    values = [[val_eval(vs.agent(a), p) for p in alloc]
              for a in range(1, vs.n_agents + 1)]
    for a in range(vs.n_agents):
        for b in range(vs.n_agents):
            if values[a][a] < values[a][b]:
                return False, EnvyWitness(a + 1, b + 1,
                                          values[a][a], values[a][b])
    return True, None


def _as_piece_tuple(alloc: Value, n_agents: int) -> list[PieceVal]:
    if not isinstance(alloc, TupleVal) or len(alloc.items) != n_agents:
        raise SliceError(f"allocation must be a {n_agents}-tuple of pieces")
    out = []
    for item in alloc.items:
        item = item.inner if isinstance(item, ReadOnlyVal) else item
        if isinstance(item, IntervalVal):
            item = PieceVal((item,))
        if not isinstance(item, PieceVal):
            raise SliceError("allocation components must be pieces")
        out.append(item)
    return out

