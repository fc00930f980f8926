"""Big-step evaluator for Slice, and the exact envy check of its result.
No disjointness check runs here: `typecheck.check_wellformed` does it once.

`Walk` is the one walk over expressions.  The evaluator (`_Evaluator`) is
its value domain, which follows the one path the values take, and the path
translator (`logic._Translator`) its term domain, which follows every path.

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
    AssertE, BoolVal, Divide, EvalQ, Expr, If, IntervalVal, Lit, Mark, Op,
    PieceE, PieceVal, PointVal, ReadOnlyVal, ReadVar, SliceError, Split,
    TupleE, TupleVal, Value, Var, VltnVal, read,
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


class Walk:
    """The big-step walk over Slice expressions, written once.

    `eval` is a generator: it yields the value of an expression once for
    each path the domain follows, depth first, in `paths.enumerate_paths`
    order.  It decides variable lookup (`@x` is `read` of `x`), split
    binding, the order of `if` and `assert`, left-to-right evaluation of
    children (the leftmost child's paths varying slowest), and records the
    mark ids it reaches in pre-order.  A domain's hooks give the rest: `lit`,
    `read`, `tuple` (tuples and pieces), `split` (the binders' components),
    `branch` (the branches to follow, `True` for `then`), `assume` (once per
    path of the guard), `op`, `divide`, `mark` and `valuation`.  `branch`
    and `assume` get the guard as a thunk that starts its walk.
    """

    def __init__(self):
        self.mark_ids: list = []

    def lit(self, v: Value):
        return v

    def read(self, x):
        return x

    def eval(self, e: Expr, env: dict):
        if isinstance(e, (Var, ReadVar)):
            if e.name not in env:
                at = "@" if isinstance(e, ReadVar) else ""
                raise SliceError(f"unbound variable {at}{e.name}")
            v = env[e.name]
            yield self.read(v) if isinstance(e, ReadVar) else v
        elif isinstance(e, Lit):
            yield self.lit(e.value)
        elif isinstance(e, Op):
            for args in self._each(e.args, env):
                yield self.op(e, args)
        elif isinstance(e, EvalQ):
            for v in self.eval(e.arg, env):
                yield self.valuation(e, v)
        elif isinstance(e, Split):
            for v in self.eval(e.scrutinee, env):
                comps = self.split(e, v)
                if len(comps) != len(e.binders):
                    raise SliceError(f"split arity mismatch: {len(e.binders)} "
                                     f"binders, {len(comps)} components")
                yield from self.eval(e.body,
                                     {**env, **dict(zip(e.binders, comps))})
        elif isinstance(e, AssertE):
            for _ in self.assume(lambda: self.eval(e.guard, env)):
                yield from self.eval(e.body, env)
        elif isinstance(e, If):
            for taken in self.branch(e, lambda: self.eval(e.guard, env)):
                yield from self.eval(e.then if taken else e.els, env)
        elif isinstance(e, Mark):
            self.mark_ids.append(e.mark_id)
            for iv, tv in self._each((e.interval, e.target), env):
                yield self.mark(e, iv, tv)
        elif isinstance(e, Divide):
            for iv, pt in self._each((e.interval, e.point), env):
                yield self.divide(iv, pt)
        elif isinstance(e, (TupleE, PieceE)):
            for items in self._each(e.items, env):
                yield self.tuple(e, items)
        else:
            raise SliceError(f"unhandled expression {e!r}")

    def _each(self, es: tuple, env: dict):
        """Yield the values of `es` as a list, once per combination of their
        paths, the first expression's paths varying slowest."""
        if not es:
            yield []
            return
        for v in self.eval(es[0], env):
            if len(es) == 1:
                yield [v]
            else:
                for rest in self._each(es[1:], env):
                    yield [v, *rest]


class _Evaluator(Walk):
    def __init__(self, vs: ValuationSet, replay: Optional[dict]):
        super().__init__()
        self.vs = vs
        self.replay = replay
        self.trace = EvalTrace()

    def eval(self, e: Expr, env: dict):
        for v in super().eval(e, env):
            self.trace.collect(v)
            yield v

    def read(self, v: Value) -> Value:
        return read(v)

    def tuple(self, e: Expr, items: list) -> Value:
        if isinstance(e, TupleE):
            return TupleVal(tuple(items))
        if not all(isinstance(v, IntervalVal) for v in items):
            raise SliceError("piece expects intervals")
        return PieceVal(tuple(items))

    def split(self, e: Split, v: Value) -> list:
        return list(v.items) if isinstance(v, TupleVal) else [v]

    def branch(self, e: If, guard):
        """The one branch the guard's value takes."""
        for g in guard():
            if not isinstance(g, BoolVal):
                raise SliceError("if-guard did not evaluate to a boolean")
            self.trace.branches.append((e.if_id, g.flag))
            yield g.flag

    def assume(self, guard):
        for g in guard():
            if not isinstance(g, BoolVal):
                raise SliceError("assert-guard did not evaluate to a boolean")
            if not g.flag:
                raise Stuck(ASSERT_FAILED)
            yield

    def op(self, e: Op, args: list) -> Value:
        op, x, y = e.op, args[0], args[-1]   # y is x for unary operators
        if op == OP_AND:
            return BoolVal(x.flag and y.flag)
        if op == OP_OR:
            return BoolVal(x.flag or y.flag)
        if op == OP_NOT:
            return BoolVal(not x.flag)
        if op == OP_GE:
            if isinstance(x, PointVal) and isinstance(y, PointVal):
                return BoolVal(x.point >= y.point)
            return BoolVal(vltn_value(self.vs, x) >= vltn_value(self.vs, y))
        if op == OP_EQ:
            return BoolVal(vltn_value(self.vs, x) == vltn_value(self.vs, y))
        if op == OP_ADD:
            return VltnVal(x.terms + y.terms)
        if op == OP_SCALE:
            return VltnVal(tuple((e.coeff * c, a, p) for c, a, p in x.terms))
        raise SliceError(f"unknown operator {op!r}")

    def divide(self, iv: Value, pt: Value) -> Value:
        if not (isinstance(iv, IntervalVal) and isinstance(pt, PointVal)):
            raise SliceError("divide expects an interval and a point")
        if not iv.lo <= pt.point <= iv.hi:
            raise Stuck(DIVIDE_OUT_OF_RANGE,
                        f"{pt.point} outside [{iv.lo}, {iv.hi}]")
        return TupleVal((IntervalVal(iv.lo, pt.point),
                         IntervalVal(pt.point, iv.hi)))

    def mark(self, e: Mark, iv: Value, tv: Value) -> Value:
        if not (isinstance(iv, ReadOnlyVal)
                and isinstance(iv.inner, IntervalVal)):
            raise SliceError("mark expects a read-only interval")
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

    def valuation(self, e: EvalQ, v: Value) -> Value:
        if not (isinstance(v, ReadOnlyVal)
                and isinstance(v.inner, (IntervalVal, PieceVal))):
            raise SliceError("eval expects a read-only interval or piece")
        return VltnVal(((Fraction(1), e.agent, v.inner),))


def evaluate(e: Expr, vs: ValuationSet,
             replay: Optional[dict] = None) -> RunResult:
    """Run a (typechecked) expression under a valuation set.

    `replay` maps mark ids to pinned answer points; each pinned answer is
    validated against the mark's equation before being used.
    """
    ev = _Evaluator(vs, replay)
    return RunResult(next(ev.eval(e, {})), ev.trace)


@dataclass(frozen=True)
class EnvyWitness:
    envious: int
    envied: int
    own_value: Fraction
    other_value: Fraction

    def __str__(self):
        return (f"agent {self.envious} values agent {self.envied}'s piece at "
                f"{self.other_value} but its own at {self.own_value}")

    def to_json(self) -> dict:
        """Exact values as `p/q` strings (`p` for an integer)."""
        return {"envious": self.envious, "envied": self.envied,
                "own_value": str(self.own_value),
                "other_value": str(self.other_value)}

    @staticmethod
    def from_json(data: dict) -> "EnvyWitness":
        return EnvyWitness(data["envious"], data["envied"], *(
            Fraction(data[k]) for k in ("own_value", "other_value")))


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

