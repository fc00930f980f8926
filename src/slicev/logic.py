"""Logical IR and the path-to-formula pipeline.

The IR has two sorts: terms (points, pieces, tuples and valuation sums) and
formulas.  A path translates to a result term and a constraint formula; a
boolean expression, such as a guard, translates straight to a formula.
Envy-freeness of the result is an implication whose validity is checked per
piecewise uniform replacement (a total order on the path's mark variables).
Translation builds reduced terms, so after replacement every atom is linear
real arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .core import (
    OP_ADD, OP_AND, OP_EQ, OP_GE, OP_NOT, OP_OR, OP_SCALE,
    BoolVal, EvalQ, Expr, If, IntervalVal, Mark, Op, PieceVal, PointVal,
    ReadOnlyVal, SliceError, Split, TupleE, TupleVal, Value, VltnVal,
)
from .interp import Walk
from .valuation import ValuationSet, val_eval


class LogicError(SliceError):
    pass


class PointAtomNotInS(LogicError):
    """A point atom of the formula is missing from the replacement order."""


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Const(Term):
    value: Fraction  # a point or real constant (shared rational carrier)


@dataclass(frozen=True)
class YVar(Term):
    mark_id: int


@dataclass(frozen=True)
class ZVar(Term):
    agent: int
    key: Union[int, str]  # mark id, or "one" for the fixed right end


@dataclass(frozen=True)
class IntervalT(Term):
    lo: Term
    hi: Term


@dataclass(frozen=True)
class UnionT(Term):
    intervals: tuple[Term, ...]


@dataclass(frozen=True)
class TupleT(Term):
    items: tuple[Term, ...]


@dataclass(frozen=True)
class ValT(Term):
    agent: int
    piece: Term


@dataclass(frozen=True)
class AddT(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class ScaleT(Term):
    coeff: Fraction
    arg: Term


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Formula:
    pass


@dataclass(frozen=True)
class TrueF(Formula):
    pass


@dataclass(frozen=True)
class FalseF(Formula):
    pass


@dataclass(frozen=True)
class GeF(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class EqF(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class NotF(Formula):
    arg: Formula


@dataclass(frozen=True)
class AndF(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class OrF(Formula):
    items: tuple[Formula, ...]


# ---------------------------------------------------------------------------
# Node shapes: every structural walk goes through `parts` and `rebuild`
# ---------------------------------------------------------------------------

Node = Union[Term, Formula]
_LEAVES = (Const, YVar, ZVar, TrueF, FalseF)


def parts(x: Node) -> tuple[Node, ...]:
    """Immediate sub-terms and sub-formulas of `x`, in field order."""
    if isinstance(x, _LEAVES):
        return ()
    if isinstance(x, (AddT, GeF, EqF)):
        return (x.left, x.right)
    if isinstance(x, (AndF, OrF, TupleT)):
        return x.items
    if isinstance(x, (ScaleT, NotF)):
        return (x.arg,)
    if isinstance(x, ValT):
        return (x.piece,)
    if isinstance(x, IntervalT):
        return (x.lo, x.hi)
    if isinstance(x, UnionT):
        return x.intervals
    raise LogicError(f"unknown node {x!r}")


def rebuild(x: Node, new: Iterable[Node]) -> Node:
    """`x` with its `parts` replaced by `new`; its other fields are kept.
    Leaves come back unchanged."""
    if isinstance(x, _LEAVES):
        return x
    if isinstance(x, ScaleT):
        return ScaleT(x.coeff, *new)
    if isinstance(x, (AddT, GeF, EqF, NotF, IntervalT)):
        return type(x)(*new)
    if isinstance(x, (AndF, OrF, TupleT, UnionT)):
        return type(x)(tuple(new))
    if isinstance(x, ValT):
        return ValT(x.agent, *new)
    raise LogicError(f"unknown node {x!r}")


def label(x: Node):
    """The fields of `x` besides its `parts`; None when it has none."""
    if isinstance(x, Const):
        return x.value
    if isinstance(x, YVar):
        return x.mark_id
    if isinstance(x, ZVar):
        return (x.agent, x.key)
    if isinstance(x, ScaleT):
        return x.coeff
    if isinstance(x, ValT):
        return x.agent
    return None


def subterms(x: Node) -> Iterator[Node]:
    """`x` and every node below it, in pre-order."""
    yield x
    for p in parts(x):
        yield from subterms(p)


def proj(index: int, t: Term) -> Term:
    """The 1-based component of a tuple term."""
    if not isinstance(t, TupleT):
        raise LogicError(f"projection of a non-tuple term {t!r}")
    return t.items[index - 1]


def left(t: Term) -> Term:
    """Left endpoint of an interval term."""
    if not isinstance(t, IntervalT):
        raise LogicError(f"left endpoint of a non-interval term {t!r}")
    return t.lo


def right(t: Term) -> Term:
    """Right endpoint of an interval term."""
    if not isinstance(t, IntervalT):
        raise LogicError(f"right endpoint of a non-interval term {t!r}")
    return t.hi


def conj(items: Iterable[Formula]) -> Formula:
    out = []
    for f in items:
        if isinstance(f, TrueF):
            continue
        if isinstance(f, AndF):
            out.extend(f.items)
        else:
            out.append(f)
    if not out:
        return TrueF()
    if len(out) == 1:
        return out[0]
    return AndF(tuple(out))


def conjuncts(f: Formula) -> list[Formula]:
    if isinstance(f, AndF):
        return list(f.items)
    if isinstance(f, TrueF):
        return []
    return [f]


# ---------------------------------------------------------------------------
# Value embedding and path translation
# ---------------------------------------------------------------------------

def term_of_value(v: Value) -> Node:
    """Embed a runtime value as a term, a boolean as a formula; read-only
    wrappers are dropped."""
    if isinstance(v, ReadOnlyVal):
        return term_of_value(v.inner)
    if isinstance(v, BoolVal):
        return TrueF() if v.flag else FalseF()
    if isinstance(v, PointVal):
        return Const(v.point)
    if isinstance(v, IntervalVal):
        return IntervalT(Const(v.lo), Const(v.hi))
    if isinstance(v, PieceVal):
        return UnionT(tuple(IntervalT(Const(i.lo), Const(i.hi))
                            for i in v.intervals))
    if isinstance(v, TupleVal):
        return TupleT(tuple(term_of_value(item) for item in v.items))
    if isinstance(v, VltnVal):
        total: Optional[Term] = None
        for coeff, agent, target in v.terms:
            part: Term = ValT(agent, term_of_value(target))
            if coeff != 1:
                part = ScaleT(coeff, part)
            total = part if total is None else AddT(total, part)
        return total if total is not None else Const(Fraction(0))
    raise LogicError(f"cannot embed {v!r}")


@dataclass(frozen=True)
class Translated:
    """Result term and constraint of one path."""

    result: Term
    constraint: Formula
    mark_ids: tuple[int, ...]


_OPS = {OP_NOT: NotF, OP_GE: GeF, OP_EQ: EqF, OP_ADD: AddT}


class _Translator(Walk):
    """The term domain of `interp.Walk`: each rule returns a reduced term,
    or a formula for a boolean, and appends its side conditions to
    `constraint`.  It follows both branches of every `if`, so the walk
    forks there, and each fork cuts the constraint, the mark ids and the
    decisions (`branches`) back to where they stood before it takes `else`.
    Cutting back is enough because the walk appends all it records, but
    for an assumed guard, which goes before its own side conditions and
    comes out again before the guard's walk resumes."""

    lit = staticmethod(term_of_value)

    def __init__(self):
        super().__init__()
        self.constraint: list[Formula] = []
        self.branches: list[tuple[int, bool]] = []   # (if id, then taken)

    def tuple(self, e: Expr, items: list) -> Term:
        return (TupleT if isinstance(e, TupleE) else UnionT)(tuple(items))

    def split(self, e: Split, t: Term) -> list:
        n = len(e.binders)
        return [t] if n == 1 else [proj(i, t) for i in range(1, n + 1)]

    def branch(self, e: If, guard):
        """`then`, then `else`, each with every path of the guard: the path
        an `assert` of the guard, or of its negation, would give."""
        at, marks, decided = (len(self.constraint), len(self.mark_ids),
                              len(self.branches))
        for taken in (True, False):
            del self.constraint[at:]
            del self.mark_ids[marks:]
            del self.branches[decided:]
            for _ in self.assume(guard, negate=not taken):
                self.branches.append((e.if_id, taken))
                yield taken

    def assume(self, guard, negate: bool = False):
        at = len(self.constraint)   # before the guard's side conditions
        for f in guard():
            if not isinstance(f, Formula):
                raise LogicError(f"not a boolean guard: {f!r}")
            self.constraint.insert(at, NotF(f) if negate else f)
            yield
            del self.constraint[at]   # before the guard's walk goes on

    def op(self, e: Op, args: list) -> Node:
        if e.op == OP_AND:
            return conj(args)
        if e.op == OP_OR:
            return OrF(tuple(args))
        if e.op == OP_SCALE:
            return ScaleT(e.coeff, *args)
        if e.op not in _OPS:
            raise LogicError(f"unknown operator {e.op!r}")
        return _OPS[e.op](*args)

    def divide(self, t1: Term, t2: Term) -> Term:
        self.constraint += [GeF(t2, left(t1)), GeF(right(t1), t2)]
        return TupleT((IntervalT(left(t1), t2), IntervalT(t2, right(t1))))

    def mark(self, e: Mark, t1: Term, t2: Term) -> Term:
        if e.mark_id is None:
            raise LogicError("mark without identifier")
        y = YVar(e.mark_id)
        self.constraint.append(EqF(ValT(e.agent, IntervalT(left(t1), y)), t2))
        return y

    def valuation(self, e: EvalQ, t: Term) -> Term:
        return ValT(e.agent, t)


def translate_paths(e: Expr) -> Iterator[tuple[Translated, dict]]:
    """Every path of `e`, in `paths.enumerate_paths` order, with its
    decisions `{if id: then taken}`: one run of `interp.Walk` in the term
    domain (`_Translator`), which forks at each `if`, so paths that share
    decisions share the walk up to them.  Each path's translation equals
    `translate` of the if-free path its decisions select: `e` with each
    `if` replaced by an `assert` of its guard (negated where the else
    branch was taken) over the branch taken.

    Split bindings substitute projections of the scrutinee's term for the
    bound variables, like the logical substitution in the definition; the
    walk's environment does it lazily.  `proj`, `left` and `right` select
    from the tuple or interval term they are given and boolean operators
    build formulas, so the result and the constraint come out reduced.
    """
    tr = _Translator()
    for result in tr.eval(e, {}):
        yield (Translated(result, conj(tr.constraint), tuple(tr.mark_ids)),
               dict(tr.branches))


def translate(path_expr: Expr) -> Translated:
    """The result term and constraint of an if-free path (of the first
    path, given an expression with `if`s)."""
    return next(translate_paths(path_expr))[0]


def envy_formula(alloc: Term, n_agents: int) -> Formula:
    """No agent values another's component above its own (all agent pairs)."""
    parts = [proj(a, alloc) for a in range(1, n_agents + 1)]
    return conj([GeF(ValT(a, parts[a - 1]), ValT(a, part))
                 for a in range(1, n_agents + 1) for part in parts])


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

def simplify(f: Node) -> Node:
    """Flatten nested conjunctions; `translate` output has none."""
    new = [simplify(p) for p in parts(f)]
    return conj(new) if isinstance(f, AndF) else rebuild(f, new)


# ---------------------------------------------------------------------------
# Piecewise uniform replacements
# ---------------------------------------------------------------------------

ZERO_KEY = "zero"
ONE_KEY = "one"


@dataclass(frozen=True)
class Replacement:
    """A total order on a path's mark variables together with 0 and 1.

    `order` lists the elements from smallest to largest; it always starts
    with the 0 end and finishes with the 1 end.
    """

    order: tuple[Union[int, str], ...]

    def __post_init__(self):
        if self.order[0] != ZERO_KEY or self.order[-1] != ONE_KEY:
            raise LogicError("replacement must run from 0 to 1")

    @cached_property
    def positions(self) -> dict:
        """Each element's index in `order`, computed once per replacement."""
        return {e: i for i, e in enumerate(self.order)}

    def describe(self) -> str:
        names = {ZERO_KEY: "0", ONE_KEY: "1"}
        return " < ".join(names.get(e, f"y{e}") for e in self.order)


def replacement_from_permutation(yids: Iterable[int]) -> Replacement:
    return Replacement((ZERO_KEY, *yids, ONE_KEY))


def _point_key(t: Term) -> Union[int, str, None]:
    """The order element a point atom stands for; None for any other term."""
    if isinstance(t, YVar):
        return t.mark_id
    if isinstance(t, Const):
        if t.value == 0:
            return ZERO_KEY
        if t.value == 1:
            return ONE_KEY
    return None


def _window(s: Replacement, lo: Term, hi: Term) -> list:
    pos = s.positions
    i = pos.get(_point_key(lo))
    j = pos.get(_point_key(hi))
    if i is None or j is None:
        raise PointAtomNotInS("interval endpoint missing from the order")
    if j <= i:
        return []
    return list(s.order[i + 1:j + 1])


def _window_of_piece(s: Replacement, t: Term) -> list:
    """Elements covered by an interval or union term, deduplicated, in
    order position."""
    if isinstance(t, IntervalT):
        return _window(s, t.lo, t.hi)
    if isinstance(t, UnionT):
        seen = set()
        for iv in t.intervals:
            if not isinstance(iv, IntervalT):
                raise LogicError(f"union of non-interval {iv!r}")
            seen.update(_window(s, iv.lo, iv.hi))
        pos = s.positions
        return sorted(seen, key=lambda e: pos[e])
    raise LogicError(f"valuation applied to non-piece term {t!r}")


def _element_term(e: Union[int, str]) -> Term:
    if e == ZERO_KEY:
        return Const(Fraction(0))
    if e == ONE_KEY:
        return Const(Fraction(1))
    return YVar(e)


def _window_sum(s: Replacement, agent: int, piece: Term) -> Term:
    elems = _window_of_piece(s, piece)
    if not elems:
        return Const(Fraction(0))
    total: Optional[Term] = None
    for e in elems:
        part = AddT(_element_term(e), ScaleT(Fraction(-1), ZVar(agent, e)))
        total = part if total is None else AddT(total, part)
    return total


def apply_replacement(s: Replacement, f: Node) -> Node:
    """Rewrite valuation terms into sums (y - z_agent_y) over the order's
    windows; everything else is untouched."""
    if isinstance(f, ValT):
        return _window_sum(s, f.agent, f.piece)
    return rebuild(f, [apply_replacement(s, p) for p in parts(f)])


def order_formula(s: Replacement, n_agents: int) -> Formula:
    """Side formula for a replacement: per agent the interleaving chain
    0 <= z <= y <= ... <= 1, equal support mass across agents, and strictly
    positive total support (a zero-mass model cannot normalize)."""
    atoms: list[Formula] = []
    elems = [e for e in s.order if e != ZERO_KEY]
    zero = Const(Fraction(0))
    one = Const(Fraction(1))
    sums = {}
    for a in range(1, n_agents + 1):
        prev: Term = zero
        for e in elems:
            z = ZVar(a, e)
            y = _element_term(e)
            atoms.append(GeF(z, prev))
            atoms.append(GeF(y, z))
            prev = y
        atoms.append(GeF(one, prev))
        sums[a] = _window_sum(s, a, IntervalT(zero, one))
        atoms.append(NotF(GeF(zero, sums[a])))  # strict positivity
    for a in range(1, n_agents + 1):
        for b in range(a + 1, n_agents + 1):
            atoms.append(EqF(sums[a], sums[b]))
    return conj(atoms)


def replacement_variables(s: Replacement, n_agents: int
                          ) -> tuple[list[YVar], list[ZVar]]:
    ys = [YVar(e) for e in s.order if e not in (ZERO_KEY, ONE_KEY)]
    zs = [ZVar(a, e) for a in range(1, n_agents + 1)
          for e in s.order if e != ZERO_KEY]
    return ys, zs


# ---------------------------------------------------------------------------
# Verification conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VC:
    """One (path, replacement) verification condition, fully linear: it
    holds when `antecedent` and `negated_goal` are unsatisfiable together."""

    antecedent: Formula       # S(R(c(b))) /\ psi(S)
    negated_goal: Formula     # Not(S(R(E(rho(b)))))
    replacement: Replacement
    # The run's tables, which hold every conjunct of `antecedent` and of the
    # negated goal.  Not part of the condition; set only by `build_vc`, so
    # `dataclasses.replace`, which could swap in other conjuncts, drops it.
    table: Optional[VCTable] = field(default=None, init=False, compare=False,
                                     repr=False)


class VCTable:
    """The tables of one verification run (a `verify_program` call), so
    that each distinct conjunct is replaced once per order and each order's
    side formula is built once.

    Replaced nodes are hash-consed (Filliatre & Conchon, ML 2006): equal
    subtrees are one object, found by a key of the node's own fields and the
    identities of its already interned children, so no lookup rehashes a
    tree.  A path's constraint conjuncts are hashed once per path, to find
    their replacements so far; its envy goal is built and hashed once per
    distinct result term, which many paths share.  `texts` keeps the
    SMT-LIB text of each interned conjunct for `solver.emit_smt`, by id.
    """

    def __init__(self):
        self.nodes: dict = {}      # (type, label, child ids) -> interned node
        self.replaced: dict = {}   # path conjunct -> {order: interned node}
        self.sides: dict = {}      # (order, n_agents) -> interned conjuncts
        self.goals: dict = {}      # (result, n_agents) -> goal pairs
        self.texts: dict = {}      # id(interned conjunct) -> SMT-LIB text
        self._path = None          # (translation, n_agents, pairs, pairs)

    def intern(self, x: Node) -> Node:
        kids = [self.intern(p) for p in parts(x)]
        key = (type(x), label(x), *map(id, kids))
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = rebuild(x, kids)
        return node

    def path_conjuncts(self, tr: Translated, n_agents: int
                       ) -> tuple[list[tuple], list[tuple]]:
        """The conjuncts of the path's constraint and of its envy goal, each
        paired with its replacements so far; worked out once per path."""
        if self._path is None or self._path[0] is not tr \
                or self._path[1] != n_agents:
            done = self.replaced.setdefault
            key = (tr.result, n_agents)
            goal = self.goals.get(key)
            if goal is None:
                goal = self.goals[key] = [
                    (c, done(c, {}))
                    for c in conjuncts(envy_formula(tr.result, n_agents))]
            self._path = (tr, n_agents, [(c, done(c, {}))
                                         for c in conjuncts(tr.constraint)],
                          goal)
        return self._path[2], self._path[3]

    def replace(self, s: Replacement, source: tuple) -> Formula:
        """`apply_replacement(s, c)`, interned, for a pair `(c, done)` that
        `path_conjuncts` returned."""
        c, done = source
        node = done.get(s.order)
        if node is None:
            node = done[s.order] = self.intern(apply_replacement(s, c))
        return node

    def side(self, s: Replacement, n_agents: int) -> list[Formula]:
        """The conjuncts of `order_formula(s, n_agents)`, interned."""
        key = (s.order, n_agents)
        side = self.sides.get(key)
        if side is None:
            side = self.sides[key] = [
                self.intern(f) for f in conjuncts(order_formula(s, n_agents))]
        return side

    def conj(self, items: list[Formula]) -> Formula:
        """The conjunction of interned `items`, shaped as `conj` shapes the
        conjunction of the conjuncts they replace."""
        if not items:
            return self.intern(TrueF())
        return items[0] if len(items) == 1 else AndF(tuple(items))


def build_vc(tr: Translated, s: Replacement, n_agents: int,
             table: Optional[VCTable] = None) -> VC:
    """The condition of one (path, replacement) pair: the premise replaces
    the constraint conjoined with `order_formula`, the goal replaces
    `envy_formula`.  Built through the run's `table`, or a new one."""
    table = table or VCTable()
    constraint, goal = table.path_conjuncts(tr, n_agents)
    premise = table.conj([table.replace(s, c) for c in constraint]
                         + table.side(s, n_agents))
    goal = table.conj([table.replace(s, c) for c in goal])
    vc = VC(premise, NotF(goal), s)
    object.__setattr__(vc, "table", table)
    return vc


# ---------------------------------------------------------------------------
# Replacement pruning
# ---------------------------------------------------------------------------

def ordering_facts(constraint: Formula) -> tuple[list[tuple], list[tuple]]:
    """Point-order facts conjunctively implied by a path constraint.

    Returns (non-strict, strict) lists of (lo, hi) element-key pairs.  Only
    top-level conjuncts whose sides are point atoms contribute.
    """
    nonstrict, strict = [], []
    for item in conjuncts(constraint):
        if isinstance(item, GeF):
            a, b = _point_key(item.right), _point_key(item.left)
            if a is not None and b is not None:
                nonstrict.append((a, b))          # right <= left
        elif isinstance(item, EqF):
            a, b = _point_key(item.left), _point_key(item.right)
            if a is not None and b is not None:
                nonstrict.append((a, b))
                nonstrict.append((b, a))
        elif isinstance(item, NotF) and isinstance(item.arg, GeF):
            a, b = _point_key(item.arg.left), _point_key(item.arg.right)
            if a is not None and b is not None:
                strict.append((a, b))             # not(left >= right): left < right
    return nonstrict, strict


def compatible_replacements(yids: Iterable[int], facts: tuple[list, list]
                            ) -> list[Replacement]:
    """Total orders consistent with the implied point ordering.

    The orders are the linear extensions of the reach preorder, built depth
    first: the next mark is any unplaced one whose predecessors are all
    placed, tried in increasing id order, so the orders come out
    lexicographically.  Non-strict facts admit ties; for a tied pair the
    order with the smaller mark id first stands in for both, which keeps
    exactly one witness order per tie pattern.  With no facts every order
    is kept.  An empty result means the constraint itself forces an
    impossible ordering, so every replacement's condition is vacuous.
    """
    yids = sorted(yids)
    nonstrict, strict = facts
    elems = [ZERO_KEY] + yids + [ONE_KEY]
    idx = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
        reach[0][i] = True           # 0 <= everything
        reach[i][n - 1] = True       # everything <= 1
    for a, b in nonstrict + strict:
        if a in idx and b in idx:
            reach[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row, rowk = reach[i], reach[k]
                for j in range(n):
                    if rowk[j]:
                        row[j] = True
    for a, b in strict:
        if a in idx and b in idx and reach[idx[b]][idx[a]]:
            return []  # a < b and b <= a together are unsatisfiable
    # y must come before x when y <= x, except that within a tie class
    # (x <= y too) only the smaller id comes first
    before = {x: {y for y in yids if y != x and reach[idx[y]][idx[x]]
                  and (y < x or not reach[idx[x]][idx[y]])} for x in yids}
    out: list[Replacement] = []
    _extend(yids, before, [], set(), out)
    return out


def _extend(yids: list[int], before: dict, order: list[int], placed: set,
            out: list[Replacement]) -> None:
    """Append to `out` every completion of the partial order `order` (whose
    marks are `placed`).  A module function, not a closure, so a call
    leaves no reference cycle behind."""
    if len(order) == len(yids):
        out.append(replacement_from_permutation(order))
        return
    for x in yids:
        if x not in placed and before[x] <= placed:
            order.append(x)
            placed.add(x)
            _extend(yids, before, order, placed, out)
            placed.remove(x)
            order.pop()


# ---------------------------------------------------------------------------
# Numeric evaluation of terms/formulas under a valuation set + assignment
# ---------------------------------------------------------------------------

def _piece_of_term(t: Term, assign: dict) -> list[tuple[Fraction, Fraction]]:
    if isinstance(t, IntervalT):
        lo = eval_term(t.lo, None, assign)
        hi = eval_term(t.hi, None, assign)
        return [] if hi < lo else [(lo, hi)]
    if isinstance(t, UnionT):
        out = []
        for iv in t.intervals:
            out.extend(_piece_of_term(iv, assign))
        return out
    raise LogicError(f"not a piece term: {t!r}")


def eval_term(t: Term, vs: Optional[ValuationSet], assign: dict):
    """Interpret a term, or a formula where a boolean stands; `assign` maps
    YVar/ZVar to rationals."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, (YVar, ZVar)):
        if t not in assign:
            raise LogicError(f"unassigned variable {t!r}")
        return assign[t]
    if isinstance(t, IntervalT):
        return IntervalVal(eval_term(t.lo, vs, assign),
                           eval_term(t.hi, vs, assign))
    if isinstance(t, UnionT):
        return PieceVal(tuple(
            IntervalVal(lo, hi) for lo, hi in _piece_of_term(t, assign)))
    if isinstance(t, TupleT):
        return TupleVal(tuple(eval_term(i, vs, assign) for i in t.items))
    if isinstance(t, ValT):
        if vs is None:
            raise LogicError("valuation term without a valuation set")
        merged = _piece_of_term(t.piece, assign)
        piece = PieceVal(tuple(IntervalVal(lo, hi) for lo, hi in merged))
        return val_eval(vs.agent(t.agent), piece)
    if isinstance(t, AddT):
        return eval_term(t.left, vs, assign) + eval_term(t.right, vs, assign)
    if isinstance(t, ScaleT):
        return t.coeff * eval_term(t.arg, vs, assign)
    if isinstance(t, Formula):
        return eval_formula(t, vs, assign)
    raise LogicError(f"cannot evaluate {t!r}")


def eval_formula(f: Formula, vs: Optional[ValuationSet], assign: dict) -> bool:
    if isinstance(f, TrueF):
        return True
    if isinstance(f, FalseF):
        return False
    if isinstance(f, GeF):
        return eval_term(f.left, vs, assign) >= eval_term(f.right, vs, assign)
    if isinstance(f, EqF):
        return eval_term(f.left, vs, assign) == eval_term(f.right, vs, assign)
    if isinstance(f, NotF):
        return not eval_formula(f.arg, vs, assign)
    if isinstance(f, AndF):
        return all(eval_formula(i, vs, assign) for i in f.items)
    if isinstance(f, OrF):
        return any(eval_formula(i, vs, assign) for i in f.items)
    raise LogicError(f"cannot evaluate {f!r}")

