"""Logical IR and the path-to-formula pipeline.

A path translates to a result term and a constraint formula; envy-freeness
of the result is an implication whose validity is checked per piecewise
uniform replacement (a total order on the path's mark variables).
Translation builds reduced terms, so after replacement every atom is linear
real arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Union

from .core import (
    OP_ADD, OP_AND, OP_EQ, OP_GE, OP_NOT, OP_OR, OP_SCALE,
    AssertE, AffVar, BoolVal, Cake, Divide, EvalQ, Expr, If, IntervalVal, Lit,
    Mark, Op, PieceE, PieceVal, PointVal, ReadOnlyVal, ReadVar, SliceError,
    Split, TupleE, TupleVal, Value, Var, VltnVal,
)
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
class BConst(Term):
    flag: bool


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
class ProjT(Term):
    index: int  # 1-based
    tup: Term


@dataclass(frozen=True)
class LeftT(Term):
    interval: Term


@dataclass(frozen=True)
class RightT(Term):
    interval: Term


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
class TruthF(Formula):
    """`t = true` for a boolean-sorted term t."""

    term: Term


@dataclass(frozen=True)
class NotF(Formula):
    arg: Formula


@dataclass(frozen=True)
class AndF(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class OrF(Formula):
    items: tuple[Formula, ...]


@dataclass(frozen=True)
class ImpF(Formula):
    premise: Formula
    conclusion: Formula


def proj(index: int, t: Term) -> Term:
    """The 1-based component of a tuple term, reduced when `t` is a tuple."""
    return t.items[index - 1] if isinstance(t, TupleT) else ProjT(index, t)


def left(t: Term) -> Term:
    """Left endpoint of an interval term, reduced when `t` is an interval."""
    return t.lo if isinstance(t, IntervalT) else LeftT(t)


def right(t: Term) -> Term:
    """Right endpoint of an interval term, reduced when `t` is an interval."""
    return t.hi if isinstance(t, IntervalT) else RightT(t)


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

def term_of_value(v: Value) -> Term:
    """Embed a runtime value as a term; read-only wrappers are dropped."""
    if isinstance(v, ReadOnlyVal):
        return term_of_value(v.inner)
    if isinstance(v, BoolVal):
        return BConst(v.flag)
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


def translate(path_expr: Expr) -> Translated:
    """Compute the result term and constraint of an if-free path.

    Split bindings substitute projections of the scrutinee's term for the
    bound variables, exactly like the logical substitution in the
    definition; an environment implements the substitution lazily.  The
    smart constructors `proj`, `left` and `right` reduce as they build and
    guards are lifted at once, so the result and the constraint come out
    already simplified: `simplify` leaves them unchanged.
    """
    marks: list[int] = []

    def go(e: Expr, env: dict) -> tuple[Term, list[Formula]]:
        if isinstance(e, Lit):
            return term_of_value(e.value), []
        if isinstance(e, (Var, AffVar)):
            if e.name not in env:
                raise LogicError(f"unbound variable {e.name!r} in path")
            return env[e.name], []
        if isinstance(e, ReadVar):
            if e.name not in env:
                raise LogicError(f"unbound read variable @{e.name} in path")
            return env[e.name], []
        if isinstance(e, Cake):
            return IntervalT(Const(Fraction(0)), Const(Fraction(1))), []
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


def envy_formula(alloc: Term, n_agents: int) -> Formula:
    """No agent values another's component above its own (all agent pairs)."""
    parts = [proj(a, alloc) for a in range(1, n_agents + 1)]
    return conj([GeF(ValT(a, parts[a - 1]), ValT(a, part))
                 for a in range(1, n_agents + 1) for part in parts])


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------

def simplify_term(t: Term) -> Term:
    """Normal form of a hand-built term; `translate` already produces it."""
    if isinstance(t, ProjT):
        return proj(t.index, simplify_term(t.tup))
    if isinstance(t, LeftT):
        return left(simplify_term(t.interval))
    if isinstance(t, RightT):
        return right(simplify_term(t.interval))
    if isinstance(t, IntervalT):
        return IntervalT(simplify_term(t.lo), simplify_term(t.hi))
    if isinstance(t, UnionT):
        return UnionT(tuple(simplify_term(i) for i in t.intervals))
    if isinstance(t, TupleT):
        return TupleT(tuple(simplify_term(i) for i in t.items))
    if isinstance(t, ValT):
        return ValT(t.agent, simplify_term(t.piece))
    if isinstance(t, AddT):
        return AddT(simplify_term(t.left), simplify_term(t.right))
    if isinstance(t, ScaleT):
        return ScaleT(t.coeff, simplify_term(t.arg))
    if isinstance(t, TAnd):
        return TAnd(simplify_term(t.left), simplify_term(t.right))
    if isinstance(t, TOr):
        return TOr(simplify_term(t.left), simplify_term(t.right))
    if isinstance(t, TNot):
        return TNot(simplify_term(t.arg))
    if isinstance(t, TGe):
        return TGe(simplify_term(t.left), simplify_term(t.right))
    if isinstance(t, TEq):
        return TEq(simplify_term(t.left), simplify_term(t.right))
    return t


def _lift(t: Term) -> Formula:
    """Turn a simplified boolean-sorted term into a formula."""
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
    if isinstance(t, BConst):
        return TrueF() if t.flag else FalseF()
    raise LogicError(f"not a boolean term: {t!r}")


def simplify(f: Union[Formula, Term]) -> Union[Formula, Term]:
    """Reduce projections and endpoint selectors; lift boolean terms."""
    if isinstance(f, Term):
        return simplify_term(f)
    if isinstance(f, TruthF):
        return _lift(simplify_term(f.term))
    if isinstance(f, GeF):
        return GeF(simplify_term(f.left), simplify_term(f.right))
    if isinstance(f, EqF):
        return EqF(simplify_term(f.left), simplify_term(f.right))
    if isinstance(f, NotF):
        return NotF(simplify(f.arg))
    if isinstance(f, AndF):
        return conj([simplify(i) for i in f.items])
    if isinstance(f, OrF):
        return OrF(tuple(simplify(i) for i in f.items))
    if isinstance(f, ImpF):
        return ImpF(simplify(f.premise), simplify(f.conclusion))
    if isinstance(f, (TrueF, FalseF)):
        return f
    raise LogicError(f"cannot simplify {f!r}")


def _formula_terms(f: Formula) -> Iterator[Term]:
    if isinstance(f, (GeF, EqF)):
        yield f.left
        yield f.right
    elif isinstance(f, TruthF):
        yield f.term
    elif isinstance(f, NotF):
        yield from _formula_terms(f.arg)
    elif isinstance(f, (AndF, OrF)):
        for i in f.items:
            yield from _formula_terms(i)
    elif isinstance(f, ImpF):
        yield from _formula_terms(f.premise)
        yield from _formula_terms(f.conclusion)


def _term_point_atoms(t: Term, out: set) -> None:
    if isinstance(t, (YVar, Const)):
        out.add(t)
    elif isinstance(t, IntervalT):
        _term_point_atoms(t.lo, out)
        _term_point_atoms(t.hi, out)
    elif isinstance(t, UnionT):
        for i in t.intervals:
            _term_point_atoms(i, out)
    elif isinstance(t, (TupleT,)):
        for i in t.items:
            _term_point_atoms(i, out)
    elif isinstance(t, ValT):
        _term_point_atoms(t.piece, out)
    elif isinstance(t, AddT):
        _term_point_atoms(t.left, out)
        _term_point_atoms(t.right, out)
    elif isinstance(t, ScaleT):
        _term_point_atoms(t.arg, out)
    elif isinstance(t, (TAnd, TOr, TGe, TEq)):
        _term_point_atoms(t.left, out)
        _term_point_atoms(t.right, out)
    elif isinstance(t, TNot):
        _term_point_atoms(t.arg, out)


def point_atoms(f: Union[Formula, Term]) -> set:
    """Point-sorted atoms (constants and mark variables) of a simplified
    formula or term; z-variables are real-sorted and excluded."""
    out: set = set()
    if isinstance(f, Term):
        _term_point_atoms(f, out)
        return out
    for t in _formula_terms(f):
        _term_point_atoms(t, out)
    return out


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

    @property
    def positions(self) -> dict:
        return {e: i for i, e in enumerate(self.order)}

    def describe(self) -> str:
        names = {ZERO_KEY: "0", ONE_KEY: "1"}
        return " < ".join(names.get(e, f"y{e}") for e in self.order)


def replacement_from_permutation(yids: Iterable[int]) -> Replacement:
    return Replacement((ZERO_KEY, *yids, ONE_KEY))


def enumerate_replacements(yids: Iterable[int]) -> Iterator[Replacement]:
    """All total orders of the mark variables strictly between 0 and 1."""
    for perm in itertools.permutations(sorted(yids)):
        yield replacement_from_permutation(perm)


def _point_key(t: Term) -> Union[int, str]:
    if isinstance(t, YVar):
        return t.mark_id
    if isinstance(t, Const):
        if t.value == 0:
            return ZERO_KEY
        if t.value == 1:
            return ONE_KEY
    raise PointAtomNotInS(f"point atom {t!r} outside the replacement order")


def _z_for(agent: int, element: Union[int, str]) -> ZVar:
    return ZVar(agent, ONE_KEY if element == ONE_KEY else element)


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
        part = AddT(_element_term(e), ScaleT(Fraction(-1), _z_for(agent, e)))
        total = part if total is None else AddT(total, part)
    return total


def apply_replacement(s: Replacement, f: Union[Formula, Term]
                      ) -> Union[Formula, Term]:
    """Rewrite valuation terms into sums (y - z_agent_y) over the order's
    windows; everything else is untouched."""
    if isinstance(f, Term):
        t = f
        if isinstance(t, ValT):
            return _window_sum(s, t.agent, t.piece)
        if isinstance(t, AddT):
            return AddT(apply_replacement(s, t.left),
                        apply_replacement(s, t.right))
        if isinstance(t, ScaleT):
            return ScaleT(t.coeff, apply_replacement(s, t.arg))
        return t
    if isinstance(f, GeF):
        return GeF(apply_replacement(s, f.left), apply_replacement(s, f.right))
    if isinstance(f, EqF):
        return EqF(apply_replacement(s, f.left), apply_replacement(s, f.right))
    if isinstance(f, NotF):
        return NotF(apply_replacement(s, f.arg))
    if isinstance(f, AndF):
        return AndF(tuple(apply_replacement(s, i) for i in f.items))
    if isinstance(f, OrF):
        return OrF(tuple(apply_replacement(s, i) for i in f.items))
    if isinstance(f, ImpF):
        return ImpF(apply_replacement(s, f.premise),
                    apply_replacement(s, f.conclusion))
    if isinstance(f, (TrueF, FalseF)):
        return f
    raise LogicError(f"cannot apply replacement to {f!r}")


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
            z = _z_for(a, e)
            y = _element_term(e)
            atoms.append(GeF(z, prev))
            atoms.append(GeF(y, z))
            prev = y
        atoms.append(GeF(one, prev))
        total: Optional[Term] = None
        for e in elems:
            part = AddT(_element_term(e), ScaleT(Fraction(-1), _z_for(a, e)))
            total = part if total is None else AddT(total, part)
        sums[a] = total
        atoms.append(NotF(GeF(zero, total)))  # strict positivity
    for a in range(1, n_agents + 1):
        for b in range(a + 1, n_agents + 1):
            atoms.append(EqF(sums[a], sums[b]))
    return conj(atoms)


def replacement_variables(s: Replacement, n_agents: int
                          ) -> tuple[list[YVar], list[ZVar]]:
    ys = [YVar(e) for e in s.order if e not in (ZERO_KEY, ONE_KEY)]
    zs = [_z_for(a, e) for a in range(1, n_agents + 1)
          for e in s.order if e != ZERO_KEY]
    return ys, zs


# ---------------------------------------------------------------------------
# Verification conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VC:
    """One (path, replacement) verification condition, fully linear."""

    formula: Formula          # S(R(c(b) /\ psi(S) => E(rho(b))))
    antecedent: Formula       # S(R(c(b))) /\ psi(S)
    negated_goal: Formula     # Not(S(R(E(rho(b)))))
    replacement: Replacement


def build_vc(tr: Translated, s: Replacement, n_agents: int) -> VC:
    side = order_formula(s, n_agents)
    premise = apply_replacement(s, conj([tr.constraint, side]))
    goal = apply_replacement(s, envy_formula(tr.result, n_agents))
    return VC(ImpF(premise, goal), premise, NotF(goal), s)


def is_linear_term(t: Term) -> bool:
    if isinstance(t, (Const, YVar, ZVar)):
        return True
    if isinstance(t, AddT):
        return is_linear_term(t.left) and is_linear_term(t.right)
    if isinstance(t, ScaleT):
        return is_linear_term(t.arg)
    return False


def is_linear(f: Formula) -> bool:
    """Every atom compares linear combinations of real variables."""
    if isinstance(f, (TrueF, FalseF)):
        return True
    if isinstance(f, (GeF, EqF)):
        return is_linear_term(f.left) and is_linear_term(f.right)
    if isinstance(f, NotF):
        return is_linear(f.arg)
    if isinstance(f, (AndF, OrF)):
        return all(is_linear(i) for i in f.items)
    if isinstance(f, ImpF):
        return is_linear(f.premise) and is_linear(f.conclusion)
    return False


# ---------------------------------------------------------------------------
# Replacement pruning
# ---------------------------------------------------------------------------

def ordering_facts(simplified_constraint: Formula
                   ) -> tuple[list[tuple], list[tuple]]:
    """Point-order facts conjunctively implied by a path constraint.

    Returns (non-strict, strict) lists of (lo, hi) element-key pairs.  Only
    top-level conjuncts whose sides are point atoms contribute.
    """
    nonstrict, strict = [], []

    def key(t: Term):
        try:
            return _point_key(t)
        except PointAtomNotInS:
            return None

    for item in conjuncts(simplified_constraint):
        if isinstance(item, GeF):
            a, b = key(item.right), key(item.left)
            if a is not None and b is not None:
                nonstrict.append((a, b))          # right <= left
        elif isinstance(item, EqF):
            a, b = key(item.left), key(item.right)
            if a is not None and b is not None:
                nonstrict.append((a, b))
                nonstrict.append((b, a))
        elif isinstance(item, NotF) and isinstance(item.arg, GeF):
            a, b = key(item.arg.left), key(item.arg.right)
            if a is not None and b is not None:
                strict.append((a, b))             # not(left >= right): left < right
    return nonstrict, strict


def compatible_replacements(yids: Iterable[int], facts: tuple[list, list]
                            ) -> list[Replacement]:
    """Total orders consistent with the implied point ordering.

    Non-strict facts admit ties; for a tied pair the order with the smaller
    mark id first stands in for both, which keeps exactly one witness order
    per tie pattern.  An empty result means the constraint itself forces an
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
    out = []
    for perm in itertools.permutations(yids):
        pos = {e: i for i, e in enumerate(perm)}
        ok = True
        for x, y in itertools.combinations(yids, 2):
            le = reach[idx[x]][idx[y]]
            ge = reach[idx[y]][idx[x]]
            if le and ge:
                want = pos[x] < pos[y] if x < y else pos[y] < pos[x]
            elif le:
                want = pos[x] < pos[y]
            elif ge:
                want = pos[y] < pos[x]
            else:
                continue
            if not want:
                ok = False
                break
        if ok:
            out.append(replacement_from_permutation(perm))
    return out


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
    """Interpret a term; `assign` maps YVar/ZVar to rationals."""
    if isinstance(t, Const):
        return t.value
    if isinstance(t, BConst):
        return t.flag
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
    if isinstance(t, ProjT):
        tup = eval_term(t.tup, vs, assign)
        return tup.items[t.index - 1]
    if isinstance(t, LeftT):
        return eval_term(t.interval, vs, assign).lo
    if isinstance(t, RightT):
        return eval_term(t.interval, vs, assign).hi
    if isinstance(t, ValT):
        if vs is None:
            raise LogicError("valuation term without a valuation set")
        merged = _piece_of_term(simplify_term(t.piece), assign)
        piece = PieceVal(tuple(IntervalVal(lo, hi) for lo, hi in merged))
        return val_eval(vs.agent(t.agent), piece)
    if isinstance(t, AddT):
        return eval_term(t.left, vs, assign) + eval_term(t.right, vs, assign)
    if isinstance(t, ScaleT):
        return t.coeff * eval_term(t.arg, vs, assign)
    if isinstance(t, TAnd):
        return eval_term(t.left, vs, assign) and eval_term(t.right, vs, assign)
    if isinstance(t, TOr):
        return eval_term(t.left, vs, assign) or eval_term(t.right, vs, assign)
    if isinstance(t, TNot):
        return not eval_term(t.arg, vs, assign)
    if isinstance(t, TGe):
        return eval_term(t.left, vs, assign) >= eval_term(t.right, vs, assign)
    if isinstance(t, TEq):
        return eval_term(t.left, vs, assign) == eval_term(t.right, vs, assign)
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
    if isinstance(f, TruthF):
        return bool(eval_term(f.term, vs, assign))
    if isinstance(f, NotF):
        return not eval_formula(f.arg, vs, assign)
    if isinstance(f, AndF):
        return all(eval_formula(i, vs, assign) for i in f.items)
    if isinstance(f, OrF):
        return any(eval_formula(i, vs, assign) for i in f.items)
    if isinstance(f, ImpF):
        return (not eval_formula(f.premise, vs, assign)
                or eval_formula(f.conclusion, vs, assign))
    raise LogicError(f"cannot evaluate {f!r}")


def term_to_value(t: Term, assign: dict) -> Value:
    """Reconstruct the runtime value a result term denotes."""
    t = simplify_term(t)
    if isinstance(t, BConst):
        return BoolVal(t.flag)
    if isinstance(t, Const):
        return PointVal(t.value)
    if isinstance(t, YVar):
        return PointVal(assign[t])
    if isinstance(t, IntervalT):
        return IntervalVal(eval_term(t.lo, None, assign),
                           eval_term(t.hi, None, assign))
    if isinstance(t, UnionT):
        return PieceVal(tuple(
            IntervalVal(eval_term(iv.lo, None, assign),
                        eval_term(iv.hi, None, assign))
            for iv in t.intervals))
    if isinstance(t, TupleT):
        return TupleVal(tuple(term_to_value(i, assign) for i in t.items))
    raise LogicError(f"no value form for {t!r}")
