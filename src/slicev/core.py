"""Core IR for Slice: expressions, runtime values, types, interval lists.

Everything here is immutable; rationals are exact (`fractions.Fraction`)
end to end. Floating point is never used in the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

Rational = Fraction


def rat(text: Union[str, int, Fraction]) -> Fraction:
    """Parse "p/q", a decimal string, or an int into an exact rational."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    return Fraction(text)


def format_rational(x: Fraction) -> str:
    """`x` as an SMT-LIB2 term: `5`, `(/ 1 2)` or `(- (/ 3 4))`."""
    if x < 0:
        return f"(- {format_rational(-x)})"
    if x.denominator == 1:
        return str(x.numerator)
    return f"(/ {x.numerator} {x.denominator})"


class SliceError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SliceType:
    pass


@dataclass(frozen=True, repr=False)
class TBase(SliceType):
    """A base type: one of the seven constants below, shown as its name."""

    name: str

    def __str__(self):
        return self.name

    __repr__ = __str__


@dataclass(frozen=True)
class TProduct(SliceType):
    """Product type; non-affine components always precede affine ones."""

    nonaffine: tuple[SliceType, ...]
    affine: tuple[SliceType, ...]

    def __str__(self):
        parts = [str(t) for t in self.nonaffine] + [str(t) for t in self.affine]
        return "(" + " * ".join(parts) + ")"


BOOL = TBase("Bool")
POINT = TBase("Point")
VLTN = TBase("Vltn")
RD_INTVL = TBase("RdIntvl")
RD_PIECE = TBase("RdPiece")
INTVL = TBase("Intvl")
PIECE = TBase("Piece")


def is_affine_type(t: SliceType) -> bool:
    return t in (INTVL, PIECE) or isinstance(t, TProduct)


def product_type(comps: Sequence[SliceType]) -> Optional[TProduct]:
    """The product of `comps`, or None when a non-affine component follows
    an affine one: the product grammar puts every non-affine one first."""
    k = next((i for i, t in enumerate(comps) if is_affine_type(t)), len(comps))
    if not all(map(is_affine_type, comps[k:])):
        return None
    return TProduct(tuple(comps[:k]), tuple(comps[k:]))


def read_type(t: SliceType) -> SliceType:
    """Read-only shadow of a type: Intvl -> RdIntvl, componentwise on products."""
    if isinstance(t, TProduct):
        comps = [read_type(c) for c in t.nonaffine + t.affine]
        return TProduct(tuple(comps), ())
    return {INTVL: RD_INTVL, PIECE: RD_PIECE}.get(t, t)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Value:
    pass


@dataclass(frozen=True)
class BoolVal(Value):
    flag: bool

    def __str__(self):
        return "true" if self.flag else "false"


@dataclass(frozen=True)
class PointVal(Value):
    point: Fraction

    def __str__(self):
        return str(self.point)


@dataclass(frozen=True)
class IntervalVal(Value):
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise SliceError(f"malformed interval [{self.lo}, {self.hi}]")

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


CAKE = IntervalVal(Fraction(0), Fraction(1))  # the value of `cake`


@dataclass(frozen=True)
class PieceVal(Value):
    # Component intervals are not assumed pairwise disjoint.
    intervals: tuple[IntervalVal, ...]

    def __str__(self):
        return "pc(" + ", ".join(str(i) for i in self.intervals) + ")"


@dataclass(frozen=True)
class VltnVal(Value):
    """Symbolic valuation value: sum of coeff * V_agent(target) terms."""

    terms: tuple[tuple[Fraction, int, Value], ...]  # (coeff, agent, Interval|Piece)

    def __str__(self):
        if not self.terms:
            return "0*V"
        return " + ".join(f"{c}*V{a}({p})" for c, a, p in self.terms)


@dataclass(frozen=True)
class TupleVal(Value):
    items: tuple[Value, ...]

    def __str__(self):
        return "(" + ", ".join(str(v) for v in self.items) + ")"


@dataclass(frozen=True)
class ReadOnlyVal(Value):
    inner: Value  # IntervalVal or PieceVal

    def __str__(self):
        return f"@{self.inner}"


def read(v: Value) -> Value:
    """Wrap intervals/pieces read-only; map tuples componentwise."""
    if isinstance(v, (IntervalVal, PieceVal)):
        return ReadOnlyVal(v)
    if isinstance(v, TupleVal):
        return TupleVal(tuple(read(item) for item in v.items))
    return v


def unread(v: Value) -> Value:
    """Strip read-only wrappers recursively; inverse of `read`."""
    if isinstance(v, ReadOnlyVal):
        return v.inner
    if isinstance(v, TupleVal):
        return TupleVal(tuple(unread(item) for item in v.items))
    return v


def value_type(v: Value) -> SliceType:
    """The unique type of a closed value."""
    if isinstance(v, BoolVal):
        return BOOL
    if isinstance(v, PointVal):
        return POINT
    if isinstance(v, IntervalVal):
        return INTVL
    if isinstance(v, PieceVal):
        return PIECE
    if isinstance(v, VltnVal):
        return VLTN
    if isinstance(v, ReadOnlyVal):
        return RD_INTVL if isinstance(v.inner, IntervalVal) else RD_PIECE
    if isinstance(v, TupleVal):
        t = product_type([value_type(item) for item in v.items])
        if t is None:
            raise SliceError(f"untypeable tuple value {v}")
        return t
    raise SliceError(f"not a value: {v!r}")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Lit(Expr):
    value: Value


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class ReadVar(Expr):
    name: str


@dataclass(frozen=True)
class TupleE(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Split(Expr):
    binders: tuple[str, ...]
    scrutinee: Expr
    body: Expr


@dataclass(frozen=True)
class If(Expr):
    guard: Expr
    then: Expr
    els: Expr
    if_id: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class AssertE(Expr):
    """Path-only form: `assert b1 in b2`."""

    guard: Expr
    body: Expr


# Operator tags.  `>=` compares two points or two valuations (resolved by
# type), `=` compares valuations, `scale` is constant multiplication r * e
# with the constant stored on the node.
OP_AND = "and"
OP_OR = "or"
OP_NOT = "not"
OP_GE = ">="
OP_EQ = "="
OP_ADD = "+"
OP_SCALE = "scale"


@dataclass(frozen=True)
class Op(Expr):
    op: str
    args: tuple[Expr, ...]
    coeff: Optional[Fraction] = None  # only for OP_SCALE


@dataclass(frozen=True)
class Divide(Expr):
    interval: Expr
    point: Expr


@dataclass(frozen=True)
class PieceE(Expr):
    items: tuple[Expr, ...]


@dataclass(frozen=True)
class Mark(Expr):
    agent: int
    interval: Expr
    target: Expr
    mark_id: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class EvalQ(Expr):
    agent: int
    arg: Expr


def children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Lit, Var, ReadVar)):
        return ()
    if isinstance(e, TupleE):
        return e.items
    if isinstance(e, Split):
        return (e.scrutinee, e.body)
    if isinstance(e, If):
        return (e.guard, e.then, e.els)
    if isinstance(e, AssertE):
        return (e.guard, e.body)
    if isinstance(e, Op):
        return e.args
    if isinstance(e, Divide):
        return (e.interval, e.point)
    if isinstance(e, PieceE):
        return e.items
    if isinstance(e, Mark):
        return (e.interval, e.target)
    if isinstance(e, EvalQ):
        return (e.arg,)
    raise SliceError(f"unknown expression {e!r}")


def rebuild(e: Expr, kids: Sequence[Expr]) -> Expr:
    """`e` with its `children` replaced by `kids`; every other field, mark
    and if ids included, is kept.  Leaves come back unchanged."""
    if isinstance(e, (Lit, Var, ReadVar)):
        return e
    if isinstance(e, TupleE):
        return TupleE(tuple(kids))
    if isinstance(e, Split):
        return Split(e.binders, kids[0], kids[1])
    if isinstance(e, If):
        return If(kids[0], kids[1], kids[2], e.if_id)
    if isinstance(e, AssertE):
        return AssertE(kids[0], kids[1])
    if isinstance(e, Op):
        return Op(e.op, tuple(kids), e.coeff)
    if isinstance(e, Divide):
        return Divide(kids[0], kids[1])
    if isinstance(e, PieceE):
        return PieceE(tuple(kids))
    if isinstance(e, Mark):
        return Mark(e.agent, kids[0], kids[1], e.mark_id)
    if isinstance(e, EvalQ):
        return EvalQ(e.agent, kids[0])
    raise SliceError(f"cannot rebuild {e!r}")


def walk(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal."""
    yield e
    for c in children(e):
        yield from walk(c)


# ---------------------------------------------------------------------------
# Interval lists and disjointness
# ---------------------------------------------------------------------------

def _value_interval_list(v: Value) -> list[IntervalVal]:
    if isinstance(v, IntervalVal):
        return [v]
    if isinstance(v, PieceVal):
        return list(v.intervals)
    if isinstance(v, TupleVal):
        out: list[IntervalVal] = []
        for item in v.items:
            out.extend(_value_interval_list(item))
        return out
    # Read-only wrappers, points, booleans, and valuation values contribute
    # nothing: they cannot flow into an allocation.
    return []


def interval_list(subject: Union[Value, Expr]) -> list[IntervalVal]:
    """I(v) / I(e): the intervals a value or expression can still allocate."""
    if isinstance(subject, Value):
        return _value_interval_list(subject)
    e = subject
    if isinstance(e, Lit):
        return _value_interval_list(e.value)
    if isinstance(e, (Var, ReadVar)):
        return []
    out: list[IntervalVal] = []
    for c in children(e):
        out.extend(interval_list(c))
    return out


def intervals_disjoint(a: IntervalVal, b: IntervalVal) -> bool:
    """True when the two intervals share at most boundary points."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    return lo >= hi


def is_disjoint(subject: Union[Value, Expr]) -> bool:
    ivs = interval_list(subject)
    for i in range(len(ivs)):
        for j in range(i + 1, len(ivs)):
            if not intervals_disjoint(ivs[i], ivs[j]):
                return False
    return True
