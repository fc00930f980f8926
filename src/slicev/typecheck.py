"""Affine type system: no interval or piece can be consumed twice.

The checker is usage-driven: instead of guessing context splits it returns,
for every subexpression, the set of affine binders the subexpression
consumes, and rejects any overlap where the typing rules demand disjoint
contexts.  If-branches share one affine context, so a variable may appear in
both branches; unused affine variables are fine.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    BOOL, INTVL, PIECE, POINT, RD_INTVL, RD_PIECE, VLTN,
    OP_ADD, OP_AND, OP_EQ, OP_GE, OP_NOT, OP_OR, OP_SCALE,
    AssertE, Divide, EvalQ, Expr, If, Lit, Mark, Op, PieceE, PointVal,
    ReadVar, SliceError, SliceType, Split, TProduct, TupleE, Var,
    is_affine_type, is_disjoint, product_type, read_type, value_type, walk,
)
from .syntax import Program


class SliceTypeError(SliceError):
    pass


class UnboundVariable(SliceTypeError):
    pass


class AffineViolation(SliceTypeError):
    def __init__(self, name: str, sites: tuple[str, str]):
        super().__init__(
            f"affine variable {name!r} used more than once "
            f"(at {sites[0]!r} and {sites[1]!r})")
        self.name = name
        self.sites = sites


class ReadOnlyMisuse(SliceTypeError):
    pass


class ArityMismatch(SliceTypeError):
    pass


class OperatorSignatureMismatch(SliceTypeError):
    pass


@dataclass
class _Scope:
    plain: dict[str, SliceType]            # non-affine bindings
    twins: dict[str, SliceType]            # read-only twins, used via @name
    affine: dict[str, tuple[int, SliceType]]  # name -> (binder id, type)

    def child(self) -> "_Scope":
        return _Scope(dict(self.plain), dict(self.twins), dict(self.affine))


Uses = dict  # binder id -> source text of the use site


def _combine(*uses: Uses) -> Uses:
    out: Uses = {}
    for u in uses:
        for key, (name, site) in u.items():
            if key in out:
                raise AffineViolation(name, (out[key][1], site))
            out[key] = (name, site)
    return out


def product_components(t: SliceType) -> tuple[list[SliceType], list[SliceType]]:
    """View a type as a product: non-affine components, then affine ones."""
    if isinstance(t, TProduct):
        return list(t.nonaffine), list(t.affine)
    if is_affine_type(t):
        return [], [t]
    return [t], []


class _Checker:
    def __init__(self):
        self.fresh = 0

    def new_id(self) -> int:
        self.fresh += 1
        return self.fresh

    def check(self, e: Expr, scope: _Scope) -> tuple[SliceType, Uses]:
        if isinstance(e, Lit):
            return value_type(e.value), {}
        if isinstance(e, Var):
            if e.name in scope.affine:
                bid, t = scope.affine[e.name]
                return t, {bid: (e.name, e.name)}
            if e.name in scope.plain:
                return scope.plain[e.name], {}
            raise UnboundVariable(f"unbound variable {e.name!r}")
        if isinstance(e, ReadVar):
            if e.name not in scope.twins:
                raise UnboundVariable(f"no read-only binding @{e.name}")
            return scope.twins[e.name], {}
        if isinstance(e, TupleE):
            comps, uses = [], []
            for item in e.items:
                t, u = self.check(item, scope)
                comps.append(t)
                uses.append(u)
            t = product_type(comps)
            if t is None:
                raise SliceTypeError(
                    "tuple puts a non-affine component after an affine one")
            return t, _combine(*uses)
        if isinstance(e, Split):
            return self.check_split(e, scope)
        if isinstance(e, If):
            tg, ug = self.check(e.guard, scope)
            if tg != BOOL:
                raise SliceTypeError(f"if-guard has type {tg}, expected Bool")
            tt, ut = self.check(e.then, scope)
            te, ue = self.check(e.els, scope)
            if tt != te:
                raise SliceTypeError(
                    f"if-branches disagree: {tt} versus {te}")
            branch_uses = dict(ut)
            branch_uses.update(ue)  # branches share one affine context
            return tt, _combine(ug, branch_uses)
        if isinstance(e, AssertE):
            tg, ug = self.check(e.guard, scope)
            if tg != BOOL:
                raise SliceTypeError(f"assert-guard has type {tg}, expected Bool")
            tb, ub = self.check(e.body, scope)
            return tb, _combine(ug, ub)
        if isinstance(e, Op):
            return self.check_op(e, scope)
        if isinstance(e, Divide):
            t1, u1 = self.check(e.interval, scope)
            if t1 == RD_INTVL:
                raise ReadOnlyMisuse("divide applied to a read-only interval")
            if t1 != INTVL:
                raise SliceTypeError(f"divide expects Intvl, found {t1}")
            t2, u2 = self.check(e.point, scope)
            if t2 != POINT:
                raise SliceTypeError(f"divide point has type {t2}, expected Point")
            return TProduct((), (INTVL, INTVL)), _combine(u1, u2)
        if isinstance(e, PieceE):
            uses = []
            for item in e.items:
                t, u = self.check(item, scope)
                if t in (RD_INTVL, RD_PIECE):
                    raise ReadOnlyMisuse("piece applied to a read-only value")
                if t != INTVL:
                    raise SliceTypeError(f"piece expects Intvl, found {t}")
                uses.append(u)
            return PIECE, _combine(*uses)
        if isinstance(e, Mark):
            t1, u1 = self.check(e.interval, scope)
            if t1 != RD_INTVL:
                raise SliceTypeError(
                    f"mark queries a read-only interval, found {t1}")
            t2, u2 = self.check(e.target, scope)
            if t2 != VLTN:
                raise SliceTypeError(f"mark target has type {t2}, expected Vltn")
            return POINT, _combine(u1, u2)
        if isinstance(e, EvalQ):
            t, u = self.check(e.arg, scope)
            if t not in (RD_INTVL, RD_PIECE):
                raise SliceTypeError(
                    f"eval queries a read-only interval or piece, found {t}")
            return VLTN, u
        raise SliceError(f"unhandled expression {e!r}")

    def check_split(self, e: Split, scope: _Scope) -> tuple[SliceType, Uses]:
        ts, us = self.check(e.scrutinee, scope)
        nonaffine, affine = product_components(ts)
        if len(e.binders) != len(nonaffine) + len(affine):
            raise ArityMismatch(
                f"split binds {len(e.binders)} names but the scrutinee has "
                f"{len(nonaffine)} + {len(affine)} components")
        inner = scope.child()
        for name, t in zip(e.binders, nonaffine):
            inner.plain[name] = t
            inner.affine.pop(name, None)
            inner.twins.pop(name, None)
        local_ids = set()
        for name, t in zip(e.binders[len(nonaffine):], affine):
            bid = self.new_id()
            local_ids.add(bid)
            inner.affine[name] = (bid, t)
            inner.twins[name] = read_type(t)
            inner.plain.pop(name, None)
        tb, ub = self.check(e.body, inner)
        outer_uses = {k: v for k, v in ub.items() if k not in local_ids}
        return tb, _combine(us, outer_uses)

    def check_op(self, e: Op, scope: _Scope) -> tuple[SliceType, Uses]:
        arg_types, uses = [], []
        for a in e.args:
            t, u = self.check(a, scope)
            arg_types.append(t)
            uses.append(u)
        combined = _combine(*uses)
        op = e.op
        if op in (OP_AND, OP_OR):
            if arg_types != [BOOL, BOOL]:
                raise OperatorSignatureMismatch(
                    f"{op} expects Bool, Bool; found {arg_types}")
            return BOOL, combined
        if op == OP_NOT:
            if arg_types != [BOOL]:
                raise OperatorSignatureMismatch(
                    f"not expects Bool; found {arg_types}")
            return BOOL, combined
        if op == OP_GE:
            if arg_types == [POINT, POINT] or arg_types == [VLTN, VLTN]:
                return BOOL, combined
            raise OperatorSignatureMismatch(
                f">= compares two points or two valuations; found {arg_types}")
        if op == OP_EQ:
            if arg_types == [VLTN, VLTN]:
                return BOOL, combined
            raise OperatorSignatureMismatch(
                f"= compares two valuations; found {arg_types}")
        if op == OP_ADD:
            if arg_types == [VLTN, VLTN]:
                return VLTN, combined
            raise OperatorSignatureMismatch(
                f"+ adds two valuations; found {arg_types}")
        if op == OP_SCALE:
            if arg_types == [VLTN]:
                return VLTN, combined
            raise OperatorSignatureMismatch(
                f"constant multiplication applies to a valuation; found {arg_types}")
        raise OperatorSignatureMismatch(f"unknown operator {op!r}")


def typecheck(e: Expr) -> SliceType:
    """Type a closed expression or raise a SliceTypeError subclass."""
    t, _uses = _Checker().check(e, _Scope({}, {}, {}))
    return t


def allocation_type(n_agents: int) -> TProduct:
    return TProduct((), (PIECE,) * n_agents)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str

    def to_json(self) -> dict:
        return {"code": self.code, "message": self.message}


def check_wellformed(program: Program) -> list[Violation]:
    """Well-formedness for verification entry points.

    Closed and well-typed at Piece^agents, expression-disjoint, no point
    literals besides 0 and 1, unique mark identifiers.  Violations are
    returned as data, not raised.
    """
    e, n = program.body, program.agents
    out: list[Violation] = []
    ty = None
    try:
        ty = typecheck(e)
    except SliceTypeError as exc:
        out.append(Violation("ill-typed", str(exc)))
    if ty is not None and ty != allocation_type(n):
        out.append(Violation(
            "wrong-type",
            f"protocol has type {ty}, expected Piece^{n}"))
    if not is_disjoint(e):
        out.append(Violation("not-disjoint", "expression is not disjoint"))
    zero_one = (Fraction(0), Fraction(1))
    for node in walk(e):
        if isinstance(node, Lit) and isinstance(node.value, PointVal):
            if node.value.point not in zero_one:
                out.append(Violation(
                    "forbidden-point",
                    f"point constant {node.value.point} (only 0 and 1 allowed)"))
    ids = [node.mark_id for node in walk(e) if isinstance(node, Mark)]
    if None in ids:
        out.append(Violation("missing-mark-id", "mark without identifier"))
    elif len(set(ids)) != len(ids):
        out.append(Violation("duplicate-mark-id", "mark identifiers not unique"))
    return out
