"""Control-path enumeration: every if-then-else becomes an assert.

Paths stream lazily in a fixed order (true branch first, children left to
right with the leftmost varying slowest), so large path sets never need to
be materialized. `count_paths` computes the cardinality arithmetically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    OP_NOT,
    AssertE, Cake, Divide, EvalQ, Expr, If, Lit, Mark, Op, PieceE, ReadVar,
    SliceError, Split, TupleE, Var, AffVar, children,
)


@dataclass(frozen=True)
class Path:
    expr: Expr   # assert-form expression, no if nodes
    index: int


def _leaf(e: Expr) -> bool:
    return isinstance(e, (Lit, Var, AffVar, ReadVar, Cake))


def _rebuild(e: Expr, parts: list[Expr]) -> Expr:
    if isinstance(e, TupleE):
        return TupleE(tuple(parts))
    if isinstance(e, Split):
        return Split(e.binders, parts[0], parts[1])
    if isinstance(e, AssertE):
        return AssertE(parts[0], parts[1])
    if isinstance(e, Op):
        return Op(e.op, tuple(parts), e.coeff)
    if isinstance(e, Divide):
        return Divide(parts[0], parts[1])
    if isinstance(e, PieceE):
        return PieceE(tuple(parts))
    if isinstance(e, Mark):
        return Mark(e.agent, parts[0], parts[1], e.mark_id)
    if isinstance(e, EvalQ):
        return EvalQ(e.agent, parts[0])
    raise SliceError(f"cannot rebuild {e!r}")


def _stream(e: Expr) -> Iterator[Expr]:
    if _leaf(e):
        yield e
        return
    if isinstance(e, If):
        for bg in _stream(e.guard):
            for bt in _stream(e.then):
                yield AssertE(bg, bt)
        for bg in _stream(e.guard):
            for be in _stream(e.els):
                yield AssertE(Op(OP_NOT, (bg,)), be)
        return
    kids = children(e)

    def product(i: int, acc: list[Expr]) -> Iterator[Expr]:
        if i == len(kids):
            yield _rebuild(e, acc)
            return
        for b in _stream(kids[i]):
            yield from product(i + 1, acc + [b])

    yield from product(0, [])


def enumerate_paths(e: Expr) -> Iterator[Path]:
    """Stream B(e) in deterministic order with stable indices."""
    for i, b in enumerate(_stream(e)):
        yield Path(b, i)


def count_paths(e: Expr) -> int:
    if _leaf(e):
        return 1
    if isinstance(e, If):
        return count_paths(e.guard) * (count_paths(e.then) + count_paths(e.els))
    total = 1
    for c in children(e):
        total *= count_paths(c)
    return total


def select_path(e: Expr, decisions: dict) -> Expr:
    """The unique path consistent with a map from if ids to guard values."""
    if _leaf(e):
        return e
    if isinstance(e, If):
        if e.if_id not in decisions:
            raise SliceError(f"no decision recorded for if #{e.if_id}")
        guard = select_path(e.guard, decisions)
        if decisions[e.if_id]:
            return AssertE(guard, select_path(e.then, decisions))
        return AssertE(Op(OP_NOT, (guard,)),
                       select_path(e.els, decisions))
    kids = [select_path(c, decisions) for c in children(e)]
    return _rebuild(e, kids)


def path_index(e: Expr, decisions: dict) -> int:
    """Index the selected path would get in `enumerate_paths` order."""
    if _leaf(e):
        return 0
    if isinstance(e, If):
        g = path_index(e.guard, decisions)
        ng, nt, ne = (count_paths(e.guard), count_paths(e.then),
                      count_paths(e.els))
        if decisions[e.if_id]:
            return g * nt + path_index(e.then, decisions)
        return ng * nt + g * ne + path_index(e.els, decisions)
    kids = children(e)
    idx = 0
    for c in kids:
        idx = idx * count_paths(c) + path_index(c, decisions)
    return idx
