"""Control-path enumeration: every if-then-else becomes an assert.

Paths stream lazily in a fixed order (true branch first, children left to
right with the leftmost varying slowest), so large path sets never need to
be materialized. `count_paths` computes the cardinality arithmetically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import OP_NOT, AssertE, Expr, If, Op, SliceError, children, rebuild


@dataclass(frozen=True)
class Path:
    expr: Expr   # assert-form expression, no if nodes
    index: int


def _stream(e: Expr) -> Iterator[Expr]:
    kids = children(e)
    if not kids:   # cheaper than the product generator below
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
    yield from _product(e, kids, [])


def _product(e: Expr, kids: tuple[Expr, ...], acc: list[Expr]
             ) -> Iterator[Expr]:
    """`e` rebuilt with each path of its remaining `kids` after `acc`, the
    paths chosen for the ones before.  A module function, not a closure, so
    a call leaves no reference cycle behind."""
    if len(acc) == len(kids):
        yield rebuild(e, acc)
        return
    for b in _stream(kids[len(acc)]):
        yield from _product(e, kids, acc + [b])


def enumerate_paths(e: Expr) -> Iterator[Path]:
    """Stream B(e) in deterministic order with stable indices."""
    for i, b in enumerate(_stream(e)):
        yield Path(b, i)


def count_paths(e: Expr) -> int:
    if isinstance(e, If):
        return count_paths(e.guard) * (count_paths(e.then) + count_paths(e.els))
    total = 1
    for c in children(e):
        total *= count_paths(c)
    return total


def select_path(e: Expr, decisions: dict) -> Expr:
    """The unique path consistent with a map from if ids to guard values."""
    if isinstance(e, If):
        if e.if_id not in decisions:
            raise SliceError(f"no decision recorded for if #{e.if_id}")
        guard = select_path(e.guard, decisions)
        if decisions[e.if_id]:
            return AssertE(guard, select_path(e.then, decisions))
        return AssertE(Op(OP_NOT, (guard,)),
                       select_path(e.els, decisions))
    kids = [select_path(c, decisions) for c in children(e)]
    return rebuild(e, kids)


def path_index(e: Expr, decisions: dict) -> int:
    """Index the selected path would get in `enumerate_paths` order."""
    return _locate(e, decisions)[0]


def _locate(e: Expr, decisions: dict) -> tuple[int, int]:
    """`path_index(e, decisions)` and `count_paths(e)`, in one pass."""
    if isinstance(e, If):
        g, ng = _locate(e.guard, decisions)
        if decisions[e.if_id]:
            t, nt = _locate(e.then, decisions)
            return g * nt + t, ng * (nt + count_paths(e.els))
        b, ne = _locate(e.els, decisions)
        nt = count_paths(e.then)
        return ng * nt + g * ne + b, ng * (nt + ne)
    idx, total = 0, 1
    for c in children(e):
        i, n = _locate(c, decisions)
        idx, total = idx * n + i, total * n
    return idx, total
