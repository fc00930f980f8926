"""The if-free path a set of decisions selects, built directly from the
program.  The tests hold `paths.enumerate_paths`, `paths.path_index` and
`logic.translate_paths` against it: the path at a run's index, and the
translation of a run's path, are those of this expression."""

from __future__ import annotations

from slicev.core import (
    OP_NOT, AssertE, Expr, If, Op, SliceError, children, rebuild,
)


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
