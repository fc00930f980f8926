import random

import pytest

from slicev.core import PIECE, TProduct, is_disjoint, value_type
from slicev.interp import evaluate
from slicev.syntax import parse, parse_expr
from slicev.typecheck import (
    AffineViolation, ArityMismatch, OperatorSignatureMismatch, ReadOnlyMisuse,
    SliceTypeError, UnboundVariable, allocation_type, check_wellformed,
    typecheck,
)

from conftest import ILL_TYPED_SURPLUS, load, random_pu_set


def test_cut_choose_type(programs):
    assert typecheck(programs["cut_choose"].body) == TProduct((), (PIECE, PIECE))


def test_fig_5a_surplus_rejected_on_p():
    program = load(ILL_TYPED_SURPLUS)
    with pytest.raises(AffineViolation) as err:
        typecheck(program.body)
    assert err.value.name == "p"


def test_fig_5b_surplus_accepted(programs):
    assert typecheck(programs["surplus"].body) == allocation_type(2)


def test_direct_double_use():
    e = parse_expr("let p = split cake in (piece(p), piece(p))")
    with pytest.raises(AffineViolation) as err:
        typecheck(e)
    assert err.value.name == "p"


def test_guard_cannot_consume_branch_variable():
    e = parse_expr(
        "let p = split cake in "
        "if eval[1](@p) >= eval[1](@p) then piece(p) else piece(p)")
    assert typecheck(e) == PIECE  # guard uses only the read-only twin


def test_branches_share_affine_context():
    e = parse_expr("let p = split cake in "
                   "if eval[1](@p) >= eval[2](@p) then piece(p) else piece(p)")
    assert typecheck(e) == PIECE


def test_unused_affine_variable_is_fine():
    e = parse_expr("let a, b = split divide(cake, 1) in piece(a)")
    assert typecheck(e) == PIECE


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        typecheck(parse_expr("piece(q)"))
    with pytest.raises(UnboundVariable):
        typecheck(parse_expr("eval[1](@q)"))


def test_read_only_twin_only_for_affine_binders():
    # m is a point (non-affine), so no @m twin exists
    e = parse_expr("let m = split mark[1](@cake, eval[1](@cake)) in eval[1](@m)")
    with pytest.raises(UnboundVariable):
        typecheck(e)


def test_divide_rejects_read_only():
    e = parse_expr("let p = split cake in (divide(@p, 1), piece(p))")
    with pytest.raises(ReadOnlyMisuse):
        typecheck(e)


def test_piece_rejects_read_only():
    e = parse_expr("let p = split cake in (piece(@p), piece(p))")
    with pytest.raises(ReadOnlyMisuse):
        typecheck(e)


def test_mark_requires_read_only_interval():
    e = parse_expr("mark[1](cake, eval[1](@cake))")
    with pytest.raises(SliceTypeError):
        typecheck(e)


def test_split_arity_mismatch():
    e = parse_expr("let a, b, c = split divide(cake, 1) in (a, b, c)")
    with pytest.raises(ArityMismatch):
        typecheck(e)


def test_operator_signature_mismatch():
    with pytest.raises(OperatorSignatureMismatch):
        typecheck(parse_expr("1 >= eval[1](@cake)"))
    with pytest.raises(OperatorSignatureMismatch):
        typecheck(parse_expr("true and 1"))
    with pytest.raises(OperatorSignatureMismatch):
        typecheck(parse_expr("1 + 1"))
    # the operand types print as their names
    with pytest.raises(OperatorSignatureMismatch) as err:
        typecheck(parse_expr("cake >= cake"))
    assert str(err.value) == (
        ">= compares two points or two valuations; found [Intvl, Intvl]")


def test_scale_applies_to_valuations_only():
    with pytest.raises(OperatorSignatureMismatch):
        typecheck(parse_expr("1/2 * 1"))
    assert typecheck(parse_expr("1/2 * eval[1](@cake)"))


# -- well-formedness -----------------------------------------------------------

def test_corpus_wellformed(programs):
    for name, program in programs.items():
        assert check_wellformed(program) == [], name


def test_wrong_result_type_flagged():
    program = parse("agents 2;\npiece(cake)")
    codes = [v.code for v in check_wellformed(program)]
    assert "wrong-type" in codes


def test_expression_disjointness_flagged():
    program = parse("agents 2;\n(piece(cake), piece(cake))")
    codes = [v.code for v in check_wellformed(program)]
    assert "not-disjoint" in codes


def test_ill_typed_reported_as_violation():
    program = load(ILL_TYPED_SURPLUS)
    codes = [v.code for v in check_wellformed(program)]
    assert "ill-typed" in codes


# -- runtime agreement (type soundness / disjointness) ---------------------------

def test_type_soundness_on_corpus(programs):
    rng = random.Random(11)
    for name, program in programs.items():
        static = typecheck(program.body)
        for _ in range(25):
            vs = random_pu_set(rng, program.agents)
            result = evaluate(program.body, vs)
            assert value_type(result.value) == static, name


def test_runtime_disjointness_on_corpus(programs):
    rng = random.Random(13)
    for name, program in programs.items():
        for _ in range(25):
            vs = random_pu_set(rng, program.agents)
            result = evaluate(program.body, vs)
            assert is_disjoint(result.value), name


def test_random_well_typed_swaps_never_flagged():
    # generated well-typed programs in the swap/stage idiom never trip the
    # affine checker: each affine variable occurs once per branch
    rng = random.Random(17)
    for _ in range(50):
        n_swaps = rng.randint(1, 3)
        lines = ["let a0, b0 = split divide(cake, mark[1](@cake, "
                 "1/2 * eval[1](@cake))) in"]
        cur = ("a0", "b0")
        for i in range(1, n_swaps + 1):
            x, y = cur
            a1, a2 = rng.randint(1, 2), rng.randint(1, 2)
            lines.append(
                f"let a{i}, b{i} = split (if eval[{a1}](@{x}) >= "
                f"eval[{a2}](@{y}) then ({x}, {y}) else ({y}, {x})) in")
            cur = (f"a{i}", f"b{i}")
        lines.append(f"(piece({cur[0]}), piece({cur[1]}))")
        e = parse_expr("\n".join(lines), agents=2)
        assert typecheck(e) == allocation_type(2)
