from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from slicev.core import (
    CAKE, Divide, EvalQ, If, IntervalVal, Lit, Mark, Op, PieceE, PointVal,
    Split, walk,
)
from slicev.syntax import (
    SliceSyntaxError, assign_mark_ids, mark_ids, parse, parse_expr, pretty,
    pretty_program,
)
from slicev.typecheck import check_wellformed

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, ILL_TYPED_SURPLUS


ALL_FILES = [*GOOD_PROTOCOLS.values(), *BAD_PROTOCOLS.values(),
             ILL_TYPED_SURPLUS]


def test_smallest_program():
    assert parse("agents 1;\ncake").body == Lit(CAKE)


def test_cake_is_the_literal_zero_one():
    cake, zero_one = parse("agents 1;\ncake"), parse("agents 1;\n[0, 1]")
    assert cake.body == zero_one.body == Lit(IntervalVal(Fraction(0),
                                                          Fraction(1)))
    assert pretty_program(cake) == "agents 1;\ncake\n"
    assert pretty_program(zero_one) == "agents 1;\ncake\n"


@pytest.mark.parametrize("path", ALL_FILES, ids=lambda p: Path(p).stem)
def test_corpus_roundtrip(path):
    program = parse(Path(path).read_text())
    assert parse(pretty_program(program)) == program


def test_cut_choose_shape(programs):
    body = programs["cut_choose"].body
    nodes = list(walk(body))
    splits_of_cake = [n for n in nodes
                      if isinstance(n, Split) and n.scrutinee == Lit(CAKE)]
    assert len(splits_of_cake) == 1
    assert sum(isinstance(n, Divide) for n in nodes) == 1
    assert sum(isinstance(n, Mark) for n in nodes) == 1
    assert sum(isinstance(n, EvalQ) for n in nodes) == 3
    assert sum(isinstance(n, If) for n in nodes) == 1


def test_syntax_error_carries_location():
    with pytest.raises(SliceSyntaxError) as err:
        parse("agents 2;\nlet p = split cake in\n(piece(p]")
    assert err.value.line == 3
    assert err.value.col >= 1


def test_duplicate_binders_rejected():
    with pytest.raises(SliceSyntaxError, match="duplicate binder"):
        parse("agents 1;\nlet a, a = split divide(cake, 1) in piece(a)")


def test_agent_index_out_of_range():
    with pytest.raises(SliceSyntaxError, match="out of range"):
        parse("agents 2;\neval[3](@cake)")
    with pytest.raises(SliceSyntaxError, match="out of range"):
        parse("agents 2;\neval[0](@cake)")


def test_parser_accepts_other_point_literals_wellformedness_rejects():
    program = parse("agents 1;\nlet a, b = split divide(cake, 1/3) in "
                    "(piece(a), piece(b))")
    assert Lit(PointVal(Fraction(1, 3))) in walk(program.body)
    codes = [v.code for v in check_wellformed(program)]
    assert "forbidden-point" in codes


def test_decimal_literals_are_exact():
    e = parse_expr("divide(cake, 0.25)")
    point = e.point
    assert point == Lit(PointVal(Fraction(1, 4)))


# -- mark identifier assignment ------------------------------------------------

def test_cut_choose_single_mark_id(programs):
    assert mark_ids(programs["cut_choose"].body) == [0]


def test_surplus_marks_preorder(programs):
    source = Path(GOOD_PROTOCOLS["surplus"]).read_text()
    assert source.count("mark[") == 2
    assert mark_ids(programs["surplus"].body) == [0, 1]


def test_no_marks_unchanged():
    e = parse_expr("(piece(cake), piece(cake))")
    assert assign_mark_ids(e) == e
    assert mark_ids(e) == []


def test_assignment_idempotent_and_deterministic(programs):
    body = programs["selfridge_conway_full"].body
    again = assign_mark_ids(body)
    assert mark_ids(again) == mark_ids(body)
    assert again == body


# -- generated round-trips -------------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "d"])
_rats = st.fractions(min_value=0, max_value=1, max_denominator=8)


@st.composite
def _exprs(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(
            st.just(Lit(CAKE)),
            _rats.map(lambda r: Lit(PointVal(r))),
            _names.map(lambda n: parse_expr(n)),
            _names.map(lambda n: parse_expr("@" + n)),
        ))
    sub = _exprs(depth=draw(st.integers(0, depth - 1)))
    choice = draw(st.integers(0, 6))
    if choice == 0:
        return Divide(draw(sub), draw(sub))
    if choice == 1:
        return PieceE(tuple(draw(st.lists(sub, min_size=1, max_size=3))))
    if choice == 2:
        return Mark(draw(st.integers(1, 3)), draw(sub), draw(sub))
    if choice == 3:
        return EvalQ(draw(st.integers(1, 3)), draw(sub))
    if choice == 4:
        return If(draw(sub), draw(sub), draw(sub))
    if choice == 5:
        op = draw(st.sampled_from(["and", "or", ">=", "=", "+"]))
        return Op(op, (draw(sub), draw(sub)))
    binders = draw(st.lists(_names, min_size=1, max_size=3, unique=True))
    return Split(tuple(binders), draw(sub), draw(sub))


@given(_exprs())
def test_generated_roundtrip(e):
    e = assign_mark_ids(e)
    assert assign_mark_ids(parse_expr(pretty(e))) == e
