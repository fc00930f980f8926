import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from slicev.core import (
    BOOL, INTVL, PIECE, POINT, RD_INTVL, RD_PIECE, VLTN,
    BoolVal, Expr, IntervalVal, PieceVal, PointVal, ReadOnlyVal, SliceError,
    SliceType, TBase, TProduct, TupleVal, VltnVal, children, interval_list,
    is_affine_type, is_disjoint, read, read_type, rebuild, unread, value_type,
    walk,
)
from slicev.paths import enumerate_paths
from slicev.syntax import parse

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, ILL_TYPED_SURPLUS, load

F = Fraction


def interval(a, b):
    return IntervalVal(F(a), F(b))


# -- read / unread -----------------------------------------------------------

def test_read_wraps_interval():
    assert read(interval(0, 1)) == ReadOnlyVal(interval(0, 1))


def test_read_fixes_nonaffine():
    assert read(BoolVal(True)) == BoolVal(True)
    assert read(PointVal(F(3))) == PointVal(F(3))


def test_read_componentwise():
    v = TupleVal((interval(0, "1/2"), PointVal(F(3))))
    assert read(v) == TupleVal((ReadOnlyVal(interval(0, "1/2")), PointVal(F(3))))


def test_unread_strips_wrapper():
    assert unread(ReadOnlyVal(interval(0, 1))) == interval(0, 1)


def test_unread_identity_on_points():
    assert unread(PointVal(F(7))) == PointVal(F(7))


def test_unread_componentwise():
    piece = PieceVal((interval(0, "1/3"),))
    v = TupleVal((ReadOnlyVal(piece), BoolVal(False)))
    assert unread(v) == TupleVal((piece, BoolVal(False)))


_rats = st.fractions(min_value=0, max_value=1, max_denominator=12)


def _as_product_order(vs):
    """Reorder tuple components non-affine first, as the product grammar
    demands."""
    from slicev.core import is_affine_type
    nonaffine = [v for v in vs if not is_affine_type(value_type(v))]
    affine = [v for v in vs if is_affine_type(value_type(v))]
    return TupleVal(tuple(nonaffine + affine))


@st.composite
def _values(draw, depth=2, allow_read_only=True):
    simple = [
        st.booleans().map(BoolVal),
        _rats.map(PointVal),
        st.tuples(_rats, _rats).map(
            lambda p: IntervalVal(min(p), max(p))),
        st.lists(st.tuples(_rats, _rats), min_size=1, max_size=3).map(
            lambda ps: PieceVal(tuple(IntervalVal(min(p), max(p)) for p in ps))),
    ]
    choices = list(simple)
    if depth > 0:
        choices.append(
            st.lists(_values(depth=depth - 1, allow_read_only=allow_read_only),
                     min_size=1, max_size=3).map(_as_product_order))
    v = draw(st.one_of(choices))
    if (allow_read_only and draw(st.booleans())
            and isinstance(v, (IntervalVal, PieceVal))):
        return ReadOnlyVal(v)
    return v


@given(_values(allow_read_only=False))
def test_unread_read_roundtrip(v):
    # on wrapper-free values (read's domain at binding sites) the two
    # operations cancel exactly
    assert unread(read(v)) == v


@given(_values())
def test_unread_read_equals_unread(v):
    assert unread(read(v)) == unread(v)


# -- interval lists ----------------------------------------------------------

def test_interval_list_of_piece():
    p = PieceVal((interval(0, "1/2"), interval("1/2", 1)))
    assert interval_list(p) == [interval(0, "1/2"), interval("1/2", 1)]


def test_interval_list_ignores_read_only():
    assert interval_list(ReadOnlyVal(interval(0, 1))) == []


def test_interval_list_of_cake_expression():
    assert interval_list(parse("agents 1;\ncake").body) == [interval(0, 1)]


@given(st.lists(_values(), min_size=1, max_size=4))
def test_interval_list_of_tuple_concatenates(vs):
    t = TupleVal(tuple(vs))
    expected = []
    for v in vs:
        expected.extend(interval_list(v))
    assert interval_list(t) == expected


def test_interval_list_ignores_valuation_values():
    v = VltnVal(((F(1), 1, interval(0, 1)),))
    assert interval_list(v) == []


# -- disjointness -------------------------------------------------------------

def test_shared_endpoint_is_disjoint():
    assert is_disjoint(TupleVal((interval(0, "1/2"), interval("1/2", 1))))


def test_positive_overlap_is_not_disjoint():
    assert not is_disjoint(TupleVal((interval(0, "3/5"), interval("1/2", 1))))


def test_cut_choose_source_is_disjoint(programs):
    body = programs["cut_choose"].body
    # independent brute-force oracle over the collected interval list
    ivs = interval_list(body)
    for i in range(len(ivs)):
        for j in range(i + 1, len(ivs)):
            lo = max(ivs[i].lo, ivs[j].lo)
            hi = min(ivs[i].hi, ivs[j].hi)
            assert lo >= hi, f"overlap between {ivs[i]} and {ivs[j]}"
    assert is_disjoint(body)


def test_double_cake_is_not_disjoint():
    e = parse("agents 1;\n(piece(cake), piece(cake))").body
    assert interval_list(e) == [interval(0, 1), interval(0, 1)]
    assert not is_disjoint(e)


# -- value typing -------------------------------------------------------------

def test_value_types_are_canonical():
    assert value_type(BoolVal(True)) == BOOL
    assert value_type(PointVal(F(1, 2))) == POINT
    assert value_type(interval(0, 1)) == INTVL
    assert value_type(PieceVal((interval(0, 1),))) == PIECE
    assert value_type(ReadOnlyVal(interval(0, 1))) == RD_INTVL
    assert value_type(ReadOnlyVal(PieceVal((interval(0, 1),)))) == RD_PIECE
    assert value_type(VltnVal(((F(1), 1, interval(0, 1)),))) == VLTN


def test_tuple_type_splits_nonaffine_prefix():
    v = TupleVal((BoolVal(True), interval(0, 1), interval(0, 1)))
    assert value_type(v) == TProduct((BOOL,), (INTVL, INTVL))


def test_tuple_with_affine_before_nonaffine_has_no_type():
    v = TupleVal((interval(0, 1), BoolVal(True)))
    with pytest.raises(SliceError):
        value_type(v)


@given(_values())
def test_every_value_has_exactly_one_type(v):
    # each value form matches exactly one typing rule, so the computed type
    # is unique and stable
    t1 = value_type(v)
    t2 = value_type(v)
    assert t1 == t2
    if isinstance(v, ReadOnlyVal):
        assert t1 in (RD_INTVL, RD_PIECE)


def test_base_types_are_values_of_one_class():
    bases = [BOOL, POINT, VLTN, RD_INTVL, RD_PIECE, INTVL, PIECE]
    assert set(SliceType.__subclasses__()) == {TBase, TProduct}
    assert all(type(t) is TBase for t in bases)
    assert [str(t) for t in bases] == [repr(t) for t in bases] == [
        "Bool", "Point", "Vltn", "RdIntvl", "RdPiece", "Intvl", "Piece"]
    assert [t for t in bases if is_affine_type(t)] == [INTVL, PIECE]
    assert [read_type(t) for t in bases] == [
        BOOL, POINT, VLTN, RD_INTVL, RD_PIECE, RD_INTVL, RD_PIECE]
    pair = TProduct((POINT,), (INTVL, PIECE))
    assert is_affine_type(pair)
    assert read_type(pair) == TProduct((POINT, RD_INTVL, RD_PIECE), ())


def test_malformed_interval_rejected():
    with pytest.raises(SliceError):
        IntervalVal(F(1), F(0))


# -- expression shapes --------------------------------------------------------

def test_children_and_rebuild_follow_the_dataclass_fields():
    files = [*GOOD_PROTOCOLS.values(), *BAD_PROTOCOLS.values(), ILL_TYPED_SURPLUS]
    assert len(files) == 13
    roots = []
    for path in files:
        body = load(path).body
        roots += [body, next(enumerate_paths(body)).expr]
    kinds = set()
    for e in (node for root in roots for node in walk(root)):
        kinds.add(type(e))
        fields = []
        for fld in dataclasses.fields(e):
            value = getattr(e, fld.name)
            fields += [v for v in (value if isinstance(value, tuple)
                                   else (value,)) if isinstance(v, Expr)]
        assert list(children(e)) == fields
        again = rebuild(e, children(e))
        assert again == e
        # compare=False: equality does not look at the ids
        assert getattr(again, "mark_id", None) == getattr(e, "mark_id", None)
        assert getattr(again, "if_id", None) == getattr(e, "if_id", None)
    assert kinds == set(Expr.__subclasses__())
    assert len(kinds) == 12
