import json
import random
from fractions import Fraction

import pytest

from slicev.cli import random_pu_set
from slicev.core import IntervalVal, PieceVal
from slicev.valuation import (
    DensityTooLow, PUValuation, Segment, TargetExceedsValue, Valuation,
    ValuationSet, agrees_on, construct_agreeing_pu, easily_replaceable_check,
    maxdens, maxdens_set, val_eval, val_mark, valuation_set_from_json,
    valuation_set_to_json,
)

from conftest import random_pl_set, random_piecewise_linear

F = Fraction
M2 = [F(0), F(1, 2), F(1)]


def density_2x() -> Valuation:
    return Valuation.from_density_points([(0, 0), (1, 2)])


def example_pair() -> ValuationSet:
    # one uniform agent, one with linearly increasing density
    return ValuationSet([Valuation.uniform(), density_2x()])


# -- eval ------------------------------------------------------------------

def test_uniform_normalization():
    assert val_eval(Valuation.uniform(), IntervalVal(F(0), F(1))) == 1


def test_increasing_density_halves():
    v = density_2x()
    assert v.eval_interval(F(0), F(1, 2)) == F(1, 4)
    assert v.eval_interval(F(1, 2), F(1)) == F(3, 4)


def test_agreeing_pu_reproduces_half_values():
    pu = construct_agreeing_pu(example_pair(), M2, F(3, 2))
    u2 = pu.agent(2)
    assert u2.eval_interval(F(0), F(1, 2)) == F(1, 4)
    assert u2.eval_interval(F(1, 2), F(1)) == F(3, 4)


def test_overlapping_piece_components_not_double_counted():
    p = PieceVal((IntervalVal(F(0), F(3, 4)), IntervalVal(F(1, 2), F(1))))
    assert val_eval(Valuation.uniform(), p) == 1


# -- mark ------------------------------------------------------------------

def test_uniform_mark_half():
    assert val_mark(Valuation.uniform(), 0, 1, F(1, 2)) == F(1, 2)


def test_increasing_density_mark_quarter():
    v = density_2x()
    r = val_mark(v, 0, 1, F(1, 4))
    assert r == F(1, 2)
    assert v.eval_interval(F(0), r) == F(1, 4)  # verified by val_eval


def test_mark_zero_target_leftmost():
    rng = random.Random(5)
    for _ in range(20):
        v = random_piecewise_linear(rng)
        assert val_mark(v, F(1, 8), F(7, 8), 0) == F(1, 8)


def test_mark_target_exceeds_value():
    with pytest.raises(TargetExceedsValue):
        val_mark(Valuation.uniform(), 0, F(1, 2), F(3, 4))


def test_pu_mark_skips_gaps():
    v = PUValuation([(F(0), F(1, 4)), (F(3, 4), F(1))])
    # half the mass sits in the first interval; the leftmost point reaching
    # it is that interval's right end
    assert val_mark(v, 0, 1, F(1, 2)) == F(1, 4)
    assert val_mark(v, 0, 1, F(3, 4)) == F(7, 8)


def test_mark_eval_inverse_property():
    rng = random.Random(7)
    for _ in range(40):
        v = random_pu_set(1, rng).agent(1)
        hi = F(rng.randint(1, 60), 60)
        total = v.eval_interval(F(0), hi)
        target = total * F(rng.randint(0, 4), 4)
        r = val_mark(v, 0, hi, target)
        assert v.eval_interval(F(0), r) == target


# -- maxdens -----------------------------------------------------------------

def test_maxdens_uniform():
    assert maxdens(Valuation.uniform(), M2) == 1


def test_maxdens_increasing_density():
    assert maxdens(density_2x(), M2) == F(3, 2)


def test_maxdens_concentrated_mass():
    v = Valuation([  # all mass on the left half
        Segment(F(0), F(1, 2), F(0), F(2)),
        Segment(F(1, 2), F(1), F(0), F(0)),
    ])
    assert maxdens(v, M2) == 2


# -- the agreeing piecewise-uniform construction --------------------------------

def test_agreeing_pu_example_supports():
    d = F(3, 2)
    pu = construct_agreeing_pu(example_pair(), M2, d)
    assert pu.agent(1).support == (
        (F(1, 2) - F(1, 2) / d, F(1, 2)), (1 - F(1, 2) / d, F(1)))
    assert pu.agent(2).support == (
        (F(1, 2) - F(1, 4) / d, F(1, 2)), (1 - F(3, 4) / d, F(1)))
    assert pu.agent(1).constant == d
    assert pu.agent(2).constant == d
    assert agrees_on(pu, example_pair(), M2)
    assert easily_replaceable_check(pu, M2)


def test_agreeing_pu_default_density_is_maxdens():
    vs = example_pair()
    pu = construct_agreeing_pu(vs, M2)
    assert pu.agent(1).constant == maxdens_set(vs, M2) == F(3, 2)


def test_density_too_low():
    with pytest.raises(DensityTooLow):
        construct_agreeing_pu(example_pair(), M2, F(1))


def test_pu_with_endpoints_in_m_agrees_with_itself():
    vs = ValuationSet([PUValuation([(F(0), F(1, 2))]),
                       PUValuation([(F(1, 2), F(1))])])
    pu = construct_agreeing_pu(vs, M2, F(2))
    assert agrees_on(pu, vs, M2)


# -- agreement check -----------------------------------------------------------

def test_agrees_on_reflexive():
    vs = example_pair()
    assert agrees_on(vs, vs, M2)


def test_agrees_on_detects_perturbation():
    vs = example_pair()
    pu = construct_agreeing_pu(vs, M2, F(3, 2))
    # shrink one support interval: the mass on [0,1/2] changes
    (a, b), rest = pu.agent(2).support[0], pu.agent(2).support[1]
    broken = ValuationSet([pu.agent(1),
                           PUValuation([(a + F(1, 100), b), rest])])
    assert not agrees_on(broken, vs, M2)


def test_agrees_on_checked_exhaustively():
    rng = random.Random(23)
    for _ in range(10):
        vs = random_pl_set(rng, 2)
        pts = sorted({F(0), F(1), *(F(rng.randint(1, 23), 24) for _ in range(3))})
        pu = construct_agreeing_pu(vs, pts)
        # enumerate every piece with boundaries in pts and compare exactly
        gaps = list(zip(pts, pts[1:]))
        for mask in range(1, 1 << len(gaps)):
            piece = PieceVal(tuple(
                IntervalVal(a, b)
                for i, (a, b) in enumerate(gaps) if mask >> i & 1))
            for a in range(1, 3):
                assert val_eval(pu.agent(a), piece) == val_eval(vs.agent(a), piece)


# -- easy replaceability ---------------------------------------------------------

def test_different_constants_fail():
    u = ValuationSet([PUValuation([(F(0), F(1, 2))]),
                      PUValuation([(F(0), F(1))])])
    assert not easily_replaceable_check(u, [F(0), F(1, 2), F(1)])


def test_wrong_right_endpoints_fail():
    u = ValuationSet([PUValuation([(F(0), F(1, 3))]),
                      PUValuation([(F(0), F(1, 3))])])
    assert not easily_replaceable_check(u, [F(0), F(1, 2), F(1)])


def test_interval_reaching_past_previous_point_fails():
    u = ValuationSet([PUValuation([(F(1, 4), F(1))])])  # spans over 1/2
    assert not easily_replaceable_check(u, [F(0), F(1, 2), F(1)])


# -- global invariants ------------------------------------------------------------

def test_normalization_additivity_monotonicity():
    rng = random.Random(31)
    for _ in range(30):
        v = (random_piecewise_linear(rng) if rng.random() < 0.5
             else random_pu_set(1, rng).agent(1))
        assert v.eval_interval(F(0), F(1)) == 1
        a, b, c = sorted(F(rng.randint(0, 24), 24) for _ in range(3))
        left = v.eval_interval(a, b)
        right = v.eval_interval(b, c)
        assert v.eval_interval(a, c) == left + right      # additivity
        assert left <= v.eval_interval(a, c)              # monotonicity


def test_construction_satisfies_agreement_and_replaceability():
    rng = random.Random(37)
    for _ in range(25):
        vs = random_pl_set(rng, rng.randint(1, 3))
        pts = sorted({F(0), F(1),
                      *(F(rng.randint(1, 23), 24) for _ in range(rng.randint(0, 4)))})
        pu = construct_agreeing_pu(vs, pts)
        assert agrees_on(pu, vs, pts)
        assert easily_replaceable_check(pu, pts)


# -- persistence --------------------------------------------------------------

def test_json_roundtrip():
    rng = random.Random(41)
    vs = ValuationSet([random_piecewise_linear(rng),
                       random_pu_set(1, rng).agent(1)])
    text = json.dumps(valuation_set_to_json(vs), indent=2)
    back = valuation_set_from_json(json.loads(text))
    assert back.n_agents == 2
    for a, b in zip(vs, back):
        for x in range(0, 25):
            q = F(x, 24)
            assert a.eval_interval(F(0), q) == b.eval_interval(F(0), q)
    assert '"1/2"' in json.dumps(valuation_set_to_json(
        ValuationSet([PUValuation([(F(0), F(1, 2))])]))) or "1/2" in text
