import random
from fractions import Fraction

import pytest

from slicev.cli import random_pu_set
from slicev.core import (
    BoolVal, IntervalVal, PieceVal, PointVal, TupleVal, is_disjoint,
)
from slicev.interp import (
    DIVIDE_OUT_OF_RANGE, MARK_INFEASIBLE, MARK_REPLAY_MISMATCH, Stuck,
    check_envy_free, evaluate, vltn_value,
)
from slicev.syntax import parse_expr
from slicev.valuation import (
    PUValuation, Valuation, ValuationSet, construct_agreeing_pu, maxdens_set,
)

from reference_paths import select_path

F = Fraction


def uniform_pair():
    return ValuationSet([Valuation.uniform(), Valuation.uniform()])


def test_cut_choose_under_uniforms(programs):
    result = evaluate(programs["cut_choose"].body, uniform_pair())
    assert result.value == TupleVal((
        PieceVal((IntervalVal(F(1, 2), F(1)),)),
        PieceVal((IntervalVal(F(0), F(1, 2)),))))
    assert result.trace.mark_answers == {0: F(1, 2)}
    assert {F(0), F(1, 2), F(1)} <= result.trace.points


def test_symmetric_divide():
    e = parse_expr("divide(cake, mark[1](@cake, 1/2 * eval[1](@cake)))")
    result = evaluate(e, ValuationSet([Valuation.uniform()]))
    assert result.value == TupleVal((IntervalVal(F(0), F(1, 2)),
                                     IntervalVal(F(1, 2), F(1))))


def test_mark_target_above_one_gets_stuck():
    e = parse_expr("mark[1](@cake, 2 * eval[1](@cake))")
    with pytest.raises(Stuck) as err:
        evaluate(e, ValuationSet([Valuation.uniform()]))
    assert err.value.reason == MARK_INFEASIBLE


def test_divide_outside_interval_gets_stuck():
    e = parse_expr("divide([1/2, 1], 0)")
    with pytest.raises(Stuck) as err:
        evaluate(e, ValuationSet([Valuation.uniform()]))
    assert err.value.reason == DIVIDE_OUT_OF_RANGE


def test_ops_compute_on_unread_values():
    e = parse_expr("eval[1](@cake) >= eval[1](@cake)")
    assert evaluate(e, ValuationSet([Valuation.uniform()])).value == BoolVal(True)


def test_valuation_values_stay_symbolic():
    e = parse_expr("1/3 * eval[1](@cake) + eval[2](@cake)")
    vs = ValuationSet([Valuation.uniform(), Valuation.uniform()])
    v = evaluate(e, vs).value
    assert len(v.terms) == 2
    assert vltn_value(vs, v) == F(4, 3)


# -- envy checking ---------------------------------------------------------------

def test_empty_pieces_tie():
    alloc = TupleVal((PieceVal((IntervalVal(F(0), F(0)),)),
                      PieceVal((IntervalVal(F(1), F(1)),))))
    ok, witness = check_envy_free(alloc, uniform_pair())
    assert ok and witness is None


def test_everything_to_agent_one():
    alloc = TupleVal((PieceVal((IntervalVal(F(0), F(1)),)),
                      PieceVal((IntervalVal(F(1), F(1)),))))
    ok, witness = check_envy_free(alloc, uniform_pair())
    assert not ok
    assert (witness.envious, witness.envied) == (2, 1)
    assert witness.own_value == 0 and witness.other_value == 1


def test_cut_choose_fuzz_envy_free(programs):
    rng = random.Random(43)
    body = programs["cut_choose"].body
    for _ in range(200):
        vs = random_pu_set(2, rng)
        result = evaluate(body, vs)
        ok, witness = check_envy_free(result.value, vs)
        assert ok, witness


# -- traces, branch decisions, replay ----------------------------------------------

def test_trace_points_cover_intermediate_coordinates(programs):
    rng = random.Random(47)
    vs = random_pu_set(3, rng)
    result = evaluate(programs["waste_makes_haste3"].body, vs)
    pts = result.trace.points
    assert {F(0), F(1)} <= pts
    for r in result.trace.mark_answers.values():
        assert r in pts
    for piece in result.value.items:
        for iv in piece.intervals:
            assert iv.lo in pts and iv.hi in pts


def test_branch_decisions_select_the_taken_path(programs):
    rng = random.Random(53)
    for name in ("cut_choose", "surplus", "waste_makes_haste3"):
        body = programs[name].body
        for _ in range(10):
            vs = random_pu_set(programs[name].agents, rng)
            result = evaluate(body, vs)
            decisions = dict(result.trace.branches)
            path = select_path(body, decisions)
            replayed = evaluate(path, vs, replay=result.trace.mark_answers)
            assert replayed.value == result.value


def test_replay_overrides_leftmost_answer():
    e = parse_expr("mark[1](@cake, 1/2 * eval[1](@cake))")
    v = PUValuation([(F(0), F(1, 4)), (F(1, 2), F(3, 4))])
    vs = ValuationSet([v])
    default = evaluate(e, vs)
    assert default.value == PointVal(F(1, 4))  # leftmost answer
    # the same value is attained at 1/2 as well: replay pins that choice
    pinned = evaluate(e, vs, replay={0: F(1, 2)})
    assert pinned.value == PointVal(F(1, 2))


def test_replay_validity_check():
    e = parse_expr("mark[1](@cake, 1/2 * eval[1](@cake))")
    vs = ValuationSet([Valuation.uniform()])
    with pytest.raises(Stuck) as err:
        evaluate(e, vs, replay={0: F(1, 4)})
    assert err.value.reason == MARK_REPLAY_MISMATCH


# -- replication under the agreeing piecewise-uniform set -----------------------------

def test_replication_bit_exact(programs):
    rng = random.Random(59)
    for name, program in programs.items():
        for _ in range(5):
            vs = random_pu_set(program.agents, rng)
            run = evaluate(program.body, vs)
            pts = set(run.trace.points) | {F(0), F(1)}
            pu = construct_agreeing_pu(vs, pts, maxdens_set(vs, sorted(pts)))
            rerun = evaluate(program.body, pu, replay=run.trace.mark_answers)
            assert rerun.value == run.value, name


def test_runtime_disjointness_fuzz(programs):
    rng = random.Random(61)
    for name, program in programs.items():
        for _ in range(40):
            vs = random_pu_set(program.agents, rng)
            result = evaluate(program.body, vs)
            assert is_disjoint(result.value), name
