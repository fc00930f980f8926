import itertools
import random
from fractions import Fraction

import pytest

from slicev.cli import random_pu_set
from slicev.core import AssertE, If, Lit, PointVal, walk
from slicev.interp import Stuck, evaluate
from slicev.paths import count_paths, enumerate_paths, path_index
from slicev.syntax import parse_expr
from slicev.typecheck import typecheck

from reference_paths import select_path

F = Fraction

TABLE_COUNTS = {
    "cut_choose": 2,
    "surplus": 2,
    "waste_makes_haste3": 24,
    "selfridge_conway_surplus": 216,
    "selfridge_conway_full": 1800,
}


def test_value_literal_single_path():
    e = Lit(PointVal(F(0)))
    paths = list(enumerate_paths(e))
    assert len(paths) == 1 and paths[0].expr == e
    assert count_paths(e) == 1


@pytest.mark.parametrize("name,expected", sorted(TABLE_COUNTS.items()))
def test_corpus_path_counts(programs, name, expected):
    assert count_paths(programs[name].body) == expected


def test_counts_match_enumeration(programs):
    for name in ("cut_choose", "surplus", "waste_makes_haste3",
                 "selfridge_conway_surplus"):
        body = programs[name].body
        assert sum(1 for _ in enumerate_paths(body)) == count_paths(body)


def test_paths_contain_no_ifs(programs):
    for path in enumerate_paths(programs["waste_makes_haste3"].body):
        assert not any(isinstance(n, If) for n in walk(path.expr))
        assert any(isinstance(n, AssertE) for n in walk(path.expr))


def test_enumeration_is_lazy(programs):
    stream = enumerate_paths(programs["selfridge_conway_full"].body)
    first = next(stream)
    assert first.index == 0


def test_paths_retypecheck_at_program_type(programs):
    for name in ("cut_choose", "surplus", "waste_makes_haste3"):
        body = programs[name].body
        ty = typecheck(body)
        for path in enumerate_paths(body):
            assert typecheck(path.expr) == ty, name
    # sample for the big ones
    body = programs["selfridge_conway_full"].body
    ty = typecheck(body)
    for path in itertools.islice(enumerate_paths(body), 0, 1800, 173):
        assert typecheck(path.expr) == ty


def test_true_branch_enumerated_first():
    e = parse_expr("if true then 0 else 1")
    paths = list(enumerate_paths(e))
    assert paths[0].expr.body == Lit(PointVal(F(0)))
    assert paths[1].expr.body == Lit(PointVal(F(1)))


def test_exactly_one_path_evaluates(programs):
    rng = random.Random(67)
    for name in ("cut_choose", "surplus", "waste_makes_haste3"):
        program = programs[name]
        for _ in range(8):
            vs = random_pu_set(program.agents, rng)
            run = evaluate(program.body, vs)
            succeeded = []
            for path in enumerate_paths(program.body):
                try:
                    out = evaluate(path.expr, vs,
                                   replay=run.trace.mark_answers)
                except Stuck:
                    continue
                succeeded.append((path.index, out.value))
            assert len(succeeded) == 1, name
            index, value = succeeded[0]
            assert value == run.value


def test_select_path_matches_enumeration_order(programs):
    rng = random.Random(71)
    for name in ("waste_makes_haste3", "selfridge_conway_surplus"):
        program = programs[name]
        all_paths = {p.index: p.expr for p in enumerate_paths(program.body)}
        for _ in range(10):
            vs = random_pu_set(program.agents, rng)
            run = evaluate(program.body, vs)
            decisions = dict(run.trace.branches)
            chosen = select_path(program.body, decisions)
            idx = path_index(program.body, decisions)
            assert all_paths[idx] == chosen, name
