"""The linear-extension enumerator (`logic.compatible_replacements`) against
the permutation filter it replaced (`reference_orders`).  It must give the
same orders, in the same sequence, on every path of the twelve corpus
protocols, pruned and unpruned, and on random preorders; and a pruned
`verify_program` run must reach the verdict of a run over every order."""

from hypothesis import given, strategies as st

import reference_orders
from slicev.logic import ONE_KEY, ZERO_KEY, compatible_replacements, translate
from slicev.paths import enumerate_paths
from slicev.solver import (
    BUNDLED_SOLVER, VerifyConfig, path_replacements, verify_program,
)

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, load

# the twelve well-formed corpus protocols
PROTOCOLS = {**GOOD_PROTOCOLS, **BAD_PROTOCOLS}
CORPUS_PATHS = 4360


def test_same_orders_on_every_corpus_path():
    n_paths = 0
    for name, path_file in PROTOCOLS.items():
        for path in enumerate_paths(load(path_file).body):
            n_paths += 1
            tr = translate(path.expr)
            for prune in (True, False):
                kept, pruned = path_replacements(tr, prune)
                want = reference_orders.path_replacements(tr, prune)
                assert kept == want, (name, path.index, prune)
                if not prune:
                    assert pruned == 0
    assert n_paths == CORPUS_PATHS


@st.composite
def preorders(draw):
    """Mark ids and (non-strict, strict) facts over the marks, 0, 1 and a
    mark that is not on the path; ties, facts through 0 and 1 and
    contradictory strict facts all occur."""
    yids = draw(st.lists(st.integers(0, 9), max_size=6, unique=True))
    keys = st.sampled_from([*yids, ZERO_KEY, ONE_KEY, 10])
    pairs = st.lists(st.tuples(keys, keys), max_size=8)
    nonstrict = draw(pairs)
    strict = draw(st.lists(st.tuples(keys, keys), max_size=2))
    return yids, (nonstrict, strict)


@given(preorders())
def test_same_orders_on_random_preorders(case):
    yids, facts = case
    assert (compatible_replacements(yids, facts)
            == reference_orders.compatible_replacements(yids, facts))


def test_same_orders_on_hand_picked_preorders():
    cases = [
        ([0, 1, 2], ([(2, ZERO_KEY)], [])),          # y2 <= 0: a tie with 0
        ([0, 1, 2], ([(ONE_KEY, 0)], [])),           # 1 <= y0: a tie with 1
        ([0, 1, 2], ([(0, 1), (1, 2), (2, 0)], [])),  # one tie class
        ([0, 1, 2], ([(0, 1)], [(1, 0)])),           # contradictory strict
        ([0, 1], ([], [(ONE_KEY, ZERO_KEY)])),       # 1 < 0
        ([3, 1, 2], ([(3, 1)], [(2, 3)])),
    ]
    for yids, facts in cases:
        assert (compatible_replacements(yids, facts)
                == reference_orders.compatible_replacements(yids, facts))


def outcome(res) -> tuple:
    ce = res.counterexample
    return res.verdict, ce.path_index if ce else None


def test_pruned_and_all_orders_runs_agree():
    names = ["cut_choose", "surplus", "waste_makes_haste3",
             "selfridge_conway_surplus", *sorted(BAD_PROTOCOLS)]
    for name in names:
        program = load(PROTOCOLS[name])
        pruned, every = (outcome(verify_program(
            program, VerifyConfig(solver=BUNDLED_SOLVER, prune=prune)))
            for prune in (True, False))
        assert pruned == every, name
        assert pruned[0] == ("valid" if name in GOOD_PROTOCOLS
                             else "invalid"), name
