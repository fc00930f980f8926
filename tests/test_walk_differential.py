"""The shared walk (`slicev.interp.Walk`) against the two walks it replaced
(`reference_walks`).  In the term domain it must give `repr`-equal
translations of every corpus path and of every path of `BOOLEAN_GUARDS`; in
the value domain it must give the same runs: value, trace points, mark
answers, branch decisions and the reason of every stuck run.  Forking at each
`if`, one term walk of a whole program must give every path's translation,
in `enumerate_paths` order."""

import random
from fractions import Fraction

import pytest

import reference_walks
from slicev.cli import random_pu_set
from slicev.core import CAKE, AssertE, BoolVal, Lit, SliceError
from slicev.interp import (
    ASSERT_FAILED, DIVIDE_OUT_OF_RANGE, MARK_INFEASIBLE, MARK_REPLAY_MISMATCH,
    check_envy_free, evaluate,
)
from slicev.logic import translate, translate_paths
from slicev.paths import enumerate_paths, path_index
from slicev.solver import BUNDLED_SOLVER, VerifyConfig, verify_program
from slicev.syntax import parse, parse_expr
from slicev.typecheck import check_wellformed
from slicev.valuation import Valuation, ValuationSet

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, load
from reference_paths import select_path

# the twelve well-formed corpus protocols
PROTOCOLS = {**GOOD_PROTOCOLS, **BAD_PROTOCOLS}
CORPUS_PATHS = 4360
DRAWS = 40            # seeded valuation sets per protocol
ALL_PATHS_UP_TO = 24  # replay a draw on every path of protocols this small


@pytest.fixture(scope="module")
def protocols():
    return {name: load(path) for name, path in PROTOCOLS.items()}


def outcome(evaluate_fn, e, vs, replay=None) -> dict:
    """Everything a run shows: its value, trace and envy verdict, or the
    error it ended with (with the reason, for a stuck run)."""
    try:
        run = evaluate_fn(e, vs, replay)
    except SliceError as exc:
        return {"error": type(exc).__name__, "message": str(exc),
                "reason": getattr(exc, "reason", None)}
    try:
        envy = check_envy_free(run.value, vs)
    except SliceError:
        envy = None           # not an allocation
    return {"value": run.value, "points": run.trace.points,
            "marks": run.trace.mark_answers, "branches": run.trace.branches,
            "envy": envy}


def same_outcome(e, vs, replay=None):
    new = outcome(evaluate, e, vs, replay)
    assert new == outcome(reference_walks.evaluate, e, vs, replay)
    return new


def test_translate_matches_on_every_corpus_path(protocols):
    count = 0
    for name, program in protocols.items():
        for path in enumerate_paths(program.body):
            new = translate(path.expr)
            old = reference_walks.translate(path.expr)
            assert repr(new) == repr(old), (name, path.index)
            count += 1
    assert count == CORPUS_PATHS


def test_evaluate_matches_on_seeded_draws(protocols):
    rng = random.Random(1301)
    stuck = set()
    for name, program in protocols.items():
        paths = [p.expr for p in enumerate_paths(program.body)]
        paths = paths if len(paths) <= ALL_PATHS_UP_TO else []
        for _ in range(DRAWS):
            vs = random_pu_set(program.agents, rng)
            run = same_outcome(program.body, vs)
            if "error" in run:
                stuck.add(run["reason"])
                continue
            marks, branches = run["marks"], dict(run["branches"])
            same_outcome(select_path(program.body, branches), vs, marks)
            for path in paths:
                stuck.add(same_outcome(path, vs, marks).get("reason"))
    # replaying a draw on the paths it did not take fails their asserts
    assert ASSERT_FAILED in stuck


# Guards that no corpus protocol has: a boolean bound through `split` and
# used later, `true`/`false` literals, nested `not`/`and`/`or`, and an `if`
# inside a guard (after a mark of the guard, and with a mark in one branch)
# and inside `mark` and `divide` arguments.
BOOLEAN_GUARDS = {
    "split_bound": """agents 2;
let p = split cake in
let p1, p2 = split divide(p, mark[1](@p, 1/2 * eval[1](@p))) in
let prefers, q1, q2 = split (eval[2](@p1) >= eval[2](@p2), p1, p2) in
let tie = split eval[1](@q1) = eval[1](@q2) in
if prefers and tie then
  (piece(q2), piece(q1))
else
  assert not prefers or not tie in
  (piece(q1), piece(q2))
""",
    "literals": """agents 2;
let p = split cake in
assert true in
if false then
  let p1, p2 = split divide(p, mark[1](@p, 1/2 * eval[1](@p))) in
  (piece(p1), piece(p2))
else
  let p1, p2 = split divide(p, mark[2](@p, 1/2 * eval[2](@p))) in
  if true and eval[1](@p1) >= eval[1](@p2) then
    (piece(p1), piece(p2))
  else
    (piece(p2), piece(p1))
""",
    "nested": """agents 2;
let p = split cake in
let m1 = split mark[1](@p, 1/3 * eval[1](@p)) in
let m2 = split mark[2](@p, 1/2 * eval[2](@p)) in
if not (m1 >= m2 or not (m2 >= m1 and not false)) then
  let p1, p2 = split divide(p, m1) in
  (piece(p1), piece(p2))
else
  let p1, p2 = split divide(p, m2) in
  if (eval[1](@p1) >= eval[1](@p2) or false)
     and not (eval[2](@p1) = eval[2](@p2) and true) then
    (piece(p1), piece(p2))
  else
    (piece(p2), piece(p1))
""",
    "if_in_guard": """agents 2;
let p = split cake in
let m = split mark[1](@p, if eval[1](@p) = eval[2](@p) then 1/2 * eval[1](@p)
                          else 1/3 * eval[1](@p)) in
let p1, p2 = split divide(p, if m >= mark[2](@p, 1/2 * eval[2](@p)) then m
                             else mark[2](@p, 1/2 * eval[2](@p))) in
if mark[2](@p, 1/4 * eval[2](@p)) >= m
   and (if eval[2](@p1) >= eval[2](@p2) then eval[1](@p2) >= eval[1](@p1)
        else mark[1](@p, 1/4 * eval[1](@p)) >= m) then
  (piece(p2), piece(p1))
else
  if eval[2](@p1) >= eval[2](@p2) then (piece(p1), piece(p2))
  else (piece(p2), piece(p1))
""",
}


@pytest.mark.parametrize("name", sorted(BOOLEAN_GUARDS))
def test_walks_match_on_boolean_guards(name):
    program = parse(BOOLEAN_GUARDS[name])
    assert check_wellformed(program) == []
    paths = [p.expr for p in enumerate_paths(program.body)]
    for path in paths:
        assert repr(translate(path)) == repr(reference_walks.translate(path))
    rng = random.Random(1401)
    for _ in range(DRAWS):
        vs = random_pu_set(program.agents, rng)
        run = same_outcome(program.body, vs)
        if "error" not in run:
            for path in paths:
                same_outcome(path, vs, run["marks"])


class Consulted(dict):
    """A decisions map that records the if ids looked up in it."""

    def __init__(self, decisions):
        super().__init__(decisions)
        self.seen = set()

    def __getitem__(self, if_id):
        self.seen.add(if_id)
        return super().__getitem__(if_id)


def assert_walk_gives_every_path(body) -> int:
    """Each path the term walk of `body` yields is the translation of the
    path its decisions select, at that path's position, and its decisions
    name exactly the ifs on that path; returns the count."""
    leaves = translate_paths(body)
    count = 0
    for path, (tr, decisions) in zip(enumerate_paths(body), leaves):
        consulted = Consulted(decisions)
        selected = select_path(body, consulted)
        assert selected == path.expr, path.index
        assert consulted.seen == set(decisions), path.index
        assert path_index(body, decisions) == path.index
        alone = translate(selected)
        assert tr == alone and repr(tr) == repr(alone), path.index
        count += 1
    assert next(leaves, None) is None
    return count


def test_walk_gives_every_corpus_path_in_order(protocols):
    assert sum(assert_walk_gives_every_path(program.body)
               for program in protocols.values()) == CORPUS_PATHS


@pytest.mark.parametrize("name", sorted(BOOLEAN_GUARDS))
def test_walk_gives_every_path_of_boolean_guards_in_order(name):
    body = parse(BOOLEAN_GUARDS[name]).body
    assert assert_walk_gives_every_path(body) == sum(
        1 for _ in enumerate_paths(body))


def test_walk_forks_an_if_in_a_guard_in_path_order():
    # after the `mark` and `divide` arguments' four paths, the outer `if`
    # takes `then` with each path of its guard (the guard's `if` taking
    # `then` first), and only then `else`, which has two paths, with each
    T, F = True, False
    body = parse(BOOLEAN_GUARDS["if_in_guard"]).body
    outer = body.body.body.body
    pairs = [(decisions[outer.if_id], decisions[outer.guard.args[1].if_id])
             for _tr, decisions in translate_paths(body)]
    assert pairs == [(T, T), (T, F), (F, T), (F, T), (F, F), (F, F)] * 4


def test_evaluate_matches_on_counterexample_replays(protocols):
    for name in BAD_PROTOCOLS:
        program = protocols[name]
        res = verify_program(program, VerifyConfig(solver=BUNDLED_SOLVER))
        assert res.verdict == "invalid", name
        ce = res.counterexample
        run = same_outcome(program.body, ce.valuations, ce.mark_table)
        assert run["envy"] == (False, ce.witness), name


UNIFORM = ValuationSet([Valuation.uniform()])


@pytest.mark.parametrize("e, replay, reason", [
    (parse_expr("divide([1/2, 1], 0)"), None, DIVIDE_OUT_OF_RANGE),
    (parse_expr("mark[1](@cake, 2 * eval[1](@cake))"), None, MARK_INFEASIBLE),
    (parse_expr("mark[1](@cake, 1/2 * eval[1](@cake))"), {0: Fraction(1, 4)},
     MARK_REPLAY_MISMATCH),
    (AssertE(Lit(BoolVal(False)), Lit(CAKE)), None, ASSERT_FAILED),
], ids=["divide", "mark", "replay", "assert"])
def test_evaluate_matches_on_stuck_runs(e, replay, reason):
    assert same_outcome(e, UNIFORM, replay)["reason"] == reason
