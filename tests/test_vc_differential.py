"""The run tables (`logic.VCTable`, and the lowered conjuncts a
`solver.BundledSolver` keeps) against the table-free pipeline they replaced
(`reference_vc`).  On every kept query of the twelve corpus protocols,
pruned and with every order (on a sample of the paths of the larger
protocols, `EVERY`), they must give `==` conditions and byte-identical query
text.  The bundled solver lowers the condition itself, with no text in
between; its variables must be the names the text declares, and its
assertions what `smtlib.SolverState` and the table-free
`reference_vc.ReferenceState` make of the text, down to the order of each
atom's coefficients.  A run's tables must not reach the next run: verifying
one protocol and then another in one process must give what a fresh
process gives for the second.

The bundled solver's table of cores is checked on the same queries: every
query it answers from a core must be `unsat` under the full search, which
keeps no cores, and the conjuncts of every core it stores must be unsat on
their own."""

import json
import os
import subprocess
import sys
from itertools import islice

import pytest

import reference_vc
from slicev import logic
from slicev.logic import VCTable, build_vc, translate_paths
from slicev.smtlib import SolverState, check_assertions, parse_sexprs
from slicev.solver import (
    BundledSolver, emit_smt, lower_formula, path_replacements,
)

from conftest import BAD_PROTOCOLS, CORPUS, GOOD_PROTOCOLS, REPO, load

PROTOCOLS = {**GOOD_PROTOCOLS, **BAD_PROTOCOLS}
# every how many paths of a protocol are checked, pruned / every order
EVERY = {True: {"selfridge_conway_full": 60, "scf_taker_cuts": 60},
         False: {"selfridge_conway_full": 360, "scf_taker_cuts": 360,
                 "selfridge_conway_surplus": 4,
                 "scs_allocates_trimmings": 4, "scs_not_forced": 4}}
QUERIES = {True: 820, False: 2214}


@pytest.fixture(scope="module")
def protocols():
    return {name: load(path) for name, path in PROTOCOLS.items()}


def kept_queries(name, program, prune):
    # the paths as `verify` gets them, from one forking walk
    paths = islice(translate_paths(program.body), 0, None,
                   EVERY[prune].get(name, 1))
    for tr, _decisions in paths:
        for s in path_replacements(tr, prune)[0]:
            yield tr, s


def lowered_text(text):
    """(declared names, assertions) of `text`, lowered by `SolverState`
    and by the table-free `ReferenceState`."""
    state, reference = SolverState(), reference_vc.ReferenceState()
    names, by_state, by_reference = [], [], []
    for cmd in parse_sexprs(text):
        if cmd[0] == "declare-const":
            state.declare(cmd[1])
            reference.declare(cmd[1])
            names.append(cmd[1])
        elif cmd[0] == "assert":
            by_state.append(state.formula(cmd[1]))
            by_reference.append(reference.formula(cmd[1]))
    return sorted(names), by_state, by_reference


@pytest.mark.parametrize("prune", [True, False],
                         ids=["pruned", "all_orders"])
def test_tables_match_the_table_free_pipeline(protocols, prune):
    queries = 0
    for name, program in protocols.items():
        n = program.agents
        table, bundled = VCTable(), BundledSolver()   # one run per protocol
        for tr, s in kept_queries(name, program, prune):
            vc = build_vc(tr, s, n, table)
            old = reference_vc.build_vc(tr, s, n)
            assert vc == old, (name, s.order)
            text = emit_smt(vc, n)
            assert text == reference_vc.emit_smt(old, n)
            names, by_state, by_reference = lowered_text(text)
            # repr: equal atoms, with their coefficients in the same order
            assert repr(by_state) == repr(by_reference), (name, s.order)
            assert repr(bundled.lower(vc, n)) == repr((names, by_state)), (
                name, s.order)
            queries += 1
    assert queries == QUERIES[prune]


def variables(f) -> set:
    """The names a lowered formula mentions."""
    if f in ("true", "false"):
        return set()
    if f[0] == "atom":
        return set(f[2])
    if f[0] == "not":
        return variables(f[1])
    return set().union(*map(variables, f[1]))


@pytest.mark.parametrize("prune", [True, False],
                         ids=["pruned", "all_orders"])
def test_answers_from_cores_hold_under_the_full_search(protocols, prune):
    from_cores = cores = 0
    for name, program in protocols.items():
        n = program.agents
        table, bundled = VCTable(), BundledSolver()   # one run per protocol
        for tr, s in kept_queries(name, program, prune):
            vc = build_vc(tr, s, n, table)
            cached = bundled.queries_from_cores
            answer = bundled.check(vc, n)
            full = check_assertions(*bundled.lower(vc, n))
            assert answer == full, (name, s.order)
            from_cores += bundled.queries_from_cores - cached
        for entries in bundled.cores.values():
            for _ids, conjuncts in entries:
                lowered = [lower_formula(c) for c in conjuncts]
                names = sorted(set().union(*map(variables, lowered)))
                assert check_assertions(names, lowered)[0] == "unsat", name
                cores += 1
    assert 0 < cores < from_cores


def test_equal_replaced_subtrees_are_one_object(protocols):
    program = protocols["selfridge_conway_surplus"]
    table = VCTable()
    vcs = [build_vc(tr, s, program.agents, table)
           for tr, s in islice(kept_queries("", program, True), 40)]
    seen = {}
    for vc in vcs:
        for item in (*vc.antecedent.items, *vc.negated_goal.arg.items):
            assert seen.setdefault(item, item) is item
    assert len(seen) < sum(len(vc.antecedent.items) for vc in vcs)


def test_each_envy_goal_is_built_once_per_result(protocols, monkeypatch):
    calls, envy_formula = [], logic.envy_formula

    def counted(*args):
        calls.append(args)
        return envy_formula(*args)

    monkeypatch.setattr(logic, "envy_formula", counted)
    program = protocols["selfridge_conway_surplus"]
    table, paths = VCTable(), 0
    for tr, _decisions in translate_paths(program.body):
        for s in path_replacements(tr, True)[0]:
            build_vc(tr, s, program.agents, table)
        paths += 1
    assert (paths, len(calls)) == (216, 18)


RUN = """
import json, sys
from slicev.syntax import parse
from slicev.solver import VerifyConfig, verify_program
for name in sys.argv[1:]:
    res = verify_program(parse(open(name).read()), VerifyConfig())
    s = res.stats
    print(json.dumps({
        "verdict": res.verdict,
        "counterexamples": [c.to_json() for c in res.counterexamples],
        "unknowns": [u.reason for u in res.unknowns],
        "stats": [s.paths, s.queries, s.orders_pruned]}))
"""


def verify_in_one_process(*files):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", RUN, *map(str, files)],
                         env=env, capture_output=True, text=True, check=True)
    return [json.loads(line) for line in out.stdout.splitlines()]


def test_a_run_leaves_nothing_for_the_next():
    a = CORPUS / "selfridge_conway_surplus.slice"
    b = CORPUS / "bad" / "scs_allocates_trimmings.slice"
    together = verify_in_one_process(a, b, a)
    assert together[1:] == verify_in_one_process(b) + verify_in_one_process(a)
    assert [r["verdict"] for r in together] == ["valid", "invalid", "valid"]
