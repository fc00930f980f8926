"""Pointwise validation: each run's own verification condition holds where
the run was.

A run of the interpreter under seeded piecewise-uniform valuations takes
one path and gives each of its marks an answer.  Take that path's
translation (from `translate_paths`, built through one `VCTable` per
protocol, as `verify` does) under every kept mark order the answers fit,
ties allowed.  With each `y` at its mark's answer and each `z` at the
window start `construct_agreeing_pu` builds (the paper's replication
theorem), the lowered antecedent must hold, and the lowered negated goal
must hold exactly when the run's allocation has envy.  An antecedent that
is too strong, or an order pruned although a run realises it, would make
queries vacuously unsat and a `valid` verdict hollow; both fail here.
This is translation validation (Pnueli, Siegel & Singerman, TACAS 1998):
each output of the translation is checked against the interpreter.
"""

import random

import pytest

from slicev.cli import random_pu_set
from slicev.interp import check_envy_free, evaluate
from slicev.logic import (
    ONE_KEY, ZERO_KEY, VCTable, YVar, ZVar, build_vc, translate_paths,
)
from slicev.solver import lower_formula, path_replacements, smt_name
from slicev.valuation import construct_agreeing_pu

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, load

DRAWS = 50     # seeded runs per protocol
SEED = 17


def holds(f, point: dict) -> bool:
    """A formula as `lower_formula` returns it, at `point` (SMT name ->
    value); an atom reads `sum coeff * name op const`."""
    if f in ("true", "false"):
        return f == "true"
    if f[0] == "atom":
        _atom, op, coeffs, const = f
        value = sum(c * point[name] for name, c in coeffs.items())
        return value >= const if op == ">=" else value == const
    if f[0] == "not":
        return not holds(f[1], point)
    items = (holds(item, point) for item in f[1])
    return all(items) if f[0] == "and" else any(items)


def agreeing_point(order: tuple, answers: dict, vs) -> dict:
    """Each `y` at its mark's answer and each `z_a_e` at the start of the
    window that ends at `e` in agent a's `construct_agreeing_pu` valuation
    (at `e` itself when `e` ties with the element before it)."""
    value = {ZERO_KEY: 0, ONE_KEY: 1, **answers}
    pu = construct_agreeing_pu(vs, value.values())
    point = {smt_name(YVar(mid)): answer for mid, answer in answers.items()}
    for a, agent in enumerate(pu, start=1):
        starts = {hi: lo for lo, hi in agent.support}
        for prev, e in zip(order, order[1:]):
            v = value[e]
            point[smt_name(ZVar(a, e))] = v if value[prev] == v else starts[v]
    return point


@pytest.mark.parametrize("protocol", [*GOOD_PROTOCOLS.values(),
                                      *BAD_PROTOCOLS.values()],
                         ids=lambda path: path.stem)
def test_each_run_satisfies_its_own_condition(protocol):
    program = load(protocol)
    rng = random.Random(SEED)
    runs = []
    for _ in range(DRAWS):
        vs = random_pu_set(program.agents, rng)
        runs.append((vs, evaluate(program.body, vs)))
    needed = {frozenset(dict(run.trace.branches).items()) for _vs, run in runs}
    translations = {}
    for tr, decisions in translate_paths(program.body):
        key = frozenset(decisions.items())
        if key in needed:
            translations[key] = tr
    table, envious = VCTable(), 0
    for draw, (vs, run) in enumerate(runs):
        tr = translations[frozenset(dict(run.trace.branches).items())]
        answers = run.trace.mark_answers
        assert sorted(answers) == sorted(tr.mark_ids), draw
        kept, _pruned = path_replacements(tr, prune=True)
        fitting = [s for s in kept
                   if all(answers[x] <= answers[y]
                          for x, y in zip(s.order[1:-2], s.order[2:-1]))]
        assert fitting, f"draw {draw}: no kept order fits {answers}"
        envy = not check_envy_free(run.value, vs)[0]
        envious += envy
        for s in fitting:
            vc = build_vc(tr, s, program.agents, table)
            point = agreeing_point(s.order, answers, vs)
            where = f"draw {draw}, order {s.describe()}"
            assert holds(lower_formula(vc.antecedent), point), where
            assert holds(lower_formula(vc.negated_goal), point) == envy, where
    if protocol in GOOD_PROTOCOLS.values():
        assert envious == 0
