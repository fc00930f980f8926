"""The integer simplex (`slicev.lra.Simplex`) against the Fraction one it
replaced (`reference_lra.Simplex`).  On every query the verifier asks for
the protocols below, and on random formulas, both must give the same
answer, the same model, the same number of pivots and the same number of
slack rows: the two differ only in how rows, assignments and bounds are
stored (integers against `Fraction`s), so Bland's rule must pick the same
pivots."""

import random

import pytest

import reference_lra
from slicev import lra, smtlib
from slicev.logic import build_vc, translate
from slicev.paths import enumerate_paths
from slicev.solver import emit_smt, path_replacements

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, load
from test_lra import _rand_formula, lowest

# protocol -> whether mark orders are pruned, as in `slicev verify`
# (False is `--all-orders`)
PROTOCOLS = {
    "cut_choose": False,
    "surplus": False,
    "waste_makes_haste3": False,
    "selfridge_conway_surplus": True,
    **{name: True for name in BAD_PROTOCOLS},
}
# per query; no corpus query needs more than 50 pivots or 8-bit numerators
MAX_PIVOTS = 10_000
MAX_BITS = 1024


def small_triple(t) -> bool:
    """`t` is an int triple (r, k, d) in lowest terms, d > 0, with r and k
    within MAX_BITS."""
    return (lowest(t) and abs(t[0]).bit_length() <= MAX_BITS
            and abs(t[1]).bit_length() <= MAX_BITS)


def counting(simplex_cls, made: list):
    """`simplex_cls` that counts its pivots and checks its numbers after
    each; every instance made is appended to `made`."""

    class Counting(simplex_cls):
        def __init__(self):
            super().__init__()
            self.pivots = 0
            made.append(self)

        def _pivot(self, *args):
            # Bland's rule terminates and the numbers stay small; a broken
            # kernel may instead cycle or grow its numbers without bound.
            self.pivots += 1
            assert self.pivots <= MAX_PIVOTS, "pivot limit reached"
            super()._pivot(*args)
            assert all(c.numerator.bit_length() <= MAX_BITS
                       for row in self.rows.values() for c in row.values())
            if isinstance(self, lra.Simplex):
                assert all(small_triple(v) for v in self.assign)
                assert all(small_triple(v)
                           for b in (self.lower, self.upper)
                           for v in b if v is not None)

    return Counting


def solve(simplex_cls, names, assertions, monkeypatch):
    """`smtlib.check_assertions` on `simplex_cls`: (answer, model, pivots,
    slack rows)."""
    made = []
    monkeypatch.setattr(smtlib, "Simplex", counting(simplex_cls, made))
    answer, model = smtlib.check_assertions(names, assertions)
    (simplex,) = made
    return answer, model, simplex.pivots, len(simplex.slack_by_form)


def both(names, assertions, monkeypatch):
    got = solve(lra.Simplex, names, assertions, monkeypatch)
    want = solve(reference_lra.Simplex, names, assertions, monkeypatch)
    assert got == want
    return got


def queries(name, prune):
    """The query texts of `name` in the verifier's order, path by path."""
    path = GOOD_PROTOCOLS.get(name) or BAD_PROTOCOLS[name]
    program = load(path)
    for p in enumerate_paths(program.body):
        tr = translate(p.expr)
        replacements, _pruned = path_replacements(tr, prune)
        yield [emit_smt(build_vc(tr, s, program.agents), program.agents)
               for s in replacements]


def lowered(text):
    """(names, assertions) of one query text, as its `check-sat` sees them."""
    state = smtlib.SolverState()
    for cmd in smtlib.parse_sexprs(text):
        if cmd != ["check-sat"]:
            smtlib.run_command(state, cmd, None)
    return sorted(set().union(*state.declared)), state.all_assertions()


@pytest.mark.parametrize("name", sorted(PROTOCOLS))
def test_same_answers_models_and_pivots_on_corpus_queries(name, monkeypatch):
    answers = []
    for texts in queries(name, PROTOCOLS[name]):
        for text in texts:
            answers.append(both(*lowered(text), monkeypatch)[0])
        if "sat" in answers:    # the verifier stops at its first model
            break
    assert answers
    assert ("sat" in answers) == (name in BAD_PROTOCOLS)


def with_denominators(f, rng):
    """`f` with each atom coefficient divided by a random 1..6, so rows get
    denominators other than 1."""
    if f[0] == "atom":
        _k, op, coeffs, const = f
        return ("atom", op, {v: c / rng.randint(1, 6)
                             for v, c in coeffs.items()}, const)
    if f[0] == "not":
        return ("not", with_denominators(f[1], rng))
    return (f[0], [with_denominators(p, rng) for p in f[1]])


def test_same_answers_models_and_pivots_on_random_formulas(monkeypatch):
    rng = random.Random(101)
    pivots = 0
    for i in range(1000):
        names = ["a", "b", "c"][:rng.randint(2, 3)]
        fs = [_rand_formula(rng, names, rng.randint(1, 2))
              for _ in range(rng.randint(1, 3))]
        if i % 2:
            fs = [with_denominators(f, rng) for f in fs]
        pivots += both(names, fs, monkeypatch)[2]
    assert pivots > 0


@pytest.mark.parametrize("name, answer", [
    ("selfridge_conway_surplus", "unsat"),
    ("cut_choose_cutter_chooses", "sat"),
])
def test_check_leaves_only_int_triples(name, answer, monkeypatch):
    # Assignments and bounds stay int triples through `check`; a `Fraction`
    # there would quietly bring back the cost of the Fraction-pair engine.
    seen = []

    class Inspecting(counting(lra.Simplex, [])):
        def check(self):
            result = super().check()
            seen.extend([*self.assign, *self.lower, *self.upper])
            return result

    monkeypatch.setattr(smtlib, "Simplex", Inspecting)
    texts = (t for ts in queries(name, PROTOCOLS[name]) for t in ts)
    assert any(smtlib.check_assertions(*lowered(t))[0] == answer
               for t in texts)
    values = [v for v in seen if v is not None]
    assert values and all(lowest(v) for v in values)
    assert any(r or k for r, k, _d in values)
