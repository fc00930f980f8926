"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Exact rational equality everywhere; the stated time
budgets are asserted.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from slicev.cli import random_pu_set
from slicev.core import PIECE, TProduct, is_disjoint, unread
from slicev.interp import check_envy_free, evaluate
from slicev.logic import (
    GeF, EqF, NotF, OrF, IntervalT, UnionT, ValT, YVar, Const,
    apply_replacement, build_vc, eval_formula, eval_term,
    simplify, translate,
)
from slicev.paths import count_paths, enumerate_paths
from slicev.solver import (
    SolverError, VerifyConfig, lower_formula, path_replacements,
    verify_program,
)
from slicev.syntax import parse
from slicev.typecheck import AffineViolation, allocation_type, typecheck
from slicev.valuation import (
    agrees_on, construct_agreeing_pu, easily_replaceable_check,
)

from conftest import (
    GOOD_PROTOCOLS, ILL_TYPED_SURPLUS, load, load_source, random_pl_set,
)
from reference_paths import select_path

F = Fraction
BUNDLED = [sys.executable, "-m", "slicev.smtlib"]

TABLE_PATHS = {
    "cut_choose": 2,
    "surplus": 2,
    "waste_makes_haste3": 24,
    "selfridge_conway_surplus": 216,
    "selfridge_conway_full": 1800,
}

VERIFY_BUDGETS = {
    "cut_choose": 10.0,
    "surplus": 10.0,
    "waste_makes_haste3": 60.0,
    "selfridge_conway_surplus": 300.0,
    "selfridge_conway_full": 1800.0,
}


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def verify_results(programs):
    """Verify every correct protocol once; criteria 3 and 10 share this."""
    results = {}
    for name, path in GOOD_PROTOCOLS.items():
        source = load_source(path)
        t0 = time.monotonic()
        res = verify_program(parse(source), VerifyConfig(solver=BUNDLED),
                             source=source)
        results[name] = (res, time.monotonic() - t0)
    return results


def test_criterion_1_typechecking(programs):
    t0 = time.monotonic()
    with pytest.raises(AffineViolation) as err:
        typecheck(load(ILL_TYPED_SURPLUS).body)
    ok = err.value.name == "p"
    ok &= typecheck(programs["surplus"].body) == TProduct((), (PIECE, PIECE))
    for name, program in programs.items():
        ok &= typecheck(program.body) == allocation_type(program.agents)
    elapsed = time.monotonic() - t0
    report("criterion 1 (typechecking)", ok and elapsed < 1.0,
           f"{elapsed:.3f}s; double-divide rejected on 'p', corpus accepted")


def test_criterion_2_path_counts(programs):
    got = {name: count_paths(program.body)
           for name, program in programs.items()}
    report("criterion 2 (path counts)", got == TABLE_PATHS, str(got))


def test_criterion_3_verification_verdicts(verify_results):
    ok = True
    details = []
    for name, (res, elapsed) in verify_results.items():
        ok &= res.verdict == "valid" and elapsed < VERIFY_BUDGETS[name]
        details.append(f"{name}={res.verdict}@{elapsed:.1f}s")
    report("criterion 3 (verification verdicts)", ok, ", ".join(details))


def test_criterion_4_counterexamples(bad_programs):
    t0 = time.monotonic()
    ok = True
    details = []
    for name, program in bad_programs.items():
        res = verify_program(program, VerifyConfig(solver=BUNDLED))
        invalid = res.verdict == "invalid"
        replays = False
        if invalid:
            ce = res.counterexample
            run = evaluate(program.body, ce.valuations, replay=ce.mark_table)
            envy_free, witness = check_envy_free(run.value, ce.valuations)
            replays = (not envy_free
                       and witness.own_value < witness.other_value)
        ok &= invalid and replays
        details.append(f"{name}:{res.verdict}")
    elapsed = time.monotonic() - t0
    report("criterion 4 (counterexamples replay)", ok and elapsed < 120.0,
           f"{elapsed:.1f}s; " + ", ".join(details))


def test_criterion_5_agreeing_construction():
    t0 = time.monotonic()
    rng = random.Random(501)
    ok = True
    for _ in range(200):
        vs = random_pl_set(rng, rng.randint(1, 3), max_segments=4)
        extra = sorted(F(rng.randint(1, 23), 24)
                       for _ in range(rng.randint(0, 4)))
        pts = sorted({F(0), F(1), *extra})  # |M| <= 6
        pu = construct_agreeing_pu(vs, pts)
        ok &= agrees_on(pu, vs, pts)          # exhaustive piece enumeration
        ok &= easily_replaceable_check(pu, pts)
        if not ok:
            break
    elapsed = time.monotonic() - t0
    report("criterion 5 (agreeing construction)", ok and elapsed < 60.0,
           f"200 sets, {elapsed:.1f}s")


def test_criterion_6_replacement_truth():
    from test_logic import _compatible_triple, y

    t0 = time.monotonic()
    rng = random.Random(601)
    ok = True
    for _ in range(500):
        s, assign, pu, n_agents, values = _compatible_triple(rng)
        k = len(values)
        pieces = [IntervalT(Const(F(0)), YVar(i)) for i in range(k)]
        pieces += [IntervalT(YVar(i), Const(F(1))) for i in range(k)]
        pieces.append(IntervalT(Const(F(0)), Const(F(1))))
        if k >= 2:
            pieces.append(UnionT((IntervalT(Const(F(0)), YVar(0)),
                                  IntervalT(YVar(1), Const(F(1))))))
        t1 = ValT(rng.randint(1, n_agents), rng.choice(pieces))
        t2 = ValT(rng.randint(1, n_agents), rng.choice(pieces))
        f = rng.choice([GeF(t1, t2), EqF(t1, t2), NotF(GeF(t1, t2)),
                        OrF((GeF(t1, t2), GeF(t2, t1)))])
        ok &= (eval_formula(f, pu, assign)
               == eval_formula(apply_replacement(s, f), pu, assign))
        if not ok:
            break
    elapsed = time.monotonic() - t0
    report("criterion 6 (replacement preserves truth)", ok and elapsed < 60.0,
           f"500 triples, {elapsed:.1f}s")


def test_criterion_7_replication(programs):
    t0 = time.monotonic()
    rng = random.Random(701)
    ok = True
    # 100 corpus runs re-evaluated under the agreeing set with replay
    for round_ in range(20):
        for name, program in programs.items():
            vs = random_pu_set(program.agents, rng)
            run = evaluate(program.body, vs)
            pts = sorted(run.trace.points | {F(0), F(1)})
            pu = construct_agreeing_pu(vs, pts)
            rerun = evaluate(program.body, pu, replay=run.trace.mark_answers)
            ok &= rerun.value == run.value
    # 200 random formulas keep their truth across the valuation swap
    for _ in range(200):
        vs = random_pl_set(rng, 2)
        k = rng.randint(1, 3)
        assign = {YVar(i): F(rng.randint(0, 12), 12) for i in range(k)}
        pieces = [IntervalT(Const(F(0)), YVar(i)) for i in range(k)]
        pieces += [IntervalT(YVar(i), Const(F(1))) for i in range(k)]
        t1 = ValT(rng.randint(1, 2), rng.choice(pieces))
        t2 = ValT(rng.randint(1, 2), rng.choice(pieces))
        f = rng.choice([GeF(t1, t2), EqF(t1, t2), NotF(GeF(t1, t2))])
        pts = sorted({F(0), F(1), *assign.values()})
        pu = construct_agreeing_pu(vs, pts)
        ok &= eval_formula(f, vs, assign) == eval_formula(f, pu, assign)
    elapsed = time.monotonic() - t0
    report("criterion 7 (replication)", ok and elapsed < 120.0,
           f"100 runs + 200 formulas, {elapsed:.1f}s")


def test_criterion_8_constraint_soundness(programs):
    t0 = time.monotonic()
    rng = random.Random(801)
    ok = True
    for name, program in programs.items():
        for _ in range(100):
            vs = random_pu_set(program.agents, rng)
            run = evaluate(program.body, vs)
            path_expr = select_path(program.body, dict(run.trace.branches))
            tr = translate(path_expr)
            assign = {YVar(k): v for k, v in run.trace.mark_answers.items()}
            ok &= eval_formula(simplify(tr.constraint), vs, assign)
            denoted = eval_term(simplify(tr.result), vs, assign)
            ok &= denoted == unread(run.value)
            if not ok:
                break
        if not ok:
            break
    elapsed = time.monotonic() - t0
    report("criterion 8 (constraint soundness)", ok and elapsed < 120.0,
           f"5 protocols x 100 runs, {elapsed:.1f}s")


def test_criterion_9_disjointness_fuzz(programs):
    t0 = time.monotonic()
    rng = random.Random(901)
    ok = True
    runs = 0
    while runs < 1000:
        for name, program in programs.items():
            vs = random_pu_set(program.agents, rng)
            result = evaluate(program.body, vs)
            ok &= is_disjoint(result.value)
            runs += 1
            if runs >= 1000:
                break
    elapsed = time.monotonic() - t0
    report("criterion 9 (disjointness fuzz)", ok and elapsed < 60.0,
           f"{runs} runs, {elapsed:.1f}s")


def test_criterion_10_linearity(programs, verify_results):
    t0 = time.monotonic()
    ok = True
    checked = 0
    for name, program in programs.items():
        for path in enumerate_paths(program.body):
            tr = translate(path.expr)
            replacements, _ = path_replacements(tr, prune=True)
            for s in replacements:
                vc = build_vc(tr, s, program.agents)
                try:
                    lower_formula(vc.antecedent)
                    lower_formula(vc.negated_goal)
                except SolverError:
                    ok = False
                checked += 1
    # the shared verify runs pushed every one of these scripts through the
    # solver; zero unknowns/errors means they were all accepted under QF_LRA
    for name, (res, _elapsed) in verify_results.items():
        ok &= res.verdict == "valid" and not res.unknowns
    elapsed = time.monotonic() - t0
    report("criterion 10 (linearity + solver acceptance)", ok,
           f"{checked} conditions scanned in {elapsed:.1f}s")
