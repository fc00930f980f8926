import json
import sys
from fractions import Fraction

import pytest

from slicev.interp import evaluate, check_envy_free
from slicev.logic import (
    ONE_KEY, YVar, ZVar, build_vc, replacement_from_permutation, translate,
)
from slicev.paths import enumerate_paths
from slicev.solver import (
    Counterexample, SolverProcess, VerifyConfig, check_query,
    default_solver_command, emit_smt, extract_valuation_set, parse_model,
    replay_counterexample, smt_name, verify_program,
)
from slicev.syntax import parse

from conftest import BAD_PROTOCOLS, load, load_source

F = Fraction

BUNDLED = [sys.executable, "-m", "slicev.smtlib"]


def cut_choose_vc(programs):
    tr = translate(next(enumerate_paths(programs["cut_choose"].body)).expr)
    return build_vc(tr, replacement_from_permutation([0]), 2)


# -- emission -----------------------------------------------------------------

def test_emit_declares_one_y_and_four_z(programs):
    script = emit_smt(cut_choose_vc(programs), 2)
    decls = [ln for ln in script.splitlines() if ln.startswith("(declare-const")]
    names = [ln.split()[1] for ln in decls]
    assert names.count("y0") == 1
    assert sorted(n for n in names if n.startswith("z")) == [
        "z1_one", "z1_y0", "z2_one", "z2_y0"]


def test_emit_uses_exact_rationals(programs):
    script = emit_smt(cut_choose_vc(programs), 2)
    assert "(/ 1 2)" in script
    assert "0.5" not in script
    assert "(set-logic QF_LRA)" in script


def test_variable_naming_deterministic():
    assert smt_name(YVar(3)) == "y3"
    assert smt_name(ZVar(2, 3)) == "z2_y3"
    assert smt_name(ZVar(1, ONE_KEY)) == "z1_one"


# -- solver process ---------------------------------------------------------------

def test_check_query_trivial_mappings():
    proc = SolverProcess(BUNDLED, timeout=20)
    try:
        verdict, model = check_query(proc, "(assert false)\n(check-sat)\n")
        assert verdict == "unsat" and model is None
        verdict, model = check_query(
            proc, "(declare-const q Real)\n(assert (= q (/ 1 3)))\n(check-sat)\n")
        assert verdict == "sat" and model == {"q": F(1, 3)}
    finally:
        proc.close()


def test_true_implication_is_valid(programs):
    # assert the negation of (true => true): solver must answer unsat
    proc = SolverProcess(BUNDLED, timeout=20)
    try:
        verdict, _ = check_query(proc, "(assert (not (=> true true)))\n(check-sat)\n")
        assert verdict == "unsat"
    finally:
        proc.close()


def test_timeout_maps_to_unknown():
    proc = SolverProcess([sys.executable, "-c",
                          "import time,sys; sys.stdin.read(1); time.sleep(60)"],
                         timeout=0.3)
    try:
        verdict, model = check_query(proc, "(check-sat)\n")
        assert verdict == "timeout" and model is None
    finally:
        proc.close()


def test_crashed_solver_gives_unknown_with_reason(programs):
    # a solver that dies on start prints a traceback instead of an answer
    command = [sys.executable, "-c", "import slicev_no_such_module"]
    res = verify_program(programs["cut_choose"], VerifyConfig(solver=command))
    assert res.verdict == "unknown"
    (unknown,) = res.unknowns
    assert " ".join(command) in unknown.reason
    assert "'Traceback (most recent call last):'" in unknown.reason
    assert "exit code 1" in unknown.reason


def test_silently_exiting_solver_gives_unknown_with_reason(programs):
    command = [sys.executable, "-c", "pass"]
    res = verify_program(programs["cut_choose"], VerifyConfig(solver=command))
    assert res.verdict == "unknown"
    (unknown,) = res.unknowns
    assert " ".join(command) in unknown.reason
    assert "first output line '(none)'" in unknown.reason
    assert "exit code 0" in unknown.reason


def test_model_parsing_variants():
    text = "((define-fun y0 () Real (/ 1 3)) (define-fun z1 () Real 0.25))"
    assert parse_model(text) == {"y0": F(1, 3), "z1": F(1, 4)}
    wrapped = "(model (define-fun a () Real (- (/ 1 2))))"
    assert parse_model(wrapped) == {"a": F(-1, 2)}


# -- counterexample extraction ----------------------------------------------------

def test_extraction_from_known_model():
    s = replacement_from_permutation([0])
    model = {"y0": F(1, 2), "z1_y0": F(1, 4), "z1_one": F(3, 4),
             "z2_y0": F(0), "z2_one": F(1, 2)}
    vs = extract_valuation_set(model, s, 2)
    assert vs.agent(1).support == ((F(1, 4), F(1, 2)), (F(3, 4), F(1)))
    assert vs.agent(2).support == ((F(0), F(1, 2)), (F(1, 2), F(1)))


def test_extraction_from_solver_model_is_easily_replaceable(bad_programs):
    # a model produced by an actual run satisfies the side formula, so the
    # extracted set passes the replaceability check on its point set
    program = bad_programs["cut_choose_cutter_chooses"]
    res = verify_program(program, VerifyConfig(solver=BUNDLED))
    ce = res.counterexample
    points = sorted({F(0), F(1), *ce.mark_table.values()})
    from slicev.valuation import easily_replaceable_check
    assert easily_replaceable_check(ce.valuations, points)


def test_extraction_drops_zero_windows():
    s = replacement_from_permutation([0])
    model = {"y0": F(1, 2), "z1_y0": F(1, 2), "z1_one": F(1, 2),
             "z2_y0": F(1, 2), "z2_one": F(1, 2)}
    vs = extract_valuation_set(model, s, 2)
    assert vs.agent(1).support == ((F(1, 2), F(1)),)


# -- verification verdicts ---------------------------------------------------------

def test_cut_choose_valid(programs):
    res = verify_program(programs["cut_choose"], VerifyConfig(solver=BUNDLED))
    assert res.verdict == "valid"
    assert res.stats.paths == 2 and res.stats.queries == 2


def test_all_to_agent_one_invalid():
    program = parse("agents 2;\n"
                    "let p1, p2 = split divide(cake, 1) in "
                    "(piece(p1), piece(p2))")
    res = verify_program(program, VerifyConfig(solver=BUNDLED))
    assert res.verdict == "invalid"
    ce = res.counterexample
    assert (ce.witness.envious, ce.witness.envied) == (2, 1)
    assert ce.witness.own_value == 0 and ce.witness.other_value == 1


def test_buggy_cut_choose_counterexample_replays(bad_programs):
    program = bad_programs["cut_choose_cutter_chooses"]
    res = verify_program(program, VerifyConfig(solver=BUNDLED))
    assert res.verdict == "invalid"
    ce = res.counterexample
    # independent replay: run the interpreter from the persisted pieces only
    run = evaluate(program.body, ce.valuations, replay=ce.mark_table)
    ok, witness = check_envy_free(run.value, ce.valuations)
    assert not ok
    assert witness.own_value < witness.other_value


def test_satisfying_model_denotes_the_replayed_value(bad_programs):
    # a model of a path constraint puts the interpreter on that very path,
    # and the run's value equals the result term under the model
    from slicev.core import unread
    from slicev.logic import term_to_value, YVar, simplify_term

    program = bad_programs["cut_choose_cutter_chooses"]
    res = verify_program(program, VerifyConfig(solver=BUNDLED))
    ce = res.counterexample
    path = [p for p in enumerate_paths(program.body)
            if p.index == ce.path_index][0]
    tr = translate(path.expr)
    assign = {YVar(k): v for k, v in ce.mark_table.items()}
    run = evaluate(program.body, ce.valuations, replay=ce.mark_table)
    assert term_to_value(simplify_term(tr.result), assign) == unread(run.value)


def test_verification_is_deterministic(bad_programs):
    program = bad_programs["scs_not_forced"]
    r1 = verify_program(program, VerifyConfig(solver=BUNDLED))
    r2 = verify_program(program, VerifyConfig(solver=BUNDLED))
    assert r1.verdict == r2.verdict == "invalid"
    assert r1.counterexample.path_index == r2.counterexample.path_index
    assert r1.counterexample.mark_table == r2.counterexample.mark_table


def test_parallel_matches_sequential(bad_programs):
    source = load_source(BAD_PROTOCOLS["scs_allocates_trimmings"])
    program = parse(source)
    seq = verify_program(program, VerifyConfig(solver=BUNDLED, jobs=1),
                         source=source)
    par = verify_program(program, VerifyConfig(solver=BUNDLED, jobs=2),
                         source=source)
    assert seq.verdict == par.verdict == "invalid"
    assert seq.counterexample.path_index == par.counterexample.path_index


def test_exhaustive_collects_more(bad_programs):
    program = bad_programs["cut_choose_swapped_branch"]
    res = verify_program(program, VerifyConfig(solver=BUNDLED, exhaustive=True))
    assert res.verdict == "invalid"
    assert len(res.counterexamples) >= 1


def test_ill_formed_protocol_rejected():
    from conftest import ILL_TYPED_SURPLUS
    program = load(ILL_TYPED_SURPLUS)
    from slicev.core import SliceError
    with pytest.raises(SliceError):
        verify_program(program, VerifyConfig(solver=BUNDLED))


def test_dump_smt_writes_scripts(tmp_path, programs):
    config = VerifyConfig(solver=BUNDLED, dump_dir=str(tmp_path))
    verify_program(programs["cut_choose"], config)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["path00000_order_0.smt2", "path00001_order_0.smt2"]
    text = (tmp_path / files[0]).read_text()
    assert text.startswith("; path 0")
    assert "(check-sat)" in text


def test_counterexample_json_roundtrip(bad_programs):
    program = bad_programs["surplus_unsafe_trim"]
    res = verify_program(program, VerifyConfig(solver=BUNDLED))
    ce = res.counterexample
    stored = Counterexample.from_json(json.loads(json.dumps(ce.to_json())))
    alloc, witness = replay_counterexample(program, stored)
    assert witness is not None
    assert witness.envious == ce.witness.envious
    assert witness.own_value == ce.witness.own_value


def test_default_solver_command_prefers_external(monkeypatch):
    monkeypatch.setenv("SLICEV_SOLVER", "my-solver --flag")
    assert default_solver_command() == ["my-solver", "--flag"]
    monkeypatch.delenv("SLICEV_SOLVER")
    cmd = default_solver_command()
    assert cmd[:1] in (["z3"], ["cvc5"]) or cmd[-2:] == ["-m", "slicev.smtlib"]
