import dataclasses
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from slicev.interp import evaluate, check_envy_free
from slicev.logic import (
    ONE_KEY, VC, AddT, AndF, Const, EqF, FalseF, GeF, IntervalT, NotF, OrF,
    TrueF, TupleT, ValT, YVar, ZVar, build_vc, replacement_from_permutation,
    translate, translate_paths,
)
from slicev.paths import enumerate_paths, path_index
from slicev import smtlib, solver
from slicev.solver import (
    BundledSolver, Counterexample, SolverDied, SolverError, SolverProcess,
    VerifyConfig, _confirm, check_query, default_solver_command, emit_smt,
    lower_formula, parse_model, path_replacements, smt_name, start_solver,
    verify_program,
)
from slicev.syntax import parse

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, REPO, load, load_source

F = Fraction

# The bundled solver runs in process under its own command and as a child
# process under any other.
BUNDLED = [sys.executable, "-m", "slicev.smtlib"]
SUBPROCESS = [sys.executable, "-u", "-m", "slicev.smtlib"]


def cut_choose_vc(programs):
    tr = translate(next(enumerate_paths(programs["cut_choose"].body)).expr)
    return build_vc(tr, replacement_from_permutation([0]), 2)


def hand_built_vc(antecedent, negated_goal=TrueF()):
    """A condition over one mark, `y0`, and one agent: its variables are
    `y0`, `z1_y0` and `z1_one`."""
    return VC(antecedent, negated_goal, replacement_from_permutation([0]))


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


def test_emit_rejects_nonlinear_nodes(programs):
    vc = cut_choose_vc(programs)
    piece = IntervalT(Const(F(0)), YVar(0))
    nonlinear = [GeF(ValT(1, piece), YVar(0)), EqF(piece, piece),
                 EqF(GeF(YVar(0), Const(F(0))), TrueF()),
                 GeF(TupleT((YVar(0),)), YVar(0))]
    for atom in nonlinear:
        for side in ("antecedent", "negated_goal"):
            broken = dataclasses.replace(
                vc, **{side: AndF((getattr(vc, side), atom))})
            with pytest.raises(SolverError):
                emit_smt(broken, 2)
        with pytest.raises(SolverError):
            lower_formula(atom)


def test_variable_naming_deterministic():
    assert smt_name(YVar(3)) == "y3"
    assert smt_name(ZVar(2, 3)) == "z2_y3"
    assert smt_name(ZVar(1, ONE_KEY)) == "z1_one"


# -- solver process ---------------------------------------------------------------

def test_check_query_trivial_mappings():
    # the child process gets the query text, the bundled solver the VC
    third = Const(F(1, 3))
    sat = hand_built_vc(AndF((EqF(YVar(0), third),
                              EqF(ZVar(1, 0), AddT(YVar(0), Const(F(-1))))
                              )))
    for command, backend in ((BUNDLED, BundledSolver),
                             (SUBPROCESS, SolverProcess)):
        proc = start_solver(VerifyConfig(solver=command, timeout=20))
        assert type(proc) is backend
        try:
            vc = hand_built_vc(FalseF())
            verdict, model = check_query(proc, emit_smt(vc, 1), vc, 1)
            assert verdict == "unsat" and model is None
            verdict, model = check_query(proc, emit_smt(sat, 1), sat, 1)
            assert verdict == "sat"
            assert model["y0"] == F(1, 3) and model["z1_y0"] == F(-2, 3)
            assert set(model) == {"y0", "z1_y0", "z1_one"}
            assert all(type(v) is F for v in model.values())
        finally:
            proc.close()


def test_true_implication_is_valid():
    # assert the negation of (true => true): solver must answer unsat
    proc = start_solver(VerifyConfig(solver=SUBPROCESS, timeout=20))
    try:
        assert proc.check("(assert (not (=> true true)))\n(check-sat)\n") == (
            "unsat", None)
    finally:
        proc.close()
    # the IR has no implication; (true => true) is (or (not true) true)
    vc = hand_built_vc(TrueF(), NotF(OrF((NotF(TrueF()), TrueF()))))
    assert BundledSolver().check(vc, 1) == ("unsat", None)


def test_timeout_maps_to_unknown():
    proc = SolverProcess([sys.executable, "-c",
                          "import time,sys; sys.stdin.read(1); time.sleep(60)"],
                         timeout=0.3)
    try:
        verdict, model = proc.check("(check-sat)\n")
        assert verdict == "timeout" and model is None
    finally:
        proc.close()


def test_bundled_timeout_gives_unknown(programs):
    # a zero timeout: the in-process search is past its deadline at once
    res = verify_program(programs["cut_choose"],
                         VerifyConfig(solver=BUNDLED, timeout=0))
    assert res.verdict == "unknown"
    (unknown,) = res.unknowns
    assert "solver answered timeout" in unknown.reason


def test_failing_bundled_solver_gives_unknown(programs, monkeypatch, capfd):
    def broken(*args):
        raise RuntimeError("search broke")

    monkeypatch.setattr(smtlib, "check_assertions", broken)
    res = verify_program(programs["cut_choose"], VerifyConfig(solver=BUNDLED))
    assert res.verdict == "unknown"
    (unknown,) = res.unknowns
    assert f"bundled solver {' '.join(BUNDLED)!r}" in unknown.reason
    assert "RuntimeError('search broke')" in unknown.reason
    assert "Traceback" not in capfd.readouterr().err


def test_bundled_solver_answers_after_a_failed_query(bad_programs,
                                                     monkeypatch):
    program = bad_programs["cut_choose_swapped_branch"]
    config = VerifyConfig(solver=BUNDLED, exhaustive=True)
    expected = verify_program(program, config)
    assert expected.stats.queries > 1 and expected.counterexamples
    check = smtlib.check_assertions
    calls = []

    def first_fails(*args):
        calls.append(args)
        if len(calls) == 1:
            raise ValueError("first query broke")
        return check(*args)

    monkeypatch.setattr(smtlib, "check_assertions", first_fails)
    res = verify_program(program, config)
    (unknown,) = res.unknowns
    assert unknown.path_index == 0 and "first query broke" in unknown.reason
    assert res.stats.queries == expected.stats.queries == len(calls)
    assert ([c.to_json() for c in res.counterexamples]
            == [c.to_json() for c in expected.counterexamples
                if c.path_index != 0])


def test_bundled_solver_answers_check_sat():
    proc = BundledSolver()
    answer, model = proc.check(
        hand_built_vc(NotF(GeF(Const(F(1)), YVar(0)))), 1)
    assert answer == "sat" and model["y0"] > 1
    piece = IntervalT(Const(F(0)), YVar(0))
    with pytest.raises(SolverDied, match="is not linear"):
        proc.check(hand_built_vc(GeF(ValT(1, piece), YVar(0))), 1)


def test_only_cores_of_antecedent_conjuncts_answer_later_queries():
    proc = BundledSolver()
    low, high = GeF(YVar(0), Const(F(1))), GeF(Const(F(1, 2)), YVar(0))
    other = GeF(ZVar(1, ONE_KEY), Const(F(0)))
    # y0 >= 1 clashes with the negated goal y0 < 1/2: that core names the
    # goal, so it answers nothing later
    below_half = NotF(GeF(YVar(0), Const(F(1, 2))))
    assert proc.check(hand_built_vc(AndF((low, other)), below_half), 1)[0] \
        == "unsat"
    assert proc.check(hand_built_vc(AndF((low, other))), 1)[0] == "sat"
    # y0 >= 1 and y0 <= 1/2 clash on their own: a later antecedent with
    # both is unsat, one with only one of them is not
    assert proc.check(hand_built_vc(AndF((low, high))), 1)[0] == "unsat"
    assert proc.queries_from_cores == 0
    assert proc.check(hand_built_vc(AndF((other, high, low))), 1) \
        == ("unsat", None)
    assert proc.queries_from_cores == 1
    assert proc.check(hand_built_vc(AndF((other, high))), 1)[0] == "sat"
    assert proc.queries_from_cores == 1


def test_undeclared_constant_in_a_later_query_gives_unknown(programs,
                                                            monkeypatch):
    # the second query's condition names a mark outside its replacement
    build = solver.build_vc
    calls = []

    def widening(tr, s, n_agents, table=None):
        vc = build(tr, s, n_agents, table)
        calls.append(vc)
        if len(calls) == 1:
            return vc
        extra = GeF(YVar(7), Const(F(0)))
        return dataclasses.replace(vc, antecedent=AndF((vc.antecedent, extra)))

    monkeypatch.setattr(solver, "build_vc", widening)
    res = verify_program(programs["cut_choose"], VerifyConfig(solver=BUNDLED))
    assert res.verdict == "unknown" and len(calls) == 2
    (unknown,) = res.unknowns
    assert unknown.path_index == 1
    assert "unknown constant 'y7'" in unknown.reason


def test_crashed_solver_gives_unknown_with_reason(programs):
    # a solver that dies on start prints a traceback instead of an answer
    command = [sys.executable, "-c", "import slicev_no_such_module"]
    source = load_source(GOOD_PROTOCOLS["cut_choose"])
    res = verify_program(programs["cut_choose"], VerifyConfig(solver=command),
                         source=source)
    assert res.verdict == "unknown"
    (unknown,) = res.unknowns
    assert " ".join(command) in unknown.reason
    assert "'Traceback (most recent call last):'" in unknown.reason
    assert "exit code 1" in unknown.reason


def test_silently_exiting_solver_gives_unknown_with_reason(programs):
    command = [sys.executable, "-c", "pass"]
    source = load_source(GOOD_PROTOCOLS["cut_choose"])
    res = verify_program(programs["cut_choose"], VerifyConfig(solver=command),
                         source=source)
    assert res.verdict == "unknown"
    (unknown,) = res.unknowns
    assert " ".join(command) in unknown.reason
    assert "first output line '(none)'" in unknown.reason
    assert "exit code 0" in unknown.reason


def test_verify_leaves_no_unclosed_files():
    # -X dev reports every file object left to the garbage collector
    script = ("import pathlib; from slicev import parse, "
              "verify_program; program = parse(pathlib.Path("
              f"{str(GOOD_PROTOCOLS['cut_choose'])!r}).read_text()); "
              "print(verify_program(program).verdict)")
    src = str(REPO / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-X", "dev", "-c", script],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "valid"
    assert "ResourceWarning" not in run.stderr, run.stderr


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
    ce = Counterexample.from_model(model, s, (0,), 5, 2)
    assert ce.mark_table == {0: F(1, 2)} and ce.path_index == 5
    vs = ce.valuations
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
    vs = Counterexample.from_model(model, s, (0,), 0, 2).valuations
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
    from slicev.logic import term_to_value, YVar

    program = bad_programs["cut_choose_cutter_chooses"]
    res = verify_program(program, VerifyConfig(solver=BUNDLED))
    ce = res.counterexample
    path = [p for p in enumerate_paths(program.body)
            if p.index == ce.path_index][0]
    tr = translate(path.expr)
    assign = {YVar(k): v for k, v in ce.mark_table.items()}
    run = evaluate(program.body, ce.valuations, replay=ce.mark_table)
    assert term_to_value(tr.result, assign) == unread(run.value)


def test_verification_is_deterministic(bad_programs):
    program = bad_programs["scs_not_forced"]
    r1 = verify_program(program, VerifyConfig(solver=BUNDLED))
    r2 = verify_program(program, VerifyConfig(solver=BUNDLED))
    assert r1.verdict == r2.verdict == "invalid"
    assert r1.counterexample.path_index == r2.counterexample.path_index
    assert r1.counterexample.mark_table == r2.counterexample.mark_table


def outcome(res) -> tuple:
    return (res.verdict, [c.to_json() for c in res.counterexamples],
            res.unknowns, res.stats.paths, res.stats.queries,
            res.stats.orders_pruned)


def test_in_process_matches_subprocess():
    files = {**BAD_PROTOCOLS, **GOOD_PROTOCOLS}
    names = [*sorted(BAD_PROTOCOLS), "cut_choose", "surplus",
             "waste_makes_haste3", "selfridge_conway_surplus"]
    for name in names:
        program = load(files[name])
        in_process, child = (outcome(verify_program(
            program, VerifyConfig(solver=command)))
            for command in (BUNDLED, SUBPROCESS))
        assert in_process == child, name


def test_verify_translates_paths_by_one_walk(programs, bad_programs,
                                            monkeypatch):
    # every path comes from `logic.translate_paths`: neither the path
    # enumerator nor the one-path translation runs, under any module's name
    # for them, and a counterexample replays on the path its decisions select
    def forbidden(*args, **kwargs):
        raise AssertionError("called during verify")

    for module in [m for n, m in sys.modules.items()
                   if n == "slicev" or n.startswith("slicev.")]:
        for name in ("enumerate_paths", "translate"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    res = verify_program(programs["selfridge_conway_surplus"],
                         VerifyConfig(solver=BUNDLED))
    assert res.verdict == "valid" and res.stats.paths == 216
    assert res.stats.translate_seconds > 0
    res = verify_program(bad_programs["scs_not_forced"],
                         VerifyConfig(solver=BUNDLED))
    assert res.verdict == "invalid"


def test_early_stop_leaves_no_solver_running(tmp_path):
    # each solver records its pid, then becomes the bundled solver
    record = ("import os, sys; "
              f"open(os.path.join({str(tmp_path)!r}, str(os.getpid())), 'w')"
              ".close(); os.execv(sys.executable, BUNDLED)")
    command = [sys.executable, "-c", f"BUNDLED = {BUNDLED!r}; {record}"]
    program = load(BAD_PROTOCOLS["scf_taker_cuts"])
    res = verify_program(program, VerifyConfig(solver=command))
    assert res.verdict == "invalid" and res.stats.paths < 1800
    pids = [int(p.name) for p in tmp_path.iterdir()]
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_a_run_leaves_no_reference_cycles(programs):
    # path enumeration and order enumeration recurse through module
    # functions, not closures, so a run frees what it built as it goes
    import gc
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        res = verify_program(programs["waste_makes_haste3"],
                             VerifyConfig(solver=BUNDLED, prune=False))
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert res.verdict == "valid" and res.stats.orders_pruned == 0
    assert "function" not in left and "cell" not in left


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
    # `write_query` names each script by its path and order and prefixes
    # the text `emit_smt` gives with a comment and the logic header
    program = programs["cut_choose"]
    for index, (tr, _decisions) in enumerate(translate_paths(program.body)):
        s = path_replacements(tr, True)[0][0]
        body = emit_smt(build_vc(tr, s, program.agents), program.agents)
        solver.write_query(str(tmp_path), index, s, body)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == ["path00000_order_0.smt2", "path00001_order_0.smt2"]
    text = (tmp_path / files[0]).read_text()
    assert text.startswith("; path 0")
    assert "(check-sat)" in text
    assert text.split("\n", 1)[1].startswith(solver._HEADER)


def test_verify_sends_the_queries_compile_writes(tmp_path, monkeypatch):
    # `compile --out` writes each query `verify` checks, byte for byte: the
    # file is a comment naming its path and order, the logic header, and
    # the text `emit_smt` gave `verify`
    source = GOOD_PROTOCOLS["waste_makes_haste3"]
    compiled = tmp_path / "compiled"
    run = subprocess.run(
        [sys.executable, "-m", "slicev.cli", "compile", str(source),
         "--out", str(compiled)],
        capture_output=True, text=True, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert run.returncode == 0, run.stderr
    emit, texts = solver.emit_smt, []

    def recording(*args, **kwargs):
        texts.append(emit(*args, **kwargs))
        return texts[-1]

    monkeypatch.setattr(solver, "emit_smt", recording)
    res = verify_program(load(source), VerifyConfig(solver=BUNDLED))
    assert res.verdict == "valid" and len(texts) == res.stats.queries
    files = [p.read_text().split("\n", 1) for p in compiled.iterdir()]
    assert all(comment.startswith("; path ") for comment, _rest in files)
    assert sorted(rest for _comment, rest in files) == sorted(
        solver._HEADER + text for text in texts)


def test_counterexample_json_roundtrip(bad_programs):
    # what `verify --save-counterexample` writes, `slicev replay` runs
    # through the whole program to the same envy, on the same path
    for name, program in bad_programs.items():
        res = verify_program(program, VerifyConfig(solver=BUNDLED,
                                                   exhaustive=True))
        assert res.verdict == "invalid" and res.counterexamples, name
        for ce in res.counterexamples:
            stored = Counterexample.from_json(
                json.loads(json.dumps(ce.to_json())))
            assert stored.witness is None
            branches = stored.replay(program)
            assert stored.witness == ce.witness, name
            assert stored.allocation == ce.allocation, name
            assert path_index(program.body, dict(branches)) == ce.path_index


def test_counterexample_json_reads_integers_as_p_over_1():
    data = {"valuations": {"agents": 2, "valuations": [
        {"type": "piecewise_uniform", "support": [["0/1", "1/2"]]},
        {"type": "piecewise_uniform", "support": [["1/2", "1/1"]]}]},
        "mark_table": {"0": "1/1", "1": "0/1"}, "path_index": 3}
    ce = Counterexample.from_json(data)
    assert ce.mark_table == {0: F(1), 1: F(0)}
    assert ce.valuations.agent(2).support == ((F(1, 2), F(1)),)
    assert ce.to_json()["mark_table"] == {"0": "1", "1": "0"}
    assert ce.to_json()["valuations"]["valuations"][0]["support"] == [
        ["0", "1/2"]]


def test_a_model_whose_replay_leaves_its_path_is_unknown(bad_programs):
    # the model is sound for its own path; confirmed against the decisions
    # of another path, its replay takes a branch those decisions do not
    program = bad_programs["cut_choose_cutter_chooses"]
    index, (tr, decisions) = 0, next(translate_paths(program.body))
    s = path_replacements(tr, True)[0][0]
    verdict, model = BundledSolver().check(
        build_vc(tr, s, program.agents), program.agents)
    assert verdict == "sat" and decisions
    ce = _confirm(model, s, tr, index, decisions, program)
    assert ce.path_index == index and ce.witness is not None
    planted = {i: not taken for i, taken in decisions.items()}
    unknown = _confirm(model, s, tr, index, planted, program)
    assert unknown.path_index == index
    assert unknown.reason == (f"counterexample replay left path {index} "
                              f"(order {s.describe()})")


def test_default_solver_command_prefers_external(monkeypatch):
    monkeypatch.setenv("SLICEV_SOLVER", "my-solver --flag")
    assert default_solver_command() == ["my-solver", "--flag"]
    monkeypatch.delenv("SLICEV_SOLVER")
    cmd = default_solver_command()
    assert cmd[:1] in (["z3"], ["cvc5"]) or cmd[-2:] == ["-m", "slicev.smtlib"]
