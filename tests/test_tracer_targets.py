"""The benchmark's tracer (`perfbench/tracing.py`) wraps `slicev` functions
by name and silently leaves out the metrics of a name it cannot find, so a
rename or deletion here would drop per-layer metrics without any error."""

import importlib.util
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from slicev import lra, smtlib, solver
from slicev.solver import VerifyConfig, verify_program

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, REPO, load

# What `tracing.replay_queries` looks up besides `Tracer.TARGETS`.
REPLAYED = ("smtlib.SolverState", "smtlib.parse_sexprs", "smtlib.run_command",
            "lra.Simplex.check", "lra.Simplex._pivot", "lra.Simplex.slack_for")


def load_tracing():
    # loaded under its own name, without `Tracer.install`, which would
    # patch the slicev modules for the rest of the session
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", REPO / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_function_it_wraps():
    tracing = load_tracing()
    names = [dotted for dotted, _span in tracing.Tracer.TARGETS]
    assert names
    missing = [n for n in [*names, *REPLAYED] if tracing._resolve(n) is None]
    assert missing == []


def test_simplex_exposes_its_slack_rows():
    # `replay_queries` counts `lra.slack_rows` as the growth of
    # `len(getattr(simplex, "slack_by_form", ()))`, so a rename would
    # report 0 slack rows instead of failing.
    simplex = lra.Simplex()
    x, y = simplex.new_var(), simplex.new_var()
    assert simplex.slack_by_form == {}
    simplex.slack_for({x: Fraction(1), y: Fraction(-1)})
    assert len(simplex.slack_by_form) == 1


def test_check_query_receives_each_query_text(monkeypatch):
    # The tracer records `args[1]` of every `check_query` call and replays
    # those texts through `smtlib` for its solver metrics, as below.
    program = load(BAD_PROTOCOLS["cut_choose_cutter_chooses"])
    check = solver.check_query
    for command in ([sys.executable, "-m", "slicev.smtlib"],
                    [sys.executable, "-u", "-m", "slicev.smtlib"]):
        recorded = []

        def recording(*args):
            result = check(*args)
            recorded.append((args[1], result[0]))
            return result

        monkeypatch.setattr(solver, "check_query", recording)
        res = verify_program(program, VerifyConfig(solver=command))
        assert res.verdict == "invalid"
        assert len(recorded) == res.stats.queries > 0
        state, out = smtlib.SolverState(), io.StringIO()
        for text, answer in recorded:
            assert isinstance(text, str)
            for cmd in smtlib.parse_sexprs("(push 1)\n" + text):
                smtlib.run_command(state, cmd, out)
            assert out.getvalue().split()[-1] == answer
            smtlib.run_command(state, ["pop", "1"], out)


def test_verify_calls_each_layer_once_per_query(monkeypatch):
    # The tracer's `logic.build_vc_calls`, `solver.emit_s` and
    # `solver.check_s` come from wrapping these module functions, so the
    # verify loop must call each of them, not a table's method, per query.
    program = load(GOOD_PROTOCOLS["waste_makes_haste3"])
    calls = {name: 0 for name in ("build_vc", "emit_smt", "check_query")}

    def counting(name):
        fn = getattr(solver, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(solver, name, counting(name))
    res = verify_program(program, VerifyConfig(prune=False))
    assert res.verdict == "valid" and res.stats.queries > res.stats.paths
    assert calls == dict.fromkeys(calls, res.stats.queries)


@pytest.mark.parametrize("workload",
                         ["scs_valid", "orders_all", "counterexamples"])
def test_a_traced_round_reports_every_per_layer_metric(workload):
    # A traced round whose tracer misses a function still exits 0, with
    # that layer's metrics left out, so the benchmark would lose them
    # quietly.  `perfbench/run.py` adds the three metrics below to those
    # the round reports.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "verify_round.py"),
         "--workload", workload, "--spawned", "0", "--jobs", "1",
         "--trace"], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report["absent"] == [] and report["replay_mismatches"] == []
    declared = json.loads((REPO / "BENCHMARK.json").read_text())["per_layer"]
    reported = {*report["layers"], "solver.paths_checked",
                "solver.useful_path_ratio", "trace.overhead_s"}
    assert {m["name"] for m in declared} - reported == set()
    if workload == "counterexamples":
        # the tracer rebinds every name of a wrapped function, but a
        # confirm path that goes round them (running `interp._Evaluator`
        # itself, say) would leave these at 0 while every name resolves
        for name in ("solver.confirm_s", "interp.replay_s",
                     "interp.envy_check_s"):
            assert report["layers"][name] > 0, name
