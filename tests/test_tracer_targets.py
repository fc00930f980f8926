"""The benchmark's tracer (`perfbench/tracing.py`) wraps `slicev` functions
by name and silently leaves out the metrics of a name it cannot find, so a
rename or deletion here would drop per-layer metrics without any error."""

import importlib.util

from conftest import REPO

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
