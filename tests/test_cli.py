import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slicev
from slicev.cli import main

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, ILL_TYPED_SURPLUS

BUNDLED = f"{sys.executable} -m slicev.smtlib"
CC = str(GOOD_PROTOCOLS["cut_choose"])
SCF = str(GOOD_PROTOCOLS["selfridge_conway_full"])
SCS = str(GOOD_PROTOCOLS["selfridge_conway_surplus"])
BAD_CC = str(BAD_PROTOCOLS["cut_choose_cutter_chooses"])


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_typecheck_ok(capsys):
    code, out = run(capsys, "typecheck", CC)
    assert code == 0
    assert "(Piece * Piece)" in out


def test_typecheck_ill_typed_exit_one(capsys):
    code, out = run(capsys, "typecheck", str(ILL_TYPED_SURPLUS))
    assert code == 1
    assert "affine variable 'p'" in out


def test_paths_count(capsys):
    code, out = run(capsys, "paths", SCF)
    assert code == 0
    assert out.strip() == "1800"


def test_paths_json(capsys):
    code, out = run(capsys, "paths", CC, "--json")
    assert json.loads(out) == {"file": CC, "paths": 2}


def test_verify_valid_json(capsys):
    code, out = run(capsys, "verify", CC, "--json", "--solver", BUNDLED)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "valid"
    assert report["paths"] == 2
    assert report["queries"] == 2


def test_verify_reports_queries_answered_from_cores(capsys):
    # 162 of SCS's 216 antecedents contain a core that an earlier query's
    # search stored in the run's one core table
    code, out = run(capsys, "verify", SCS, "--json", "--solver", BUNDLED)
    report = json.loads(out)
    assert code == 0 and report["queries"] == 216
    assert report["queries_from_cores"] == 162
    code, out = run(capsys, "verify", SCS, "--solver", BUNDLED)
    assert "queries 216, 162 from cores" in out


@pytest.mark.parametrize("protocol", [*GOOD_PROTOCOLS.values(),
                                      *BAD_PROTOCOLS.values()],
                         ids=lambda path: path.stem)
def test_verify_counters_add_up(capsys, protocol):
    # the two timers cover disjoint stretches of one process's run, so they
    # add up to at most its wall time (each figure is rounded to the
    # millisecond, so the sum may pass it by that rounding)
    code, out = run(capsys, "verify", str(protocol), "--json", "--solver",
                    BUNDLED)
    report = json.loads(out)
    assert code == (0 if report["verdict"] == "valid" else 1)
    assert (report["translate_seconds"] + report["solve_seconds"]
            <= report["total_seconds"] + 0.0015)
    assert report["queries_from_cores"] <= report["queries"]


def test_verify_invalid_with_saved_counterexample(capsys, tmp_path):
    ce_file = tmp_path / "ce.json"
    code, out = run(capsys, "verify", BAD_CC, "--json", "--solver", BUNDLED,
                    "--save-counterexample", str(ce_file))
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "invalid"
    assert report["counterexample"]["witness"]["envious"] == 2

    code, out = run(capsys, "replay", BAD_CC, str(ce_file), "--json")
    assert code == 1
    replayed = json.loads(out)
    assert replayed["envy_confirmed"] is True


def test_simulate_seeded_reproducible(capsys):
    code1, out1 = run(capsys, "simulate", CC, "--seed", "9", "--json")
    code2, out2 = run(capsys, "simulate", CC, "--seed", "9", "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["envy_free"] is True
    assert len(payload["allocation"]) == 2


def test_simulate_reports_exact_rationals(capsys):
    code, out = run(capsys, "simulate", CC, "--seed", "3")
    assert code == 0
    assert "worth" in out and "." not in out.split("worth")[1].split()[0]


def test_compile_dumps_queries(capsys, tmp_path):
    out_dir = tmp_path / "vcs"
    code, out = run(capsys, "compile", CC, "--out", str(out_dir), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["queries"] == 2
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["path00000_order_0.smt2", "path00001_order_0.smt2"]
    text = (out_dir / files[0]).read_text()
    assert text.startswith("; path 0, order 0 < y0 < 1\n")
    assert "(set-logic QF_LRA)" in text and "(check-sat)" in text


def test_usage_error_exit_64(capsys):
    assert main(["verify"]) == 64
    assert main(["no-such-command", "x"]) == 64


@pytest.mark.parametrize("option, value", [
    ("--timeout", "-1"), ("--timeout", "0"), ("--timeout", "nan"),
    ("--timeout", "inf"),
])
def test_verify_rejects_a_timeout_or_jobs_out_of_range(capsys, option, value):
    # a timeout that is not finite and positive once reached `select` as a
    # traceback (child process) or never expired (in process)
    assert main(["verify", CC, "--solver", BUNDLED, option, value]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: must be" in captured.err


def test_missing_file_exit_64(capsys):
    assert main(["typecheck", "no/such/file.slice"]) == 64


UNPARSABLE = "agents 2; let p = split"


def argv_for(command, protocol, tmp_path):
    """A full command line of `command` on `protocol`, its other inputs
    well-formed."""
    if command == "compile":
        return [command, protocol, "--out", str(tmp_path / "vcs")]
    if command == "replay":
        ce_file = tmp_path / "ce.json"
        ce_file.write_text(json.dumps(CE_CUTTER_CHOOSES))
        return [command, protocol, str(ce_file)]
    return [command, protocol]


@pytest.mark.parametrize("command", ["typecheck", "paths", "compile", "verify",
                                     "simulate", "replay"])
@pytest.mark.parametrize("protocol", ["unparsable", "directory"])
def test_unreadable_protocol_is_a_usage_error(capsys, tmp_path, command,
                                              protocol):
    if protocol == "unparsable":
        path = tmp_path / "broken.slice"
        path.write_text(UNPARSABLE)
    else:
        path = tmp_path
    assert main(argv_for(command, str(path), tmp_path)) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def test_import_leaves_the_solver_and_the_pool_unloaded():
    # `slicev.smtlib` and `slicev.lra` are imported only when a query is
    # checked, so that commands which never solve start fast and small; no
    # run forks a pool, whatever `jobs` a caller still passes
    src = str(Path(slicev.__file__).resolve().parent.parent)
    loaded = ("print(sorted(m for m in ('slicev.smtlib', 'slicev.lra', "
              "'multiprocessing', 'concurrent.futures') if m in sys.modules))")
    code = (f"import sys, slicev, slicev.cli; {loaded}\n"
            "from slicev.solver import BUNDLED_SOLVER, VerifyConfig\n"
            "program = slicev.parse(open(sys.argv[1]).read())\n"
            "print(slicev.verify_program(program, VerifyConfig(BUNDLED_SOLVER, "
            "jobs=2)).verdict)\n"
            f"{loaded}")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, BAD_CC], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert out.split("\n") == [
        "[]", "invalid", "['slicev.lra', 'slicev.smtlib']", ""]


def test_closed_stdout_exits_quietly(tmp_path):
    # `slicev paths ... --list | head -1`: a reader that stops reading is
    # neither a usage error nor worth a message; 141 is 128 + SIGPIPE
    src = str(Path(slicev.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "slicev.cli", "paths"]
    proc = subprocess.Popen(
        [*cmd, str(GOOD_PROTOCOLS["selfridge_conway_full"]), "--list"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    for text in ("error:", "Traceback", "Exception ignored"):
        assert text not in err
    # other OSErrors are still usage errors
    done = subprocess.run([*cmd, str(tmp_path)], env=env, capture_output=True,
                          text=True)
    assert done.returncode == 64 and done.stderr.startswith("error: ")


def test_verify_reports_total_paths_when_short_circuiting(capsys):
    scf_bug = str(BAD_PROTOCOLS["scf_taker_cuts"])
    code, out = run(capsys, "verify", scf_bug, "--json", "--solver", BUNDLED)
    assert code == 1
    report = json.loads(out)
    assert report["paths"] == 1800            # full enumeration size
    assert report["paths_checked"] <= report["paths"]


def test_verify_names_the_path_of_each_unknown(capsys):
    # a nanosecond timeout: the first path's query times out
    code, out = run(capsys, "verify", CC, "--timeout", "1e-9", "--json",
                    "--solver", BUNDLED)
    assert code == 2
    report = json.loads(out)
    assert report["verdict"] == "unknown"
    assert report["unknowns"] == [
        {"path_index": 0, "reason": "solver answered timeout (order 0 < y0 "
                                    "< 1)"}]
    code, out = run(capsys, "verify", CC, "--timeout", "1e-9",
                    "--solver", BUNDLED)
    assert code == 2
    assert "  unknown on path 0: solver answered timeout (order" in out


def test_broken_solver_command_exits_two(capsys):
    code = main(["verify", CC, "--solver", "definitely-no-such-solver-binary"])
    assert code == 2
    assert "cannot start solver" in capsys.readouterr().err


# A solver that answers `sat` to every query and `model` to `(get-model)`.
FAKE_SOLVER = """
import sys
for line in iter(sys.stdin.readline, ""):
    if line.startswith("(check-sat)"):
        print("sat", flush=True)
    elif line.startswith("(get-model)"):
        print({model!r}, flush=True)
"""


@pytest.mark.parametrize("model", ["((define-fun))",
                                   "((define-fun y0 () Real (/ 1 0)))",
                                   "note ((define-fun y0 () Real 1))"])
def test_malformed_model_is_unknown(capsys, tmp_path, model):
    script = tmp_path / "solver.py"
    script.write_text(FAKE_SOLVER.format(model=model))
    command = f"{sys.executable} {script}"
    assert main(["verify", CC, "--solver", command]) == 2
    out = capsys.readouterr().out
    assert "unknown on path 0" in out
    assert f"solver {command!r} died or misbehaved" in out
    assert "cannot parse model" in out


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted(_args):
        raise KeyboardInterrupt

    monkeypatch.setattr("slicev.cli.cmd_verify", interrupted)
    assert main(["verify", CC, "--solver", BUNDLED]) == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""


# -- malformed input files ---------------------------------------------------

@pytest.mark.parametrize("text", ["{bad", "{}", '{"valuations": 3}'])
@pytest.mark.parametrize("command", ["replay", "simulate"])
def test_malformed_json_input_is_a_usage_error(capsys, tmp_path, command,
                                               text):
    bad = tmp_path / "input.json"
    bad.write_text(text)
    argv = ([command, CC, str(bad)] if command == "replay"
            else [command, CC, "--valuations", str(bad)])
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


ZERO_DENOMINATOR = {"agents": 2, "valuations": [
    {"type": "piecewise_uniform", "support": [["0", "1/0"]]},
    {"type": "piecewise_uniform", "support": [["0", "1"]]}]}


@pytest.mark.parametrize("command", ["replay", "simulate"])
def test_zero_denominator_in_json_input_is_a_usage_error(capsys, tmp_path,
                                                         command):
    bad = tmp_path / "input.json"
    if command == "replay":
        bad.write_text(json.dumps({"valuations": ZERO_DENOMINATOR,
                                   "mark_table": {"0": "1/2"},
                                   "path_index": 0}))
        argv = [command, CC, str(bad)]
    else:
        bad.write_text(json.dumps(ZERO_DENOMINATOR))
        argv = [command, CC, "--valuations", str(bad)]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "ZeroDivisionError" in captured.err
    assert captured.err.count("\n") == 1


# -- pinned JSON output of simulate and replay ---------------------------------

CE_CUTTER_CHOOSES = {
    "valuations": {"agents": 2, "valuations": [
        {"type": "piecewise_uniform",
         "support": [["1/6", "7/12"], ["7/12", "1"]]},
        {"type": "piecewise_uniform",
         "support": [["0", "7/12"], ["3/4", "1"]]}]},
    "mark_table": {"0": "7/12"},
    "path_index": 0,
    "witness": {"envious": 2, "envied": 1,
                "own_value": "3/10", "other_value": "7/10"},
}

REPLAY_JSON = """{
  "file": "FILE",
  "allocation": [
    "pc([0, 7/12])",
    "pc([7/12, 1])"
  ],
  "envy_confirmed": true,
  "witness": {
    "envious": 2,
    "envied": 1,
    "own_value": "3/10",
    "other_value": "7/10"
  }
}
"""

SIMULATE_JSON = """{
  "file": "FILE",
  "allocation": [
    "pc([0, 23/30])",
    "pc([23/30, 1])"
  ],
  "values": {
    "1": [
      "1/2",
      "1/2"
    ],
    "2": [
      "1",
      "0"
    ]
  },
  "envy_free": false,
  "witness": {
    "envious": 2,
    "envied": 1,
    "own_value": "0",
    "other_value": "1"
  },
  "marks": {
    "0": "23/30"
  },
  "valuations": {
    "agents": 2,
    "valuations": [
      {
        "type": "piecewise_uniform",
        "support": [
          [
            "37/60",
            "11/12"
          ]
        ]
      },
      {
        "type": "piecewise_uniform",
        "support": [
          [
            "2/15",
            "17/60"
          ]
        ]
      }
    ]
  }
}
"""


def test_replay_of_another_agent_count_is_a_usage_error(capsys, tmp_path):
    # a 2-agent counterexample replayed on a 3-agent protocol once got stuck
    # in the interpreter and exited 2, as if the replay were inconclusive
    ce_file = tmp_path / "ce.json"
    ce_file.write_text(json.dumps(CE_CUTTER_CHOOSES))
    code = main(["replay", str(BAD_PROTOCOLS["scs_not_forced"]), str(ce_file)])
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "counterexample has the wrong number of agents\n"


def test_replay_json_output_is_pinned(capsys, tmp_path):
    ce_file = tmp_path / "ce.json"
    ce_file.write_text(json.dumps(CE_CUTTER_CHOOSES))
    code, out = run(capsys, "replay", BAD_CC, str(ce_file), "--json")
    assert code == 1
    assert out == REPLAY_JSON.replace("FILE", BAD_CC)


def test_simulate_json_output_is_pinned(capsys):
    code, out = run(capsys, "simulate", BAD_CC, "--seed", "1", "--json")
    assert code == 1
    assert out == SIMULATE_JSON.replace("FILE", BAD_CC)
    code, out = run(capsys, "simulate", BAD_CC, "--seed", "0", "--json")
    assert code == 0
    assert json.loads(out)["witness"] is None


# -- pinned compile output -----------------------------------------------------

# sha256 over the sorted (file name, contents) pairs `slicev compile` writes
COMPILE_DIGESTS = {
    ("cut_choose", False):
        "8f9ec964e06dcfa50ceb0b5938df8626bcafc67563a710a2ebcdf570b05d317e",
    ("cut_choose", True):
        "8f9ec964e06dcfa50ceb0b5938df8626bcafc67563a710a2ebcdf570b05d317e",
    ("surplus", False):
        "850a8f9d86e9e8202a706a23c0de0cf42db7bcf1873b8cafa0a8ee05c6a08a91",
    ("surplus", True):
        "f628cf7c9334b4f9f9feff7f5278cce704cff15fdd30eb71189cb9232ea57f21",
    ("waste_makes_haste3", False):
        "10bc68c89334466f69005b7af858cf94b3d85d2e1dd434cb8f3149f4e35c1ceb",
    ("waste_makes_haste3", True):
        "0918ecc3cb8e18d45047b91389117668d8b29be254594f7893f6ca9629415156",
    ("selfridge_conway_surplus", False):
        "d182266b78fe21f80589ea33ca2f9d4aba70afd1c9d0ea8cb3a3ef81c2688268",
    ("selfridge_conway_surplus", True):
        "d85e007d879e2bc97a3e54c897e64d52c4893f08c851afafada7318db01d4d18",
}


def output_digest(out_dir) -> str:
    h = hashlib.sha256()
    for p in sorted(out_dir.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name, all_orders", sorted(COMPILE_DIGESTS))
def test_compile_output_is_pinned(capsys, tmp_path, name, all_orders):
    argv = ["compile", str(GOOD_PROTOCOLS[name]), "--out", str(tmp_path)]
    code, _out = run(capsys, *argv, *(["--all-orders"] if all_orders else []))
    assert code == 0
    assert output_digest(tmp_path) == COMPILE_DIGESTS[name, all_orders]
