import json
import sys

from slicev.cli import main

from conftest import BAD_PROTOCOLS, GOOD_PROTOCOLS, ILL_TYPED_SURPLUS

BUNDLED = f"{sys.executable} -m slicev.smtlib"
CC = str(GOOD_PROTOCOLS["cut_choose"])
SCF = str(GOOD_PROTOCOLS["selfridge_conway_full"])
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
    assert len(files) == 2
    text = (out_dir / files[0]).read_text()
    assert "(set-logic QF_LRA)" in text


def test_usage_error_exit_64(capsys):
    assert main(["verify"]) == 64
    assert main(["no-such-command", "x"]) == 64


def test_missing_file_exit_64(capsys):
    assert main(["typecheck", "no/such/file.slice"]) == 64


def test_verify_reports_total_paths_when_short_circuiting(capsys):
    scf_bug = str(BAD_PROTOCOLS["scf_taker_cuts"])
    code, out = run(capsys, "verify", scf_bug, "--json", "--solver", BUNDLED)
    assert code == 1
    report = json.loads(out)
    assert report["paths"] == 1800            # full enumeration size
    assert report["paths_checked"] <= report["paths"]


def test_broken_solver_command_exits_two(capsys):
    for jobs in ("1", "2"):
        code = main(["verify", CC, "--solver",
                     "definitely-no-such-solver-binary", "--jobs", jobs])
        assert code == 2
        assert "cannot start solver" in capsys.readouterr().err


def test_interrupt_exits_130_without_traceback(capsys, monkeypatch):
    def interrupted(_args):
        raise KeyboardInterrupt

    monkeypatch.setattr("slicev.cli.cmd_verify", interrupted)
    assert main(["verify", CC, "--solver", BUNDLED]) == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""
