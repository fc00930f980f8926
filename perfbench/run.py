"""`slicev verify` benchmark: one command, closed loop, stdlib only.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client verifies one protocol at a time, each to its verdict.  Every
round of a workload runs in a fresh process (`verify_round.py`), so its
set-up and memory are what a `slicev verify` user pays; rounds repeat while
the next one, judged by the last one's length, still ends within `--seconds`
of the command's start.  An operation is one protocol verified or rejected.

`--trace 0` reports the end-to-end metrics, medians over the run:
  setup_s      process start until slicev is imported and the protocols are
               parsed and well-formedness-checked (also sampled by set-up-only
               processes)
  verify_s     wall time of the verify_program calls of one round
  cpu_s        user + system CPU of those calls, over the round's process and
               every process it started (pool workers, solver processes)
  peak_rss_mb  largest peak resident set among those processes

`--trace 1` reports per-layer metrics from rounds that wrap the program's
functions (`tracing.py`), next to untraced rounds that give the overhead.

The seed drives only the output checks (`checks.py`), never the inputs of
the verifier.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  The exit code is 0
only when every round ran; without the repository's `src/` and `corpus/`
nothing runs and the exit code is 2.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.monotonic()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3        # set-up-only processes before and after each round
RUN_LIMIT_S = 150       # no round may run past this, whatever --seconds says
SAMPLES_PER_PROTOCOL = 12   # random valuation sets per valid protocol


class RoundFailed(Exception):
    pass


def start_round(workload: str, timeout: float, jobs: int | None = None,
                trace: bool = False, setup_only: bool = False) -> dict:
    """Run verify_round.py in a fresh process and return its report."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "verify_round.py"),
           "--workload", workload, "--spawned", repr(spawned)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"round of {workload} timed out")
    finally:
        try:                      # solver processes the round left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RoundFailed(f"round of {workload} exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


class Judge:
    """Counts operations and checks every round's outputs."""

    def __init__(self, work, seed: int):
        import checks
        from slicev.syntax import parse
        from workloads import PUBLISHED_PATHS
        self.checks = checks
        self.work = work
        self.seed = seed
        self.programs = {name: parse((ROOT / "corpus" / name).read_text())
                         for name in work.files}
        self.published = PUBLISHED_PATHS
        self.profiles = {name: checks.mark_profile(p.body)
                         for name, p in self.programs.items()}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def judge(self, report: dict) -> None:
        for name, codes in report["rejected"].items():
            self.attempted += 1
            if not codes:
                self.problems.append(f"{name}: ill-typed file accepted")
        for out in report["protocols"]:
            self.attempted += 1
            name = out["file"]
            if "error" in out or out["verdict"] == "unknown":
                self.failed += 1
                print(f"failed: {name}: {out.get('error') or out['unknowns']}",
                      file=sys.stderr)
                continue
            if self.work.expect == "valid":
                found = self.checks.valid_problems(
                    out, self.published[Path(name).name], self.profiles[name])
            else:
                found = self.checks.invalid_problems(self.programs[name], out)
            self.problems.extend(f"{name}: {p}" for p in found)
        self.problems.extend(report.get("replay_mismatches", []))

    def sample(self) -> None:
        """Random valuation sets through each valid protocol: no envy."""
        if self.work.expect != "valid":
            return
        for name, program in self.programs.items():
            rng = random.Random(f"{self.seed}:{name}")
            found = self.checks.sample_problems(program, rng,
                                                SAMPLES_PER_PROTOCOL)
            self.problems.extend(f"{name}: {p}" for p in found)


def verify_s(report: dict) -> float:
    return sum(out.get("wall_s", 0.0) for out in report["protocols"])


def left() -> float:
    """Seconds until the hard limit of the whole command."""
    return RUN_LIMIT_S - (time.monotonic() - T_START)


def another_fits(seconds: float, t_last: float) -> bool:
    """Whether one more step as long as the one that began at `t_last`
    still ends within `seconds` of the command's start."""
    now = time.monotonic()
    return now + (now - t_last) - T_START <= min(seconds, RUN_LIMIT_S)


def timed_run(name: str, work, seconds: float, judge: Judge) -> dict:
    """Rounds while another fits in `seconds`, with set-up-only processes
    between them so set-up is sampled across the whole run."""

    def probe() -> list:
        return [start_round(name, left(), setup_only=True)
                for _ in range(SETUP_PROBES)]

    setups = probe()
    rounds = []
    while True:
        t_round = time.monotonic()
        report = start_round(name, left())
        judge.judge(report)
        rounds.append(report)
        setups += probe()
        if not another_fits(seconds, t_round):
            break
    med = statistics.median
    return {
        "setup_s": (med(r["setup_s"] for r in setups + rounds), "s"),
        "verify_s": (med(verify_s(r) for r in rounds), "s"),
        "cpu_s": (med(r["cpu_s"] for r in rounds), "s"),
        "peak_rss_mb": (med(r["peak_rss_mb"] for r in rounds), "MB"),
    }


LAYER_UNITS = {"_s": "s", "_bytes": "bytes", "_share": "ratio",
               "_ratio": "ratio"}


def traced_run(name: str, work, seconds: float, judge: Judge) -> dict:
    """Pairs of untraced and traced rounds.  Pool workers' spans would be
    lost, so traced rounds use one worker; when the timed runs use more, an
    untraced one-worker round gives the overhead baseline."""
    pairs = []
    while True:
        t_pair = time.monotonic()
        timed = start_round(name, left())
        baseline = timed if work.jobs == 1 else start_round(name, left(), 1)
        traced = start_round(name, left(), 1, trace=True)
        for report in {id(r): r for r in (timed, baseline, traced)}.values():
            judge.judge(report)
        layers = dict(traced["layers"])
        checked = sum(o.get("paths", 0) for o in timed["protocols"])
        needed = sum(o.get("paths_needed", 0) for o in timed["protocols"])
        layers["solver.paths_checked"] = checked
        layers["solver.useful_path_ratio"] = needed / checked if checked else 0
        layers["trace.overhead_s"] = verify_s(traced) - verify_s(baseline)
        pairs.append(layers)
        if not another_fits(seconds, t_pair):
            break
    for absent in traced["absent"]:
        print(f"absent layer function: {absent}", file=sys.stderr)
    out = {}
    for key in sorted(set().union(*pairs)):
        values = [p[key] for p in pairs if key in p]
        unit = next((u for suffix, u in LAYER_UNITS.items()
                     if key.endswith(suffix)), "count")
        counted = all(isinstance(v, int) for v in values)
        median = statistics.median_low if counted else statistics.median
        out[key] = (median(values), unit)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # A terminated run still kills the round it is waiting for (the
    # `finally` in start_round).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))

    if not (ROOT / "src" / "slicev").is_dir() or not (ROOT / "corpus").is_dir():
        print(f"no slicev sources under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 64
    work = WORKLOADS[args.workload]
    judge = Judge(work, args.seed)
    run = traced_run if args.trace else timed_run
    try:
        metrics = run(args.workload, work, args.seconds, judge)
    except RoundFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    judge.sample()
    for problem in judge.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value} {unit}")
    print(f"{args.workload} attempted = {judge.attempted}, "
          f"failed = {judge.failed}")
    print(json.dumps({
        "correct": not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
