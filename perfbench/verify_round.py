"""One benchmark round in a fresh process: set up, verify, report.

    python3 perfbench/verify_round.py --workload NAME --spawned T
        [--jobs N] [--trace] [--setup-only]

`--spawned` is the `time.monotonic()` reading the parent took just before
starting this process, so `setup_s` covers interpreter start, the import of
`slicev`, and parsing and well-formedness checking of the workload's files:
what a `slicev verify` user pays before the first path.  `run.py` starts
this script with the repository's `src` as the only `PYTHONPATH` entry.
The report is one JSON object on standard output; a traced round also
writes its spans to `perfbench-out/<workload>.trace.jsonl`.

The verifying processes are pinned to CPUs (`pin`).  Unpinned, every
hand-off between the verifier and its solver process can wake an idle
virtual CPU, and on a shared host that wake-up took milliseconds: one-worker
rounds of the same code read 5.2 to 11.4 s of wall time over 6.2 to 6.7 s
of CPU time.  Pinned, one-worker rounds read within 1% of their CPU time.
"""

import os
import sys
import time


def pin(jobs: int) -> None:
    """Keep the verifier and its solver process on one CPU; with a pool,
    give each forked worker, and the solver it starts, a CPU of its own in
    turn.  Pool workers started otherwise than by fork stay unpinned."""
    cpus = sorted(os.sched_getaffinity(0))
    if jobs <= 1:
        os.sched_setaffinity(0, cpus[:1])
        return
    forks = [0]

    def count() -> None:
        forks[0] += 1

    def pin_child() -> None:
        os.sched_setaffinity(0, {cpus[forks[0] % len(cpus)]})

    os.register_at_fork(before=count, after_in_child=pin_child)


def main() -> int:
    import argparse
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--jobs", type=int, default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from pathlib import Path
    import slicev
    from workloads import WORKLOADS

    root = Path(__file__).resolve().parent.parent
    if Path(slicev.__file__).resolve().parent != root / "src" / "slicev":
        print(f"slicev imported from {slicev.__file__}, not {root / 'src'}",
              file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    from slicev.syntax import parse
    from slicev.typecheck import check_wellformed
    corpus = root / "corpus"
    programs = []
    for name in work.files:
        text = (corpus / name).read_text()
        program = parse(text)
        programs.append((name, text, program, check_wellformed(program)))
    rejected = {name: [v.code for v in check_wellformed(
        parse((corpus / name).read_text()))] for name in work.rejected}
    setup_s = time.monotonic() - args.spawned

    import json
    report = {"setup_s": setup_s, "rejected": rejected}
    if args.setup_only:
        print(json.dumps(report))
        return 0

    import resource
    from slicev.solver import VerifyConfig, verify_program

    def cpu() -> float:
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    # The bundled solver, named outright: SLICEV_SOLVER, z3 and cvc5 on
    # PATH are ignored.
    config = VerifyConfig(solver=[sys.executable, "-m", "slicev.smtlib"],
                          jobs=args.jobs or work.jobs, prune=work.prune)
    pin(config.jobs)
    results = []
    cpu0 = cpu()
    for name, text, program, violations in programs:
        kept0 = tracer.counts["logic.orders_kept"] if tracer else 0
        out = {"file": name}
        t0 = time.perf_counter()
        try:
            if violations:
                raise ValueError(f"ill-formed: {violations}")
            result = verify_program(program, config, source=text)
        except Exception as exc:   # recorded as a failed operation
            out["error"] = repr(exc)
            results.append(out)
            continue
        out["wall_s"] = time.perf_counter() - t0
        cex = result.counterexample
        out.update(
            verdict=result.verdict,
            unknowns=[u.reason for u in result.unknowns],
            paths=result.stats.paths,
            queries=result.stats.queries,
            orders_pruned=result.stats.orders_pruned,
            counterexample=cex.to_json() if cex else None,
            paths_needed=cex.path_index + 1 if cex else result.stats.paths)
        if tracer:
            out["orders_kept"] = tracer.counts["logic.orders_kept"] - kept0
        results.append(out)
    report["cpu_s"] = cpu() - cpu0
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report["peak_rss_mb"] = max(own, kids) / 1024      # ru_maxrss is in KiB
    report["protocols"] = results

    if tracer:
        from tracing import replay_queries
        layers = tracer.metrics()
        replayed, mismatches = replay_queries(tracer.queries)
        layers.update(replayed)
        report.update(layers=layers, absent=tracer.absent,
                      replay_mismatches=mismatches)
        out_dir = root / "perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"{args.workload}.trace.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
