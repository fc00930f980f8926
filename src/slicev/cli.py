"""Command-line front end.

Subcommands: typecheck, paths, compile, verify, simulate, replay.  Exit
codes: 0 success, 1 violations or a confirmed envy counterexample, 2
unknown/solver trouble, 64 usage errors (a file that cannot be read or does
not parse, a malformed JSON input), 130 interrupted (Ctrl-C), 141 standard
output closed by its reader (as `| head` does).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from typing import Optional

from .core import SliceError
from .interp import check_envy_free, evaluate
from .logic import VCTable, translate_paths
from .paths import count_paths, enumerate_paths
from .solver import (
    Counterexample, SolverError, VerifyConfig, build_vc, emit_smt,
    path_replacements, verify_program, write_query,
)
from .syntax import Program, SliceSyntaxError, parse, pretty
from .typecheck import check_wellformed, typecheck
from .valuation import (
    PUValuation, ValuationSet, val_eval, valuation_set_from_json,
    valuation_set_to_json,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_INTERRUPTED = 130    # 128 + SIGINT, as a shell reports Ctrl-C
EXIT_BROKEN_PIPE = 141    # 128 + SIGPIPE


class UsageError(Exception):
    """An input the user has to fix; reported as one line, exit 64."""


def load_program(path: str) -> Program:
    with open(path) as fh:
        return parse(fh.read())


def wellformed_program(path: str) -> Optional[Program]:
    """The program in `path`; None, once its violations are printed to
    standard error, when it is not well-formed."""
    program = load_program(path)
    violations = check_wellformed(program)
    for v in violations:
        print(f"{path}: {v.code}: {v.message}", file=sys.stderr)
    return None if violations else program


def load_json(path: str, from_json):
    """`from_json` of a JSON file; a malformed file is a usage error."""
    with open(path) as fh:
        try:
            return from_json(json.load(fh))
        except (ValueError, LookupError, TypeError, AttributeError,
                ZeroDivisionError, SliceError) as exc:
            raise UsageError(f"malformed {path}: {exc!r}") from exc


def random_pu_set(n_agents: int, rng: random.Random) -> ValuationSet:
    vals = []
    grid = 60
    for _ in range(n_agents):
        k = rng.randint(1, 3)
        cuts = sorted(rng.sample(range(1, grid), 2 * k))
        vals.append(PUValuation([(Fraction(cuts[2 * i], grid),
                                  Fraction(cuts[2 * i + 1], grid))
                                 for i in range(k)]))
    return ValuationSet(vals)


def cmd_typecheck(args) -> int:
    program = load_program(args.file)
    violations = check_wellformed(program)
    if args.json:
        payload = {"file": args.file,
                   "violations": [v.to_json() for v in violations]}
        if not violations:
            payload["type"] = str(typecheck(program.body))
        print(json.dumps(payload, indent=2))
    elif violations:
        for v in violations:
            print(f"{args.file}: {v.code}: {v.message}")
    else:
        print(f"{args.file}: well-formed, type {typecheck(program.body)}")
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_paths(args) -> int:
    program = load_program(args.file)
    n = count_paths(program.body)
    print(json.dumps({"file": args.file, "paths": n}) if args.json else n)
    if args.list:
        for path in enumerate_paths(program.body):
            print(f"# path {path.index}")
            print(pretty(path.expr))
    return EXIT_OK


def cmd_compile(args) -> int:
    program = wellformed_program(args.file)
    if program is None:
        return EXIT_VIOLATION
    queries, table = 0, VCTable()
    for index, (tr, _decisions) in enumerate(translate_paths(program.body)):
        replacements, _pruned = path_replacements(tr, not args.all_orders)
        for s in replacements:
            vc = build_vc(tr, s, program.agents, table)
            write_query(args.out, index, s, emit_smt(vc, program.agents))
            queries += 1
    msg = {"file": args.file, "queries": queries, "out": args.out}
    print(json.dumps(msg) if args.json else
          f"wrote {queries} queries to {args.out}")
    return EXIT_OK


def save_counterexample(path: Optional[str], ce) -> None:
    """Write `ce` to `path`, if given: JSON `null` when there is none, so no
    counterexample of an older run stays behind."""
    if path:
        with open(path, "w") as fh:
            json.dump(ce and ce.to_json(), fh, indent=2)


def cmd_verify(args) -> int:
    program = load_program(args.file)
    violations = check_wellformed(program)
    if violations:
        if args.json:
            print(json.dumps({"file": args.file, "verdict": "ill-formed",
                              "violations": [v.to_json() for v in violations]},
                             indent=2))
        else:
            for v in violations:
                print(f"{args.file}: {v.code}: {v.message}")
        save_counterexample(args.save_counterexample, None)
        return EXIT_VIOLATION
    config = VerifyConfig(
        solver=args.solver.split() if args.solver else None,
        timeout=args.timeout, exhaustive=args.exhaustive,
        prune=not args.all_orders)
    t0 = time.monotonic()
    result = verify_program(program, config)
    elapsed = time.monotonic() - t0
    report = {
        "file": args.file,
        "verdict": result.verdict,
        "paths": count_paths(program.body),
        "paths_checked": result.stats.paths,
        "queries": result.stats.queries,
        "queries_from_cores": result.stats.queries_from_cores,
        "pivots": result.stats.pivots,
        "solver": result.stats.solver,
        "orders_pruned": result.stats.orders_pruned,
        "translate_seconds": round(result.stats.translate_seconds, 3),
        "solve_seconds": round(result.stats.solve_seconds, 3),
        "total_seconds": round(elapsed, 3),
    }
    ce = result.counterexample
    if ce is not None:
        report["counterexample"] = ce.to_json()
    if result.unknowns:
        report["unknowns"] = [{"path_index": u.path_index, "reason": u.reason}
                              for u in result.unknowns]
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(f"{args.file}: {result.verdict}  "
              f"(paths {report['paths']}, queries {report['queries']}, "
              f"{report['queries_from_cores']} from cores, "
              f"pivots {report['pivots']}, "
              f"{report['total_seconds']}s, solver {report['solver']})")
        if ce is not None:
            print(f"  counterexample on path {ce.path_index}: {ce.witness}")
            for a, v in enumerate(ce.valuations, start=1):
                sup = " ".join(f"[{lo},{hi}]" for lo, hi in v.support)
                print(f"    agent {a} uniform on {sup}")
            marks = ", ".join(f"y{k}={v}"
                              for k, v in sorted(ce.mark_table.items()))
            print(f"    marks: {marks}")
        for u in result.unknowns:
            print(f"  unknown on path {u.path_index}: {u.reason}")
    # after the report, so a file that cannot be written loses nothing
    save_counterexample(args.save_counterexample, ce)
    if result.verdict == "invalid":
        return EXIT_VIOLATION
    if result.verdict == "unknown":
        return EXIT_UNKNOWN
    return EXIT_OK


def cmd_simulate(args) -> int:
    program = wellformed_program(args.file)
    if program is None:
        return EXIT_VIOLATION
    if args.valuations:
        vs = load_json(args.valuations, valuation_set_from_json)
        if vs.n_agents != program.agents:
            print("valuation set has the wrong number of agents",
                  file=sys.stderr)
            return EXIT_USAGE
    else:
        vs = random_pu_set(program.agents, random.Random(args.seed))
    run = evaluate(program.body, vs)
    ok, witness = check_envy_free(run.value, vs)
    alloc = run.value
    values = {a: [val_eval(vs.agent(a), piece) for piece in alloc.items]
              for a in range(1, program.agents + 1)}
    if args.json:
        print(json.dumps({
            "file": args.file,
            "allocation": [str(piece) for piece in alloc.items],
            "values": {str(a): [str(v) for v in row]
                       for a, row in values.items()},
            "envy_free": ok,
            "witness": witness and witness.to_json(),
            "marks": {str(k): str(v)
                      for k, v in sorted(run.trace.mark_answers.items())},
            "valuations": valuation_set_to_json(vs),
        }, indent=2))
    else:
        for a in range(1, program.agents + 1):
            own = values[a][a - 1]
            print(f"agent {a} receives {alloc.items[a - 1]} worth {own}")
        print("envy-free" if ok else f"envy: {witness}")
    return EXIT_OK if ok else EXIT_VIOLATION


def cmd_replay(args) -> int:
    """Replay a saved counterexample; `Counterexample.confirm` judges it."""
    program = wellformed_program(args.file)
    if program is None:
        return EXIT_VIOLATION
    ce = load_json(args.counterexample, Counterexample.from_json)
    if ce.valuations.n_agents != program.agents:
        print("counterexample has the wrong number of agents",
              file=sys.stderr)
        return EXIT_USAGE
    reason = ce.confirm(program)
    if reason is not None:
        print(reason, file=sys.stderr)
        return EXIT_UNKNOWN
    if args.json:
        print(json.dumps({
            "file": args.file,
            "allocation": [str(p) for p in ce.allocation.items],
            "envy_confirmed": True,
            "witness": ce.witness.to_json(),
        }, indent=2))
    else:
        print(f"allocation: {ce.allocation}\nenvy confirmed: {ce.witness}")
    return EXIT_VIOLATION


def positive_seconds(text: str) -> float:
    """A `--timeout`: a finite number of seconds above 0."""
    seconds = float(text)
    if not 0 < seconds < float("inf"):   # nan fails both comparisons
        raise argparse.ArgumentTypeError(
            f"must be a finite number of seconds above 0, not {text!r}")
    return seconds


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="slicev",
        description="Type-check, simulate, and verify cake-cutting "
                    "protocols written in Slice.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="protocol source (.slice)")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")

    p = sub.add_parser("typecheck", help="affine typing and well-formedness")
    common(p)
    p.set_defaults(fn=cmd_typecheck)

    p = sub.add_parser("paths", help="count (and print) control paths")
    common(p)
    p.add_argument("--list", action="store_true", help="print each path")
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("compile", help="dump SMT-LIB2 queries to a directory")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--all-orders", action="store_true",
                   help="emit every replacement order (skip pruning): one "
                        "file per (path, order), 207,504 files for "
                        "selfridge_conway_full")
    p.set_defaults(fn=cmd_compile)

    p = sub.add_parser("verify", help="prove envy-freeness or find a "
                                      "replayable counterexample")
    common(p)
    p.add_argument("--solver", default=None,
                   help="solver command to run as a child process over "
                        "SMT-LIB2 text; without it (or given this Python's "
                        "exact '-m slicev.smtlib' command) the bundled "
                        "solver decides in process")
    p.add_argument("--timeout", type=positive_seconds, default=60.0,
                   help="per-query timeout in seconds")
    p.add_argument("--exhaustive", action="store_true",
                   help="keep going after the first counterexample")
    p.add_argument("--all-orders", action="store_true",
                   help="check every replacement order (skip pruning)")
    p.add_argument("--save-counterexample", default=None, metavar="FILE",
                   help="persist the counterexample as JSON")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="run once under a valuation set")
    common(p)
    p.add_argument("--valuations", default=None,
                   help="valuation-set JSON file (default: random)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the random valuation set")
    p.set_defaults(fn=cmd_simulate)

    checks = ("re-execute a saved counterexample: exit 1 when the run takes "
              "its path_index and ends in envy (its witness, if saved), "
              "else exit 2 with the reason on stderr")
    p = sub.add_parser("replay", help=checks, description=checks)
    common(p)
    p.add_argument("counterexample", help="counterexample JSON file")
    p.set_defaults(fn=cmd_replay)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BrokenPipeError:
        # The reader of standard output went away: stop quietly, and send
        # what is still buffered to /dev/null so the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (OSError, SliceSyntaxError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except SliceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
