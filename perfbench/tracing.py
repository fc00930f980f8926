"""Per-layer spans for one traced round, recorded from outside the program.

`Tracer.install` wraps module-level functions (and a few methods) of the
`slicev` modules that `verify_program` reaches.  Each call opens a span
(name, start, end, parent) kept in memory; a layer's self time is its spans'
durations minus the time their child spans cover.  A call that re-enters a
function already open is not a new span, so recursion costs no spans.

The bundled solver runs in a child process, out of the tracer's reach, so
`replay_queries` feeds the exact query texts the traced round sent to the
public functions of `slicev.smtlib` inside this process and counts the
`slicev.lra` work they cause.

A wrapped function that no longer exists is listed in `absent` and its
metrics are left out, so a change that removes a layer still benchmarks.
"""

from __future__ import annotations

import dataclasses
import importlib
import io
import time
from collections import Counter

_clock = time.perf_counter


def _resolve(dotted: str):
    """(owner, attribute, object) for "module.func" or "module.Class.meth"
    under `slicev`, or None when any part is missing."""
    module_name, *owners, attr = dotted.split(".")
    try:
        owner = importlib.import_module(f"slicev.{module_name}")
    except ImportError:
        return None
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return None if fn is None else (owner, attr, fn)


def _count_atoms(f, atom_types, formula_type) -> int:
    if isinstance(f, atom_types):
        return 1
    n = 0
    for fld in dataclasses.fields(f):
        value = getattr(f, fld.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, formula_type):
                n += _count_atoms(item, atom_types, formula_type)
    return n


class Tracer:
    """Spans and counters of one traced round."""

    # (function, span name); a generator function gets one span per item.
    TARGETS = (
        ("solver.verify_program", "solver.verify"),
        ("syntax.parse", "syntax.parse"),
        ("typecheck.check_wellformed", "typecheck.wellformed"),
        ("paths.enumerate_paths", "paths.enumerate"),
        ("logic.translate", "logic.translate"),
        ("solver.path_replacements", "logic.prune"),
        ("logic.simplify", "logic.simplify"),
        ("logic.build_vc", "logic.build_vc"),
        ("solver.emit_smt", "solver.emit"),
        ("solver.check_query", "solver.check"),
        ("solver.SolverProcess._start", "solver.start"),
        ("solver.SolverProcess.close", "solver.stop"),
        ("solver._confirm", "solver.confirm"),
        ("interp.evaluate", "interp.replay"),
        ("interp.check_envy_free", "interp.envy_check"),
        ("valuation.val_eval", "valuation.measure"),
        ("valuation.val_mark", "valuation.measure"),
    )
    ROOT = "solver.verify"
    GENERATORS = {"paths.enumerate"}

    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self._stack: list[int] = []
        self._open = Counter()             # span name -> open depth
        self.calls = Counter()             # outermost calls per span name
        self.counts = Counter()            # counters filled by hooks
        self.queries: list[tuple[str, str]] = []   # (query text, answer)
        self.absent: list[str] = []
        self.present: set[str] = set()
        self._solvers: dict = {}    # id -> solver process already asked
        found = [_resolve(f"logic.{n}") for n in ("GeF", "EqF", "Formula")]
        self._atom_types = tuple(f[2] for f in found[:2] if f)
        self._formula_type = found[2][2] if found[2] else None
        self._hooks = {
            "logic.prune": self._after_prune,
            "logic.build_vc": self._after_build_vc,
            "solver.emit": self._after_emit,
            "solver.check": self._after_check,
            "paths.enumerate": self._after_path,
        }

    # -- spans ---------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, _clock(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()
        self._open[self.spans[idx][0]] -= 1

    def _bookkeep(self, hook, args, result, idx: int) -> None:
        span = self.spans[idx]
        idx = self._enter("trace.bookkeeping")
        try:
            hook(args, result, span[2] - span[1])
        finally:
            self._exit(idx)

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)

        def wrapper(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            self.calls[name] += 1
            if hook is not None:
                self._bookkeep(hook, args, result, idx)
            return result

        def generator_wrapper(*args, **kwargs):
            items = iter(fn(*args, **kwargs))
            while True:
                idx = self._enter(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._exit(idx)
                if hook is not None:
                    self._bookkeep(hook, args, item, idx)
                yield item

        return generator_wrapper if name in self.GENERATORS else wrapper

    def install(self) -> None:
        """Wrap every target, in every loaded slicev module that refers to
        it, for the rest of this process."""
        import sys
        modules = [m for n, m in sys.modules.items()
                   if n == "slicev" or n.startswith("slicev.")]
        for dotted, name in self.TARGETS:
            found = _resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr, fn = found
            wrapped = self._wrap(name, fn)
            setattr(owner, attr, wrapped)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapped)
            self.present.add(name)

    # -- hooks: counters taken at the layer boundary -------------------------

    def _after_prune(self, args, result, seconds) -> None:
        kept, pruned = result
        self.counts["logic.orders_kept"] += len(kept)
        self.counts["logic.orders_pruned"] += pruned

    def _after_build_vc(self, args, vc, seconds) -> None:
        if self._atom_types and self._formula_type is not None:
            self.counts["logic.vc_atoms"] += sum(
                _count_atoms(f, self._atom_types, self._formula_type)
                for f in (vc.antecedent, vc.negated_goal))

    def _after_emit(self, args, text, seconds) -> None:
        self.counts["solver.query_bytes"] += len(text)

    def _after_check(self, args, result, seconds) -> None:
        answer = result[0]
        self.counts[f"solver.{answer}"] += 1
        self.queries.append((args[1], answer))
        # A solver process is started without waiting for it; its first
        # answer waits for the interpreter start and imports as well.
        if id(args[0]) not in self._solvers:
            self._solvers[id(args[0])] = args[0]
            self.counts["solver.first_check_s"] += seconds

    def _after_path(self, args, path, seconds) -> None:
        self.counts["paths.paths"] += 1

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        """All spans as JSON lines, times in seconds from the first span."""
        import json
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent}))
                fh.write("\n")

    def self_times(self, roots_only: bool = False) -> Counter:
        """Self seconds per span name; with `roots_only`, only spans inside
        a `solver.verify` span count."""
        inside = [False] * len(self.spans)
        child_time = [0.0] * len(self.spans)
        for i, (name, start, end, parent) in enumerate(self.spans):
            if parent >= 0:
                child_time[parent] += end - start
                inside[i] = inside[parent]
            if name == self.ROOT:
                inside[i] = True
        out = Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            if inside[i] or not roots_only:
                out[name] += end - start - child_time[i]
        return out

    def verify_seconds(self) -> float:
        return sum(end - start for name, start, end, parent in self.spans
                   if name == self.ROOT and parent < 0)

    def metrics(self) -> dict:
        """Per-layer metrics of this round, leaving out absent layers."""
        times = self.self_times()
        out = {}
        for name in sorted(self.present - {self.ROOT}):
            out[f"{name}_s"] = times[name]
        for name, metric in (("logic.translate", "logic.translate_calls"),
                             ("logic.simplify", "logic.simplify_calls"),
                             ("logic.build_vc", "logic.build_vc_calls"),
                             ("solver.check", "solver.queries"),
                             ("solver.start", "solver.starts")):
            if name in self.present:
                out[metric] = self.calls[name]
        needs = {"logic.orders_kept": "logic.prune",
                 "logic.orders_pruned": "logic.prune",
                 "logic.vc_atoms": "logic.build_vc",
                 "solver.query_bytes": "solver.emit",
                 "solver.sat": "solver.check",
                 "solver.unsat": "solver.check",
                 "solver.first_check_s": "solver.check",
                 "paths.paths": "paths.enumerate"}
        for metric, name in needs.items():
            if name in self.present:
                out[metric] = self.counts[metric]
        if self.ROOT in self.present:
            total = self.verify_seconds()
            inside = self.self_times(roots_only=True)
            unattributed = inside[self.ROOT] + inside["trace.bookkeeping"]
            out["trace.verify_s"] = total
            out["trace.bookkeeping_s"] = inside["trace.bookkeeping"]
            out["trace.attributed_share"] = (
                (total - unattributed) / total if total else 1.0)
        return out


def replay_queries(queries: list[tuple[str, str]]) -> tuple[dict, list[str]]:
    """Feed recorded query texts to the bundled solver's SMT-LIB front end
    in this process.  Returns (metrics, answers that differ from the ones
    the solver process gave)."""
    smtlib = _resolve("smtlib.SolverState")
    parse = _resolve("smtlib.parse_sexprs")
    run = _resolve("smtlib.run_command")
    if not (queries and smtlib and parse and run):
        return {}, []
    state_cls, parse_sexprs, run_command = smtlib[2], parse[2], run[2]
    lra = Counter()

    def counting(name, fn, timed=False):
        def wrapper(self, *args, **kwargs):
            lra[f"{name}_calls"] += 1
            t0 = _clock()
            try:
                return fn(self, *args, **kwargs)
            finally:
                if timed:
                    lra[f"{name}_s"] += _clock() - t0
        return wrapper

    def counting_rows(fn):
        def wrapper(self, *args, **kwargs):
            rows = len(getattr(self, "slack_by_form", ()))
            try:
                return fn(self, *args, **kwargs)
            finally:
                lra["slack_rows"] += len(getattr(self, "slack_by_form",
                                                 ())) - rows
        return wrapper

    simplex = _resolve("lra.Simplex")
    have_lra = simplex is not None and all(
        hasattr(simplex[2], m) for m in ("check", "_pivot", "slack_for"))
    if have_lra:
        cls = simplex[2]
        cls.check = counting("check", cls.check, timed=True)
        cls._pivot = counting("pivot", cls._pivot)
        cls.slack_for = counting_rows(cls.slack_for)

    state = state_cls()
    out = io.StringIO()
    parse_s = search_s = 0.0
    mismatches = []
    for cmd in parse_sexprs("(set-logic QF_LRA)"
                            "(set-option :produce-models true)"):
        run_command(state, cmd, out)
    for index, (text, answer) in enumerate(queries):
        try:
            t0 = _clock()
            commands = parse_sexprs("(push 1)\n" + text)
            parse_s += _clock() - t0
            for cmd in commands:
                t0 = _clock()
                run_command(state, cmd, out)
                dt = _clock() - t0
                if cmd and cmd[0] == "check-sat":
                    search_s += dt
                else:
                    parse_s += dt
            got = out.getvalue().split()[-1]
            run_command(state, ["pop", "1"], out)
        except ValueError as exc:     # the front end's error for bad input
            got = f"error {exc}"
        if got != answer:
            mismatches.append(f"query {index}: solver process said "
                              f"{answer}, in-process replay {got}")
    metrics = {"smtlib.parse_s": parse_s}
    if have_lra:
        metrics.update({
            "smtlib.search_s": search_s - lra["check_s"],
            "lra.check_calls": lra["check_calls"],
            "lra.check_s": lra["check_s"],
            "lra.pivots": lra["pivot_calls"],
            "lra.slack_rows": lra["slack_rows"],
        })
    else:
        metrics["smtlib.search_s"] = search_s
    return metrics, mismatches
