"""SMT-LIB2 emission, external solver orchestration, and the verify loop.

Every (path, replacement) pair becomes one negation query: the constraint
and side formula are asserted together with the negated envy goal, so
`unsat` means the condition is valid.  A `sat` answer yields a model that is
turned into a concrete piecewise-uniform valuation set and replayed through
the interpreter; a counterexample is only reported once the replay
reproduces an exact envy violation.
"""

from __future__ import annotations

import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .core import SliceError, Value
from .interp import EnvyWitness, check_envy_free, evaluate
from .logic import (
    VC, AddT, AndF, Const, EqF, FalseF, Formula, GeF, ImpF, NotF, OrF,
    Replacement, ScaleT, Term, TrueF, Translated, YVar, ZVar, ONE_KEY,
    ZERO_KEY, build_vc, compatible_replacements, enumerate_replacements,
    is_linear, ordering_facts, replacement_variables, translate,
)
from .paths import Path, enumerate_paths
from .syntax import Program, parse
from .typecheck import check_wellformed
from .valuation import (
    PUValuation, ValuationSet, valuation_set_from_json, valuation_set_to_json,
)


class SolverError(SliceError):
    pass


class SolverDied(SolverError):
    """The solver exited or answered outside the protocol during a query."""


# ---------------------------------------------------------------------------
# SMT-LIB2 emission
# ---------------------------------------------------------------------------

def smt_name(v: Union[YVar, ZVar]) -> str:
    if isinstance(v, YVar):
        return f"y{v.mark_id}"
    key = "one" if v.key == ONE_KEY else f"y{v.key}"
    return f"z{v.agent}_{key}"


def _smt_rat(x: Fraction) -> str:
    if x < 0:
        return f"(- {_smt_rat(-x)})"
    if x.denominator == 1:
        return str(x.numerator)
    return f"(/ {x.numerator} {x.denominator})"


def smt_term(t: Term) -> str:
    if isinstance(t, Const):
        return _smt_rat(t.value)
    if isinstance(t, (YVar, ZVar)):
        return smt_name(t)
    if isinstance(t, AddT):
        return f"(+ {smt_term(t.left)} {smt_term(t.right)})"
    if isinstance(t, ScaleT):
        return f"(* {_smt_rat(t.coeff)} {smt_term(t.arg)})"
    raise SolverError(f"term {t!r} is not linear")


def smt_formula(f: Formula) -> str:
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, GeF):
        return f"(>= {smt_term(f.left)} {smt_term(f.right)})"
    if isinstance(f, EqF):
        return f"(= {smt_term(f.left)} {smt_term(f.right)})"
    if isinstance(f, NotF):
        return f"(not {smt_formula(f.arg)})"
    if isinstance(f, AndF):
        return "(and " + " ".join(smt_formula(i) for i in f.items) + ")"
    if isinstance(f, OrF):
        return "(or " + " ".join(smt_formula(i) for i in f.items) + ")"
    if isinstance(f, ImpF):
        return f"(=> {smt_formula(f.premise)} {smt_formula(f.conclusion)})"
    raise SolverError(f"cannot emit {f!r}")


def emit_smt(vc: VC, n_agents: int, standalone: bool = True) -> str:
    """Negation query for one verification condition; unsat means valid."""
    if not is_linear(vc.antecedent) or not is_linear(vc.negated_goal):
        raise SolverError("verification condition is not linear")
    ys, zs = replacement_variables(vc.replacement, n_agents)
    lines = []
    if standalone:
        lines.append("(set-logic QF_LRA)")
        lines.append("(set-option :produce-models true)")
    for v in [*ys, *zs]:
        lines.append(f"(declare-const {smt_name(v)} Real)")
    lines.append(f"(assert {smt_formula(vc.antecedent)})")
    lines.append(f"(assert {smt_formula(vc.negated_goal)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# External solver process
# ---------------------------------------------------------------------------

def default_solver_command() -> list[str]:
    env = os.environ.get("SLICEV_SOLVER")
    if env:
        return env.split()
    if shutil.which("z3"):
        return ["z3", "-in"]
    if shutil.which("cvc5"):
        return ["cvc5", "--incremental", "--produce-models", "--lang", "smt2"]
    return [sys.executable, "-m", "slicev.smtlib"]


class SolverProcess:
    """One external solver over stdin/stdout, used incrementally."""

    def __init__(self, command: list[str], timeout: float = 60.0):
        self.command = command
        self.timeout = timeout
        self.proc = None
        self._buffer = ""
        self._start()

    def _start(self) -> None:
        try:
            self.proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True, bufsize=0)
        except OSError as exc:
            raise SolverError(f"cannot start solver {self.command}: {exc}")
        self._buffer = ""
        self.send("(set-logic QF_LRA)\n(set-option :produce-models true)\n")

    def restart(self) -> None:
        self.close()
        self._start()

    def close(self) -> None:
        if self.proc is not None:
            try:
                self.proc.kill()
            except OSError:
                pass
            self.proc.wait()
            self.proc = None

    def send(self, text: str) -> None:
        try:
            self.proc.stdin.write(text)
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise SolverError(f"solver process died: {exc}")

    def _read_chunk(self) -> None:
        fd = self.proc.stdout.fileno()
        ready, _, _ = select.select([fd], [], [], self.timeout)
        if not ready:
            raise TimeoutError()
        chunk = os.read(fd, 65536).decode()
        if chunk == "":
            raise SolverError("solver closed its output stream")
        self._buffer += chunk

    def read_line(self) -> str:
        while True:
            while "\n" not in self._buffer:
                self._read_chunk()
            line, self._buffer = self._buffer.split("\n", 1)
            if line.strip():
                return line.strip()

    def failure(self, line: str, cause: Exception) -> str:
        """Describe a solver that died or misbehaved: its command, what went
        wrong, the line it printed instead of an answer, and its exit code.
        Its input is closed first, so a solver still running can exit."""
        first = line or self._buffer.strip().split("\n")[0] or "(none)"
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=1.0)
        except subprocess.TimeoutExpired:
            code = "none (still running)"
        return (f"solver {' '.join(self.command)!r} died or misbehaved "
                f"({cause}): first output line {first!r}, exit code {code}")

    def read_sexpr(self) -> str:
        while True:
            depth = 0
            for i, ch in enumerate(self._buffer):
                if ch == "(":
                    depth += 1
                elif ch == ")":
                    depth -= 1
                    if depth == 0:
                        out = self._buffer[:i + 1]
                        self._buffer = self._buffer[i + 1:]
                        return out
            self._read_chunk()


@dataclass
class SolverVerdictUnknown:
    reason: str
    path_index: Optional[int] = None


def parse_model(text: str) -> dict[str, Fraction]:
    from .smtlib import parse_sexprs, parse_rational
    (sexpr,) = parse_sexprs(text)
    if sexpr and sexpr[0] == "model":   # older printers wrap with `model`
        sexpr = sexpr[1:]
    out = {}
    for item in sexpr:
        if not isinstance(item, list) or item[0] != "define-fun":
            continue
        name = item[1]
        value = parse_rational(item[-1])
        if value is None:
            raise SolverError(f"cannot parse model value for {name}")
        out[name] = value
    return out


def check_query(proc: SolverProcess, query: str
                ) -> tuple[str, Optional[dict]]:
    """Run one query inside push/pop; returns (sat|unsat|unknown|timeout,
    model).  A solver that exits, closes its pipes or prints anything else
    in place of an answer raises `SolverDied`; it is restarted first."""
    line = ""
    try:
        proc.send("(push 1)\n" + query)
        line = proc.read_line()
        if line not in ("sat", "unsat", "unknown"):
            raise SolverError("not an answer")
        model = None
        if line == "sat":
            proc.send("(get-model)\n")
            model = parse_model(proc.read_sexpr())
        proc.send("(pop 1)\n")
        return line, model
    except TimeoutError:
        proc.restart()
        return "timeout", None
    except SolverError as exc:
        reason = proc.failure(line, exc)
        proc.restart()
        raise SolverDied(reason) from exc


# ---------------------------------------------------------------------------
# Counterexample extraction
# ---------------------------------------------------------------------------

def extract_valuation_set(model: dict[str, Fraction], s: Replacement,
                          n_agents: int) -> ValuationSet:
    """Piecewise-uniform valuation set read off a satisfying assignment:
    per agent the support is the union of [z_agent_y, y] windows; the
    constant is the reciprocal of the total support length."""
    def val(term) -> Fraction:
        name = smt_name(term)
        if name not in model:
            raise SolverError(f"model misses {name}")
        return model[name]

    out = []
    for a in range(1, n_agents + 1):
        support = []
        for e in s.order:
            if e == ZERO_KEY:
                continue
            y = Fraction(1) if e == ONE_KEY else val(YVar(e))
            z = val(ZVar(a, ONE_KEY if e == ONE_KEY else e))
            if z < y:   # zero-length windows are dropped
                support.append((z, y))
        if not support:
            raise SolverError("degenerate model: empty support")
        out.append(PUValuation(support))
    return ValuationSet(out)


def model_mark_table(model: dict[str, Fraction],
                     mark_ids: tuple[int, ...]) -> dict[int, Fraction]:
    table = {}
    for mid in mark_ids:
        name = f"y{mid}"
        if name not in model:
            raise SolverError(f"model misses mark variable {name}")
        table[mid] = model[name]
    return table


@dataclass
class Counterexample:
    valuations: ValuationSet
    mark_table: dict[int, Fraction]
    path_index: int
    witness: EnvyWitness
    allocation: Value

    def to_json(self) -> dict:
        def rs(x: Fraction) -> str:
            return f"{x.numerator}/{x.denominator}"
        return {
            "valuations": valuation_set_to_json(self.valuations),
            "mark_table": {str(k): rs(v) for k, v in self.mark_table.items()},
            "path_index": self.path_index,
            "witness": {
                "envious": self.witness.envious,
                "envied": self.witness.envied,
                "own_value": rs(self.witness.own_value),
                "other_value": rs(self.witness.other_value),
            },
        }

    @staticmethod
    def from_json(data: dict) -> "StoredCounterexample":
        return StoredCounterexample(
            valuations=valuation_set_from_json(data["valuations"]),
            mark_table={int(k): Fraction(v)
                        for k, v in data["mark_table"].items()},
            path_index=data["path_index"],
        )


@dataclass
class StoredCounterexample:
    valuations: ValuationSet
    mark_table: dict[int, Fraction]
    path_index: int


# ---------------------------------------------------------------------------
# Verification loop
# ---------------------------------------------------------------------------

@dataclass
class VerifyConfig:
    solver: Optional[list[str]] = None
    timeout: float = 60.0
    jobs: int = 1
    exhaustive: bool = False
    dump_dir: Optional[str] = None
    prune: bool = True

    def command(self) -> list[str]:
        return self.solver if self.solver else default_solver_command()


@dataclass
class VerifyStats:
    paths: int = 0
    queries: int = 0
    orders_pruned: int = 0
    translate_seconds: float = 0.0
    solve_seconds: float = 0.0


@dataclass
class VerifyResult:
    verdict: str                 # "valid" | "invalid" | "unknown"
    counterexamples: list = field(default_factory=list)
    unknowns: list = field(default_factory=list)
    stats: VerifyStats = field(default_factory=VerifyStats)

    @property
    def counterexample(self) -> Optional[Counterexample]:
        return self.counterexamples[0] if self.counterexamples else None


def path_replacements(tr: Translated, prune: bool
                      ) -> tuple[list[Replacement], int]:
    """Replacements to check for one path plus how many the pruning skipped."""
    total = 1
    for i in range(2, len(tr.mark_ids) + 1):
        total *= i
    if not prune:
        return list(enumerate_replacements(tr.mark_ids)), 0
    facts = ordering_facts(tr.constraint)
    kept = compatible_replacements(tr.mark_ids, facts)
    return kept, total - len(kept)


def _check_path(proc: SolverProcess, path: Path, n_agents: int,
                config: VerifyConfig, stats: VerifyStats,
                dump=None) -> Optional[Union[Counterexample,
                                             SolverVerdictUnknown]]:
    t0 = time.monotonic()
    tr = translate(path.expr)
    replacements, pruned = path_replacements(tr, config.prune)
    stats.orders_pruned += pruned
    built = [(s, build_vc(tr, s, n_agents)) for s in replacements]
    stats.translate_seconds += time.monotonic() - t0

    t1 = time.monotonic()
    for s, vc in built:
        query = emit_smt(vc, n_agents, standalone=False)
        if dump is not None:
            dump(path.index, s, emit_smt(vc, n_agents, standalone=True))
        stats.queries += 1
        try:
            verdict, model = check_query(proc, query)
        except SolverDied as exc:
            stats.solve_seconds += time.monotonic() - t1
            return SolverVerdictUnknown(
                f"{exc} (order {s.describe()})", path.index)
        if verdict == "unsat":
            continue
        if verdict == "sat":
            stats.solve_seconds += time.monotonic() - t1
            return _confirm(model, s, tr, path, n_agents)
        stats.solve_seconds += time.monotonic() - t1
        return SolverVerdictUnknown(
            f"solver answered {verdict} (order {s.describe()})", path.index)
    stats.solve_seconds += time.monotonic() - t1
    return None


def _confirm(model: dict, s: Replacement, tr: Translated, path: Path,
             n_agents: int) -> Union[Counterexample, SolverVerdictUnknown]:
    """Replay a model through the interpreter; mandatory before Invalid."""
    try:
        vs = extract_valuation_set(model, s, n_agents)
        table = model_mark_table(model, tr.mark_ids)
        run = evaluate(path.expr, vs, replay=table)
        ok, witness = check_envy_free(run.value, vs)
    except SliceError as exc:
        return SolverVerdictUnknown(
            f"counterexample failed to replay: {exc}", path.index)
    if ok:
        return SolverVerdictUnknown(
            "solver model did not reproduce an envy violation", path.index)
    return Counterexample(vs, table, path.index, witness, run.value)


def _verify_indices(program: Program, config: VerifyConfig,
                    residues: Optional[set] = None, modulus: int = 1
                    ) -> VerifyResult:
    result = VerifyResult("valid")
    stats = result.stats
    proc = SolverProcess(config.command(), config.timeout)
    dump = None
    if config.dump_dir:
        os.makedirs(config.dump_dir, exist_ok=True)

        def dump(index, s, text):  # noqa: F811
            perm = "_".join(str(e) for e in s.order[1:-1]) or "none"
            name = f"path{index:05d}_order_{perm}.smt2"
            with open(os.path.join(config.dump_dir, name), "w") as fh:
                fh.write(f"; path {index}, order {s.describe()}\n{text}")

    try:
        for path in enumerate_paths(program.body):
            if residues is not None and path.index % modulus not in residues:
                continue
            stats.paths += 1
            hit = _check_path(proc, path, program.agents, config, stats, dump)
            if isinstance(hit, Counterexample):
                result.counterexamples.append(hit)
                if not config.exhaustive:
                    break
            elif isinstance(hit, SolverVerdictUnknown):
                result.unknowns.append(hit)
                if not config.exhaustive:
                    break
    finally:
        proc.close()
    if result.counterexamples:
        result.verdict = "invalid"
    elif result.unknowns:
        result.verdict = "unknown"
    return result


def _worker(args) -> VerifyResult:
    source, config_dict, residues, modulus = args
    program = parse(source)
    config = VerifyConfig(**config_dict)
    return _verify_indices(program, config, set(residues), modulus)


def verify_program(program: Program, config: Optional[VerifyConfig] = None,
                   source: Optional[str] = None) -> VerifyResult:
    """Full pipeline: well-formedness gate, then one query per compatible
    (path, replacement) pair; Valid only when every query is unsat."""
    config = config or VerifyConfig()
    violations = check_wellformed(program)
    if violations:
        raise SliceError(
            "protocol is not well-formed: "
            + "; ".join(v.message for v in violations))
    if config.jobs <= 1 or source is None:
        return _verify_indices(program, config)

    import multiprocessing as mp
    jobs = config.jobs
    config_dict = {"solver": config.solver, "timeout": config.timeout,
                   "jobs": 1, "exhaustive": config.exhaustive,
                   "dump_dir": config.dump_dir, "prune": config.prune}
    tasks = [(source, config_dict, [r], jobs) for r in range(jobs)]
    with mp.Pool(jobs) as pool:
        partials = pool.map(_worker, tasks)
    merged = VerifyResult("valid")
    for part in partials:
        merged.counterexamples.extend(part.counterexamples)
        merged.unknowns.extend(part.unknowns)
        merged.stats.paths += part.stats.paths
        merged.stats.queries += part.stats.queries
        merged.stats.orders_pruned += part.stats.orders_pruned
        merged.stats.translate_seconds = max(
            merged.stats.translate_seconds, part.stats.translate_seconds)
        merged.stats.solve_seconds = max(
            merged.stats.solve_seconds, part.stats.solve_seconds)
    merged.counterexamples.sort(key=lambda c: c.path_index)
    merged.unknowns.sort(key=lambda u: u.path_index or 0)
    if merged.counterexamples:
        merged.verdict = "invalid"
    elif merged.unknowns:
        merged.verdict = "unknown"
    return merged


def replay_counterexample(program: Program, stored: StoredCounterexample
                          ) -> tuple[Value, Optional[EnvyWitness]]:
    """Re-execute a persisted counterexample; returns the allocation and the
    envy witness (None when the allocation turns out envy-free)."""
    run = evaluate(program.body, stored.valuations, replay=stored.mark_table)
    ok, witness = check_envy_free(run.value, stored.valuations)
    return run.value, None if ok else witness
