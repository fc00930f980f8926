"""SMT-LIB2 emission, the two solver backends, and the verify loop.

Every (path, replacement) pair becomes one negation query: the constraint
and side formula are asserted together with the negated envy goal, so
`unsat` means the condition is valid.  A `sat` answer yields a model that is
turned into a `Counterexample`, a concrete piecewise-uniform valuation set
with pinned mark answers, and replayed through the whole program as `slicev
replay` does; it is only reported once the replay takes the model's path
and reproduces an exact envy violation.

When the solver command is exactly the bundled one, `BUNDLED_SOLVER`, the
search of `slicev.smtlib` decides each condition in this process
(`BundledSolver`) from the atoms `lower_formula` makes of it; any other
command (z3, cvc5, or the bundled solver named any other way) runs as a
child process over pipes (`SolverProcess`) and reads the SMT-LIB2 text
`emit_smt` prints for every query.  `check_query` asks either.
"""

from __future__ import annotations

import math
import os
import select
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Union

from .core import Expr, SliceError, Value, format_rational
from .interp import EnvyWitness, check_envy_free, evaluate
from .logic import (
    VC, AddT, AndF, Const, EqF, FalseF, Formula, GeF, NotF, OrF,
    Replacement, ScaleT, Term, TrueF, Translated, VCTable, YVar, ZVar,
    ONE_KEY, ZERO_KEY, build_vc, compatible_replacements, ordering_facts,
    replacement_variables, subterms, translate_paths,
)
from .syntax import Program
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


def smt_term(t: Term) -> str:
    if isinstance(t, Const):
        return format_rational(t.value)
    if isinstance(t, (YVar, ZVar)):
        return smt_name(t)
    if isinstance(t, AddT):
        return f"(+ {smt_term(t.left)} {smt_term(t.right)})"
    if isinstance(t, ScaleT):
        return f"(* {format_rational(t.coeff)} {smt_term(t.arg)})"
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
    raise SolverError(f"cannot emit {f!r}")


def _lower_term(t: Term, scale, coeffs: dict):
    """Add `scale` times `t` into `coeffs`; return the constant part."""
    if isinstance(t, Const):
        return scale * t.value
    if isinstance(t, (YVar, ZVar)):
        name = sys.intern(smt_name(t))   # one copy, shared by the atoms
        coeffs[name] = coeffs.get(name, 0) + scale
        return 0
    if isinstance(t, AddT):
        return (_lower_term(t.left, scale, coeffs)
                + _lower_term(t.right, scale, coeffs))
    if isinstance(t, ScaleT):
        return _lower_term(t.arg, scale * t.coeff, coeffs)
    raise SolverError(f"term {t!r} is not linear")


def lower_formula(f: Formula):
    """`f` as the search of `slicev.smtlib` takes it, equal to what
    `smtlib.SolverState.formula` makes of `smt_formula(f)`: a comparison
    becomes `("atom", op, {name: coeff}, const)` for `left - right op 0`,
    without zero coefficients.  A node outside linear real arithmetic
    raises `SolverError`."""
    if isinstance(f, TrueF):
        return "true"
    if isinstance(f, FalseF):
        return "false"
    if isinstance(f, (GeF, EqF)):
        coeffs: dict = {}
        const = -_lower_term(f.left, 1, coeffs)
        const -= _lower_term(f.right, -1, coeffs)
        return ("atom", ">=" if isinstance(f, GeF) else "=",
                {v: Fraction(x) for v, x in coeffs.items() if x},
                Fraction(const))
    if isinstance(f, NotF):
        return ("not", lower_formula(f.arg))
    if isinstance(f, (AndF, OrF)):
        return ("and" if isinstance(f, AndF) else "or",
                [lower_formula(i) for i in f.items])
    raise SolverError(f"cannot lower {f!r}")


_HEADER = "(set-logic QF_LRA)\n(set-option :produce-models true)\n"


def _text(f: Formula, texts: Optional[dict]) -> str:
    """`smt_formula(f)`.  With `texts`, the text table of the run that built
    `f`, each conjunct of `f` (of its argument, for a negation) is printed
    once per run."""
    if texts is None:
        return smt_formula(f)
    if isinstance(f, NotF):
        return f"(not {_text(f.arg, texts)})"
    out = []
    for item in f.items if isinstance(f, AndF) else (f,):
        text = texts.get(id(item))      # interned: its id stays its own
        if text is None:
            text = texts[id(item)] = smt_formula(item)
        out.append(text)
    return "(and " + " ".join(out) + ")" if isinstance(f, AndF) else out[0]


def emit_smt(vc: VC, n_agents: int) -> str:
    """Negation query for one verification condition, without the logic
    header (`write_query` adds it); unsat means valid.  A node outside
    linear real arithmetic raises `SolverError`."""
    texts = vc.table.texts if vc.table is not None else None
    ys, zs = replacement_variables(vc.replacement, n_agents)
    lines = [f"(declare-const {smt_name(v)} Real)" for v in [*ys, *zs]]
    lines.append(f"(assert {_text(vc.antecedent, texts)})")
    lines.append(f"(assert {_text(vc.negated_goal, texts)})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def write_query(directory: str, index: int, s: Replacement,
                body: str) -> None:
    """Write one query file into `directory`: a comment naming its path and
    order, the logic header, then `body`, the query `emit_smt` gives."""
    perm = "_".join(str(e) for e in s.order[1:-1]) or "none"
    name = f"path{index:05d}_order_{perm}.smt2"
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, name), "w") as fh:
        fh.write(f"; path {index}, order {s.describe()}\n")
        fh.write(_HEADER + body)


# ---------------------------------------------------------------------------
# Solver backends
# ---------------------------------------------------------------------------

# The bundled solver's command; `start_solver` runs it in this process.
BUNDLED_SOLVER = [sys.executable, "-m", "slicev.smtlib"]


def default_solver_command() -> list[str]:
    env = os.environ.get("SLICEV_SOLVER")
    if env:
        return env.split()
    if shutil.which("z3"):
        return ["z3", "-in"]
    if shutil.which("cvc5"):
        return ["cvc5", "--incremental", "--produce-models", "--lang", "smt2"]
    return list(BUNDLED_SOLVER)


class BundledSolver:
    """The bundled solver inside this process: it decides each condition
    with the search `slicev-smt` runs, from its lowered formulas, so a
    failed query leaves nothing behind.  Each top-level conjunct (of its
    argument, for a negation) is lowered once per solver.

    The solver also keeps a table of cores: the explanation the search
    gives for each unsat answer, when all its tags name antecedent
    conjuncts.  Those conjuncts alone are unsat, so any later condition
    whose antecedent has all of them is answered `unsat` at once, with no
    lowering and no search (and so with no check of the names it
    mentions).  Conjuncts are told apart by identity, which `logic.VCTable`
    makes equality within a run.

    The solver keeps one `smtlib._Search` per mark order
    (`vc.replacement.order`), so each search starts from the basis and
    point the last query of its order ended at.  Only the bounds go
    between queries: the variables, slack rows, basis and assignment stay.
    A search that raises is dropped, and the next query of its order starts
    afresh.  Nothing of this outlives the solver, which is one run's.
    `pivots` counts the pivots of every search."""

    def __init__(self, timeout: float = 60.0):
        self.timeout = timeout
        self.queries_from_cores = 0
        self.pivots = 0
        self.searches: dict = {}    # mark order -> its smtlib._Search
        # id(conjunct) -> (conjunct, lowered, names it mentions); the entry
        # keeps the conjunct, so its id stays its own
        self.lowered: dict = {}
        self.namesets: dict = {}    # one copy of each set of names
        # id of one conjunct of a core -> [(ids of the core's conjuncts,
        # the conjuncts, kept so that their ids stay their own)]
        self.cores: dict = {}

    def _lower(self, f: Formula, known: frozenset):
        if isinstance(f, NotF):
            return ("not", self._lower(f.arg, known))
        out = []
        for item in f.items if isinstance(f, AndF) else (f,):
            if id(item) not in self.lowered:
                names = frozenset(smt_name(x) for x in subterms(item)
                                  if isinstance(x, (YVar, ZVar)))
                names = self.namesets.setdefault(names, names)
                self.lowered[id(item)] = (item, lower_formula(item), names)
            _item, lowered, names = self.lowered[id(item)]
            if not names <= known:
                raise SolverError(f"unknown constant {min(names - known)!r}")
            out.append(lowered)
        return ("and", out) if isinstance(f, AndF) else out[0]

    def lower(self, vc: VC, n_agents: int) -> tuple[list[str], list]:
        """The variables and assertions `SolverState` reads from `vc`'s
        text; an atom naming another variable raises `SolverError`."""
        ys, zs = replacement_variables(vc.replacement, n_agents)
        names = sorted(smt_name(v) for v in [*ys, *zs])
        known = frozenset(names)
        return names, [self._lower(vc.antecedent, known),
                       self._lower(vc.negated_goal, known)]

    def check(self, vc: VC, n_agents: int) -> tuple[str, Optional[dict]]:
        from . import smtlib   # kept out of `import slicev`
        items = (vc.antecedent.items if isinstance(vc.antecedent, AndF)
                 else (vc.antecedent,))
        ids = {id(item) for item in items}
        if any(core <= ids for i in ids
               for core, _kept in self.cores.get(i, ())):
            self.queries_from_cores += 1
            return "unsat", None
        deadline = time.monotonic() + self.timeout
        cores: list = []
        order = vc.replacement.order
        # taken out while it searches, and put back only once it answers
        search = self.searches.pop(order, None) or smtlib._Search()
        pivots = search.simplex.pivot_count
        try:
            answer = smtlib.check_assertions(*self.lower(vc, n_agents),
                                             deadline, cores, search)
        except TimeoutError:
            return "timeout", None
        except Exception as exc:
            raise SolverDied(
                f"bundled solver {' '.join(BUNDLED_SOLVER)!r} failed in "
                f"process ({exc!r})") from exc
        finally:
            self.pivots += search.simplex.pivot_count - pivots
        self.searches[order] = search
        for core in cores:
            # tags are (assertion, conjunct); assertion 0 is the antecedent
            if all(i == 0 for i, _j in core):
                kept = tuple(items[j] for _i, j in core)
                self.cores.setdefault(id(kept[0]), []).append(
                    (frozenset(map(id, kept)), kept))
        return answer

    def close(self) -> None:
        pass


class SolverProcess:
    """One solver child process over stdin/stdout, used incrementally."""

    queries_from_cores = pivots = 0     # it keeps no cores, counts no pivots

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
        self.send(_HEADER)

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
            self.proc.stdin.close()
            self.proc.stdout.close()
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

    def check(self, query: str) -> tuple[str, Optional[dict]]:
        line = ""
        try:
            self.send("(push 1)\n" + query)
            line = self.read_line()
            if line not in ("sat", "unsat", "unknown"):
                raise SolverError("not an answer")
            model = None
            if line == "sat":
                self.send("(get-model)\n")
                model = parse_model(self.read_sexpr())
            self.send("(pop 1)\n")
            return line, model
        except TimeoutError:
            self.restart()
            return "timeout", None
        except SolverError as exc:
            reason = self.failure(line, exc)
            self.restart()
            raise SolverDied(reason) from exc


Solver = Union[BundledSolver, SolverProcess]


@dataclass
class SolverVerdictUnknown:
    reason: str
    path_index: Optional[int] = None


def parse_model(text: str) -> dict[str, Fraction]:
    """The values of a `get-model` answer; a malformed one raises
    `SolverError`."""
    from .smtlib import parse_sexprs, parse_rational
    try:
        (sexpr,) = parse_sexprs(text)
    except ValueError as exc:
        raise SolverError(f"cannot parse model {text!r}") from exc
    if sexpr and sexpr[0] == "model":   # older printers wrap with `model`
        sexpr = sexpr[1:]
    out = {}
    for item in sexpr:
        if not isinstance(item, tuple) or item[:1] != ("define-fun",):
            continue
        value = parse_rational(item[-1]) if len(item) == 5 else None
        if value is None:
            raise SolverError(f"cannot parse model entry {item!r}")
        out[item[1]] = value
    return out


def check_query(proc: Solver, query: str, vc: VC, n_agents: int
                ) -> tuple[str, Optional[dict]]:
    """Decide `vc`, whose text is `query`; returns (sat|unsat|unknown|timeout,
    model).  A solver process that exits, closes its pipes or prints
    anything else in place of an answer, or an exception inside the bundled
    solver, raises `SolverDied`; the next query starts afresh."""
    if isinstance(proc, BundledSolver):
        return proc.check(vc, n_agents)
    return proc.check(query)


# ---------------------------------------------------------------------------
# Counterexamples
# ---------------------------------------------------------------------------

@dataclass
class Counterexample:
    """Piecewise-uniform valuations and pinned mark answers under which the
    program envies on path `path_index`.  `replay` sets `allocation` and
    `witness` (None when the allocation is envy-free)."""

    valuations: ValuationSet
    mark_table: dict[int, Fraction]
    path_index: int
    witness: Optional[EnvyWitness] = None
    allocation: Optional[Value] = None

    @staticmethod
    def from_model(model: dict[str, Fraction], s: Replacement,
                   mark_ids: tuple[int, ...], index: int, n_agents: int
                   ) -> "Counterexample":
        """The counterexample a satisfying assignment of path `index`'s
        query under order `s` describes: per agent the support is the union
        of [z_agent_y, y] windows, zero-length ones dropped (the constant is
        the reciprocal of its length), and each mark answers its y."""
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
                z = val(ZVar(a, e))
                if z < y:
                    support.append((z, y))
            if not support:
                raise SolverError("degenerate model: empty support")
            out.append(PUValuation(support))
        return Counterexample(ValuationSet(out),
                              {mid: val(YVar(mid)) for mid in mark_ids},
                              index)

    def replay(self, program: Program) -> list:
        """Run the whole program on these valuations with the marks pinned,
        as `slicev replay` does; returns the branches the run took."""
        run = evaluate(program.body, self.valuations, replay=self.mark_table)
        _ok, self.witness = check_envy_free(run.value, self.valuations)
        self.allocation = run.value
        return run.trace.branches

    def to_json(self) -> dict:
        return {
            "valuations": valuation_set_to_json(self.valuations),
            "mark_table": {str(k): str(v) for k, v in self.mark_table.items()},
            "path_index": self.path_index,
            "witness": self.witness and self.witness.to_json(),
        }

    @staticmethod
    def from_json(data: dict) -> "Counterexample":
        """The stored witness is not read: `replay` recomputes it."""
        return Counterexample(
            valuations=valuation_set_from_json(data["valuations"]),
            mark_table={int(k): Fraction(v)
                        for k, v in data["mark_table"].items()},
            path_index=data["path_index"],
        )


# ---------------------------------------------------------------------------
# Verification loop
# ---------------------------------------------------------------------------

@dataclass
class VerifyConfig:
    solver: Optional[list[str]] = None
    timeout: float = 60.0
    jobs: int = 1   # unread; perfbench sets it (ROADMAP item 11 drops it)
    exhaustive: bool = False
    prune: bool = True

    def command(self) -> list[str]:
        return self.solver if self.solver else default_solver_command()


def start_solver(config: VerifyConfig) -> Solver:
    """The bundled solver command runs in this process, any other command
    as a child process."""
    command = config.command()
    if command == BUNDLED_SOLVER:
        return BundledSolver(config.timeout)
    return SolverProcess(command, config.timeout)


@dataclass
class VerifyStats:
    """Counts and timers of one `verify_program` run.  The two timers
    cover disjoint stretches of the run, so their sum stays below its wall
    time."""

    paths: int = 0
    queries: int = 0
    queries_from_cores: int = 0     # answered unsat from a stored core
    pivots: int = 0                 # simplex pivots of the bundled solver
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
    """Replacements to check for one path plus how many the pruning skipped;
    without pruning every order of the path's marks is kept."""
    facts = ordering_facts(tr.constraint) if prune else ([], [])
    kept = compatible_replacements(tr.mark_ids, facts)
    return kept, math.factorial(len(tr.mark_ids)) - len(kept)


def _walk(body: Expr, stats: VerifyStats
          ) -> Iterator[tuple[int, Translated, dict]]:
    """Each path of `body` as (index, translation, decisions), in path order,
    from `translate_paths`; the walk's time goes to `stats`."""
    leaves = enumerate(translate_paths(body))
    while True:
        t0 = time.monotonic()
        leaf = next(leaves, None)
        stats.translate_seconds += time.monotonic() - t0
        if leaf is None:
            return
        index, (tr, decisions) = leaf
        yield index, tr, decisions


def _check_path(proc: Solver, index: int, tr: Translated, decisions: dict,
                program: Program, config: VerifyConfig, table: VCTable,
                stats: VerifyStats
                ) -> Optional[Union[Counterexample, SolverVerdictUnknown]]:
    """Check every kept order of one path, counting into `stats`; None when
    every query is unsat."""
    n_agents = program.agents
    stats.paths += 1
    t0 = time.monotonic()
    replacements, pruned = path_replacements(tr, config.prune)
    stats.orders_pruned += pruned
    built = [(s, build_vc(tr, s, n_agents, table)) for s in replacements]
    stats.translate_seconds += time.monotonic() - t0

    t1 = time.monotonic()
    try:
        for s, vc in built:
            query = emit_smt(vc, n_agents)
            stats.queries += 1
            try:
                verdict, model = check_query(proc, query, vc, n_agents)
            except SolverDied as exc:
                return SolverVerdictUnknown(
                    f"{exc} (order {s.describe()})", index)
            if verdict == "sat":
                break
            if verdict != "unsat":
                return SolverVerdictUnknown(
                    f"solver answered {verdict} (order {s.describe()})",
                    index)
        else:
            return None
    finally:
        stats.solve_seconds += time.monotonic() - t1
    return _confirm(model, s, tr, index, decisions, program)


def _confirm(model: dict, s: Replacement, tr: Translated, index: int,
             decisions: dict, program: Program
             ) -> Union[Counterexample, SolverVerdictUnknown]:
    """Replay a model through the whole program; mandatory before Invalid.
    The replay must take the path's own decisions and end in envy."""
    order = f"(order {s.describe()})"
    try:
        ce = Counterexample.from_model(model, s, tr.mark_ids, index,
                                       program.agents)
        branches = ce.replay(program)
    except SliceError as exc:
        return SolverVerdictUnknown(
            f"counterexample failed to replay: {exc} {order}", index)
    if dict(branches) != decisions:
        return SolverVerdictUnknown(
            f"counterexample replay left path {index} {order}", index)
    if ce.witness is None:
        return SolverVerdictUnknown(
            f"solver model did not reproduce an envy violation {order}", index)
    return ce


def verify_program(program: Program, config: Optional[VerifyConfig] = None,
                   source: Optional[str] = None) -> VerifyResult:
    """Full pipeline: well-formedness gate, then one walk of the program
    that translates every path, and one query per compatible (path,
    replacement) pair, all in this process with one `VCTable` and one
    solver; Valid only when every query is unsat.  `source` is not
    needed."""
    config = config or VerifyConfig()
    violations = check_wellformed(program)
    if violations:
        raise SliceError(
            "protocol is not well-formed: "
            + "; ".join(v.message for v in violations))
    result = VerifyResult("valid")
    proc, table = start_solver(config), VCTable()
    try:
        for leaf in _walk(program.body, result.stats):
            outcome = _check_path(proc, *leaf, program, config, table,
                                  result.stats)
            if isinstance(outcome, Counterexample):
                result.counterexamples.append(outcome)
            elif outcome is not None:
                result.unknowns.append(outcome)
            if outcome is not None and not config.exhaustive:
                break
        result.stats.queries_from_cores = proc.queries_from_cores
        result.stats.pivots = proc.pivots
    finally:
        proc.close()
    if result.counterexamples:
        result.verdict = "invalid"
    elif result.unknowns:
        result.verdict = "unknown"
    return result
