"""SMT-LIB2 front end for the bundled exact LRA engine.

`slicev-smt` reads commands from stdin and answers `check-sat` and
`get-model` like any external solver would, so it can stand in for z3/cvc5
run with `-in`.  It is the front end for text from outside the verifier.
By default the verifier runs the same search (`check_assertions`) in its
own process on formulas it lowers itself (`solver.lower_formula`), with no
text in between.  Only the QF_LRA
fragment the pipeline emits is supported; anything else is reported as an
error line.
"""

from __future__ import annotations

import re
import sys
import time
from fractions import Fraction
from typing import Optional, Union

from .core import format_rational
from .lra import Infeasible, Simplex, delta

Sexpr = Union[str, tuple]


# A token is a parenthesis, a string literal (its quotes included) or a
# symbol; blanks and `;` comments, which match with an empty group, are not.
_TOKEN = re.compile(r';[^\n]*|([()]|"[^"]*"?|[^() \t\r\n;"][^() \t\r\n;]*)')


def tokenize_sexprs(text: str) -> list[str]:
    return [tok for tok in _TOKEN.findall(text) if tok]


def parse_sexprs(text: str) -> list[Sexpr]:
    """The s-expressions of `text`, each list a tuple."""
    stack: list[list] = []
    items: list = []
    for tok in tokenize_sexprs(text):
        if tok == "(":
            stack.append(items)
            items = []
        elif tok == ")":
            if not stack:
                raise ValueError("unbalanced ')'")
            done = tuple(items)
            items = stack.pop()
            items.append(done)
        else:
            items.append(tok)
    if stack:
        raise ValueError("unbalanced '('")
    return items


def read_balanced(stream) -> Optional[str]:
    """Read one balanced s-expression (or bare token line) from a stream."""
    depth = 0
    out = []
    seen = False
    while True:
        ch = stream.read(1)
        if ch == "":
            return "".join(out) if seen else None
        out.append(ch)
        if ch == "(":
            depth += 1
            seen = True
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return "".join(out)
        elif not ch.isspace():
            seen = True
        elif ch == "\n" and seen and depth == 0:
            return "".join(out)


def _exact(s: Sexpr) -> Union[int, Fraction, None]:
    """`parse_rational`, with plain numerals kept as `int`."""
    if isinstance(s, str):
        if s.isdigit() and s.isascii():
            return int(s)
        head = s[:1]
        # `Fraction` reads only strings that start with a sign, a point, a
        # digit or white space: anything else, such as a name, is no number
        if not (head in "+-." or head.isdecimal() or head.isspace()):
            return None
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError):
            return None
    if len(s) == 3 and s[0] == "/":
        a, b = _exact(s[1]), _exact(s[2])
        if a is not None and b:     # (/ a 0) is no number
            return Fraction(a, b)
    if len(s) == 2 and s[0] == "-":
        a = _exact(s[1])
        if a is not None:
            return -a
    return None


def parse_rational(s: Sexpr) -> Optional[Fraction]:
    r = _exact(s)
    return None if r is None else Fraction(r)


# Formula representation the search takes, from `SolverState.formula` or
# `solver.lower_formula`: ("atom", op, {var: coeff}, const)
# with op in {"<=", "<", ">=", ">", "="} meaning  sum coeffs*vars  op  const,
# or ("and"/"or", [children]), ("not", child), "true"/"false".


class SolverState:
    """Declarations and assertions in push/pop frames."""

    def __init__(self):
        self.frames: list[list] = [[]]        # stacked assertion lists
        self.declared: list[set] = [set()]    # stacked declaration sets
        self.last_model: Optional[dict] = None

    # -- declarations --------------------------------------------------------

    def declare(self, name: str) -> None:
        self.declared[-1].add(name)

    def is_declared(self, name: str) -> bool:
        for frame in self.declared:
            if name in frame:
                return True
        return False

    def all_assertions(self) -> list:
        out = []
        for frame in self.frames:
            out.extend(frame)
        return out

    def check_sat(self, deadline: Optional[float] = None) -> str:
        """Decide the assertions of every frame and keep the model, if any,
        for `get-model`; past the `time.monotonic()` `deadline` the search
        raises `TimeoutError`."""
        names = sorted(set().union(*self.declared))
        verdict, self.last_model = check_assertions(
            names, self.all_assertions(), deadline)
        return verdict

    def push(self, n: int) -> None:
        for _ in range(n):
            self.frames.append([])
            self.declared.append(set())

    def pop(self, n: int) -> None:
        for _ in range(n):
            if len(self.frames) == 1:
                raise ValueError("pop on empty stack")
            self.frames.pop()
            self.declared.pop()

    # -- term/formula parsing -------------------------------------------------

    def linear(self, s: Sexpr) -> tuple[dict, Fraction]:
        """Parse a term into (coefficients, constant)."""
        coeffs: dict = {}
        const = self._add_linear(s, 1, coeffs)
        return ({v: Fraction(x) for v, x in coeffs.items()}, Fraction(const))

    def _add_linear(self, s: Sexpr, scale, coeffs: dict):
        """Add `scale` times the variable part of term `s` into `coeffs`,
        in one pass over `s`, and return `scale` times its constant part.
        Numbers are exact: `int` where they can be, otherwise `Fraction`."""
        if isinstance(s, str):
            r = _exact(s)
            if r is not None:
                return scale * r
            if not self.is_declared(s):
                raise ValueError(f"unknown constant {s!r}")
            c = coeffs.get(s)
            coeffs[s] = scale if c is None else c + scale
            return 0
        head = s[0]
        if head == "+":
            const = 0
            for part in s[1:]:
                const += self._add_linear(part, scale, coeffs)
            return const
        if head == "-":
            if len(s) == 2:
                return self._add_linear(s[1], -scale, coeffs)
            const = self._add_linear(s[1], scale, coeffs)
            for part in s[2:]:
                const += self._add_linear(part, -scale, coeffs)
            return const
        if head == "*":
            factor, terms = scale, []
            for part in s[1:]:
                r = _exact(part)
                if r is None:
                    terms.append(part)
                else:
                    factor *= r
            if len(terms) == 1:     # numerals times one term: no copy
                return self._add_linear(terms[0], factor, coeffs)
            # Lowered on their own, all but one of the other factors must
            # turn out constant, such as (+ 1 2).
            lins = []
            for part in terms:
                sub: dict = {}
                k = self._add_linear(part, 1, sub)
                if sub:
                    lins.append(part)
                else:
                    factor *= k
            if len(lins) > 1:
                raise ValueError("non-linear multiplication")
            if not lins:
                return factor
            return self._add_linear(lins[0], factor, coeffs)
        if head == "/":
            divisors = [_exact(p) for p in s[2:]]
            if any(d is None or d == 0 for d in divisors):
                self._add_linear(s[1], 1, {})   # its own errors come first
                raise ValueError("division by a non-constant")
            for d in divisors:
                scale = Fraction(scale, d)
            return self._add_linear(s[1], scale, coeffs)
        raise ValueError(f"unsupported term {s!r}")

    def formula(self, s: Sexpr):
        if s == "true":
            return "true"
        if s == "false":
            return "false"
        if isinstance(s, str):
            raise ValueError(f"boolean constant {s!r} unsupported")
        head = s[0]
        if head in ("and", "or"):
            return (head, [self.formula(p) for p in s[1:]])
        if head == "not":
            return ("not", self.formula(s[1]))
        if head == "=>":
            f = self.formula(s[1])
            for part in s[2:]:
                f = ("or", [("not", f), self.formula(part)])
            return f
        if head in ("<=", "<", ">=", ">", "="):
            # both sides into one dict:  coeffs . vars  head  const
            coeffs: dict = {}
            const = -self._add_linear(s[1], 1, coeffs)
            const -= self._add_linear(s[2], -1, coeffs)
            if len(s) > 3:
                raise ValueError("chained comparisons unsupported")
            return ("atom", head,
                    {v: Fraction(x) for v, x in coeffs.items() if x},
                    Fraction(const))
        raise ValueError(f"unsupported formula {s!r}")


def _negate(f):
    flip = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}
    if f == "true":
        return "false"
    if f == "false":
        return "true"
    kind = f[0]
    if kind == "atom":
        _k, op, coeffs, const = f
        if op == "=":
            return ("or", [("atom", "<", coeffs, const),
                           ("atom", ">", coeffs, const)])
        return ("atom", flip[op], coeffs, const)
    if kind == "not":
        return f[1]
    if kind == "and":
        return ("or", [_negate(p) for p in f[1]])
    if kind == "or":
        return ("and", [_negate(p) for p in f[1]])
    raise ValueError(f"cannot negate {f!r}")


def _nnf(f):
    if f in ("true", "false"):
        return f
    kind = f[0]
    if kind == "atom":
        return f
    if kind == "not":
        return _negate(_nnf(f[1]))
    if kind in ("and", "or"):
        return (kind, [_nnf(p) for p in f[1]])
    raise ValueError(f"bad formula {f!r}")


class _Search:
    """DFS over disjunction branches with incremental bound assertion.  Each
    goal comes with the tag its bounds carry; a failure is explained by the
    tags of a simplex conflict or, at a case split, by the union of its
    branches' explanations (for an empty disjunction, by its own tag).

    One search may decide many queries in turn.  `solve` pops every bound
    it asserts, so no bound, and no tag, outlives its query.  What stays is
    the simplex's variables (one per name ever used), its slack rows, its
    basis and its assignment: each row defines a slack `s_f = f(x)`, which
    any values of the original variables satisfy, so the next query starts
    from the last one's basis and point instead of from all zeros."""

    def __init__(self):
        self.simplex = Simplex()
        self.vars: dict[str, int] = {}
        self.names: dict[int, str] = {}
        self.deadline: Optional[float] = None
        self.model: Optional[dict] = None

    def use(self, names: list[str], deadline: Optional[float]) -> None:
        """Set up the next query: its variables `names`, each of which gets
        a simplex variable on its first use and is all the model reports,
        and its `time.monotonic()` deadline."""
        for name in names:
            if name not in self.vars:
                self.vars[name] = self.simplex.new_var()
        self.names = {self.vars[name]: name for name in names}
        self.deadline = deadline

    def _assert_atom(self, atom, why) -> None:
        _k, op, coeffs, const = atom
        if not coeffs:
            value = Fraction(0)
            ok = {"<=": value <= const, "<": value < const,
                  ">=": value >= const, ">": value > const,
                  "=": value == const}[op]
            if not ok:
                raise Infeasible(frozenset([why]))
            return
        if len(coeffs) == 1:
            (name, c), = coeffs.items()
            x = self.vars[name]
            scaled = const / c
            if c > 0:
                self._bound(x, op, scaled, why)
            else:
                flip = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "=": "="}
                self._bound(x, flip[op], scaled, why)
            return
        form = {self.vars[name]: c for name, c in coeffs.items()}
        s = self.simplex.slack_for(form)
        self._bound(s, op, const, why)

    def _bound(self, x: int, op: str, c: Fraction, why) -> None:
        b = delta(c, -1 if op == "<" else 1 if op == ">" else 0)
        if op not in ("<=", "<"):      # >=, > and =
            self.simplex.assert_lower(x, b, why)
        if op not in (">=", ">"):      # <=, < and =
            self.simplex.assert_upper(x, b, why)

    def solve(self, goals: list) -> None:
        """Satisfy the (formula, tag) pairs of `goals` together with the
        bounds already asserted, leaving a model in `model`, or raise
        `Infeasible` with the explanation."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise TimeoutError("search passed its deadline")
        self.simplex.push()
        try:
            ors = []
            stack = list(goals)
            while stack:
                f, why = stack.pop()
                if f == "true":
                    continue
                if f == "false":
                    raise Infeasible(frozenset([why]))
                if f[0] == "atom":
                    self._assert_atom(f, why)
                elif f[0] == "and":
                    stack.extend((p, why) for p in f[1])
                else:
                    ors.append((f[1], why))
            if not self.simplex.check():
                raise Infeasible(self.simplex.conflict)
            if not ors:
                self.model = self.simplex.concrete_model(self.names)
                return
            (first, why), rest = ors[0], ors[1:]
            reason = frozenset() if first else frozenset([why])
            for branch in first:
                try:
                    return self.solve([(branch, why)]
                                      + [(("or", o), w) for o, w in rest])
                except Infeasible as exc:
                    reason |= exc.reason
            raise Infeasible(reason)
        finally:
            self.simplex.pop()


def check_assertions(names: list[str], assertions: list,
                     deadline: Optional[float] = None,
                     cores: Optional[list] = None,
                     search: Optional[_Search] = None
                     ) -> tuple[str, Optional[dict]]:
    """Decide the conjunction of `assertions` over the variables `names`:
    ("sat", model) or ("unsat", None).  The bounds of the j-th top-level
    conjunct of assertion i (of the assertion itself, when it is no
    conjunction) are tagged (i, j).  Every unsat answer appends its
    explanation, a set of those tags whose conjuncts alone are unsat, to
    `cores` when given.

    Without `search` the query gets a fresh one.  A `search` given is
    reused: it keeps the rows, basis and assignment of the queries it
    decided before (see `_Search`), so the answer is the same but a sat
    model may be another point.  If this raises, drop `search`: a pivot
    cut short leaves rows that no longer define their slacks."""
    goals = [(_nnf(f), (i, j)) for i, a in enumerate(assertions)
             for j, f in enumerate(a[1] if a[0] == "and" else [a])]
    search = search or _Search()
    search.use(names, deadline)
    try:
        search.solve(goals)
    except Infeasible as exc:
        if cores is not None:
            cores.append(exc.reason)
        return "unsat", None
    return "sat", search.model


def run_command(state: SolverState, cmd: Sexpr, out) -> bool:
    """Execute one command; returns False when the solver should exit."""
    if isinstance(cmd, str):
        raise ValueError(f"bare token {cmd!r}")
    head = cmd[0] if cmd else ""
    if head in ("set-logic", "set-option", "set-info"):
        return True
    if head == "echo":
        print(cmd[1].strip('"'), file=out, flush=True)
        return True
    if head == "declare-const":
        if cmd[2] != "Real":
            raise ValueError("only Real constants supported")
        state.declare(cmd[1])
        return True
    if head == "declare-fun":
        if cmd[2] not in ((), []) or cmd[3] != "Real":
            raise ValueError("only nullary Real functions supported")
        state.declare(cmd[1])
        return True
    if head == "assert":
        state.frames[-1].append(state.formula(cmd[1]))
        return True
    if head == "push":
        state.push(int(cmd[1]) if len(cmd) > 1 else 1)
        return True
    if head == "pop":
        state.pop(int(cmd[1]) if len(cmd) > 1 else 1)
        return True
    if head == "reset":
        state.__init__()
        return True
    if head == "check-sat":
        print(state.check_sat(), file=out, flush=True)
        return True
    if head == "get-model":
        if state.last_model is None:
            print("(error \"no model available\")", file=out, flush=True)
            return True
        parts = [f"(define-fun {name} () Real {format_rational(val)})"
                 for name, val in sorted(state.last_model.items())]
        print("(" + " ".join(parts) + ")", file=out, flush=True)
        return True
    if head == "exit":
        return False
    raise ValueError(f"unsupported command {head!r}")


def main(argv: Optional[list[str]] = None) -> int:
    state = SolverState()
    stream = sys.stdin
    out = sys.stdout
    while True:
        text = read_balanced(stream)
        if text is None:
            return 0
        text = text.strip()
        if not text:
            continue
        try:
            for cmd in parse_sexprs(text):
                if not run_command(state, cmd, out):
                    return 0
        except Exception as exc:  # report, keep serving
            print(f"(error \"{exc}\")", file=out, flush=True)


if __name__ == "__main__":
    sys.exit(main())
