"""The simplex that `slicev.lra.Simplex` replaced, in two steps: each row
stores one `Fraction` per entry, and each assignment and bound is a `Delta`,
a pair of `Fraction`s.  Kept as the reference for the differential test of
the integer engine (`test_lra_differential.py`), which requires the same
answers, models, pivots and slack rows from both.  Bounds arrive as the
integer triples `(r, k, d)` of `slicev.lra` and become `Delta`s at
`assert_lower`/`assert_upper`; nothing else of `slicev.lra` is used, apart
from the `Infeasible` that the SMT-LIB front end catches.  It takes the tag
that `slicev.lra` keeps with each bound and ignores it: it explains no
infeasibility, so its `conflict` stays empty."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from slicev.lra import Infeasible


@dataclass(frozen=True)
class Delta:
    """r + k*eps for an infinitesimal eps > 0."""

    r: Fraction
    k: Fraction = Fraction(0)

    def __add__(self, other: "Delta") -> "Delta":
        return Delta(self.r + other.r, self.k + other.k)

    def __sub__(self, other: "Delta") -> "Delta":
        return Delta(self.r - other.r, self.k - other.k)

    def scale(self, c: Fraction) -> "Delta":
        return Delta(self.r * c, self.k * c)

    def __lt__(self, other: "Delta") -> bool:
        return (self.r, self.k) < (other.r, other.k)

    def __le__(self, other: "Delta") -> bool:
        return (self.r, self.k) <= (other.r, other.k)


ZERO = Delta(Fraction(0), 0)


def of_triple(t: tuple[int, int, int]) -> Delta:
    """The `Delta` of the integer triple `(r, k, d)`, (r + k*eps) / d."""
    r, k, d = t
    return Delta(Fraction(r, d), Fraction(k, d))


class Simplex:
    """Feasibility of conjunctions of bounds over linear forms.

    Variables are indices.  Each distinct linear form gets one slack
    variable; asserting an atom tightens a bound.  Bound changes are kept on
    a trail so branches of a disjunction can be explored with push/pop.
    """

    def __init__(self):
        self.n = 0
        self.lower: list[Optional[Delta]] = []
        self.upper: list[Optional[Delta]] = []
        self.assign: list[Delta] = []
        self.rows: dict[int, dict[int, Fraction]] = {}  # basic -> expansion
        self.slack_by_form: dict[tuple, int] = {}
        self.trail: list[tuple] = []
        self.marks: list[int] = []
        self.conflict: frozenset = frozenset()

    # -- variables ---------------------------------------------------------

    def new_var(self) -> int:
        idx = self.n
        self.n += 1
        self.lower.append(None)
        self.upper.append(None)
        self.assign.append(ZERO)
        return idx

    def slack_for(self, form: dict[int, Fraction]) -> int:
        key = tuple(sorted(form.items()))
        if key in self.slack_by_form:
            return self.slack_by_form[key]
        s = self.new_var()
        # Rows may only mention non-basic variables: substitute the current
        # expansion of any variable that is basic right now.
        expanded: dict[int, Fraction] = {}
        for x, c in form.items():
            if x in self.rows:
                for xx, cc in self.rows[x].items():
                    expanded[xx] = expanded.get(xx, Fraction(0)) + c * cc
            else:
                expanded[x] = expanded.get(x, Fraction(0)) + c
        expanded = {x: c for x, c in expanded.items() if c != 0}
        value = ZERO
        for x, c in expanded.items():
            value = value + self.value(x).scale(c)
        self.assign[s] = value
        self.rows[s] = expanded
        self.slack_by_form[key] = s
        return s

    def value(self, x: int) -> Delta:
        return self.assign[x]

    # -- bound assertion with trail -----------------------------------------

    def push(self) -> None:
        self.marks.append(len(self.trail))

    def pop(self) -> None:
        target = self.marks.pop()
        while len(self.trail) > target:
            kind, x, old = self.trail.pop()
            if kind == "lo":
                self.lower[x] = old
            else:
                self.upper[x] = old

    def assert_lower(self, x: int, b: tuple[int, int, int], why=None) -> None:
        b = of_triple(b)
        cur = self.lower[x]
        if cur is not None and b <= cur:
            return
        up = self.upper[x]
        if up is not None and up < b:
            raise Infeasible()
        self.trail.append(("lo", x, cur))
        self.lower[x] = b
        if x not in self.rows and self.assign[x] < b:
            self._update_nonbasic(x, b)

    def assert_upper(self, x: int, b: tuple[int, int, int], why=None) -> None:
        b = of_triple(b)
        cur = self.upper[x]
        if cur is not None and cur <= b:
            return
        lo = self.lower[x]
        if lo is not None and b < lo:
            raise Infeasible()
        self.trail.append(("up", x, cur))
        self.upper[x] = b
        if x not in self.rows and b < self.assign[x]:
            self._update_nonbasic(x, b)

    def _update_nonbasic(self, x: int, v: Delta) -> None:
        delta = v - self.assign[x]
        self.assign[x] = v
        for basic, row in self.rows.items():
            c = row.get(x)
            if c:
                self.assign[basic] = self.assign[basic] + delta.scale(c)

    # -- feasibility ---------------------------------------------------------

    def _violating_basic(self) -> Optional[tuple[int, bool]]:
        for x in sorted(self.rows):
            lo, up = self.lower[x], self.upper[x]
            v = self.assign[x]
            if lo is not None and v < lo:
                return x, True
            if up is not None and up < v:
                return x, False
        return None

    def _pivot(self, leave: int, enter: int, target: Delta) -> None:
        row = self.rows.pop(leave)
        a = row[enter]
        # express enter in terms of leave and the rest
        new_row = {leave: Fraction(1) / a}
        for x, c in row.items():
            if x != enter:
                new_row[x] = -c / a
        theta = (target - self.assign[leave]).scale(Fraction(1) / a)
        self.assign[leave] = target
        self.assign[enter] = self.assign[enter] + theta
        for basic, brow in list(self.rows.items()):
            c = brow.pop(enter, None)
            if c:
                for x, cx in new_row.items():
                    brow[x] = brow.get(x, Fraction(0)) + c * cx
                    if brow[x] == 0:
                        del brow[x]
                self.assign[basic] = self.assign[basic] + theta.scale(c)
        self.rows[enter] = new_row

    def check(self) -> bool:
        while True:
            hit = self._violating_basic()
            if hit is None:
                return True
            x, needs_raise = hit
            row = self.rows[x]
            if needs_raise:
                target = self.lower[x]
                for j in sorted(row):
                    c = row[j]
                    if c > 0:
                        up = self.upper[j]
                        if up is None or self.assign[j] < up:
                            self._pivot(x, j, target)
                            break
                    elif c < 0:
                        lo = self.lower[j]
                        if lo is None or lo < self.assign[j]:
                            self._pivot(x, j, target)
                            break
                else:
                    return False
            else:
                target = self.upper[x]
                for j in sorted(row):
                    c = row[j]
                    if c < 0:
                        up = self.upper[j]
                        if up is None or self.assign[j] < up:
                            self._pivot(x, j, target)
                            break
                    elif c > 0:
                        lo = self.lower[j]
                        if lo is None or lo < self.assign[j]:
                            self._pivot(x, j, target)
                            break
                else:
                    return False

    def concrete_model(self, names: dict[int, str]) -> dict[str, Fraction]:
        """Choose a numeric epsilon small enough for all bounds and report
        exact rationals for the named variables."""
        eps = Fraction(1)
        for x in range(self.n):
            v = self.assign[x]
            for bound, is_lower in ((self.lower[x], True), (self.upper[x], False)):
                if bound is None:
                    continue
                diff = (v - bound) if is_lower else (bound - v)
                # need diff.r + diff.k * eps >= 0 for the chosen eps
                if diff.k < 0 and diff.r > 0:
                    eps = min(eps, diff.r / -diff.k)
        eps = eps / 2
        return {name: self.assign[x].r + self.assign[x].k * eps
                for x, name in names.items()}
