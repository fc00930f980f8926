"""Exact feasibility solver for quantifier-free linear real arithmetic.

A small general simplex (Dutertre & de Moura, CAV 2006): bounds plus slack
rows, a backtrackable bound trail, and Bland's smallest-index pivoting rule,
over delta-rationals, so strict inequalities are exact.  Everything the
search touches is a plain integer:

- each row is integer coefficients over one positive integer denominator;
- each assignment and bound is a triple `(r, k, d)` of ints meaning
  `(r + k*eps) / d` for an infinitesimal `eps > 0`, with `d > 0` and
  `gcd(r, k, d) == 1`.

So a pivot costs integer multiply-adds and one gcd per row it touches, and
no `Fraction` is built inside `check`; `delta` makes a bound from a
`Fraction` and `concrete_model` turns triples back into `Fraction`s.  It
backs the `slicev-smt` command-line solver and can be used in-process;
every answer is derived with exact arithmetic only.

Each infeasibility is explained (Dutertre & de Moura, section 3) by the
tags of the asserted bounds behind it, a tag being whatever the caller
passed along with a bound.  A bound that clashes with the opposite bound of
its variable names those two.  A `False` from `check` names the violated
bound of the basic variable and, for every variable of its row, the bound
that blocks the move the basic variable needs: with the row
`x = sum(a_j * x_j)` and `x` below its lower bound, the upper bound of each
`x_j` with `a_j > 0` and the lower bound of each one with `a_j < 0`.  Since
the row holds whatever the bounds are, those bounds alone are infeasible.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional

# (r, k, d) is the delta-rational (r + k*eps) / d
Triple = tuple[int, int, int]
_ZERO: Triple = (0, 0, 1)


def _lowest(r: int, k: int, d: int) -> Triple:
    g = gcd(r, k, d)
    return (r, k, d) if g == 1 else (r // g, k // g, d // g)


def delta(r: Fraction | int, k: int = 0) -> Triple:
    """The triple of `r + k*eps`; lowest terms, as `r` is."""
    d = r.denominator
    return (r.numerator, k * d, d)


def lt(a: Triple, b: Triple) -> bool:
    """a < b: the real parts decide, then the eps parts."""
    ar, ak, ad = a
    br, bk, bd = b
    x, y = ar * bd, br * ad
    return x < y or (x == y and ak * bd < bk * ad)


def sub(a: Triple, b: Triple) -> Triple:
    ar, ak, ad = a
    br, bk, bd = b
    return _lowest(ar * bd - br * ad, ak * bd - bk * ad, ad * bd)


def add_scaled(a: Triple, t: Triple, c: int, e: int) -> Triple:
    """a + t*c/e, for e > 0."""
    ar, ak, ad = a
    tr, tk, td = t
    m, n = td * e, c * ad
    return _lowest(ar * m + tr * n, ak * m + tk * n, ad * m)


class Infeasible(Exception):
    """The asserted bounds clash; `reason` is the set of tags of the bounds
    that do."""

    def __init__(self, reason: frozenset = frozenset()):
        super().__init__()
        self.reason = reason


def _reduced(row: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """`row` over `den` in lowest terms (divided by the gcd of all)."""
    g = gcd(den, *row.values())
    if g == 1:
        return row, den
    return {x: c // g for x, c in row.items()}, den // g


class Simplex:
    """Feasibility of conjunctions of bounds over linear forms.

    Variables are indices.  Each distinct linear form gets one slack
    variable; asserting an atom tightens a bound, tagged with `why`.  Bound
    changes are kept on a trail so branches of a disjunction can be explored
    with push/pop.  After `check` returns `False`, `conflict` holds the tags
    of the bounds that explain it.
    """

    def __init__(self):
        self.n = 0
        self.lower: list[Optional[Triple]] = []
        self.upper: list[Optional[Triple]] = []
        self.assign: list[Triple] = []
        # the tag each current bound was asserted with
        self.lower_why: list = []
        self.upper_why: list = []
        self.conflict: frozenset = frozenset()
        # basic -> integer coefficients of its non-basic variables; the row
        # is sum(coeff * x) / den[basic], with den[basic] > 0
        self.rows: dict[int, dict[int, int]] = {}
        self.den: dict[int, int] = {}
        # (var, numerator, denominator) triples of a form -> its slack
        self.slack_by_form: dict[tuple, int] = {}
        self.trail: list[tuple] = []
        self.marks: list[int] = []

    # -- variables ---------------------------------------------------------

    def new_var(self) -> int:
        idx = self.n
        self.n += 1
        self.lower.append(None)
        self.upper.append(None)
        self.lower_why.append(None)
        self.upper_why.append(None)
        self.assign.append(_ZERO)
        return idx

    def slack_for(self, form: dict[int, Fraction]) -> int:
        # keyed by ints, as hashing a `Fraction` is slow
        key = tuple(sorted((x, c.numerator, c.denominator)
                           for x, c in form.items()))
        s = self.slack_by_form.get(key)
        if s is not None:
            return s
        s = self.new_var()
        # Rows may only mention non-basic variables: substitute the current
        # row of any variable that is basic right now, over the common
        # denominator of the form's coefficients and those rows.
        d = lcm(*(c.denominator for c in form.values()))
        den = d
        for x in form:
            if x in self.rows:
                den = lcm(den, d * self.den[x])
        expanded: dict[int, int] = {}
        for x, c in form.items():
            num = c.numerator * (den // c.denominator)
            if x in self.rows:
                num //= self.den[x]
                for xx, cc in self.rows[x].items():
                    expanded[xx] = expanded.get(xx, 0) + num * cc
            else:
                expanded[x] = expanded.get(x, 0) + num
        expanded = {x: c for x, c in expanded.items() if c}
        row, den = _reduced(expanded, den)
        self.rows[s], self.den[s] = row, den
        value = _ZERO
        for x, c in row.items():
            v = self.assign[x]
            if v[0] or v[1]:
                value = add_scaled(value, v, c, den)
        self.assign[s] = value
        self.slack_by_form[key] = s
        return s

    # -- bound assertion with trail -----------------------------------------

    def push(self) -> None:
        self.marks.append(len(self.trail))

    def pop(self) -> None:
        target = self.marks.pop()
        while len(self.trail) > target:
            kind, x, old, why = self.trail.pop()
            if kind == "lo":
                self.lower[x], self.lower_why[x] = old, why
            else:
                self.upper[x], self.upper_why[x] = old, why

    def assert_lower(self, x: int, b: Triple, why=None) -> None:
        cur = self.lower[x]
        if cur is not None and not lt(cur, b):
            return
        up = self.upper[x]
        if up is not None and lt(up, b):
            raise Infeasible(frozenset((self.upper_why[x], why)))
        self.trail.append(("lo", x, cur, self.lower_why[x]))
        self.lower[x], self.lower_why[x] = b, why
        if x not in self.rows and lt(self.assign[x], b):
            self._update_nonbasic(x, b)

    def assert_upper(self, x: int, b: Triple, why=None) -> None:
        cur = self.upper[x]
        if cur is not None and not lt(b, cur):
            return
        lo = self.lower[x]
        if lo is not None and lt(b, lo):
            raise Infeasible(frozenset((self.lower_why[x], why)))
        self.trail.append(("up", x, cur, self.upper_why[x]))
        self.upper[x], self.upper_why[x] = b, why
        if x not in self.rows and lt(b, self.assign[x]):
            self._update_nonbasic(x, b)

    def _update_nonbasic(self, x: int, v: Triple) -> None:
        step = sub(v, self.assign[x])
        self.assign[x] = v
        for basic, row in self.rows.items():
            c = row.get(x)
            if c:
                self.assign[basic] = add_scaled(self.assign[basic], step, c,
                                                self.den[basic])

    # -- feasibility ---------------------------------------------------------

    def _violating_basic(self) -> Optional[tuple[int, bool]]:
        for x in sorted(self.rows):
            lo, up = self.lower[x], self.upper[x]
            v = self.assign[x]
            if lo is not None and lt(v, lo):
                return x, True
            if up is not None and lt(up, v):
                return x, False
        return None

    def _pivot(self, leave: int, enter: int, target: Triple) -> None:
        row = self.rows.pop(leave)
        d = self.den.pop(leave)
        a = row.pop(enter)
        # leave = (a*enter + rest) / d, so enter = (d*leave - rest) / a
        if a > 0:
            new_row = {x: -c for x, c in row.items()}
            new_row[leave] = d
        else:
            new_row = row
            new_row[leave] = -d
        new_row, m = _reduced(new_row, abs(a))
        # enter moves by theta = (target - leave's value) * d/a
        theta = add_scaled(_ZERO, sub(target, self.assign[leave]),
                           d if a > 0 else -d, abs(a))
        self.assign[leave] = target
        self.assign[enter] = add_scaled(self.assign[enter], theta, 1, 1)
        for basic, brow in self.rows.items():
            c = brow.pop(enter, None)
            if c:
                # basic = (rest + c*enter) / e with enter = new_row / m,
                # so basic = (m'*rest + c'*new_row) / (e*m'), where
                # g = gcd(c, m), c' = c/g and m' = m/g
                e = self.den[basic]
                g = gcd(c, m)
                cg, mg = c // g, m // g
                if mg != 1:
                    for x in brow:
                        brow[x] *= mg
                for x, cx in new_row.items():
                    v = brow.get(x, 0) + cg * cx
                    if v:
                        brow[x] = v
                    else:
                        del brow[x]
                self.rows[basic], self.den[basic] = _reduced(brow, e * mg)
                self.assign[basic] = add_scaled(self.assign[basic], theta, c,
                                                e)
        self.rows[enter] = new_row
        self.den[enter] = m

    def check(self) -> bool:
        while True:
            hit = self._violating_basic()
            if hit is None:
                return True
            x, needs_raise = hit
            target = self.lower[x] if needs_raise else self.upper[x]
            sign = 1 if needs_raise else -1
            row = self.rows[x]
            # x moves toward `target` when a non-basic variable with a
            # coefficient of that sign rises, or one of the other sign
            # falls; rows hold no zero coefficients.  Bland's rule: the
            # smallest such variable enters.
            for j in sorted(row):
                if row[j] * sign > 0:
                    up = self.upper[j]
                    free = up is None or lt(self.assign[j], up)
                else:
                    lo = self.lower[j]
                    free = lo is None or lt(lo, self.assign[j])
                if free:
                    self._pivot(x, j, target)
                    break
            else:
                # every variable of the row sits at its blocking bound
                own = self.lower_why if needs_raise else self.upper_why
                self.conflict = frozenset(
                    [own[x]] + [self.upper_why[j] if row[j] * sign > 0
                                else self.lower_why[j] for j in row])
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
                r, k, _d = sub(v, bound) if is_lower else sub(bound, v)
                # need r + k*eps >= 0 for the chosen eps
                if k < 0 and r > 0:
                    eps = min(eps, Fraction(r, -k))
        eps = eps / 2
        model = {}
        for x, name in names.items():
            r, k, d = self.assign[x]
            model[name] = (r + k * eps) / d
        return model
