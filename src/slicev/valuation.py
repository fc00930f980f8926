"""Agent valuations: piecewise-linear densities and piecewise-uniform ones.

All arithmetic is exact rational.  Marks are answered with the leftmost
satisfying point.  The agreeing piecewise-uniform construction reproduces a
valuation set on every piece with boundary points in a given finite set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .core import IntervalVal, PieceVal, Rational, SliceError, Value, rat

ZERO = Fraction(0)
ONE = Fraction(1)


class ValuationError(SliceError):
    pass


class TargetExceedsValue(ValuationError):
    """Mark target larger than the value of the marked interval."""


class IrrationalMark(ValuationError):
    """The exact mark point is not rational (linear-density segments only)."""


class DensityTooLow(ValuationError):
    """Requested uniform density below the max density forced by agreement."""


def _merge_intervals(intervals: Iterable[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Union of closed intervals as a sorted list of disjoint intervals."""
    ivs = sorted((lo, hi) for lo, hi in intervals)
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def piece_as_intervals(p: Union[IntervalVal, PieceVal]) -> list[tuple[Fraction, Fraction]]:
    if isinstance(p, IntervalVal):
        return [(p.lo, p.hi)]
    if isinstance(p, PieceVal):
        return [(i.lo, i.hi) for i in p.intervals]
    raise ValuationError(f"not a piece: {p!r}")


def _sqrt_exact(x: Fraction) -> Fraction:
    """Exact rational square root, or raise IrrationalMark."""
    if x < 0:
        raise IrrationalMark(f"negative discriminant {x}")
    pn = math.isqrt(x.numerator)
    pd = math.isqrt(x.denominator)
    if pn * pn != x.numerator or pd * pd != x.denominator:
        raise IrrationalMark(f"sqrt({x}) is irrational")
    return Fraction(pn, pd)


@dataclass(frozen=True)
class Segment:
    lo: Fraction
    hi: Fraction
    slope: Fraction
    intercept: Fraction

    def density_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept

    def mass(self, a: Fraction, b: Fraction) -> Fraction:
        # integral of slope*x + intercept over [a, b]
        return self.slope * (b * b - a * a) / 2 + self.intercept * (b - a)


class Valuation:
    """Normalized measure on [0,1] given by a piecewise-linear density."""

    def __init__(self, segments: Sequence[Segment]):
        segs = sorted(segments, key=lambda s: s.lo)
        if not segs or segs[0].lo != ZERO or segs[-1].hi != ONE:
            raise ValuationError("density must cover [0,1]")
        for a, b in zip(segs, segs[1:]):
            if a.hi != b.lo:
                raise ValuationError("density segments must tile [0,1]")
        for s in segs:
            if s.lo >= s.hi:
                raise ValuationError("empty density segment")
            if s.density_at(s.lo) < 0 or s.density_at(s.hi) < 0:
                raise ValuationError("density must be non-negative")
        total = sum(s.mass(s.lo, s.hi) for s in segs)
        if total != 1:
            raise ValuationError(f"total mass {total} != 1")
        self.segments = tuple(segs)

    @staticmethod
    def uniform() -> "Valuation":
        return Valuation([Segment(ZERO, ONE, ZERO, ONE)])

    @staticmethod
    def from_density_points(points: Sequence[tuple[Rational, Rational]]) -> "Valuation":
        """Density by linear interpolation of (x, density) knots; normalizes."""
        pts = [(rat(x), rat(y)) for x, y in points]
        if pts[0][0] != ZERO or pts[-1][0] != ONE:
            raise ValuationError("knots must span [0,1]")
        segs = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
            slope = (y1 - y0) / (x1 - x0)
            segs.append(Segment(x0, x1, slope, y0 - slope * x0))
        total = sum(s.mass(s.lo, s.hi) for s in segs)
        if total <= 0:
            raise ValuationError("density has zero mass")
        segs = [Segment(s.lo, s.hi, s.slope / total, s.intercept / total) for s in segs]
        return Valuation(segs)

    def eval_interval(self, lo: Fraction, hi: Fraction) -> Fraction:
        if lo > hi:
            raise ValuationError(f"bad interval [{lo}, {hi}]")
        total = ZERO
        for s in self.segments:
            a = max(lo, s.lo)
            b = min(hi, s.hi)
            if a < b:
                total += s.mass(a, b)
        return total

    def mark(self, lo: Fraction, hi: Fraction, target: Fraction) -> Fraction:
        """Leftmost r with V[lo, r] = target; requires target <= V[lo, hi]."""
        if target < 0 or target > self.eval_interval(lo, hi):
            raise TargetExceedsValue(f"mark target {target} not in [0, V[{lo},{hi}]]")
        if target == 0:
            return lo
        acc = ZERO
        for s in self.segments:
            a = max(lo, s.lo)
            b = min(hi, s.hi)
            if a >= b:
                continue
            m = s.mass(a, b)
            if acc + m < target:
                acc += m
                continue
            rem = target - acc
            if s.slope == 0:
                return a + rem / s.intercept
            # solve slope/2 (x^2 - a^2) + intercept (x - a) = rem for x in [a,b]
            disc = (s.intercept + s.slope * a) ** 2 + 2 * s.slope * rem
            sq = _sqrt_exact(disc)
            roots = [(-s.intercept + sq) / s.slope, (-s.intercept - sq) / s.slope]
            inside = [x for x in roots if a <= x <= b]
            if not inside:
                raise IrrationalMark("no rational mark inside segment")
            return min(inside)
        return hi


class PUValuation:
    """Piecewise-uniform valuation: constant density on a support piece.

    The support keeps degenerate [m, m] intervals so right endpoints can
    enumerate a full point set; they carry no mass.
    """

    def __init__(self, support: Sequence[tuple[Rational, Rational]]):
        ivs = [(rat(a), rat(b)) for a, b in support]
        ivs.sort()
        for (a, b) in ivs:
            if a > b:
                raise ValuationError(f"bad support interval [{a}, {b}]")
        for (a, b), (c, d) in zip(ivs, ivs[1:]):
            if c < b:
                raise ValuationError("support intervals must be disjoint")
        length = sum((b - a for a, b in ivs), ZERO)
        if length <= 0:
            raise ValuationError("support must have positive total length")
        self.support = tuple(ivs)
        # Normalization forces the density to be the reciprocal length.
        self.constant = 1 / length

    def eval_interval(self, lo: Fraction, hi: Fraction) -> Fraction:
        if lo > hi:
            raise ValuationError(f"bad interval [{lo}, {hi}]")
        covered = ZERO
        for a, b in self.support:
            x = max(lo, a)
            y = min(hi, b)
            if x < y:
                covered += y - x
        return self.constant * covered

    def mark(self, lo: Fraction, hi: Fraction, target: Fraction) -> Fraction:
        if target < 0 or target > self.eval_interval(lo, hi):
            raise TargetExceedsValue(f"mark target {target} not in [0, V[{lo},{hi}]]")
        if target == 0:
            return lo
        acc = ZERO
        for a, b in self.support:
            x = max(lo, a)
            y = min(hi, b)
            if x >= y:
                continue
            m = self.constant * (y - x)
            if acc + m >= target:
                return x + (target - acc) / self.constant
            acc += m
        return hi


AnyValuation = Union[Valuation, PUValuation]


class ValuationSet:
    """One valuation per agent, agents numbered 1..n."""

    def __init__(self, valuations: Sequence[AnyValuation]):
        if not valuations:
            raise ValuationError("empty valuation set")
        self.valuations = tuple(valuations)

    @property
    def n_agents(self) -> int:
        return len(self.valuations)

    def agent(self, a: int) -> AnyValuation:
        if not 1 <= a <= len(self.valuations):
            raise ValuationError(f"agent {a} out of range")
        return self.valuations[a - 1]

    def __iter__(self):
        return iter(self.valuations)


def val_eval(v: AnyValuation, piece: Union[IntervalVal, PieceVal, Value]) -> Fraction:
    """Measure of a piece: overlapping components are not double-counted."""
    merged = _merge_intervals(piece_as_intervals(piece))
    return sum((v.eval_interval(lo, hi) for lo, hi in merged), ZERO)


def val_mark(v: AnyValuation, lo: Rational, hi: Rational, target: Rational) -> Fraction:
    return v.mark(rat(lo), rat(hi), rat(target))


def _sorted_points(points: Iterable[Rational]) -> list[Fraction]:
    pts = sorted({rat(p) for p in points})
    if not pts or pts[0] != ZERO or pts[-1] != ONE:
        raise ValuationError("point set must contain 0 and 1")
    return pts


def maxdens(v: AnyValuation, points: Iterable[Rational]) -> Fraction:
    """Max over adjacent point pairs of V[m, m'] / (m' - m)."""
    pts = _sorted_points(points)
    best = ZERO
    for a, b in zip(pts, pts[1:]):
        d = v.eval_interval(a, b) / (b - a)
        if d > best:
            best = d
    return best


def maxdens_set(vs: ValuationSet, points: Iterable[Rational]) -> Fraction:
    return max(maxdens(v, points) for v in vs)


def construct_agreeing_pu(vs: ValuationSet, points: Iterable[Rational],
                          density: Rational = None) -> ValuationSet:
    """Piecewise-uniform set agreeing with `vs` on all pieces with boundary
    points in `points`, easily replaceable there.

    Per agent the support packs each gap's mass against its right endpoint:
    [m_i - V[m_{i-1}, m_i]/d, m_i].  Degenerate intervals are kept so right
    endpoints enumerate the whole point set.
    """
    pts = _sorted_points(points)
    floor = maxdens_set(vs, pts)
    d = floor if density is None else rat(density)
    if d < floor:
        raise DensityTooLow(f"density {d} below max density {floor}")
    out = []
    for v in vs:
        support = []
        for a, b in zip(pts, pts[1:]):
            mass = v.eval_interval(a, b)
            support.append((b - mass / d, b))
        out.append(PUValuation(support))
    return ValuationSet(out)


def _piece_choices(pts: list[Fraction]):
    gaps = list(zip(pts, pts[1:]))
    for mask in range(1, 1 << len(gaps)):
        yield [gaps[i] for i in range(len(gaps)) if mask >> i & 1]


def agrees_on(u: ValuationSet, v: ValuationSet, points: Iterable[Rational]) -> bool:
    """Exact agreement on every piece with boundary points in `points`."""
    pts = _sorted_points(points)
    if u.n_agents != v.n_agents:
        return False
    if len(pts) <= 12:
        pieces = _piece_choices(pts)
    else:
        # additivity: checking every gap interval is equivalent
        pieces = ([g] for g in zip(pts, pts[1:]))
    for piece in pieces:
        pv = PieceVal(tuple(IntervalVal(a, b) for a, b in piece))
        for ua, va in zip(u, v):
            if val_eval(ua, pv) != val_eval(va, pv):
                return False
    return True


def easily_replaceable_check(u: ValuationSet, points: Iterable[Rational]) -> bool:
    """Def: supports enumerate `points` minus 0 as right endpoints, each left
    endpoint stays right of the previous point, and all agents share one
    constant."""
    pts = _sorted_points(points)
    targets = pts[1:]
    consts = set()
    for v in u:
        if not isinstance(v, PUValuation):
            return False
        consts.add(v.constant)
        by_right = {}
        for a, b in v.support:
            if b in by_right:
                return False
            by_right[b] = a
        if set(by_right) - set(targets):
            return False
        prev = dict(zip(targets, pts))  # right endpoint -> previous point
        for m in targets:
            left = by_right.get(m, m)  # absent interval == degenerate [m, m]
            if not prev[m] <= left <= m:
                return False
    return len(consts) == 1


# ---------------------------------------------------------------------------
# JSON persistence (rationals as "p/q" strings, "p" for an integer)
# ---------------------------------------------------------------------------

def valuation_to_json(v: AnyValuation) -> dict:
    if isinstance(v, PUValuation):
        return {"type": "piecewise_uniform",
                "support": [[str(a), str(b)] for a, b in v.support]}
    return {"type": "piecewise_linear",
            "segments": [[str(s.lo), str(s.hi), str(s.slope), str(s.intercept)]
                         for s in v.segments]}


def valuation_from_json(data: dict) -> AnyValuation:
    if data["type"] == "piecewise_uniform":
        return PUValuation([(rat(a), rat(b)) for a, b in data["support"]])
    if data["type"] == "piecewise_linear":
        return Valuation([Segment(rat(lo), rat(hi), rat(sl), rat(ic))
                          for lo, hi, sl, ic in data["segments"]])
    raise ValuationError(f"unknown valuation kind {data.get('type')!r}")


def valuation_set_to_json(vs: ValuationSet) -> dict:
    return {"agents": vs.n_agents,
            "valuations": [valuation_to_json(v) for v in vs]}


def valuation_set_from_json(data: dict) -> ValuationSet:
    vs = ValuationSet([valuation_from_json(d) for d in data["valuations"]])
    if vs.n_agents != data.get("agents", vs.n_agents):
        raise ValuationError("agent count mismatch in valuation set")
    return vs
