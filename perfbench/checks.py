"""Output checks made apart from the verifier.

Envy is judged with this file's own exact measure of a piecewise-uniform
valuation (covered length over support length), path and order counts come
from this file's own walk of the protocol AST, and counterexamples are
replayed from their JSON form.  Every check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

from slicev.core import Expr, If, Mark
from slicev.interp import evaluate
from slicev.valuation import PUValuation, ValuationSet

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Exact measure of piecewise-uniform valuations
# ---------------------------------------------------------------------------

def _union(intervals):
    out = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def measure(support, piece) -> Fraction:
    """Value of `piece` to an agent uniform on the disjoint `support`."""
    length = sum((hi - lo for lo, hi in support), ZERO)
    covered = sum((max(ZERO, min(b, d) - max(a, c))
                   for a, b in _union(piece) for c, d in support), ZERO)
    return covered / length


def _intervals(value):
    value = getattr(value, "inner", value)      # read-only wrapper
    if hasattr(value, "intervals"):
        return [(iv.lo, iv.hi) for iv in value.intervals]
    return [(value.lo, value.hi)]


def allocation_pieces(value) -> list:
    """An allocation value as one list of (lo, hi) intervals per agent."""
    return [_intervals(item) for item in value.items]


def allocation_problems(pieces, supports) -> list[str]:
    """Envy and overlap in an allocation, judged with `measure`."""
    problems = []
    n = len(supports)
    if len(pieces) != n:
        return [f"allocation has {len(pieces)} pieces for {n} agents"]
    for a in range(n):
        own = measure(supports[a], pieces[a])
        for b in range(n):
            other = measure(supports[a], pieces[b])
            if own < other:
                problems.append(f"agent {a + 1} envies agent {b + 1}: "
                                f"{own} < {other}")
    for a in range(n):
        for b in range(a + 1, n):
            for lo, hi in pieces[a]:
                for c, d in pieces[b]:
                    if max(lo, c) < min(hi, d):
                        problems.append(f"pieces {a + 1} and {b + 1} overlap")
    return problems


# ---------------------------------------------------------------------------
# Paths and mark orders, counted from the AST
# ---------------------------------------------------------------------------

def _subexpressions(e: Expr):
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        if isinstance(value, Expr):
            yield value
        elif isinstance(value, tuple):
            yield from (v for v in value if isinstance(v, Expr))


def _convolve(a: Counter, b: Counter) -> Counter:
    out = Counter()
    for i, m in a.items():
        for j, n in b.items():
            out[i + j] += m * n
    return out


def mark_profile(e: Expr) -> Counter:
    """Paths of `e` by the number of marks on them: {marks: paths}.

    A path takes one branch of every `if` it reaches, and the guard's paths
    combine with either branch's; any other node combines its children's.
    """
    if isinstance(e, If):
        return _convolve(mark_profile(e.guard),
                         mark_profile(e.then) + mark_profile(e.els))
    out = Counter({1 if isinstance(e, Mark) else 0: 1})
    for child in _subexpressions(e):
        out = _convolve(out, mark_profile(child))
    return out


def order_count(profile: Counter) -> int:
    """Sum over paths of (marks on the path)!: every order of every path."""
    return sum(n * math.factorial(k) for k, n in profile.items())


# ---------------------------------------------------------------------------
# Verdict checks
# ---------------------------------------------------------------------------

def valid_problems(out: dict, published_paths: int, profile: Counter
                   ) -> list[str]:
    """A `valid` run: verdict, path count and order bookkeeping.

    `out` is one protocol's entry of a round's output; a traced round adds
    `orders_kept`, counted where the verifier picks each path's orders.
    """
    problems = []
    if out["verdict"] != "valid" or out["unknowns"]:
        problems.append(f"verdict {out['verdict']}, unknowns "
                        f"{out['unknowns']}")
    own_paths = sum(profile.values())
    if not out["paths"] == own_paths == published_paths:
        problems.append(f"paths: verifier {out['paths']}, AST walk "
                        f"{own_paths}, published {published_paths}")
    kept = out.get("orders_kept", out["queries"])
    if out["queries"] != kept:
        problems.append(f"queries {out['queries']} != orders kept {kept}")
    if kept + out["orders_pruned"] != order_count(profile):
        problems.append(f"kept {kept} + pruned {out['orders_pruned']} != "
                        f"sum of (marks)! {order_count(profile)}")
    return problems


def random_pu_supports(rng: random.Random, n_agents: int, grid: int = 60,
                       max_intervals: int = 3) -> list:
    supports = []
    for _ in range(n_agents):
        k = rng.randint(1, max_intervals)
        cuts = sorted(rng.sample(range(1, grid), 2 * k))
        supports.append([(Fraction(cuts[2 * i], grid),
                          Fraction(cuts[2 * i + 1], grid)) for i in range(k)])
    return supports


def sample_problems(program, rng: random.Random, samples: int) -> list[str]:
    """Run the protocol under random piecewise-uniform valuation sets; no
    run may end in envy or in overlapping pieces."""
    problems = []
    for _ in range(samples):
        supports = random_pu_supports(rng, program.agents)
        vs = ValuationSet([PUValuation(s) for s in supports])
        try:
            alloc = evaluate(program.body, vs).value
        except Exception as exc:   # a valid protocol must run to the end
            problems.append(f"run under {supports} failed: {exc}")
            continue
        found = allocation_problems(allocation_pieces(alloc), supports)
        problems.extend(f"under {supports}: {p}" for p in found)
    return problems


def supports_problems(valuations: dict, n_agents: int) -> list[str]:
    """Each agent's support: non-empty, sorted, disjoint, inside [0, 1]."""
    problems = []
    items = valuations.get("valuations", [])
    if len(items) != n_agents or valuations.get("agents") != n_agents:
        return [f"valuations for {len(items)} agents, expected {n_agents}"]
    for a, v in enumerate(items, 1):
        if v.get("type") != "piecewise_uniform":
            problems.append(f"agent {a}: not piecewise uniform")
            continue
        support = [(Fraction(lo), Fraction(hi)) for lo, hi in v["support"]]
        if not support:
            problems.append(f"agent {a}: empty support")
        for lo, hi in support:
            if not ZERO <= lo < hi <= ONE:
                problems.append(f"agent {a}: bad interval [{lo}, {hi}]")
        for (_, b), (c, _) in zip(support, support[1:]):
            if c < b:
                problems.append(f"agent {a}: intervals out of order or "
                                "overlapping")
    return problems


def invalid_problems(program, out: dict) -> list[str]:
    """An `invalid` run: the counterexample replays, pinned to its mark
    table, to an allocation where `measure` finds exactly the reported envy."""
    if out["verdict"] != "invalid":
        return [f"verdict {out['verdict']} for a broken protocol"]
    cex = out.get("counterexample")
    if cex is None:
        return ["invalid verdict without a counterexample"]
    problems = supports_problems(cex["valuations"], program.agents)
    if problems:
        return problems
    supports = [[(Fraction(lo), Fraction(hi)) for lo, hi in v["support"]]
                for v in cex["valuations"]["valuations"]]
    w = cex["witness"]
    a, b = w["envious"], w["envied"]
    if not (1 <= a <= program.agents and 1 <= b <= program.agents) or a == b:
        return [f"witness agents {a}, {b} out of range"]
    table = {int(k): Fraction(v) for k, v in cex["mark_table"].items()}
    try:
        vs = ValuationSet([PUValuation(s) for s in supports])
        alloc = evaluate(program.body, vs, replay=table).value
    except Exception as exc:   # a counterexample must replay
        return [f"replay failed: {exc}"]
    pieces = allocation_pieces(alloc)
    if len(pieces) != program.agents:
        return [f"replay gave {len(pieces)} pieces"]
    own = measure(supports[a - 1], pieces[a - 1])
    other = measure(supports[a - 1], pieces[b - 1])
    if not own < other:
        problems.append(f"agent {a} does not envy agent {b}: {own} >= {other}")
    if (own, other) != (Fraction(w["own_value"]), Fraction(w["other_value"])):
        problems.append(f"witness values {w['own_value']}, "
                        f"{w['other_value']} but replay gives {own}, {other}")
    return problems
