"""Self-tests of the benchmark's output checks: each rejects a planted wrong
output and accepts the real one.

    PYTHONPATH=src python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import sys
import unittest
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks                                        # noqa: E402
from slicev.solver import VerifyConfig, verify_program   # noqa: E402
from slicev.syntax import parse                      # noqa: E402
from workloads import PUBLISHED_PATHS                # noqa: E402

BROKEN = ROOT / "corpus" / "bad" / "cut_choose_cutter_chooses.slice"
SOLVER = [sys.executable, "-m", "slicev.smtlib"]


def verified(path: Path) -> tuple:
    """The protocol and its round-report entry, as verify_round.py makes it."""
    program = parse(path.read_text())
    result = verify_program(program, VerifyConfig(solver=SOLVER))
    cex = result.counterexample
    return program, {
        "verdict": result.verdict,
        "unknowns": [u.reason for u in result.unknowns],
        "paths": result.stats.paths,
        "queries": result.stats.queries,
        "orders_pruned": result.stats.orders_pruned,
        "counterexample": cex.to_json() if cex else None,
    }


class CounterexampleChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.program, cls.out = verified(BROKEN)

    def test_real_counterexample_passes(self):
        self.assertEqual(checks.invalid_problems(self.program, self.out), [])

    def test_dropped_support_interval_rejected(self):
        out = copy.deepcopy(self.out)
        cex = out["counterexample"]
        envious = cex["witness"]["envious"]
        support = cex["valuations"]["valuations"][envious - 1]["support"]
        del support[0]
        self.assertNotEqual(checks.invalid_problems(self.program, out), [])

    def test_swapped_agents_rejected(self):
        out = copy.deepcopy(self.out)
        w = out["counterexample"]["witness"]
        w["envious"], w["envied"] = w["envied"], w["envious"]
        self.assertNotEqual(checks.invalid_problems(self.program, out), [])

    def test_valid_verdict_for_broken_protocol_rejected(self):
        out = dict(self.out, verdict="valid", counterexample=None)
        self.assertNotEqual(checks.invalid_problems(self.program, out), [])


class AllocationChecks(unittest.TestCase):
    HALVES = [[(Fraction(0), Fraction(1, 2))], [(Fraction(1, 2), Fraction(1))]]
    UNIFORM = [[(Fraction(0), Fraction(1))]] * 2

    def test_fair_allocation_passes(self):
        self.assertEqual(
            checks.allocation_problems(self.HALVES, self.UNIFORM), [])

    def test_real_envy_rejected(self):
        pieces = [[(Fraction(0), Fraction(1, 4))],
                  [(Fraction(1, 4), Fraction(1))]]
        problems = checks.allocation_problems(pieces, self.UNIFORM)
        self.assertTrue(any("agent 1 envies agent 2" in p for p in problems))

    def test_measure_is_covered_over_support_length(self):
        support = [(Fraction(0), Fraction(1, 4)), (Fraction(1, 2), Fraction(1))]
        piece = [(Fraction(1, 8), Fraction(3, 4))]
        self.assertEqual(checks.measure(support, piece), Fraction(1, 2))


class CountChecks(unittest.TestCase):
    def test_profile_matches_published_table(self):
        for name, paths in PUBLISHED_PATHS.items():
            body = parse((ROOT / "corpus" / name).read_text()).body
            self.assertEqual(sum(checks.mark_profile(body).values()), paths)

    def test_order_count_of_surplus(self):
        body = parse((ROOT / "corpus" / "surplus.slice").read_text()).body
        self.assertEqual(checks.order_count(checks.mark_profile(body)), 4)

    def test_wrong_order_bookkeeping_rejected(self):
        body = parse((ROOT / "corpus" / "surplus.slice").read_text()).body
        profile = checks.mark_profile(body)
        out = {"verdict": "valid", "unknowns": [], "paths": 2, "queries": 3,
               "orders_pruned": 0}
        self.assertNotEqual(checks.valid_problems(out, 2, profile), [])
        out["queries"] = 4
        self.assertEqual(checks.valid_problems(out, 2, profile), [])


if __name__ == "__main__":
    unittest.main()
