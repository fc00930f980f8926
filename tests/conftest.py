import random
from fractions import Fraction
from pathlib import Path

import pytest

from slicev.syntax import Program, parse
from slicev.valuation import Valuation, ValuationSet

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"

GOOD_PROTOCOLS = {
    "cut_choose": CORPUS / "cut_choose.slice",
    "surplus": CORPUS / "surplus.slice",
    "waste_makes_haste3": CORPUS / "waste_makes_haste3.slice",
    "selfridge_conway_surplus": CORPUS / "selfridge_conway_surplus.slice",
    "selfridge_conway_full": CORPUS / "selfridge_conway_full.slice",
}

BAD_PROTOCOLS = {
    "cut_choose_cutter_chooses": CORPUS / "bad" / "cut_choose_cutter_chooses.slice",
    "cut_choose_swapped_branch": CORPUS / "bad" / "cut_choose_swapped_branch.slice",
    "surplus_unsafe_trim": CORPUS / "bad" / "surplus_unsafe_trim.slice",
    "scs_allocates_trimmings": CORPUS / "bad" / "scs_allocates_trimmings.slice",
    "scs_not_forced": CORPUS / "bad" / "scs_not_forced.slice",
    "scf_taker_cuts": CORPUS / "bad" / "scf_taker_cuts.slice",
    "aziz_mackenzie3_no_favorite_check":
        CORPUS / "bad" / "aziz_mackenzie3_no_favorite_check.slice",
}

ILL_TYPED_SURPLUS = CORPUS / "bad" / "surplus_ill_typed.slice"


def load(path) -> Program:
    return parse(Path(path).read_text())


def load_source(path) -> str:
    return Path(path).read_text()


@pytest.fixture(scope="session")
def programs() -> dict:
    return {name: load(path) for name, path in GOOD_PROTOCOLS.items()}


@pytest.fixture(scope="session")
def bad_programs() -> dict:
    return {name: load(path) for name, path in BAD_PROTOCOLS.items()}


def random_piecewise_linear(rng: random.Random, max_segments: int = 4) -> Valuation:
    k = rng.randint(1, max_segments)
    xs = [Fraction(0)] + sorted(
        Fraction(c, 24) for c in rng.sample(range(1, 24), k - 1)) + [Fraction(1)]
    ys = [Fraction(rng.randint(0, 8), 4) for _ in range(k + 1)]
    if all(y == 0 for y in ys):
        ys[0] = Fraction(1)
    return Valuation.from_density_points(list(zip(xs, ys)))


def random_pl_set(rng: random.Random, n_agents: int,
                  max_segments: int = 4) -> ValuationSet:
    return ValuationSet(
        [random_piecewise_linear(rng, max_segments) for _ in range(n_agents)])
