"""The benchmark's workloads: which corpus files, and how each is verified.

Every workload is fixed by corpus files; the seed only drives the output
checks.  `PUBLISHED_PATHS` is the path-count table of the repository README,
kept here so the checks do not take path counts from the verifier.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    files: tuple[str, ...]       # corpus-relative protocols to verify
    expect: str                  # verdict every one of them must reach
    jobs: int                    # VerifyConfig.jobs in the timed runs
    prune: bool                  # False is `slicev verify --all-orders`
    rejected: tuple[str, ...] = ()   # files check_wellformed must reject


BAD = (
    "bad/aziz_mackenzie3_no_favorite_check.slice",
    "bad/cut_choose_cutter_chooses.slice",
    "bad/cut_choose_swapped_branch.slice",
    "bad/scf_taker_cuts.slice",
    "bad/scs_allocates_trimmings.slice",
    "bad/scs_not_forced.slice",
    "bad/surplus_unsafe_trim.slice",
)

WORKLOADS = {
    # 216 paths, 216 unsat queries, 1080 pruned orders: translation-bound.
    "scs_valid": Workload(
        files=("selfridge_conway_surplus.slice",), expect="valid",
        jobs=1, prune=True),
    # Every mark order: about 150 queries sharing antecedents; solver-bound.
    "orders_all": Workload(
        files=("waste_makes_haste3.slice", "cut_choose.slice",
               "surplus.slice"),
        expect="valid", jobs=1, prune=False),
    # sat answers, models, counterexample replay and the worker pool.
    "counterexamples": Workload(
        files=BAD, expect="invalid", jobs=2, prune=True,
        rejected=("bad/surplus_ill_typed.slice",)),
}

PUBLISHED_PATHS = {
    "cut_choose.slice": 2,
    "surplus.slice": 2,
    "waste_makes_haste3.slice": 24,
    "selfridge_conway_surplus.slice": 216,
    "selfridge_conway_full.slice": 1800,
}
