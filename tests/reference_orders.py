"""The mark-order enumeration as it was before the linear-extension search:
every permutation of the marks, filtered pair by pair against the reach
preorder (`compatible_replacements`), and every permutation unfiltered
(`enumerate_replacements`) for unpruned runs.  Kept as the oracle that
`logic.compatible_replacements` must match, list and order alike."""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from slicev.logic import (
    ONE_KEY, ZERO_KEY, Replacement, ordering_facts,
    replacement_from_permutation,
)


def enumerate_replacements(yids: Iterable[int]) -> Iterator[Replacement]:
    """All total orders of the mark variables strictly between 0 and 1."""
    for perm in itertools.permutations(sorted(yids)):
        yield replacement_from_permutation(perm)



def compatible_replacements(yids: Iterable[int], facts: tuple[list, list]
                            ) -> list[Replacement]:
    """Total orders consistent with the implied point ordering.

    Non-strict facts admit ties; for a tied pair the order with the smaller
    mark id first stands in for both, which keeps exactly one witness order
    per tie pattern.  An empty result means the constraint itself forces an
    impossible ordering, so every replacement's condition is vacuous.
    """
    yids = sorted(yids)
    nonstrict, strict = facts
    elems = [ZERO_KEY] + yids + [ONE_KEY]
    idx = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    reach = [[False] * n for _ in range(n)]
    for i in range(n):
        reach[i][i] = True
        reach[0][i] = True           # 0 <= everything
        reach[i][n - 1] = True       # everything <= 1
    for a, b in nonstrict + strict:
        if a in idx and b in idx:
            reach[idx[a]][idx[b]] = True
    for k in range(n):
        for i in range(n):
            if reach[i][k]:
                row, rowk = reach[i], reach[k]
                for j in range(n):
                    if rowk[j]:
                        row[j] = True
    for a, b in strict:
        if a in idx and b in idx and reach[idx[b]][idx[a]]:
            return []  # a < b and b <= a together are unsatisfiable
    out = []
    for perm in itertools.permutations(yids):
        pos = {e: i for i, e in enumerate(perm)}
        ok = True
        for x, y in itertools.combinations(yids, 2):
            le = reach[idx[x]][idx[y]]
            ge = reach[idx[y]][idx[x]]
            if le and ge:
                want = pos[x] < pos[y] if x < y else pos[y] < pos[x]
            elif le:
                want = pos[x] < pos[y]
            elif ge:
                want = pos[y] < pos[x]
            else:
                continue
            if not want:
                ok = False
                break
        if ok:
            out.append(replacement_from_permutation(perm))
    return out




def path_replacements(tr, prune: bool) -> list[Replacement]:
    """The orders the verifier checked for the translated path `tr`."""
    if not prune:
        return list(enumerate_replacements(tr.mark_ids))
    return compatible_replacements(tr.mark_ids, ordering_facts(tr.constraint))
