"""Trade-off cycles between total and beneficiary matches.

For a matching m, the associated graph has an edge p -> c when p is
eligible for category c and not already placed there, and an edge c -> p
when m places p in c.  An applicable cycle (p1, c1, ..., pk, ck) starts
at an unmatched patient, passes from each c_i to a patient whom m places
there, and ends at a category under its quota; applying it moves every
p_i to c_i, raising the total match count by exactly one at some
beneficiary-match cost.  A path may pass a category twice, through two
of its patients, so only the patients of a cycle are distinct.  The
cheapest applicable cycle steps from one frontier point to the next, so
walking cheapest cycles from the max-beneficiary endpoint materializes a
witness matching at every frontier point.  Only verify and the demos
walk; production builds a witness between two kinks from their sweep
rows (frontier.witness_at).

Every matching here is a category row, as in frontier and the oracle
(row[i] is the index of patient i's category, or -1), and a Cycle lists
indices.  Each public function refuses a row that is not a matching of
the instance with MatchingError (Problem.check_row); a walk checks
only its start row.

Cheapest-cycle search is one Bellman-Ford on patients and categories
from every unmatched patient at once, over (cost, start rank, hops)
labels with predecessor links, where an alternating path's cost is
exactly the beneficiary loss of the cycle it closes.  Costs can be
negative on a dominated input; a negative-cost cycle is reported as such
rather than looped over (lexicographic relaxation converges in V-1 rounds
otherwise, since zero-cost loops only add hops).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .core import MatchPoint, Problem, row_point


class CycleError(ValueError):
    """A cycle is not applicable in the given matching's associated graph."""


class DominatedInputError(ValueError):
    """The input matching is detectably dominated (non-positive-loss cycle)."""


@dataclass(frozen=True)
class Cycle:
    """Alternating patient and category indices (p1, c1, ..., pk, ck) closing back to p1."""

    patients: tuple[int, ...]
    categories: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "patients", tuple(map(operator.index, self.patients)))
        object.__setattr__(self, "categories", tuple(map(operator.index, self.categories)))
        if len(self.patients) != len(self.categories) or not self.patients:
            raise CycleError("cycle must alternate equal numbers of patients and categories")
        if len(set(self.patients)) != len(self.patients):
            raise CycleError("cycle patients must be distinct")

    def __len__(self) -> int:
        return len(self.patients)


def apply_cycle(pr: Problem, row: Sequence[int], c: Cycle) -> tuple[int, ...]:
    """The category row with every cycle patient in its cycle category;
    everyone else stays put.  Raises CycleError unless c is an applicable
    cycle in the graph of the row's matching."""
    return _apply(pr, pr.check_row(row), c)


def _apply(pr: Problem, row: Sequence[int], c: Cycle) -> tuple[int, ...]:
    codes, names = pr.pair_codes, pr.categories
    n_p, n_c = codes.shape
    for p, k in zip(c.patients, c.categories):
        if not (0 <= p < n_p and 0 <= k < n_c):
            raise CycleError(f"cycle not applicable: pair ({p}, {k}) outside {n_p} patients and {n_c} categories")
    p1, last = c.patients[0], c.categories[-1]
    if row[p1] != -1:
        raise CycleError(f"cycle not applicable: patient {pr.patients[p1]} is matched")
    if row.count(last) == pr.quotas[last]:
        raise CycleError(f"cycle not applicable: category {names[last]} is full")
    for p, k in zip(c.patients, c.categories):
        if codes[p, k] == 0:
            raise CycleError(f"cycle not applicable: {pr.patients[p]} not eligible for {names[k]}")
        if row[p] == k:
            raise CycleError(f"cycle not applicable: {pr.patients[p]} already placed in {names[k]}")
    for k, p in zip(c.categories, c.patients[1:]):
        if row[p] != k:
            raise CycleError(f"cycle not applicable: category {names[k]} does not hold {pr.patients[p]}")
    out = list(row)
    for p, k in zip(c.patients, c.categories):
        out[p] = k
    return tuple(out)


def cheapest_cycle(pr: Problem, row: Sequence[int]) -> Cycle | None:
    """Applicable cycle of minimum beneficiary loss, or None if none exists.

    Ties break by unmatched-patient order, then by the order of the
    categories under quota, then path length, so the result is
    deterministic.  Raises DominatedInputError when the cheapest loss is
    not positive or a negative-cost loop exists; either certifies the input
    matching is dominated.

    One Bellman-Ford starts from every unmatched patient at once.  Each
    node, patient or category, carries the least (cost, start rank, hops)
    label over the alternating paths that reach it, where a start's rank
    is its position among the unmatched patients with an eligible
    category, and each category records the patient that last strictly
    improved its label.  This returns the cycle that one search per start,
    compared pair by pair, would return:

    - Same best key.  A start's rank is the same at every node of its
      paths, so a node's label is the least over starts of that start's
      own (cost, hops) label with the rank inserted, and the least
      (cost, start rank, category rank, hops) over targets is the least
      over (start, target) pairs.
    - Same candidate predecessors.  Every node on the chosen path carries
      the chosen start's own label: a start that labelled such a node
      better would also reach the target better.  So each category on the
      path has the predecessors a search from that start alone sees.
    - Same predecessor.  Within a round patients relax categories, then
      categories relax the patients placed there, so a label of h hops
      first appears in round ceil(h/2), when every patient that can give
      the category its final label already holds its own.  Patients are
      scanned in index order, so the first strict improvement comes from
      the lowest-index predecessor.
    - Starts keep their labels.  An unmatched patient has no incoming
      edge, so every start keeps (0, rank, 0).

    Once the labels settle, a category's label is its recorded patient's
    plus one hop, and a placed patient's label is its category's plus one
    hop, so the links lead back to the start in strictly fewer hops.
    """
    return _cheapest(pr, pr.check_row(row))


def _cheapest(pr: Problem, row: Sequence[int]) -> Cycle | None:
    n_p, n_c = pr.pair_codes.shape
    elig = pr.eligible_categories
    bene = pr.beneficiary_categories
    # Cost of moving patient i to category c: loses their current beneficiary
    # match (if any), gains one if c makes them a beneficiary.
    cur_bene = [1 if row[i] in bene[i] else 0 for i in range(n_p)]
    starts = [i for i in range(n_p) if row[i] == -1 and elig[i]]
    free = list(pr.quotas)
    for c in row:
        if c != -1:
            free[c] -= 1
    targets = [c for c in range(n_c) if free[c]]
    if not starts or not targets:
        return None

    label: list[tuple[int, int, int] | None] = [None] * n_p
    category_label: list[tuple[int, int, int] | None] = [None] * n_c
    pred = [-1] * n_c  # patient that last strictly improved each category's label
    for rank, i in enumerate(starts):
        label[i] = (0, rank, 0)
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        if rounds > n_p + n_c:
            raise DominatedInputError(
                "dominated input: negative-loss reassignment loop detected"
            )
        for i in range(n_p):
            if label[i] is None:
                continue
            cost, rank, hops = label[i]
            for c in elig[i]:
                if c == row[i]:
                    continue
                w = cur_bene[i] - (1 if c in bene[i] else 0)
                cand = (cost + w, rank, hops + 1)
                if category_label[c] is None or cand < category_label[c]:
                    category_label[c] = cand
                    pred[c] = i
                    changed = True
        for i in range(n_p):
            c = row[i]
            if c == -1 or category_label[c] is None:
                continue
            cost, rank, hops = category_label[c]
            cand = (cost, rank, hops + 1)
            if label[i] is None or cand < label[i]:
                label[i] = cand
                changed = True

    reached = [
        (category_label[t][0], category_label[t][1], category_rank, category_label[t][2], t)
        for category_rank, t in enumerate(targets)
        if category_label[t] is not None
    ]
    if not reached:
        return None
    best_cost, *_, c = min(reached)
    patients: list[int] = []
    categories: list[int] = []
    while c != -1:
        i = pred[c]
        patients.append(i)
        categories.append(c)
        c = row[i]
    # the loss, recounted without applying the cycle: only its patients
    # move, since each category it enters is under quota or gives up the
    # next of them
    delta = sum(cur_bene[i] for i in patients) - sum(c in bene[i] for i, c in zip(patients, categories))
    if delta != best_cost:
        raise RuntimeError("cycle cost disagrees with its beneficiary loss")
    if delta <= 0:
        raise DominatedInputError(
            f"dominated input: applicable cycle with beneficiary loss {delta}"
        )
    return Cycle(patients=tuple(reversed(patients)), categories=tuple(reversed(categories)))


def frontier_walk(pr: Problem, start: Sequence[int]) -> list[tuple[MatchPoint, tuple[int, ...]]]:
    """Apply cheapest cycles until none remain, recording every stop (point, category row).

    Started from a max-beneficiary-then-max-total matching this visits every
    frontier point in order.  Raises DominatedInputError if the walk betrays
    a dominated input (non-positive loss, or losses that shrink along the
    way, which a frontier matching can never produce).
    """
    current, prev_loss = tuple(pr.check_row(start)), 0  # a cycle never loses less than 1
    stops = [(row_point(pr.pair_codes, current), current)]
    while (cycle := _cheapest(pr, current)) is not None:
        current = _apply(pr, current, cycle)
        pt = row_point(pr.pair_codes, current)
        loss = stops[-1][0].b - pt.b
        if loss < prev_loss:
            raise DominatedInputError("dominated input: beneficiary loss decreased along the walk")
        prev_loss = loss
        stops.append((pt, current))
    return stops
