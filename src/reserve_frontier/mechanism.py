"""Policy layer on top of the frontier: share targets, priorities, choice rules.

Selection rule: if the share target is at or above the share of the
max-beneficiary endpoint, return that endpoint; otherwise return the
frontier point with the largest total-match count whose share still meets
the target.  Shares fall strictly as the frontier adds matches, so this is
the point closest to the target from above.  That the selected point
dominates every matching whose share is exactly the target is checked
against the oracle by verify's mechanism suite, not here.

Priority orders are strict per-category orders with the tier structure
beneficiaries > other eligible > ineligible.  A frontier matching that
seats someone over a higher-priority unmatched patient is repaired by
swapping the two inside the category, which cannot change the matching's
score on admissible orders.

An admissible order ranks every eligible patient above every ineligible
one, so a category's eligible patients hold its top |eligible| ranks and
no ineligible patient outranks one the category can seat.  The priority
functions therefore rank only eligible patients, and refuse a matching
that seats a patient where they are not eligible (MatchingError).  They
work on seat rows (row[i] is patient i's seat index, or -1) and on
pr.rank_rows, each category's eligible patient indices best first;
rank_sum, respects_priority and repair_priority check and index a
Matching, and name what they return.  solve repairs the row it selects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    BudgetExceededError,
    Matching,
    MatchPoint,
    Problem,
    SeatInstance,
    beneficiary_share,
    validate_matching,
)
from .frontier import Frontier, _frontier_by_index, _witness_by_index, witness_at


class NoNonEmptyMatchingError(ValueError):
    """The instance admits no non-empty eligible matching."""


def _select_point(points: Sequence[MatchPoint], beta_star: Fraction) -> MatchPoint:
    """The selection rule's point among the frontier points (module docstring)."""
    if points[-1].e == 0:
        raise NoNonEmptyMatchingError("no non-empty matching exists")
    qualifying = [p for p in points if beneficiary_share(p) >= beta_star]
    return qualifying[-1] if qualifying else points[0]


def _select_from(si: SeatInstance, f: Frontier, beta_star: Fraction) -> tuple[Matching, MatchPoint]:
    """The selected point and its witness, the one with_all_witnesses would give:
    f's own at a kink, else one k-cardinality solve (witness_at)."""
    pt = _select_point(f.points, beta_star)
    return (f.witnesses[pt] if pt in f.witnesses else witness_at(si, pt)), pt


def _select(codes: np.ndarray, beta_star: Fraction) -> tuple[MatchPoint, np.ndarray]:
    """_select_from on a pair-code matrix, with the witness as a seat row: the
    kink's sweep row, else one k-cardinality solve (_witness_by_index)."""
    points, kink_rows = _frontier_by_index(codes)
    pt = _select_point(points, beta_star)
    return pt, kink_rows[pt] if pt in kink_rows else _witness_by_index(codes, pt)


def select_approx_on_frontier(pr: Problem) -> tuple[Matching, MatchPoint]:
    """The frontier matching meeting the share target approximately.

    Raises NoNonEmptyMatchingError when the instance has no eligible pair.
    """
    if pr.beta_star is None:
        raise ValueError("selection needs a share target beta_star")
    si = pr.seat_instance
    pt, row = _select(si.pair_codes, pr.beta_star)
    return si.name_row(row.tolist()), pt


def _first_swap(pr: Problem, row: Sequence[int]) -> tuple[int, int] | None:
    """The next swap of repair on row, as (seated, unmatched) patient indices:
    in the first category, in instance order, whose best-ranked unmatched
    patient outranks its worst-ranked seated one, those two; None if none."""
    category = pr.seat_instance.category_index
    for c, rank in enumerate(pr.rank_rows):
        free = seated = None
        for i in rank:
            if row[i] < 0:
                if free is None:
                    free = i
            elif free is not None and category[row[i]] == c:
                seated = i
        if seated is not None:
            return seated, free
    return None


def _repair(pr: Problem, row: Sequence[int]) -> list[int]:
    """repair_priority on a seat row: the repaired row."""
    row, codes = list(row), pr.seat_instance.pair_codes
    while (swap := _first_swap(pr, row)) is not None:
        p, q = swap
        s = row[p]
        if (codes[p, s] == 2) != (codes[q, s] == 2):
            raise ValueError(
                "input was not a frontier matching: a priority swap changed its score"
            )
        row[p], row[q] = -1, s
    return row


def _violations(pr: Problem, row: Sequence[int]) -> list[tuple[int, int, int]]:
    """respects_priority on a seat row, as (category, seated, unmatched)
    indices, categories in instance order and each by rank."""
    category, out = pr.seat_instance.category_index, []
    for c, rank in enumerate(pr.rank_rows):
        free: list[int] = []
        for i in rank:
            if row[i] < 0:
                free.append(i)
            elif free and category[row[i]] == c:
                out += [(c, i, q) for q in free]
    return out


def _seat_row(pr: Problem, m: Matching) -> list[int]:
    """m's seat row, once m is known to pair known patients with known seats
    they are eligible for; raises MatchingError otherwise."""
    si = pr.seat_instance
    return si.index_matching(validate_matching(si, m))[0]


def rank_sum(pr: Problem, m: Matching) -> int:
    """Sum of assigned patients' priority ranks in their assigned categories.

    Like respects_priority and repair_priority, this ranks by the tier
    order when pr names no priority.
    """
    row, category = _seat_row(pr, m), pr.seat_instance.category_index
    return sum(
        k for c, rank in enumerate(pr.rank_rows) for k, i in enumerate(rank, 1)
        if row[i] >= 0 and category[row[i]] == c
    )


def respects_priority(pr: Problem, m: Matching) -> list[tuple[str, str, str]]:
    """All triples (category, assigned patient, unmatched patient outranking them)."""
    cats, pats = pr.instance.categories, pr.seat_instance.patients
    return sorted((cats[c], pats[p], pats[q]) for c, p, q in _violations(pr, _seat_row(pr, m)))


def repair_priority(pr: Problem, m: Matching) -> Matching:
    """Swap out priority violations without moving the matching's score.

    Each swap takes the first category, in instance order, whose best-ranked
    unmatched patient outranks its worst-ranked assigned one, and seats the
    first in place of the second, strictly reducing the rank sum, so the
    loop terminates.  A swap moves the score only if exactly one of the two
    is a beneficiary, which on admissible orders means the input was not a
    frontier matching; that case raises with a diagnostic.
    """
    return pr.seat_instance.name_row(_repair(pr, _seat_row(pr, m)))


@dataclass(frozen=True)
class AuditViolation:
    """One failed identity: lhs != rhs (path-independence) or lhs ⊄ rhs (substitutability)."""

    x: frozenset[str]
    x_prime: frozenset[str]
    lhs: frozenset[str]
    rhs: frozenset[str]


# The patient cap of every audit.  On 2 shared vCPUs the choices take 2^n
# selections on row subsets of one pair-code matrix; path independence
# compares 4^n pairs as 2^n numpy rows, substitutability 3^n, and only the
# printed violations are built, so memory stays flat.  GenConfig(12, 4,
# (1, 2), 0.5, seed=3) at beta* 1/3 (2,422,275 and 16,300 violations) takes
# 0.2-0.3 s of masks and 0.2 s of counts; its 14-patient sibling (7,059,068
# and 77,175) 0.9-1.1 s and 1.8-1.9 s, and 3.2 s and 34 MB for the whole
# `audit --check both`.  Each patient more quadruples the pairs.
MAX_AUDIT_PATIENTS = 14

# violations that an audit builds and the CLI prints; the rest are counted
AUDIT_SHOWN = 20


def choice_masks(pr: Problem) -> tuple[tuple[str, ...], np.ndarray]:
    """The choice rule that selection induces, as (patients, masks): bit i of
    a subset mask is patients[i], and masks[x] is the mask of C(x), the
    patients of subset x that selection seats.  A missing share target
    reads as 0, which selects the max-total endpoint.  An instance of more
    than MAX_AUDIT_PATIENTS patients is refused before any subset is solved.

    A subset keeps every seat, so its sub-problem is its rows of
    pr.seat_instance.pair_codes, the matrix that restricting the instance
    to it and expanding that would build.  At a point that is not a kink,
    optimal matchings that seat different patients can tie, so C, and every
    audit count built on it, depends on which one the solver returns: on
    one 7-patient draw the audits find 528 path-independence and 43
    substitutability violations with one witness and 418 and 30 with another.
    """
    patients = pr.instance.patients
    if len(patients) > MAX_AUDIT_PATIENTS:
        raise BudgetExceededError(
            f"choice audit over {len(patients)} patients exceeds MAX_AUDIT_PATIENTS = "
            f"{MAX_AUDIT_PATIENTS} (the audits take 2^n subsets and 4^n pairs)"
        )
    beta_star = Fraction(0) if pr.beta_star is None else pr.beta_star
    codes = pr.seat_instance.pair_codes
    bits = 1 << np.arange(len(patients), dtype=np.int64)
    masks = np.zeros(1 << len(patients), dtype=np.int64)
    for x in range(1, len(masks)):
        rows = np.flatnonzero(x & bits)
        try:
            masks[x] = bits[rows[_select(codes[rows], beta_star)[1] >= 0]].sum()
        except NoNonEmptyMatchingError:
            pass  # no eligible pair: C(x) is empty
    return patients, masks


def _violation(patients: tuple[str, ...], *masks: int) -> AuditViolation:
    return AuditViolation(*(frozenset(p for i, p in enumerate(patients) if int(m) >> i & 1) for m in masks))


def audit_path_independence(patients: tuple[str, ...], masks: np.ndarray) -> tuple[int, list[AuditViolation]]:
    """The number of ordered pairs (X, X') where C(X ∪ X') != C(C(X) ∪ X'),
    and the first AUDIT_SHOWN of them in (X, X') order."""
    xps = np.arange(len(masks))
    count, first = 0, []
    for x in range(len(masks)):
        left, right = masks[x | xps], masks[masks[x] | xps]
        bad = np.flatnonzero(left != right)
        count += len(bad)
        first += [_violation(patients, x, xp, left[xp], right[xp]) for xp in bad[: AUDIT_SHOWN - len(first)]]
    return count, first


def audit_substitutability(patients: tuple[str, ...], masks: np.ndarray) -> tuple[int, list[AuditViolation]]:
    """The number of pairs X' ⊆ X where C(X) ∩ X' is not contained in C(X'),
    and the first AUDIT_SHOWN of them, X ascending and X' descending."""
    digits = (np.arange(len(masks))[:, None] >> np.arange(len(patients))) & 1  # row k: k's bits
    count, first = 0, []
    for x in range(len(masks)):
        ones = np.flatnonzero(digits[x])
        xps = digits[(1 << len(ones)) - 1 :: -1, : len(ones)] @ (1 << ones)  # x's submasks, descending
        kept, rhs = masks[x] & xps, masks[xps]
        bad = np.flatnonzero(kept & ~rhs)
        count += len(bad)
        first += [_violation(patients, x, xps[i], kept[i], rhs[i]) for i in bad[: AUDIT_SHOWN - len(first)]]
    return count, first
