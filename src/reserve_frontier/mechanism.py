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
that seats a patient where they are not eligible (MatchingError).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
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


def _rank_tables(pr: Problem, m: Matching) -> dict[str, dict[str, int]]:
    """pr.rank_tables, once m is known to pair known patients with known seats
    they are eligible for; raises MatchingError otherwise."""
    validate_matching(pr.seat_instance, m)
    return pr.rank_tables


def rank_sum(pr: Problem, m: Matching) -> int:
    """Sum of assigned patients' priority ranks in their assigned categories.

    Like respects_priority and repair_priority, this ranks by the tier
    order when pr names no priority.
    """
    ranks, si = _rank_tables(pr, m), pr.seat_instance
    return sum(ranks[si.category_of(s)][p] for p, s in m.pairs)


def respects_priority(pr: Problem, m: Matching) -> list[tuple[str, str, str]]:
    """All triples (category, assigned patient, unmatched patient outranking them)."""
    ranks, si = _rank_tables(pr, m), pr.seat_instance
    out = []
    for p, s in m.pairs:
        c = si.category_of(s)
        out += [(c, p, q) for q in islice(ranks[c], ranks[c][p] - 1) if m.seat_of(q) is None]
    return sorted(out)


def repair_priority(pr: Problem, m: Matching) -> Matching:
    """Swap out priority violations without moving the matching's score.

    Each swap takes the first category, in instance order, whose best-ranked
    unmatched patient outranks its worst-ranked assigned one, and seats the
    first in place of the second, strictly reducing the rank sum, so the
    loop terminates.  A swap moves the score only if exactly one of the two
    is a beneficiary, which on admissible orders means the input was not a
    frontier matching; that case raises with a diagnostic.
    """
    ranks, si = _rank_tables(pr, m), pr.seat_instance
    seat = dict(m.by_patient)
    while True:
        for c, rank in ranks.items():
            unmatched = [q for q in rank if q not in seat]
            seated = [p for p in rank if p in seat and si.category_of(seat[p]) == c]
            if unmatched and seated and rank[unmatched[0]] < rank[seated[-1]]:
                break
        else:
            return Matching.from_assignment(seat)
        bene = pr.instance.beneficiary_of(c)
        if (seated[-1] in bene) != (unmatched[0] in bene):
            raise ValueError(
                "input was not a frontier matching: a priority swap changed its score"
            )
        seat[unmatched[0]] = seat.pop(seated[-1])


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
