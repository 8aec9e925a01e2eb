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
functions therefore rank only eligible patients, on pr.rank_rows, each
category's eligible patient indices best first.

Every matching here is a category row, a tuple with one entry per
patient: row[i] is the index of patient i's category, or -1 when patient
i is unmatched.
Selection returns one; rank_sum, respects_priority and repair_priority
take one, and refuse with MatchingError a row that is not a matching of
the instance (Problem.check_row).  Names are given at the I/O
boundary (serialize).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import BudgetExceededError, MatchPoint, Problem
from .frontier import Frontier, _segment, _split, _sweeps, witness_at


class NoNonEmptyMatchingError(ValueError):
    """The instance admits no non-empty eligible matching."""


def _select(codes: np.ndarray, quotas: Sequence[int], beta_star: Fraction) -> tuple[tuple[int, ...], MatchPoint]:
    """The selection rule's point (module docstring) on the frontier of the
    pair-code matrix codes, whose categories have these quotas, and the row
    witness_at gives there on that whole frontier, from only the sweeps
    that the point and its row need.

    Sweep n returns the max-total end, the selection when its share meets
    the target.  Otherwise sweep 0 and split (frontier._split) only the
    intervals that hold the crossing: their left end meets the target and
    their right end does not.  The selection then lies on the segment from
    a kink A to the next kink C, or is the first kink.  Last, split only
    the intervals that start at a kink whose row the witness needs, A and
    C, or A alone when the selection is A, so that each keeps the row of
    the largest d that returns it, as on the whole frontier.  So selection
    never sweeps a d that _frontier does not.
    """
    if not codes.any():
        raise NoNonEmptyMatchingError("no non-empty matching exists")
    num, den = beta_star.numerator, beta_star.denominator

    def meets(pt: MatchPoint) -> bool:  # b / e >= beta_star; every point swept has e > 0
        return pt.b * den >= pt.e * num

    n = max(codes.shape[0], sum(quotas))
    sweep = _sweeps(codes, quotas)
    sweeps = {n: sweep(n)}
    pt, row = sweeps[n]
    if meets(pt):
        return row, pt
    sweeps[0] = sweep(0)
    kinks = list(_split(sweep, sweeps, lambda a, c: meets(a) and not meets(c)))
    a = c = pt = kinks[0]  # when even the first kink misses the target
    points = [a]
    if meets(a):
        i = max(i for i, k in enumerate(kinks) if meets(k))
        a, c = kinks[i], kinks[i + 1]
        points = _segment(a, c) + [c]
        pt = [p for p in points if meets(p)][-1]
    need = {a} if pt == a else {a, c}
    rows = _split(sweep, sweeps, lambda lo_end, _: lo_end in need)
    f = Frontier(points=points, kinks=need, witnesses={k: rows[k] for k in need})
    return witness_at(codes, f, pt), pt


def select_approx_on_frontier(pr: Problem) -> tuple[tuple[int, ...], MatchPoint]:
    """The category row of the frontier matching meeting the share target
    approximately, and its point.

    Raises NoNonEmptyMatchingError when the instance has no eligible pair.
    """
    if pr.beta_star is None:
        raise ValueError("selection needs a share target beta_star")
    return _select(pr.pair_codes, pr.quotas, pr.beta_star)


def _first_swap(pr: Problem, row: Sequence[int]) -> tuple[int, int] | None:
    """The next swap of repair on row, as (seated, unmatched) patient indices:
    in the first category, in instance order, whose best-ranked unmatched
    patient outranks its worst-ranked seated one, those two; None if none."""
    for c, rank in enumerate(pr.rank_rows):
        free = seated = None
        for i in rank:
            if row[i] < 0:
                if free is None:
                    free = i
            elif free is not None and row[i] == c:
                seated = i
        if seated is not None:
            return seated, free
    return None


def rank_sum(pr: Problem, row: Sequence[int]) -> int:
    """Sum of seated patients' priority ranks in their categories.

    Like respects_priority and repair_priority, this ranks by the tier
    order when pr names no priority.
    """
    row = pr.check_row(row)
    return sum(k for c, rank in enumerate(pr.rank_rows) for k, i in enumerate(rank, 1) if row[i] == c)


def respects_priority(pr: Problem, row: Sequence[int]) -> list[tuple[int, int, int]]:
    """Every violation, as (category, seated patient, unmatched patient who
    outranks them) indices, categories in instance order and each by rank."""
    row, out = pr.check_row(row), []
    for c, rank in enumerate(pr.rank_rows):
        free: list[int] = []
        for i in rank:
            if row[i] < 0:
                free.append(i)
            elif free and row[i] == c:
                out += [(c, i, q) for q in free]
    return out


def repair_priority(pr: Problem, row: Sequence[int]) -> tuple[int, ...]:
    """Swap out priority violations without moving the matching's score.

    Each swap takes the first category, in instance order, whose best-ranked
    unmatched patient outranks its worst-ranked seated one, and seats the
    first in place of the second, strictly reducing the rank sum, so the
    loop terminates.  A swap moves the score only if exactly one of the two
    is a beneficiary, which on admissible orders means the input was not a
    frontier matching; that case raises with a diagnostic.
    """
    row, codes = pr.check_row(row), pr.pair_codes
    while (swap := _first_swap(pr, row)) is not None:
        p, q = swap
        c = row[p]
        if (codes[p, c] == 2) != (codes[q, c] == 2):
            raise ValueError(
                "input was not a frontier matching: a priority swap changed its score"
            )
        row[p], row[q] = -1, c
    return tuple(row)


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
# (1, 2), 0.5, seed=3) at beta* 1/3 (2,346,493 and 15,218 violations) takes
# 0.11-0.12 s of masks (4,600 sweeps) and 0.1 s of counts; its 14-patient
# sibling (7,062,038 and 77,607) 0.4-0.5 s (17,358 sweeps) and 1.0 s, and
# 1.6 s and 34 MB for the whole `audit --check both`.  Each patient more
# quadruples the pairs.
MAX_AUDIT_PATIENTS = 14

# violations that an audit builds and the CLI prints; the rest are counted
AUDIT_SHOWN = 20


def choice_masks(pr: Problem) -> tuple[tuple[str, ...], np.ndarray]:
    """The choice rule that selection induces, as (patients, masks): bit i of
    a subset mask is patients[i], and masks[x] is the mask of C(x), the
    patients of subset x that selection seats.  A missing share target
    reads as 0, which selects the max-total endpoint.  An instance of more
    than MAX_AUDIT_PATIENTS patients is refused first, before the memory
    limits that building pr.pair_codes checks.

    A subset keeps every category and quota, so its sub-problem is its
    rows of pr.pair_codes, the matrix that restrict_patients(pr, subset)
    would build.  At a point that is not a kink, optimal
    matchings that seat different patients can tie, so C, and every audit
    count built on it, depends on which one selection returns: on one
    7-patient draw the audits find 528 path-independence and 43
    substitutability violations with witness_at's row and 418 and 30 with
    another.  Kinks can tie too: with the row of the smallest d that
    returns each kink in place of the largest, the 12-patient draw above
    counts 2,422,275 and 16,300.
    """
    patients = pr.patients
    if len(patients) > MAX_AUDIT_PATIENTS:
        raise BudgetExceededError(
            f"choice audit over {len(patients)} patients exceeds MAX_AUDIT_PATIENTS = "
            f"{MAX_AUDIT_PATIENTS} (the audits take 2^n subsets and 4^n pairs)"
        )
    beta_star = Fraction(0) if pr.beta_star is None else pr.beta_star
    codes, quotas = pr.pair_codes, pr.quotas
    bits = 1 << np.arange(len(patients), dtype=np.int64)
    masks = np.zeros(1 << len(patients), dtype=np.int64)
    for x in range(1, len(masks)):
        rows = np.flatnonzero(x & bits)
        sub = codes[rows]
        try:
            row, _ = _select(sub, quotas, beta_star)
        except NoNonEmptyMatchingError:
            continue  # no eligible pair: C(x) is empty
        masks[x] = sum(1 << i for i, c in zip(rows.tolist(), row) if c >= 0)
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
