"""Policy layer on top of the frontier: share targets, priorities, choice rules.

Selection rule: if the share target is at or above the share of the
max-beneficiary endpoint, return that endpoint; otherwise return the
frontier point with the largest total-match count whose share still meets
the target.  Shares fall strictly as the frontier adds matches, so this is
the point closest to the target from above.

Priority orders are strict per-category orders with the tier structure
beneficiaries > other eligible > ineligible.  A frontier matching that
seats someone over a higher-priority unmatched patient is repaired by
swapping the two inside the category, which cannot change the matching's
score on admissible orders.

An admissible order ranks every eligible patient above every ineligible
one, so a category's eligible patients hold its top |eligible| ranks and
no ineligible patient outranks one the category can seat.  The priority
functions therefore rank only eligible patients, unless a hand-built
matching seats an ineligible one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import takewhile
from typing import Sequence

import numpy as np

from .core import (
    Matching,
    MatchPoint,
    Problem,
    SeatInstance,
    beneficiary_share,
    dominates,
    match_point,
)
from .frontier import Frontier, _frontier_by_index, _witness_by_index, compute_frontier, witness_at
from .oracle import BudgetExceededError, Census, CheckReport


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
    m = f.witnesses[pt] if pt in f.witnesses else witness_at(si, pt)
    return m, pt


def select_approx_on_frontier(pr: Problem) -> tuple[Matching, MatchPoint]:
    """The frontier matching meeting the share target approximately.

    Raises NoNonEmptyMatchingError when the instance has no eligible pair.
    """
    if pr.beta_star is None:
        raise ValueError("selection needs a share target beta_star")
    si = pr.seat_instance
    return _select_from(si, compute_frontier(si), pr.beta_star)


def dominates_exact_share_matchings(beta_star: Fraction, selected: MatchPoint, census: Census) -> CheckReport:
    """Verify the selected point dominates every matching whose share is
    exactly the target (meaningful when the selected share differs from it).

    Matchings are counted per point from the census, and
    b/e = num/den is tested exactly as b*den == e*num.  witnesses_checked
    counts matchings, and each undominated matching adds one failure;
    failures come grouped by point, in the order the points first appear
    in the enumeration.
    """
    report = CheckReport(name="dominates-exact-share")
    num, den = beta_star.numerator, beta_star.denominator
    try:
        counts = census.counts
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"instance too large for exhaustive verification: {exc}"
        ) from exc
    for pt, n in counts.items():
        if pt.e == 0 or pt.b * den != pt.e * num:
            continue
        report.witnesses_checked += n
        if not dominates(selected, pt):
            report.failures += [
                f"matching at {pt} with exact share {beta_star} "
                f"is not dominated by {selected}"
            ] * n
    return report


class _Ranks:
    """Per-category ranks (1 is highest) of the eligible patients, from
    pr's priority or, when it names none, from the tiers."""

    def __init__(self, pr: Problem) -> None:
        self.pr, self.si = pr, pr.seat_instance
        self.top: dict[str, Sequence[str]] = {}
        for c in pr.instance.categories:
            elig, bene = pr.instance.eligible_of(c), pr.instance.beneficiary_of(c)
            if pr.priority is not None:
                self.top[c] = pr.priority.order[c][: len(elig)]
            else:
                self.top[c] = sorted(elig, key=lambda p: (p not in bene, self.si.patient_index[p]))
        self.rank = {c: {p: i for i, p in enumerate(top, 1)} for c, top in self.top.items()}

    def ahead(self, c: str, p: str) -> Sequence[str]:
        """The patients that outrank p in c."""
        r = self.rank[c].get(p)
        if r is not None:
            return self.top[c][: r - 1]
        # p is ineligible for c, which only a hand-built matching allows
        inst = self.pr.instance
        if self.pr.priority is not None:
            tail = self.pr.priority.order[c][len(self.top[c]):]
        else:
            tail = [q for q in inst.patients if q not in inst.eligible_of(c)]
        return [*self.top[c], *takewhile(lambda q: q != p, tail)]

    def of(self, c: str, p: str) -> int:
        return self.rank[c].get(p) or len(self.ahead(c, p)) + 1

    def violations(self, m: Matching) -> list[tuple[str, str, str]]:
        out = []
        for p, s in m.pairs:
            c = self.si.category_of(s)
            out += [(c, p, q) for q in self.ahead(c, p) if m.seat_of(q) is None]
        return sorted(out)


def rank_sum(pr: Problem, m: Matching) -> int:
    """Sum of assigned patients' priority ranks in their assigned categories.

    Like respects_priority and repair_priority, this ranks by the tier
    order when pr names no priority.
    """
    r = _Ranks(pr)
    return sum(r.of(r.si.category_of(s), p) for p, s in m.pairs)


def respects_priority(pr: Problem, m: Matching) -> list[tuple[str, str, str]]:
    """All triples (category, assigned patient, unmatched patient outranking them)."""
    return _Ranks(pr).violations(m)


def repair_priority(pr: Problem, m: Matching) -> Matching:
    """Swap out priority violations without moving the matching's score.

    Each swap seats the highest-priority unmatched patient of the offending
    category in place of its lowest-priority assigned patient, strictly
    reducing the rank sum, so the loop terminates.  On admissible orders a
    swap can only change the score if the input was not a frontier
    matching; that case raises with a diagnostic.
    """
    r = _Ranks(pr)
    target = match_point(r.si, m)
    cat_pos = {c: i for i, c in enumerate(pr.instance.categories)}
    current = m
    while True:
        violations = r.violations(current)
        if not violations:
            return current
        c, p, q = min(
            violations,
            key=lambda v: (cat_pos[v[0]], r.of(v[0], v[2]), -r.of(v[0], v[1])),
        )
        assignment = dict(current.by_patient)
        seat = assignment.pop(p)
        assignment[q] = seat
        swapped = Matching.from_assignment(assignment)
        if match_point(r.si, swapped) != target:
            raise ValueError(
                "input was not a frontier matching: a priority swap changed its score"
            )
        current = swapped


@dataclass(frozen=True)
class AuditViolation:
    """One failed identity: lhs != rhs (path-independence) or lhs ⊄ rhs (substitutability)."""

    x: frozenset[str]
    x_prime: frozenset[str]
    lhs: frozenset[str]
    rhs: frozenset[str]


# Audit cost on 2 shared vCPUs.  The choices take 2^n selections on row
# subsets of one pair-code matrix; path independence compares 4^n pairs as
# 2^n numpy rows, substitutability 3^n, and only the printed violations are
# built, so memory stays flat.  GenConfig(12, 4, (1, 2), 0.5, seed=3) at
# beta* 1/3 (2,422,275 and 16,300 violations) takes 0.2-0.3 s of masks and
# 0.2 s of counts; its 14-patient sibling (7,059,068 and 77,175) 0.9-1.1 s
# and 1.8-1.9 s, with 82 MB peak for the whole `audit --check both`.  Each
# patient more quadruples the pairs, so no audit cap may be set above this.
MAX_AUDIT_PATIENTS = 14

# violations that an audit builds and the CLI prints; the rest are counted
AUDIT_SHOWN = 20


def _chosen_rows(codes: np.ndarray, beta_star: Fraction) -> np.ndarray:
    """The rows that the selected witness seats on a pair-code matrix, the
    matched patients of select_approx_on_frontier by index: empty when no
    pair is eligible."""
    points, kink_pairs = _frontier_by_index(codes)
    try:
        pt = _select_point(points, beta_star)
    except NoNonEmptyMatchingError:
        return np.empty(0, dtype=np.intp)
    return kink_pairs[pt][0] if pt in kink_pairs else _witness_by_index(codes, pt)[0]


def choice_masks(pr: Problem, max_patients: int = 12) -> tuple[tuple[str, ...], np.ndarray]:
    """The choice rule that selection induces, as (patients, masks): bit i of
    a subset mask is patients[i], and masks[x] is the mask of C(x), the
    patients of subset x that selection seats.  A missing share target
    reads as 0, which selects the max-total endpoint.

    A subset keeps every seat, so its sub-problem is its rows of
    pr.seat_instance.pair_codes, the matrix that restricting the instance
    to it and expanding that would build.  At a point that is not a kink,
    optimal matchings that seat different patients can tie, so C, and every
    audit count built on it, depends on which one the solver returns: on
    one 7-patient draw the audits find 528 path-independence and 43
    substitutability violations with one witness and 418 and 30 with another.
    """
    if max_patients < 0:
        raise ValueError(f"a choice audit cap of {max_patients} patients is below 0")
    if max_patients > MAX_AUDIT_PATIENTS:
        raise ValueError(
            f"a choice audit cap of {max_patients} patients exceeds the ceiling "
            f"of {MAX_AUDIT_PATIENTS} (the audits take 2^n subsets and 4^n pairs)"
        )
    patients = pr.instance.patients
    if len(patients) > max_patients:
        raise BudgetExceededError(
            f"choice audit over {len(patients)} patients exceeds the cap of {max_patients}"
        )
    beta_star = Fraction(0) if pr.beta_star is None else pr.beta_star
    codes = pr.seat_instance.pair_codes
    bits = 1 << np.arange(len(patients), dtype=np.int64)
    masks = np.zeros(1 << len(patients), dtype=np.int64)
    for x in range(1, len(masks)):
        rows = np.flatnonzero(x & bits)
        masks[x] = bits[rows[_chosen_rows(codes[rows], beta_star)]].sum()
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
