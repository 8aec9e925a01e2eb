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
from typing import Iterable, Sequence

from .core import (
    Matching,
    MatchPoint,
    Problem,
    SeatInstance,
    beneficiary_share,
    dominates,
    match_point,
    restrict_patients,
)
from .frontier import Frontier, compute_frontier, witness_at
from .oracle import BudgetExceededError, Census, CheckReport


class NoNonEmptyMatchingError(ValueError):
    """The instance admits no non-empty eligible matching."""


@dataclass(frozen=True)
class ChoiceRecord:
    subset: frozenset[str]
    chosen: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "subset", frozenset(self.subset))
        object.__setattr__(self, "chosen", frozenset(self.chosen))
        if not self.chosen <= self.subset:
            raise ValueError("chosen patients must come from the offered subset")


def respects_share(pt: MatchPoint, beta_star) -> bool:
    """Exact test of b/e >= beta_star."""
    return beneficiary_share(pt) >= Fraction(beta_star)


def _select_from(si: SeatInstance, f: Frontier, beta_star: Fraction) -> tuple[Matching, MatchPoint]:
    """The selected point and its witness, the one with_all_witnesses would give:
    f's own at a kink, else one k-cardinality solve (witness_at)."""
    if f.points[-1].e == 0:
        raise NoNonEmptyMatchingError("no non-empty matching exists")
    qualifying = [p for p in f.points if beneficiary_share(p) >= beta_star]
    pt = qualifying[-1] if qualifying else f.points[0]
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


def induce_choice(pr: Problem, subset: Iterable[str]) -> ChoiceRecord:
    """Patients of the subset that the selection rule seats in the sub-problem.

    These are the matched patients of the witness that selection returns.
    At a point that is not a kink, optimal matchings that seat different
    patients can tie, so the choice there, and every audit count built on
    it, depends on which one the solver returns: on one 7-patient draw
    the audits find 528 path-independence and 43 substitutability
    violations with one witness and 418 and 30 with another.
    """
    chosen_from = frozenset(subset)
    sub = restrict_patients(pr.instance, chosen_from)
    try:
        m, _ = select_approx_on_frontier(Problem(instance=sub, beta_star=pr.beta_star))
    except NoNonEmptyMatchingError:
        return ChoiceRecord(subset=chosen_from, chosen=frozenset())
    return ChoiceRecord(subset=chosen_from, chosen=m.matched_patients)


@dataclass(frozen=True)
class AuditViolation:
    """One failed identity: lhs != rhs (path-independence) or lhs ⊄ rhs (substitutability)."""

    x: frozenset[str]
    x_prime: frozenset[str]
    lhs: frozenset[str]
    rhs: frozenset[str]


# Path-independence compares all 4^n subset pairs.  On a violation-poor
# instance that is 2.6 s at n = 12, so about 40 s at n = 14; but every
# violation is materialized, and on a violation-rich 12-patient instance
# (2.4 M violations) `audit --check pi` took 33.9 s and 6.95 GB.  No audit
# cap may be set above this.
MAX_AUDIT_PATIENTS = 14


def _choice_masks(pr: Problem, max_patients: int) -> tuple[tuple[str, ...], list[int]]:
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
    # expand the whole instance for its size checks: every subset keeps all
    # seats, so none is larger, and the empty subset must not be the first
    # to build them
    pr.seat_instance
    bit = {p: 1 << i for i, p in enumerate(patients)}
    masks: list[int] = []
    for mask in range(1 << len(patients)):
        subset = [p for p in patients if bit[p] & mask]
        chosen = induce_choice(pr, subset).chosen
        masks.append(sum(bit[p] for p in chosen))
    return patients, masks


def _unmask(patients: tuple[str, ...], mask: int) -> frozenset[str]:
    return frozenset(p for i, p in enumerate(patients) if mask & (1 << i))


def audit_path_independence(pr: Problem, max_patients: int = 12) -> list[AuditViolation]:
    """All ordered pairs (X, X') where C(X ∪ X') != C(C(X) ∪ X')."""
    patients, masks = _choice_masks(pr, max_patients)
    n = len(patients)
    out = []
    for x in range(1 << n):
        cx = masks[x]
        for xp in range(1 << n):
            left = masks[x | xp]
            right = masks[cx | xp]
            if left != right:
                out.append(
                    AuditViolation(
                        x=_unmask(patients, x),
                        x_prime=_unmask(patients, xp),
                        lhs=_unmask(patients, left),
                        rhs=_unmask(patients, right),
                    )
                )
    return out


def audit_substitutability(pr: Problem, max_patients: int = 12) -> list[AuditViolation]:
    """All pairs X' ⊆ X where C(X) ∩ X' is not contained in C(X')."""
    patients, masks = _choice_masks(pr, max_patients)
    n = len(patients)
    out = []
    for x in range(1 << n):
        cx = masks[x]
        xp = x
        while True:
            kept = cx & xp
            if kept & ~masks[xp]:
                out.append(
                    AuditViolation(
                        x=_unmask(patients, x),
                        x_prime=_unmask(patients, xp),
                        lhs=_unmask(patients, kept),
                        rhs=_unmask(patients, masks[xp]),
                    )
                )
            if xp == 0:
                break
            xp = (xp - 1) & x
    return out
