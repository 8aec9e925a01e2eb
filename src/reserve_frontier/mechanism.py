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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .core import (
    Instance,
    InstanceError,
    Matching,
    MatchPoint,
    Problem,
    SeatInstance,
    beneficiary_share,
    dominates,
    expand_to_seats,
    match_point,
    restrict_patients,
    validate_instance,
)
from .cycles import iter_frontier_walk
from .frontier import Frontier, FrontierInvariantError, check_sweep_size, compute_frontier
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    Census,
    CheckReport,
    EnumerationBudget,
)


class NoNonEmptyMatchingError(ValueError):
    """The instance admits no non-empty eligible matching."""


@dataclass(frozen=True)
class PriorityOrder:
    """Per-category strict total orders over all patients, highest first."""

    order: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "order", {c: tuple(ps) for c, ps in dict(self.order).items()}
        )

    @cached_property
    def _ranks(self) -> dict[str, dict[str, int]]:
        return {
            c: {p: i + 1 for i, p in enumerate(ps)} for c, ps in self.order.items()
        }

    def rank(self, category: str, patient: str) -> int:
        """Position of patient in the category's order; 1 is highest."""
        return self._ranks[category][patient]

    def outranks(self, category: str, a: str, b: str) -> bool:
        return self.rank(category, a) < self.rank(category, b)

    @classmethod
    def from_tiers(cls, inst: Instance) -> "PriorityOrder":
        """Admissible order synthesized from tiers, input order within a tier."""
        order = {}
        for c in inst.categories:
            bene = inst.beneficiary_of(c)
            elig = inst.eligible_of(c)
            order[c] = tuple(
                [p for p in inst.patients if p in bene]
                + [p for p in inst.patients if p in elig and p not in bene]
                + [p for p in inst.patients if p not in elig]
            )
        return cls(order=order)


def validate_priority(inst: Instance, po: PriorityOrder) -> PriorityOrder:
    """Check bijectivity and the beneficiary > eligible > ineligible tiers."""
    for c in po.order:
        if c not in inst.categories:
            raise InstanceError(f"priority names unknown category {c}")
    for c in inst.categories:
        if c not in po.order:
            raise InstanceError(f"priority missing category {c}")
        ps = po.order[c]
        if sorted(ps) != sorted(inst.patients):
            raise InstanceError(f"priority for {c} is not a permutation of the patients")
        bene = inst.beneficiary_of(c)
        elig = inst.eligible_of(c)
        tier_seen = 0  # 0 = beneficiaries, 1 = other eligible, 2 = ineligible
        for p in ps:
            tier = 0 if p in bene else (1 if p in elig else 2)
            if tier < tier_seen:
                raise InstanceError(
                    f"priority for {c} breaks the beneficiary/eligible/ineligible tiers at {p}"
                )
            tier_seen = tier
    return po


@dataclass(frozen=True)
class ProblemWithOrder:
    problem: Problem
    priority: PriorityOrder

    def __post_init__(self) -> None:
        validate_priority(self.problem.instance, self.priority)


def instance_of(obj: Instance | Problem | ProblemWithOrder) -> Instance:
    """The instance underneath any parsed input."""
    if isinstance(obj, ProblemWithOrder):
        return obj.problem.instance
    if isinstance(obj, Problem):
        return obj.instance
    return obj


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


def _assert_share_monotone(f: Frontier) -> None:
    # b falls by >= 1 while e rises by 1, so shares must fall strictly
    shares = [beneficiary_share(p) for p in f.points if p.e >= 1]
    for hi, lo in zip(shares, shares[1:]):
        if not hi > lo:
            raise FrontierInvariantError("share must fall strictly along the frontier")


def _select_from(si: SeatInstance, f: Frontier, beta_star: Fraction) -> tuple[Matching, MatchPoint]:
    """The selected point and its witness, the one with_all_witnesses would give.

    A point with a witness in f (every kink) returns that witness and runs
    no cycle search.  Any other point gets the matching at which the
    cheapest-cycle walk from the e_min witness first reaches it; the walk
    stops there instead of covering the whole frontier.
    """
    if f.points[-1].e == 0:
        raise NoNonEmptyMatchingError("no non-empty matching exists")
    _assert_share_monotone(f)
    first = f.points[0]
    if beta_star >= beneficiary_share(first):
        pt = first
    else:
        qualifying = [p for p in f.points if beneficiary_share(p) >= beta_star]
        pt = qualifying[-1]
    if pt in f.witnesses:
        return f.witnesses[pt], pt
    for want, (got, m) in zip(f.points, iter_frontier_walk(si, f.witnesses[first])):
        if got != want:
            raise FrontierInvariantError(f"cycle walk stepped to {got}, expected {want}")
        if got == pt:
            return m, pt
    raise FrontierInvariantError(f"cycle walk ended before reaching {pt}")


def select_approx_on_frontier(pr: Problem) -> tuple[Matching, MatchPoint]:
    """The frontier matching meeting the share target approximately.

    Raises NoNonEmptyMatchingError when the instance has no eligible pair.
    """
    si = expand_to_seats(validate_instance(pr.instance))
    return _select_from(si, compute_frontier(si), pr.beta_star)


def dominates_exact_share_matchings(
    pr: Problem,
    selected: MatchPoint,
    budget: EnumerationBudget = DEFAULT_BUDGET,
    census: Census | None = None,
) -> CheckReport:
    """Verify the selected point dominates every matching whose share is
    exactly the target (meaningful when the selected share differs from it).

    Matchings are counted per point from the census of pr's instance, and
    b/e = num/den is tested exactly as b*den == e*num.  witnesses_checked
    counts matchings, and each undominated matching adds one failure;
    failures come grouped by point, in the order the points first appear
    in the enumeration.
    """
    report = CheckReport(name="dominates-exact-share")
    num, den = pr.beta_star.numerator, pr.beta_star.denominator
    try:
        if census is None:
            census = Census(expand_to_seats(pr.instance), budget)
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
                f"matching at {pt} with exact share {pr.beta_star} "
                f"is not dominated by {selected}"
            ] * n
    return report


def rank_sum(pwo: ProblemWithOrder, m: Matching) -> int:
    """Sum of assigned patients' priority ranks in their assigned categories."""
    si = expand_to_seats(pwo.problem.instance)
    return sum(pwo.priority.rank(si.category_of(s), p) for p, s in m.pairs)


def respects_priority(pwo: ProblemWithOrder, m: Matching) -> list[tuple[str, str, str]]:
    """All triples (category, assigned patient, unmatched patient outranking them)."""
    inst = pwo.problem.instance
    si = expand_to_seats(inst)
    unmatched = [p for p in inst.patients if m.seat_of(p) is None]
    out = []
    for p, s in m.pairs:
        c = si.category_of(s)
        for q in unmatched:
            if pwo.priority.outranks(c, q, p):
                out.append((c, p, q))
    return sorted(out)


def repair_priority(pwo: ProblemWithOrder, m: Matching) -> Matching:
    """Swap out priority violations without moving the matching's score.

    Each swap seats the highest-priority unmatched patient of the offending
    category in place of its lowest-priority assigned patient, strictly
    reducing the rank sum, so the loop terminates.  On admissible orders a
    swap can only change the score if the input was not a frontier
    matching; that case raises with a diagnostic.
    """
    inst = pwo.problem.instance
    si = expand_to_seats(inst)
    target = match_point(si, m)
    cat_pos = {c: i for i, c in enumerate(inst.categories)}
    current = m
    while True:
        violations = respects_priority(pwo, current)
        if not violations:
            return current
        c, p, q = min(
            violations,
            key=lambda v: (
                cat_pos[v[0]],
                pwo.priority.rank(v[0], v[2]),
                -pwo.priority.rank(v[0], v[1]),
            ),
        )
        assignment = dict(current.by_patient)
        seat = assignment.pop(p)
        assignment[q] = seat
        swapped = Matching.from_assignment(assignment)
        if match_point(si, swapped) != target:
            raise ValueError(
                "input was not a frontier matching: a priority swap changed its score"
            )
        current = swapped


def induce_choice(pr: Problem, subset: Iterable[str]) -> ChoiceRecord:
    """Patients of the subset that the selection rule seats in the sub-problem."""
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


# Path-independence compares all 4^n subset pairs: 2.6 s at n = 12, so
# about 40 s at n = 14.  No audit cap may be set above this.
MAX_AUDIT_PATIENTS = 14


def _choice_masks(pr: Problem, max_patients: int) -> tuple[tuple[str, ...], list[int]]:
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
    # every subset keeps all seats, so the whole instance bounds their sweeps,
    # and the empty subset must not be the first to build them
    check_sweep_size(len(patients), pr.instance.total_quota)
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
