"""Brute-force reference computations for desk-scale instances.

Everything here is deliberately independent of the production algorithms:
matchings are enumerated by direct recursion over patients, the frontier is
obtained by filtering dominated score points, and cycles are enumerated
exhaustively from the associated-graph definition.  Budgets cap instance
size and visited states so runaway inputs fail fast instead of hanging.

The verify checks read one Census per instance, which enumerates it at
most twice: once for the count and first matching at every score point
(the frontier, its witnesses and every exact-share count), and once more
only when samples are asked for (the sampled matchings and the matched
patient sets at the sampled points).  Leaves are scored by index; no
Matching is built per leaf.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .core import Matching, MatchPoint, SeatInstance, dominates
from .frontier import Frontier, kinks_of

BUDGET_ENV = "RESERVE_FRONTIER_ORACLE_BUDGET"


class BudgetExceededError(RuntimeError):
    """The instance or search exceeds the enumeration budget."""


@dataclass(frozen=True)
class EnumerationBudget:
    max_patients: int = 7
    max_seats: int = 7
    max_states: int = 10_000_000


DEFAULT_BUDGET = EnumerationBudget()


def budget_from_env() -> EnumerationBudget:
    """Budget override from RESERVE_FRONTIER_ORACLE_BUDGET="patients,seats,states"."""
    raw = os.environ.get(BUDGET_ENV, "").strip()
    if not raw:
        return DEFAULT_BUDGET
    parts = [int(tok) for tok in raw.split(",")]
    if len(parts) != 3:
        raise ValueError(f"{BUDGET_ENV} must be three comma-separated integers")
    return EnumerationBudget(*parts)


def _check_size(si: SeatInstance, budget: EnumerationBudget) -> None:
    n_p, n_s = len(si.patients), len(si.seats)
    if n_p > budget.max_patients or n_s > budget.max_seats:
        raise BudgetExceededError(
            f"instance has {n_p} patients and {n_s} seats; "
            f"budget allows {budget.max_patients} patients and {budget.max_seats} seats"
        )


class _StateCounter:
    __slots__ = ("used", "limit")

    def __init__(self, limit: int):
        self.used = 0
        self.limit = limit

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise BudgetExceededError(f"state budget {self.limit} exceeded")


def _scan_leaves(si: SeatInstance, budget: EnumerationBudget, visit) -> None:
    """Call visit(assignment, e, b) for every eligible matching.

    `assignment` is a mutable list of seat indices per patient (-1 for
    unmatched) that is only valid during the call.
    """
    _check_size(si, budget)
    n = len(si.patients)
    elig = si.eligible_seats
    bene = si.beneficiary_seat_sets
    used = [False] * len(si.seats)
    current = [-1] * n
    counter = _StateCounter(budget.max_states)

    def rec(i: int, e: int, b: int) -> None:
        counter.tick()
        if i == n:
            visit(current, e, b)
            return
        current[i] = -1
        rec(i + 1, e, b)
        for j in elig[i]:
            if not used[j]:
                used[j] = True
                current[i] = j
                rec(i + 1, e + 1, b + (1 if j in bene[i] else 0))
                used[j] = False
        current[i] = -1

    rec(0, 0, 0)


def _to_matching(si: SeatInstance, assignment) -> Matching:
    return Matching(
        tuple(
            (si.patients[i], si.seats[j])
            for i, j in enumerate(assignment)
            if j != -1
        )
    )


def enumerate_matchings(si: SeatInstance, budget: EnumerationBudget = DEFAULT_BUDGET):
    """Yield every eligible matching exactly once, in a fixed recursion order."""
    collected: list[Matching] = []
    _scan_leaves(si, budget, lambda a, e, b: collected.append(_to_matching(si, a)))
    yield from collected


def count_matchings(si: SeatInstance, budget: EnumerationBudget = DEFAULT_BUDGET) -> int:
    total = 0

    def visit(a, e, b):
        nonlocal total
        total += 1

    _scan_leaves(si, budget, visit)
    return total


class Sample(NamedTuple):
    """Samples at a set of points, and the matched sets of every matching there."""

    matchings: dict[MatchPoint, list[Matching]]
    mode: str  # "exhaustive" if nothing was dropped, else "sampled"
    matched: dict[MatchPoint, set[int]]  # bitmasks of matched patient indices


class Census:
    """The oracle's view of one instance, built lazily in at most two passes.

    Pass 1 records, for each point (e, b), the number of matchings scoring
    it and the first one in recursion order.  Pass 2 runs only when
    samples are asked for: it reservoir-samples the requested points,
    drawing from Random(seed) exactly as a scan of its own would, and
    collects the matched patient sets at those points in the same visit.
    Samples at other points, cap or seed get a fresh pass of their own, so
    a frontier that disagrees with the oracle still gets its samples.
    Every pass has its own state budget, as every scan does.
    """

    def __init__(self, si: SeatInstance, budget: EnumerationBudget = DEFAULT_BUDGET):
        self.si = si
        self.budget = budget
        self._counts: dict[MatchPoint, int] | None = None
        self._first: dict[MatchPoint, tuple[int, ...]] = {}
        self._frontier: Frontier | None = None
        self._samples: dict[tuple[frozenset[MatchPoint], int, int], Sample] = {}

    @property
    def counts(self) -> dict[MatchPoint, int]:
        """Number of eligible matchings at each point, in order of first appearance."""
        if self._counts is None:
            counts: dict[tuple[int, int], int] = {}
            first: dict[tuple[int, int], tuple[int, ...]] = {}

            def visit(a, e, b):
                key = (e, b)
                if key in counts:
                    counts[key] += 1
                else:
                    counts[key] = 1
                    first[key] = tuple(a)

            _scan_leaves(self.si, self.budget, visit)
            self._first = {MatchPoint(*k): a for k, a in first.items()}
            self._counts = {MatchPoint(*k): c for k, c in counts.items()}
        return self._counts

    def frontier(self) -> Frontier:
        """Undominated points, each witnessed by its first matching."""
        if self._frontier is None:
            pts = list(self.counts)
            nd = sorted(p for p in pts if not any(dominates(q, p) for q in pts))
            witnesses = {p: _to_matching(self.si, self._first[p]) for p in nd}
            self._frontier = Frontier(points=tuple(nd), kinks=kinks_of(nd), witnesses=witnesses)
        return self._frontier

    def sample(self, points, cap: int = 200, seed: int = 0) -> Sample:
        """Up to cap matchings per point, reservoir-sampled with a fixed seed."""
        key = (frozenset(points), cap, seed)
        if key not in self._samples:
            self._samples[key] = self._sample_pass(*key)
        return self._samples[key]

    def _sample_pass(self, wanted: frozenset[MatchPoint], cap: int, seed: int) -> Sample:
        rng = random.Random(seed)
        kept: dict[MatchPoint, list[tuple[int, ...]]] = {p: [] for p in wanted}
        seen: dict[MatchPoint, int] = {p: 0 for p in wanted}
        matched: dict[MatchPoint, set[int]] = {p: set() for p in wanted}

        def visit(a, e, b):
            pt = (e, b)  # a MatchPoint key matches its plain tuple
            if pt not in seen:
                return
            seen[pt] = n = seen[pt] + 1
            matched[pt].add(sum(1 << i for i, j in enumerate(a) if j != -1))
            bucket = kept[pt]
            if len(bucket) < cap:
                bucket.append(tuple(a))
            else:
                slot = rng.randrange(n)
                if slot < cap:
                    bucket[slot] = tuple(a)

        _scan_leaves(self.si, self.budget, visit)
        mode = "exhaustive" if all(n <= cap for n in seen.values()) else "sampled"
        samples = {p: [_to_matching(self.si, a) for a in kept[p]] for p in wanted}
        return Sample(samples, mode, matched)


def _census(si: SeatInstance, budget: EnumerationBudget, census: Census | None) -> Census:
    return census if census is not None else Census(si, budget)


def oracle_frontier(si: SeatInstance, budget: EnumerationBudget = DEFAULT_BUDGET) -> Frontier:
    """Frontier by full enumeration: collect all score points, drop dominated ones."""
    return Census(si, budget).frontier()


def matchings_at_point(
    si: SeatInstance, pt: MatchPoint, budget: EnumerationBudget = DEFAULT_BUDGET
) -> list[Matching]:
    """Every eligible matching scoring exactly pt."""
    out: list[Matching] = []

    def visit(a, e, b):
        if e == pt.e and b == pt.b:
            out.append(_to_matching(si, a))

    _scan_leaves(si, budget, visit)
    return out


def sample_matchings_at_points(
    si: SeatInstance,
    points,
    budget: EnumerationBudget = DEFAULT_BUDGET,
    cap: int = 200,
    seed: int = 0,
) -> tuple[dict[MatchPoint, list[Matching]], str]:
    """Up to cap matchings per requested point, reservoir-sampled with a fixed seed.

    Returns (samples, mode) where mode is "exhaustive" if nothing was dropped.
    """
    sample = Census(si, budget).sample(points, cap, seed)
    return sample.matchings, sample.mode


def _index_matching(si: SeatInstance, m: Matching) -> tuple[list[int], list[int]]:
    seat_of = [-1] * len(si.patients)
    patient_of = [-1] * len(si.seats)
    for p, s in m.pairs:
        i, j = si.patient_index[p], si.seat_index[s]
        seat_of[i] = j
        patient_of[j] = i
    return seat_of, patient_of


def _applicable_cycles(si: SeatInstance, m: Matching, budget: EnumerationBudget):
    """All applicable cycles in m's associated graph, by exhaustive search.

    Yields (patient_indices, seat_indices, loss).  Each applicable cycle has
    a unique unmatched start patient, so each is produced exactly once.
    """
    n_p, n_s = len(si.patients), len(si.seats)
    seat_of, patient_of = _index_matching(si, m)
    elig = si.eligible_seats
    bene = si.beneficiary_seat_sets
    cur_bene = [1 if seat_of[i] != -1 and seat_of[i] in bene[i] else 0 for i in range(n_p)]
    counter = _StateCounter(budget.max_states)
    out: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []

    path_p: list[int] = []
    path_s: list[int] = []
    on_s = [False] * n_s
    on_p = [False] * n_p

    def step(p: int, loss: int) -> None:
        counter.tick()
        for j in elig[p]:
            if j == seat_of[p] or on_s[j]:
                continue
            dloss = cur_bene[p] - (1 if j in bene[p] else 0)
            holder = patient_of[j]
            if holder == -1:
                out.append((tuple(path_p), tuple(path_s + [j]), loss + dloss))
                continue
            if on_p[holder]:
                continue
            path_s.append(j)
            path_p.append(holder)
            on_s[j] = True
            on_p[holder] = True
            step(holder, loss + dloss)
            on_p[holder] = False
            on_s[j] = False
            path_p.pop()
            path_s.pop()

    for start in range(n_p):
        if seat_of[start] != -1:
            continue
        path_p = [start]
        path_s = []
        on_p = [False] * n_p
        on_p[start] = True
        step(start, 0)

    return out


def oracle_min_cycle_loss(
    si: SeatInstance, m: Matching, budget: EnumerationBudget = DEFAULT_BUDGET
) -> int | None:
    """Minimum beneficiary loss over all applicable cycles, or None if none."""
    _check_size(si, budget)
    cycles = _applicable_cycles(si, m, budget)
    if not cycles:
        return None
    return min(loss for _, _, loss in cycles)


@dataclass
class CheckReport:
    """Outcome of one oracle checker over an instance."""

    name: str
    pairs_checked: int = 0
    witnesses_checked: int = 0
    mode: str = "exhaustive"
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _find_disjoint_family(cycles, k: int, target_loss: int, counter: _StateCounter):
    """k pairwise vertex-disjoint cycles with losses summing to target_loss."""

    def rec(i: int, chosen, used, loss_left: int):
        counter.tick()
        if len(chosen) == k:
            return chosen if loss_left == 0 else None
        if i == len(cycles) or len(cycles) - i < k - len(chosen):
            return None
        need = k - len(chosen)
        if loss_left < need:  # every cycle loses at least 1
            return None
        ps, vset, loss = cycles[i]
        if loss <= loss_left - (need - 1) and used.isdisjoint(vset):
            hit = rec(i + 1, chosen + [i], used | vset, loss_left - loss)
            if hit is not None:
                return hit
        return rec(i + 1, chosen, used, loss_left)

    return rec(0, [], frozenset(), target_loss)


def check_disjoint_cycles(
    si: SeatInstance,
    budget: EnumerationBudget = DEFAULT_BUDGET,
    cap: int = 200,
    seed: int = 0,
    census: Census | None = None,
) -> CheckReport:
    """For every frontier pair f2 -> f1 (e1 > e2) and every sampled matching at
    f2, find e1-e2 pairwise disjoint applicable cycles with positive losses
    summing to b2-b1 whose joint application lands exactly on f1."""
    census = _census(si, budget, census)
    f = census.frontier()
    sample = census.sample(f.points, cap, seed)
    report = CheckReport(name="disjoint-cycles", mode=sample.mode)
    n_p = len(si.patients)

    for lo_idx, f2 in enumerate(f.points):
        for f1 in f.points[lo_idx + 1 :]:
            k = f1.e - f2.e
            target = f2.b - f1.b
            report.pairs_checked += 1
            for m2 in sample.matchings[f2]:
                report.witnesses_checked += 1
                raw = _applicable_cycles(si, m2, budget)
                positive = [
                    (
                        list(zip(ps, ss)),
                        frozenset(ps) | frozenset(n_p + j for j in ss),
                        loss,
                    )
                    for ps, ss, loss in raw
                    if loss >= 1
                ]
                counter = _StateCounter(budget.max_states)
                family = _find_disjoint_family(positive, k, target, counter)
                if family is None:
                    report.failures.append(
                        f"no {k} disjoint cycles with total loss {target} "
                        f"from {f2} to {f1} for witness {m2.pairs}"
                    )
                    continue
                seat_of, _ = _index_matching(si, m2)
                assignment = {
                    si.patients[i]: si.seats[j] for i, j in enumerate(seat_of) if j != -1
                }
                for idx in family:
                    for i, j in positive[idx][0]:
                        assignment[si.patients[i]] = si.seats[j]
                landed = MatchPoint(
                    len(assignment),
                    sum(
                        1
                        for p, s in assignment.items()
                        if p in si.beneficiary_of(s)
                    ),
                )
                if landed != f1:
                    report.failures.append(
                        f"joint application landed on {landed}, expected {f1}"
                    )
    return report


def check_matched_preservation(
    si: SeatInstance,
    budget: EnumerationBudget = DEFAULT_BUDGET,
    cap: int = 200,
    seed: int = 0,
    census: Census | None = None,
) -> CheckReport:
    """For every frontier pair f2 -> f1 (e1 > e2) and every sampled matching at
    f2, some matching at f1 keeps all of f2's matched patients matched."""
    census = _census(si, budget, census)
    f = census.frontier()
    sample = census.sample(f.points, cap, seed)
    report = CheckReport(name="matched-preservation", mode=sample.mode)
    bit = {p: 1 << i for i, p in enumerate(si.patients)}

    for lo_idx, f2 in enumerate(f.points):
        for f1 in f.points[lo_idx + 1 :]:
            report.pairs_checked += 1
            for m2 in sample.matchings[f2]:
                report.witnesses_checked += 1
                kept = m2.matched_patients
                mask = sum(bit[p] for p in kept)
                if not any(mask & s == mask for s in sample.matched[f1]):
                    report.failures.append(
                        f"no matching at {f1} keeps matched set {sorted(kept)} from {f2}"
                    )
    return report
