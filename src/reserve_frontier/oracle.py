"""Brute-force reference computations for desk-scale instances.

Everything here is deliberately independent of the production algorithms:
every matching is enumerated, the frontier is obtained by filtering
dominated score points, and cycles are enumerated exhaustively from the
associated-graph definition.  Budgets cap instance size and visited states
so runaway inputs fail fast instead of hanging.

There are two entry points.  Census(si, budget) answers everything the
verify checks read: .counts (matchings per score point), .frontier()
(undominated points with their first witnesses) and .sample(points) (up
to the SAMPLE_CAP constant matchings per point, reservoir-sampled with
seed 0).  enumerate_matchings(si, budget) yields every matching once, in
the same order, for callers that need each one.

Matchings are enumerated in numpy blocks (_leaf_blocks), one patient per
level, in the leaf order of a depth-first recursion over patients; the
blocks count the recursion's states against the budget and hold a fixed
number of bytes whatever the instance.  A Census enumerates its instance
at most twice: once for the count and first matching at every score point
(the frontier, its witnesses and every exact-share count), and once more
only when samples are asked for (the sampled matchings and the matched
patient sets at the sampled points).  Leaves are scored by index, block
by block; only the leaves at sampled points reach Python, and no Matching
is built per leaf.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import Matching, MatchPoint, SeatInstance, dominates, match_point
from .frontier import Frontier, kinks_of

BUDGET_ENV = "RESERVE_FRONTIER_ORACLE_BUDGET"


class BudgetExceededError(RuntimeError):
    """The instance or search exceeds the enumeration budget."""


# _applicable_cycles recurses once per patient, and _find_disjoint_family
# once per chosen cycle (at most min(patients, seats)), on top of the
# caller's frames.  Sizes up to this stay well inside Python's default
# recursion limit of 1,000.  _leaf_blocks keeps one level of rows per
# patient, and up to this size one level's share of _BLOCK_BYTES still
# holds the children of one parent.
MAX_ORACLE_SIZE = 500


@dataclass(frozen=True)
class EnumerationBudget:
    max_patients: int = 7
    max_seats: int = 7
    max_states: int = 10_000_000

    def __post_init__(self) -> None:
        if min(self.max_patients, self.max_seats) < 0 or self.max_states < 1:
            raise ValueError(f"{BUDGET_ENV}=patients,seats,states needs patients, seats >= 0 and states"
                             f" >= 1, got {self.max_patients},{self.max_seats},{self.max_states}")
        for what, size in (("patients", self.max_patients), ("seats", self.max_seats)):
            if size > MAX_ORACLE_SIZE:
                raise ValueError(
                    f"an oracle budget of {size} {what} exceeds the ceiling of "
                    f"{MAX_ORACLE_SIZE} that the oracle's searches allow; "
                    f"keep the patients and seats of {BUDGET_ENV} at most {MAX_ORACLE_SIZE}"
                )


DEFAULT_BUDGET = EnumerationBudget()


def budget_from_env() -> EnumerationBudget:
    """Budget override from RESERVE_FRONTIER_ORACLE_BUDGET="patients,seats,states"."""
    raw = os.environ.get(BUDGET_ENV, "").strip()
    if not raw:
        return DEFAULT_BUDGET
    try:
        parts = [int(tok) for tok in raw.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise ValueError(f"{BUDGET_ENV}={raw!r} must be patients,seats,states, three integers")
    return EnumerationBudget(*parts)


def _check_size(si: SeatInstance, budget: EnumerationBudget) -> None:
    n_p, n_s = len(si.patients), len(si.seats)
    if n_p > budget.max_patients or n_s > budget.max_seats:
        raise BudgetExceededError(
            f"instance has {n_p} patients and {n_s} seats; "
            f"budget allows {budget.max_patients} patients and {budget.max_seats} seats; "
            f"raise it with {BUDGET_ENV}=patients,seats,states"
        )


def _over_state_budget(limit: int) -> BudgetExceededError:
    return BudgetExceededError(
        f"state budget {limit} exceeded; raise it with {BUDGET_ENV}=patients,seats,states"
    )


class _StateCounter:
    __slots__ = ("used", "limit")

    def __init__(self, limit: int):
        self.used = 0
        self.limit = limit

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise _over_state_budget(self.limit)


# Bytes that the rows of the enumeration's live levels may hold together.
# Each of the n levels gets an equal share, and a parent's children are
# never split, so a share must hold the up to seats + 1 children of one
# parent: at the 500 x 500 ceiling that is 501 rows of 82 bytes a level,
# 20.5 MB in all.  The arrays one expansion step builds are a small
# multiple of one level's share.
_BLOCK_BYTES = 32 << 20


class _Level(NamedTuple):
    """The rows with the same number of patients decided, in leaf order."""

    parent: np.ndarray  # row of the level above
    seat: np.ndarray  # int16 seat of the last decided patient, -1 unmatched
    e: np.ndarray  # int32 matches so far
    b: np.ndarray  # int32 beneficiary matches so far
    used: np.ndarray  # (rows, words) uint64 bitmask of the seats taken


def _leaf_blocks(si: SeatInstance, budget: EnumerationBudget):
    """Yield (assignment, e, b) blocks that list every eligible matching once.

    Row r of a block is one matching: assignment[r] holds a seat index per
    patient (-1 for unmatched), and e[r], b[r] are its score.  Matchings are
    expanded one patient per level, and a parent's children stay together
    in choice order (unmatched, then the ascending eligible seats), so the
    blocks list the matchings lexicographically, in the leaf order of a
    depth-first recursion over patients.

    The state count is the root plus every row of every level, the states
    that such a recursion visits.  All the children of a level's rows are
    counted before any of them is built, so BudgetExceededError is raised
    exactly when the recursion would raise it, before the rows over the
    budget are allocated.  Levels are expanded a slice of parents at a
    time, so that the live levels hold at most _BLOCK_BYTES.
    """
    _check_size(si, budget)
    n, words = len(si.patients), (len(si.seats) + 63) // 64
    limit = budget.max_states
    states = 1
    if states > limit:
        raise _over_state_budget(limit)
    if n == 0:
        yield np.empty((1, 0), np.int16), np.zeros(1, np.int32), np.zeros(1, np.int32)
        return

    # per patient: the seat of each choice, whether it is a beneficiary
    # pair, and the bitmask word and bit of each eligible seat
    codes = si.pair_codes
    elig = [np.array(seats, dtype=np.intp) for seats in si.eligible_seats]
    seat_of_choice = [np.concatenate(([-1], js)).astype(np.int16) for js in elig]
    bene_of_choice = [np.concatenate(([0], codes[i, js] == 2)).astype(np.int32) for i, js in enumerate(elig)]
    word = [js >> 6 for js in elig]
    bit = [np.left_shift(np.uint64(1), (js & 63).astype(np.uint64)) for js in elig]
    row_bytes = 8 + 2 + 4 + 4 + 8 * words  # parent, seat, e, b and used of one _Level row
    share = max(1, _BLOCK_BYTES // (n * row_bytes))
    step = [max(1, share // (len(js) + 1)) for js in elig]  # parents per slice

    def free(level: _Level, i: int, start: int, stop: int) -> np.ndarray:
        """(parents, eligible seats) mask of the seats patient i may still take."""
        return (level.used[start:stop][:, word[i]] & bit[i]) == 0

    def push(level: _Level) -> None:
        nonlocal states
        i = len(levels)
        rows = len(level.e)
        states += rows + sum(
            int(np.count_nonzero(free(level, i, start, start + step[i])))
            for start in range(0, rows, step[i])
        )
        if states > limit:
            raise _over_state_budget(limit)
        levels.append(level)
        cursor.append(0)

    levels: list[_Level] = []
    cursor: list[int] = []
    zero = np.zeros(1, np.int32)
    push(_Level(np.zeros(1, np.intp), np.full(1, -1, np.int16), zero, zero, np.zeros((1, words), np.uint64)))
    while levels:
        i, top, start = len(levels) - 1, levels[-1], cursor[-1]
        if start == len(top.e):
            levels.pop()
            cursor.pop()
            continue
        stop = cursor[-1] = min(start + step[i], len(top.e))
        choices = np.ones((stop - start, len(elig[i]) + 1), dtype=bool)
        choices[:, 1:] = free(top, i, start, stop)
        parent, choice = np.nonzero(choices)
        parent += start
        seat = seat_of_choice[i][choice]
        e = top.e[parent] + (choice > 0)
        b = top.b[parent] + bene_of_choice[i][choice]
        if i + 1 < n:
            used = top.used[parent]
            matched = np.flatnonzero(choice)
            taken = choice[matched] - 1
            used[matched, word[i][taken]] |= bit[i][taken]
            push(_Level(parent, seat, e, b, used))
            continue
        assignment = np.empty((len(e), n), dtype=np.int16)
        assignment[:, i] = seat
        for lv in range(i, 0, -1):
            assignment[:, lv - 1] = levels[lv].seat[parent]
            parent = levels[lv].parent[parent]
        yield assignment, e, b


def enumerate_matchings(si: SeatInstance, budget: EnumerationBudget = DEFAULT_BUDGET):
    """Yield every eligible matching exactly once, in a fixed recursion order."""
    blocks = list(_leaf_blocks(si, budget))  # a budget error comes before any matching
    for assignment, _, _ in blocks:
        for a in assignment.tolist():
            yield si.name_row(a)


# Matchings that Census.sample keeps per point; the rest are reservoir-sampled.
SAMPLE_CAP = 200


class Sample(NamedTuple):
    """Samples at a set of points, and the matched sets of every matching there."""

    matchings: dict[MatchPoint, list[Matching]]
    mode: str  # "exhaustive" if nothing was dropped, else "sampled"
    matched: dict[MatchPoint, set[int]]  # bitmasks of matched patient indices


class Census:
    """The oracle's view of one instance, built lazily in at most two passes.

    An instance over the budget's patients or seats is refused when the
    census is built, before any caller solves it.  Pass 1 records, for
    each point (e, b), the number of matchings scoring it and the first
    one in recursion order.  Pass 2 runs only when samples are asked for:
    it reservoir-samples up to SAMPLE_CAP matchings at each requested
    point, drawing from Random(0) exactly as a scan of its own would, and
    collects the matched patient sets at those points in the same visit.
    Samples at another point set get a fresh pass of their own, so a
    frontier that disagrees with the oracle still gets its samples.
    Every pass has its own state budget, as every scan does.
    """

    def __init__(self, si: SeatInstance, budget: EnumerationBudget = DEFAULT_BUDGET):
        _check_size(si, budget)
        self.si = si
        self.budget = budget
        self._counts: dict[MatchPoint, int] | None = None
        self._first: dict[MatchPoint, tuple[int, ...]] = {}
        self._frontier: Frontier | None = None
        self._samples: dict[frozenset[MatchPoint], Sample] = {}

    @property
    def counts(self) -> dict[MatchPoint, int]:
        """Number of eligible matchings at each point, in order of first appearance."""
        if self._counts is None:
            counts: dict[tuple[int, int], int] = {}
            first: dict[tuple[int, int], tuple[int, ...]] = {}
            stride = len(self.si.patients) + 1
            for a, e, b in _leaf_blocks(self.si, self.budget):
                keys, at, sizes = np.unique(e * stride + b, return_index=True, return_counts=True)
                for k in np.argsort(at).tolist():  # in order of first appearance
                    key = divmod(int(keys[k]), stride)
                    if key in counts:
                        counts[key] += int(sizes[k])
                    else:
                        counts[key] = int(sizes[k])
                        first[key] = tuple(a[at[k]].tolist())
            self._first = {MatchPoint(*k): a for k, a in first.items()}
            self._counts = {MatchPoint(*k): c for k, c in counts.items()}
        return self._counts

    def frontier(self) -> Frontier:
        """Undominated points, each witnessed by its first matching."""
        if self._frontier is None:
            pts = list(self.counts)
            nd = sorted(p for p in pts if not any(dominates(q, p) for q in pts))
            witnesses = {p: self.si.name_row(self._first[p]) for p in nd}
            self._frontier = Frontier(points=tuple(nd), kinks=kinks_of(nd), witnesses=witnesses)
        return self._frontier

    def sample(self, points) -> Sample:
        """Up to SAMPLE_CAP matchings per point, reservoir-sampled with seed 0."""
        key = frozenset(points)
        if key not in self._samples:
            self._samples[key] = self._sample_pass(key)
        return self._samples[key]

    def _sample_pass(self, wanted: frozenset[MatchPoint]) -> Sample:
        rng, cap = random.Random(0), SAMPLE_CAP
        kept: dict[MatchPoint, list[tuple[int, ...]]] = {p: [] for p in wanted}
        seen: dict[MatchPoint, int] = {p: 0 for p in wanted}
        matched: dict[MatchPoint, set[int]] = {p: set() for p in wanted}
        # each point a leaf can score has one slot; the others are never hit
        stride = len(self.si.patients) + 1
        slot_of = np.full(stride * stride, -1, dtype=np.intp)
        points = [p for p in wanted if min(p) >= 0 and max(p) < stride]
        for k, (pe, pb) in enumerate(points):
            slot_of[pe * stride + pb] = k
        for a, e, b in _leaf_blocks(self.si, self.budget):
            slots = slot_of[e * stride + b]
            rows = np.flatnonzero(slots >= 0)
            hits = a[rows]
            bits = np.packbits(hits >= 0, axis=1, bitorder="little")
            # one leaf at a time, in leaf order across all points, so the
            # reservoir draws from rng exactly as a depth-first scan does
            for k, row, mask in zip(slots[rows].tolist(), hits.tolist(), bits):
                pt = points[k]
                seen[pt] = n = seen[pt] + 1
                matched[pt].add(int.from_bytes(mask.tobytes(), "little"))
                bucket = kept[pt]
                if len(bucket) < cap:
                    bucket.append(tuple(row))
                else:
                    slot = rng.randrange(n)
                    if slot < cap:
                        bucket[slot] = tuple(row)
        mode = "exhaustive" if all(n <= cap for n in seen.values()) else "sampled"
        samples = {p: [self.si.name_row(a) for a in kept[p]] for p in wanted}
        return Sample(samples, mode, matched)


def _applicable_cycles(si: SeatInstance, m: Matching, budget: EnumerationBudget):
    """All applicable cycles in m's associated graph, by exhaustive search.

    Yields (patient_indices, seat_indices, loss).  Each applicable cycle has
    a unique unmatched start patient, so each is produced exactly once.
    """
    n_p, n_s = len(si.patients), len(si.seats)
    seat_of, patient_of = si.index_matching(m)
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
        # recurses only to take cycle i; skipping it loops, one state per i
        need = k - len(chosen)
        while True:
            counter.tick()
            if not need:
                return chosen if loss_left == 0 else None
            if i == len(cycles) or len(cycles) - i < need:
                return None
            if loss_left < need:  # every cycle loses at least 1
                return None
            ps, vset, loss = cycles[i]
            if loss <= loss_left - (need - 1) and used.isdisjoint(vset):
                hit = rec(i + 1, chosen + [i], used | vset, loss_left - loss)
                if hit is not None:
                    return hit
            i += 1

    return rec(0, [], frozenset(), target_loss)


def check_disjoint_cycles(census: Census) -> CheckReport:
    """For every frontier pair f2 -> f1 (e1 > e2) and every sampled matching at
    f2, find e1-e2 pairwise disjoint applicable cycles with positive losses
    summing to b2-b1 whose joint application lands exactly on f1."""
    si, budget = census.si, census.budget
    f = census.frontier()
    sample = census.sample(f.points)
    report = CheckReport(name="disjoint-cycles", mode=sample.mode)
    n_p = len(si.patients)

    for lo_idx, f2 in enumerate(f.points[:-1]):
        # the cycles of a sampled matching serve every f1 above its f2
        sampled = []
        for m2 in sample.matchings[f2]:
            positive = [
                (
                    list(zip(ps, ss)),
                    frozenset(ps) | frozenset(n_p + j for j in ss),
                    loss,
                )
                for ps, ss, loss in _applicable_cycles(si, m2, budget)
                if loss >= 1
            ]
            sampled.append((m2, positive, si.index_matching(m2)[0]))
        for f1 in f.points[lo_idx + 1 :]:
            k = f1.e - f2.e
            target = f2.b - f1.b
            report.pairs_checked += 1
            for m2, positive, seat_of in sampled:
                report.witnesses_checked += 1
                counter = _StateCounter(budget.max_states)
                family = _find_disjoint_family(positive, k, target, counter)
                if family is None:
                    report.failures.append(
                        f"no {k} disjoint cycles with total loss {target} "
                        f"from {f2} to {f1} for witness {m2.pairs}"
                    )
                    continue
                row = list(seat_of)
                for idx in family:
                    for i, j in positive[idx][0]:
                        row[i] = j
                landed = match_point(si, si.name_row(row))
                if landed != f1:
                    report.failures.append(
                        f"joint application landed on {landed}, expected {f1}"
                    )
    return report


def check_matched_preservation(census: Census) -> CheckReport:
    """For every frontier pair f2 -> f1 (e1 > e2) and every sampled matching at
    f2, some matching at f1 keeps all of f2's matched patients matched."""
    si = census.si
    f = census.frontier()
    sample = census.sample(f.points)
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
