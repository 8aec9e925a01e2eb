"""Brute-force reference computations for desk-scale instances.

Everything here is deliberately independent of the production algorithms:
every matching is enumerated, the frontier is obtained by filtering
dominated score points, and cycles are enumerated exhaustively from the
associated-graph definition.  Budgets cap instance size and visited states
so runaway inputs fail fast instead of hanging.  It only computes: the
checks on its answers live in verify, and no production module imports it.

Every matching here is a category row, as in frontier and cycles (row[i]
is the index of patient i's category, or -1), enumerated and counted once,
and nothing here names one.

There are two entry points.  Census(pr, budget, points) answers everything
the verify checks read: .counts (matchings per score point), .frontier()
(undominated points, witnessed as frontier does, by the category row of
their first matching) and .sample(points) (up to the SAMPLE_CAP constant
rows per point, reservoir-sampled with seed 0).
enumerate_matchings(pr, budget) yields the row of every matching, in the
same order, for callers that need each one.  oracle_min_cycle_loss(pr,
row) refuses a row that is not a matching of pr (Problem.check_row).

Matchings are enumerated patient by patient (_leaf_blocks), each patient
taking no category or an eligible one with a free seat: one loop over a
stack of frames expands one numpy level of rows per patient and yields
the leaves in blocks, each once, in the leaf order of a depth-first
recursion with one call per state.  It counts that recursion's states
against the budget, each slice's children before they are built, so a
pass raises exactly when their total exceeds it, and holds a fixed
number of bytes whatever the instance; enumerate_matchings streams its
blocks.  A Census enumerates its instance once, when it is built, for
the count and first matching at every score point (the frontier, its
witnesses and every exact-share count) and, in the same pass, the
sampled matchings and matched patient sets at the points it was built
with; only samples at other points take a pass of their own.  Leaves are
scored by index, block by block, and only the first leaf at each new
point and the leaves at sampled points are read back and reach Python.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .core import BudgetExceededError, MatchPoint, Problem
from .frontier import Frontier, kinks_of

BUDGET_ENV = "RESERVE_FRONTIER_ORACLE_BUDGET"


# _applicable_cycles recurses once per patient, and _find_disjoint_family
# once per chosen cycle (at most min(patients, seats)), on top of the
# caller's frames.  Sizes up to this stay well inside Python's default
# recursion limit of 1,000.  _leaf_blocks recurses not at all, but keeps
# one level of rows per patient, and up to this size the levels stay under
# _BLOCK_BYTES even where each holds the children of one parent only.
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


def _check_size(pr: Problem, budget: EnumerationBudget) -> None:
    n_p, n_s = len(pr.patients), sum(pr.quotas)
    if n_p > budget.max_patients or n_s > budget.max_seats:
        raise BudgetExceededError(
            f"instance has {n_p} patients and {n_s} seats; "
            f"budget allows {budget.max_patients} patients and {budget.max_seats} seats; "
            f"raise it with {BUDGET_ENV}=patients,seats,states"
        )


class _StateCounter:
    """The states one search has visited, against the budget's max_states."""

    __slots__ = ("used", "limit")

    def __init__(self, limit: int):
        self.used = 0
        self.limit = limit

    def add(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.limit:
            raise BudgetExceededError(
                f"state budget {self.limit} exceeded; raise it with {BUDGET_ENV}=patients,seats,states"
            )


# Bytes that the enumeration may hold.  Its live levels get half, an equal
# share each; the rest holds the arrays that one expansion step builds, a
# small multiple of one level's share, and the leaves a caller reads back,
# 2 bytes a patient each.  A parent's children are never split, so a level
# can outgrow its share: at the 500 x 500 ceiling one parent's up to 501
# children of 82 bytes take 41 kB a level, 20.5 MB over 500 levels.
_BLOCK_BYTES = 32 << 20


def _leaf_blocks(pr: Problem, budget: EnumerationBudget):
    """Yield (read, e, b) blocks that list every eligible matching once.

    Leaf r of a block is one matching scoring e[r], b[r], and read(rows)
    returns the category rows of the leaves at the indices rows, read back
    along the parent links, so that a caller reads only the leaves it
    keeps.  One loop over a stack of frames expands one level of rows per
    patient, and a parent's children stay together in choice order
    (unmatched, then the ascending eligible categories with a free seat),
    so the blocks list the category rows lexicographically, in the leaf
    order of a depth-first recursion that takes one call per state, and
    each block is yielded once, from the loop itself.

    The state count is the root plus every row of every level, the states
    that such a recursion visits.  Levels are expanded a slice of parents
    at a time, so that the live levels hold at most half of _BLOCK_BYTES,
    and a slice's children are counted before any is built: a pass over
    every block raises BudgetExceededError exactly when that count exceeds
    the budget, and the leaves yielded before it are a prefix of those the
    recursion visits before it raises.  Its callers check the instance's
    size.
    """
    codes, n = pr.pair_codes, len(pr.patients)
    # a row's seats taken per category, each a field of its quota's bit
    # length in the row's uint64 words, never split between two words: a
    # unit category's field is the one bit of its seat
    widths, offset, at = [q.bit_length() or 1 for q in pr.quotas], [], 0
    for width in widths:
        at += -at % 64 if at % 64 + width > 64 else 0
        offset.append(at)
        at += width
    words, word = (at + 63) // 64, np.array(offset, dtype=np.intp) >> 6
    one = np.left_shift(np.uint64(1), np.array(offset, dtype=np.uint64) & np.uint64(63))
    field = np.array([(1 << w) - 1 for w in widths], dtype=np.uint64) * one
    full = np.array(pr.quotas, dtype=np.uint64) * one  # a field with every seat taken
    states = _StateCounter(budget.max_states)
    states.add()  # the root

    # per patient: its eligible categories, and the category and whether it
    # is a beneficiary pair of each choice
    elig = [np.flatnonzero(row) for row in codes]
    category_of_choice = [np.concatenate(([-1], js)).astype(np.int16) for js in elig]
    bene_of_choice = [np.concatenate(([0], row[js] == 2)).astype(np.int32) for row, js in zip(codes, elig)]
    row_bytes = 8 + 2 + 4 + 4 + 8 * words  # parent link, category, e, b and taken seats of one row
    # parents per slice: each of the n levels gets an equal share of half the bytes
    step = [max(1, _BLOCK_BYTES // (2 * n * row_bytes * (len(js) + 1))) for js in elig]

    def reader(links: list):
        """read(rows): the category rows of the leaves at rows; links[k] holds
        the parent row and the category of every row of level k + 1."""
        def read(rows: np.ndarray) -> np.ndarray:
            assignment = np.empty((len(rows), n), dtype=np.int16)
            for lv in reversed(range(n)):
                parent, placed = links[lv]
                assignment[:, lv] = placed[rows]
                rows = parent[rows]
            return assignment
        return read

    # a frame is the rows of level len(links), each with its score and its
    # taken seats (None at the leaves), and the first parent whose children
    # are still to be built; a slice's children go above the rest of their
    # level, so the frames pop in depth-first order
    zero = np.zeros(1, np.int32)
    stack = [([], zero, zero, np.zeros((1, words), np.uint64), 0)]
    while stack:
        links, e, b, used, start = stack.pop()
        i = len(links)
        if i == n:
            yield reader(links), e, b
            continue
        stop = min(start + step[i], len(e))
        if stop < len(e):
            stack.append((links, e, b, used, stop))
        js = elig[i]
        choices = np.ones((stop - start, len(js) + 1), dtype=bool)
        choices[:, 1:] = (used[start:stop, word[js]] & field[js]) < full[js]  # a free seat left
        parent, choice = np.nonzero(choices)
        states.add(len(parent))  # the slice's children, before any is built
        parent += start
        child_used = None
        if i + 1 < n:  # leaves need no taken seats
            child_used = used[parent]
            matched = np.flatnonzero(choice)
            taken = js[choice[matched] - 1]
            child_used[matched, word[taken]] += one[taken]
        link = parent, category_of_choice[i][choice]
        stack.append(([*links, link], e[parent] + (choice > 0), b[parent] + bene_of_choice[i][choice], child_used, 0))


def enumerate_matchings(pr: Problem, budget: EnumerationBudget = DEFAULT_BUDGET):
    """Yield the category row of every eligible matching once, in
    lexicographic order.

    Blocks are built as the matchings are consumed, so memory stays within
    the enumeration's byte cap, and a BudgetExceededError for the state
    budget can come after it has yielded a prefix of the matchings.
    """
    _check_size(pr, budget)
    for read, e, _ in _leaf_blocks(pr, budget):
        yield from map(tuple, read(np.arange(len(e))).tolist())


# Rows that Census.sample keeps per point; the rest are reservoir-sampled.
SAMPLE_CAP = 200


class Sample(NamedTuple):
    """Samples at a set of points, and the matched sets of every matching there."""

    matchings: dict[MatchPoint, list[tuple[int, ...]]]  # category rows
    mode: str  # "exhaustive" if nothing was dropped, else "sampled"
    matched: dict[MatchPoint, set[int]]  # bitmasks of matched patient indices


class Census:
    """The oracle's view of one instance, from one pass made when it is built.

    Building it enumerates the instance, so an instance over the budget's
    patients or seats, or one whose pass exceeds the state budget, is
    refused there, before any caller reads it.  The pass records, for each point (e, b), the
    number of matchings scoring it and the first one in enumeration order,
    and in the same visit reservoir-samples up to SAMPLE_CAP matchings at
    each of the census's points, drawing from Random(0) exactly as a scan
    of its own would, and collects the matched patient sets there.  Samples
    at another point set get a fresh pass of their own, so a frontier that
    disagrees with the oracle still gets its samples.  Every pass has its
    own state budget, as every scan does.
    """

    def __init__(self, pr: Problem, budget: EnumerationBudget = DEFAULT_BUDGET,
                 points: Iterable[MatchPoint] = ()):
        self.pr = pr
        self.budget = budget
        own = frozenset(points)
        # counts: matchings at each point, in order of first appearance
        self.counts, self._first, sample = self._pass(own)
        self._samples: dict[frozenset[MatchPoint], Sample] = {own: sample}
        # by e, then b, descending: a point is undominated iff its b beats
        # every b before it
        nd, top = [], -1
        for p in sorted(self.counts, key=lambda p: (-p.e, -p.b)):
            if p.b > top:
                nd.append(p)
                top = p.b
        nd.reverse()
        witnesses = {p: self._first[p] for p in nd}
        self._frontier = Frontier(points=tuple(nd), kinks=kinks_of(nd), witnesses=witnesses)

    def frontier(self) -> Frontier:
        """Undominated points, each witnessed by its first matching's category row."""
        return self._frontier

    def sample(self, points) -> Sample:
        """Up to SAMPLE_CAP category rows per point, reservoir-sampled with seed 0."""
        key = frozenset(points)
        if key not in self._samples:
            self._samples[key] = self._pass(key)[2]
        return self._samples[key]

    def _pass(self, wanted: frozenset[MatchPoint]) -> tuple[dict, dict, Sample]:
        """One enumeration: (counts, first, sample), the count and first
        matching of every point and the sample at the wanted points."""
        _check_size(self.pr, self.budget)  # before the slot table, (patients + 1)^2 wide
        rng, cap = random.Random(0), SAMPLE_CAP
        kept: dict[MatchPoint, list[tuple[int, ...]]] = {p: [] for p in wanted}
        seen: dict[MatchPoint, int] = {p: 0 for p in wanted}
        matched: dict[MatchPoint, set[int]] = {p: set() for p in wanted}
        counts: dict[int, int] = {}
        first: dict[int, tuple[int, ...]] = {}
        # a point's key is e * stride + b; each wanted point a leaf can score
        # has one slot, and the others are never hit
        stride = len(self.pr.patients) + 1
        slot_of = np.full(stride * stride, -1, dtype=np.intp)
        points = [p for p in wanted if min(p) >= 0 and max(p) < stride]
        for k, (pe, pb) in enumerate(points):
            slot_of[pe * stride + pb] = k
        for read, e, b in _leaf_blocks(self.pr, self.budget):
            keys = e * stride + b
            sizes = np.bincount(keys)
            at = np.full(len(sizes), len(keys), dtype=np.intp)
            np.minimum.at(at, keys, np.arange(len(keys)))  # each key's first row
            hit = np.flatnonzero(sizes)
            hit = hit[np.argsort(at[hit])]  # in order of first appearance
            new = [key for key in hit.tolist() if key not in counts]
            for key, size in zip(hit.tolist(), sizes[hit].tolist()):
                counts[key] = counts.get(key, 0) + size
            if new:  # only the first row at each new point is read back
                first.update(zip(new, map(tuple, read(at[new]).tolist())))
            slots = slot_of[keys]
            rows = np.flatnonzero(slots >= 0)
            if not len(rows):
                continue
            hits = read(rows)
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
        return ({MatchPoint(*divmod(k, stride)): c for k, c in counts.items()},
                {MatchPoint(*divmod(k, stride)): a for k, a in first.items()},
                Sample(kept, mode, matched))


def _applicable_cycles(pr: Problem, row: Sequence[int], budget: EnumerationBudget):
    """All applicable cycles in the associated graph of the category row,
    by exhaustive search.

    Returns (patient_indices, category_indices, loss, end) tuples.  A cycle
    that ends in a category with k free seats is listed k times, with the
    end tokens (category, 0) to (category, k - 1): cycles that share no
    patient and no end token can be applied together, as cycles that share
    no unit seat can.  Each applicable cycle has a unique unmatched start
    patient, so each is produced once per end token.
    """
    n_p, n_c = pr.pair_codes.shape
    elig = pr.eligible_categories
    bene = pr.beneficiary_categories
    holders: list[list[int]] = [[] for _ in range(n_c)]  # per category, its patients ascending
    for i, c in enumerate(row):
        if c != -1:
            holders[c].append(i)
    ends = [[(c, slot) for slot in range(q - len(held))] for c, (q, held) in enumerate(zip(pr.quotas, holders))]
    cur_bene = [1 if row[i] in bene[i] else 0 for i in range(n_p)]
    counter = _StateCounter(budget.max_states)
    out: list[tuple[tuple[int, ...], tuple[int, ...], int, tuple[int, int]]] = []

    path_p: list[int] = []
    path_c: list[int] = []
    on_p = [False] * n_p

    def step(p: int, loss: int) -> None:
        counter.add()
        for c in elig[p]:
            if c == row[p]:
                continue
            dloss = cur_bene[p] - (1 if c in bene[p] else 0)
            path_c.append(c)
            for end in ends[c]:
                out.append((tuple(path_p), tuple(path_c), loss + dloss, end))
            for holder in holders[c]:
                if on_p[holder]:
                    continue
                path_p.append(holder)
                on_p[holder] = True
                step(holder, loss + dloss)
                on_p[holder] = False
                path_p.pop()
            path_c.pop()

    for start in range(n_p):
        if row[start] != -1:
            continue
        path_p = [start]  # a start is unmatched, so no category hands it over again
        step(start, 0)

    return out


def oracle_min_cycle_loss(
    pr: Problem, row: Sequence[int], budget: EnumerationBudget = DEFAULT_BUDGET
) -> int | None:
    """Minimum beneficiary loss over all applicable cycles of the category
    row's matching, or None if none; MatchingError if row is not a matching of pr."""
    _check_size(pr, budget)
    cycles = _applicable_cycles(pr, pr.check_row(row), budget)
    if not cycles:
        return None
    return min(loss for _, _, loss, _ in cycles)


def _find_disjoint_family(cycles, k: int, target_loss: int, budget: EnumerationBudget):
    """k cycles with pairwise disjoint vertex sets (patients and end token)
    and losses summing to target_loss."""
    counter = _StateCounter(budget.max_states)

    def rec(i: int, chosen, used, loss_left: int):
        # recurses only to take cycle i; skipping it loops, one state per i
        need = k - len(chosen)
        while True:
            counter.add()
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
