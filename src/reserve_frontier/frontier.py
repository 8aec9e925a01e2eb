"""Frontier of (total matches, beneficiary matches) by repeated assignment.

Sweep d in 0..n (n = max(patients, seats)) solves one assignment problem
with integer edge weights 2d + 1 for a plain eligible pair and 2d + 3 for
a beneficiary pair, so a matching at point (e, b) scores (2d + 1) e + 2b,
twice alpha e + b at alpha = d + 1/2.  The frontier is dense in e and
concave, so every per-step drop in b, and every segment slope, is an
integer in 1..n.  A half-integer alpha therefore has one optimal frontier
point, the one whose left drop is at most d and whose right drop exceeds
d, and every dominated matching scores strictly less.  Sweep 0 returns
the max-beneficiary-then-max-total endpoint, sweep n the
max-total-then-max-beneficiary endpoint.

Only the kinks are solved for.  The score is linear in d, so when sweeps
lo and hi return the same point P, every sweep in between returns P too:
score(P) - score(Q) is > 0 at both ends for every rival Q, so it is > 0
in between.  When they return different points A and C, the interval is
split where the scores of A and C cross, a parametric search in the
manner of Eisner and Severance (1976, J. ACM 23(4)), so every kink is
found in O(kinks) sweeps instead of n.  Frontier points between kinks
lie on straight segments, are filled by interpolation, and get witnesses
from the two kink rows around them (witness_at).

Every solve reads the instance's cached pair codes (0 ineligible, 1
eligible, 2 beneficiary) with one weight per code, gathered into a
negated float64 cost matrix (see hungarian).  The sweeps of one frontier
share one such matrix, gathered once and shifted in place from one
sweep's weights to the next (_sweeps).  A matching is a seat row, as in
the oracle and the cycle search: row[i] is patient i's seat index, or -1
when patient i is unmatched.  Sweeps are scored on
their rows, and SeatInstance.name_row names only the kept kink witnesses
and the matchings returned (frontier_iteration, witness_at, selection).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .core import Matching, MatchPoint, SeatInstance
from .hungarian import cost_matrix, min_cost_assignment

class FrontierInvariantError(RuntimeError):
    """A computed frontier violates a structural guarantee; indicates a bug."""


@dataclass(frozen=True)
class Frontier:
    """Non-domination frontier: points ascending in e, kinks, and witnesses.

    Witnesses are guaranteed at every kink (hence both endpoints); interior
    straight-segment points get one on demand from witness_at.
    """

    points: tuple[MatchPoint, ...]
    kinks: frozenset[MatchPoint]
    witnesses: Mapping[MatchPoint, Matching]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "kinks", frozenset(self.kinks))
        object.__setattr__(self, "witnesses", dict(self.witnesses))
        pts = set(self.points)
        if not self.kinks <= pts:
            raise ValueError("kinks must be frontier points")
        if not set(self.witnesses) <= pts:
            raise ValueError("witnesses must sit on frontier points")

    @property
    def e_min(self) -> int:
        return self.points[0].e

    @property
    def e_max(self) -> int:
        return self.points[-1].e


def check_frontier_invariants(f: Frontier) -> None:
    """Density, monotonicity, and concavity; raise FrontierInvariantError."""
    _check_points(f.points)


def _check_points(pts: Sequence[MatchPoint]) -> None:
    if not pts:
        raise FrontierInvariantError("frontier must contain at least one point")
    for a, b in zip(pts, pts[1:]):
        if b.e != a.e + 1:
            raise FrontierInvariantError(f"gap in total-match counts between {a} and {b}")
        if b.b >= a.b:
            raise FrontierInvariantError(f"beneficiary counts must strictly fall: {a} -> {b}")
    drops = [a.b - b.b for a, b in zip(pts, pts[1:])]
    for d1, d2 in zip(drops, drops[1:]):
        if d1 > d2:
            raise FrontierInvariantError("per-step beneficiary drops must weakly increase with e")


def kinks_of(points: Sequence[MatchPoint]) -> frozenset[MatchPoint]:
    """Endpoints plus every point where the per-step drop changes."""
    if len(points) <= 2:
        return frozenset(points)
    out = {points[0], points[-1]}
    for prev, cur, nxt in zip(points, points[1:], points[2:]):
        if prev.b - cur.b != cur.b - nxt.b:
            out.add(cur)
    return frozenset(out)


def _point(codes: np.ndarray, row: np.ndarray) -> MatchPoint:
    """The point of a seat row on its pair-code matrix."""
    rows = np.flatnonzero(row >= 0)
    return MatchPoint(len(rows), int(np.count_nonzero(codes[rows, row[rows]] == 2)))


def _row(n_rows: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The seat row of the pairs (rows[k], cols[k])."""
    row = np.full(n_rows, -1, dtype=np.intp)
    row[rows] = cols
    return row


def _sweeps(codes: np.ndarray) -> Callable[[int], tuple[MatchPoint, np.ndarray]]:
    """sweep(d) -> (point, seat row) of sweep d in 0..n, all on one cost matrix.

    The matrix is gathered at d = n, so its exactness check covers every
    sweep's weights.  Sweep d's matrix is sweep d_prev's with each eligible
    cell 2 (d - d_prev) lower, so a sweep shifts those cells in place.  The
    values are integers below 2^53, so the shift is exact, and code-0 cells
    keep their -0.0: the solver reads the bytes a fresh gather for d gives.
    The shift's mask, one byte a cell, is freed before the solve.
    """
    n = max(codes.shape)
    cost = cost_matrix(codes, (0, 2 * n + 1, 2 * n + 3))
    at = n

    def sweep(d: int) -> tuple[MatchPoint, np.ndarray]:
        nonlocal at
        if d != at:
            np.subtract(cost, 2 * (d - at), out=cost, where=codes != 0)
            at = d
        row = _row(codes.shape[0], *min_cost_assignment(cost, codes))
        return _point(codes, row), row

    return sweep


def frontier_iteration(si: SeatInstance, d: int) -> tuple[MatchPoint, Matching]:
    """Single weighted sweep: the frontier point that maximizes (2d + 1) e + 2b."""
    n = max(si.pair_codes.shape)
    if not 0 <= d <= n:
        raise ValueError(f"d must be in [0, {n}], got {d}")
    pt, row = _sweeps(si.pair_codes)(d)
    return pt, si.name_row(row.tolist())


def witness_at(si: SeatInstance, f: Frontier, pt: MatchPoint) -> Matching:
    """f's witness at frontier point pt, else one built from the two around it."""
    if pt in f.witnesses:
        return f.witnesses[pt]
    rows = {q: np.array(si.index_matching(f.witnesses[q])[0]) for q in _bracket(f.witnesses, pt)}
    return si.name_row(_witness_row(si.pair_codes, rows, pt).tolist())


def _bracket(witnessed: Iterable[MatchPoint], pt: MatchPoint) -> tuple[MatchPoint, MatchPoint]:
    """The witnessed points just below and just above pt."""
    return max(q for q in witnessed if q.e < pt.e), min(q for q in witnessed if q.e > pt.e)


def _witness_row(codes: np.ndarray, rows: Mapping[MatchPoint, np.ndarray], pt: MatchPoint) -> np.ndarray:
    """rows[pt] itself if pt has one.  Otherwise, for the points A and C just
    below and above pt, A's row with the first pt.e - A.e augmenting paths
    of A xor C applied.  No kink lies between A and C, so for their integer
    slope s both maximize s e + b, and each path or cycle of A xor C (Berge,
    1957) keeps that score: an augmenting path adds a match at a loss of s,
    and at least C.e - A.e components augment.  Each starts at a patient
    whom C seats and A does not, taken by ascending patient; one that ends
    at a patient whom C leaves unmatched moves neither count and is skipped.
    Raises FrontierInvariantError if the row does not score pt.
    """
    if pt in rows:
        return rows[pt]
    a, c = _bracket(rows, pt)
    row, c_row = rows[a].copy(), rows[c].tolist()
    holder = np.full(codes.shape[1], -1, dtype=np.intp)  # A's patient at each seat
    holder[row[row >= 0]] = np.flatnonzero(row >= 0)
    holder, need = holder.tolist(), pt.e - a.e
    for i in np.flatnonzero((row < 0) & (rows[c] >= 0)).tolist():
        if not need:
            break
        path = [i]
        while (i := holder[c_row[i]]) >= 0 and c_row[i] >= 0:
            path.append(i)
        if i < 0:  # C's seat is free in A: an augmenting path
            row[path] = [c_row[k] for k in path]
            need -= 1
    got = _point(codes, row)
    if got != pt:
        raise FrontierInvariantError(f"witness between {a} and {c} scores {got}, not {pt}")
    return row


def compute_frontier(si: SeatInstance) -> Frontier:
    """The complete frontier, with witnesses at every kink.

    Splits the sweep range [0, n] where scores cross.  An interval whose
    end sweeps agree holds no other point and is not split further.  One
    whose ends lo < hi return A and C != A, with de = C.e - A.e > 0 and
    db = A.b - C.b > 0, is split at x = (2 db - de) // (2 de), the largest
    d at which A scores at least C (sweep d scores (e, b) as
    (2d + 1) e + 2b), clamped into [lo + 1, hi - 1]; at adjacent ends C
    first appears at hi.  Each kink's witness is the matching of the
    smallest d whose sweep returns it, the same one a sweep of every
    d = 0..n in order would keep.

    Sweeps are linear in the kinks.  Slopes are integers, so no two
    frontier points tie for the best score at a half-integer, and every
    dominated matching loses strictly.  So A wins strictly at lo and C at
    hi, and lo <= x < hi.  A sweep at x finds a new point or A, and then one at
    x + 1, where C wins, finds a new point or C; a sweep at lo + 1 > x
    finds a new point or C.  So the pair (A, C) costs at most two sweeps
    that find nothing new, each charged to the adjacent pair of kinks it
    ends up between: at most 3 * kinks - 2 sweeps (2 when the ends agree),
    where bisection needs O(kinks * log n).  The parametric search is that
    of Eisner and Severance (1976, J. ACM 23(4)).
    """
    points, kink_rows = _frontier_by_index(si.pair_codes)
    witnesses = {pt: si.name_row(row.tolist()) for pt, row in kink_rows.items()}
    return Frontier(points=tuple(points), kinks=frozenset(witnesses), witnesses=witnesses)


def _frontier_by_index(codes: np.ndarray) -> tuple[list[MatchPoint], dict[MatchPoint, np.ndarray]]:
    """compute_frontier on a pair-code matrix: the points and each kink's seat row."""
    n = max(codes.shape)
    if n == 0 or not codes.any():
        return [MatchPoint(0, 0)], {MatchPoint(0, 0): np.full(codes.shape[0], -1, dtype=np.intp)}

    sweep = _sweeps(codes)
    sweeps = {d: sweep(d) for d in (n, 0)}  # n first: its matrix needs no shift
    firsts = [0]  # ascending d at which a new point first appears
    todo = [(0, n)]  # intervals with both end sweeps done, leftmost on top
    while todo:
        lo, hi = todo.pop()
        a, c = sweeps[lo][0], sweeps[hi][0]
        if a == c:
            continue
        # points first seen at ascending d must trade b for e; anything else is a bug
        if not (c.e > a.e and c.b < a.b):
            raise FrontierInvariantError(f"sweeps {lo} and {hi} out of order: {a} then {c}")
        if hi == lo + 1:
            firsts.append(hi)
            continue
        de = c.e - a.e
        mid = min(max((2 * (a.b - c.b) - de) // (2 * de), lo + 1), hi - 1)
        sweeps[mid] = sweep(mid)
        todo += [(mid, hi), (lo, mid)]
    kink_rows = dict(sweeps[d] for d in firsts)
    kinks = list(kink_rows)

    points: list[MatchPoint] = [kinks[0]]
    for a, b in zip(kinks, kinks[1:]):
        span = b.e - a.e
        drop = a.b - b.b
        if drop % span:
            raise FrontierInvariantError(
                f"drop between kinks {a} and {b} is not divisible by their span"
            )
        step = drop // span
        for j in range(1, span):
            points.append(MatchPoint(a.e + j, a.b - j * step))
        points.append(b)

    _check_points(points)
    return points, kink_rows


def half_bound_ratio(f: Frontier) -> Fraction:
    """Share of total matches given up at the max-beneficiary end: (e_max - e_min)/e_max."""
    if f.e_max == 0:
        raise ValueError("ratio undefined for an empty-matching frontier")
    return Fraction(f.e_max - f.e_min, f.e_max)


def with_all_witnesses(si: SeatInstance, f: Frontier) -> Frontier:
    """f with a witness at every point: witness_at at each missing one."""
    missing = {pt: witness_at(si, f, pt) for pt in f.points if pt not in f.witnesses}
    return Frontier(points=f.points, kinks=f.kinks, witnesses={**f.witnesses, **missing})
