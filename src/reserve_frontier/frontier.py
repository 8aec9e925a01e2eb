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
found in O(kinks) sweeps instead of n.  Each kink keeps the row of the
largest d whose sweep returns it.  Frontier points between kinks lie on
straight segments, are filled by interpolation, and get witnesses from
the two kink rows around them (witness_at).  One loop (_split) does every
split, told by a predicate which intervals to split: all of them for the
whole frontier, and for selection (mechanism._select) only those that
hold its point or a kink whose row that point needs.

Every solve reads the instance's cached pair codes (0 ineligible, 1
eligible, 2 beneficiary), with each category's column repeated quota
times for the solver's unit seats.  The sweeps of one frontier share one
cost matrix, which _sweeps builds, shifts, solves and filters; it is the
only caller of the solver (hungarian).  A matching is a category row, as
everywhere below the I/O boundary: row[i] is the index of patient i's
category, or -1 when patient i is unmatched.  Sweeps are scored on their
rows, and every witness this module returns is a category row, a tuple
of ints; names are given at the I/O boundary (serialize) or by
Problem.name_row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import MatchPoint, Problem, row_point
from .hungarian import linear_sum_assignment


class FrontierInvariantError(RuntimeError):
    """A computed frontier violates a structural guarantee; indicates a bug."""


@dataclass(frozen=True)
class Frontier:
    """Non-domination frontier: points ascending in e, kinks, and witnesses.

    A witness is a category row.  Witnesses are guaranteed at every kink (hence
    both endpoints); interior straight-segment points get one on demand
    from witness_at.
    """

    points: tuple[MatchPoint, ...]
    kinks: frozenset[MatchPoint]
    witnesses: Mapping[MatchPoint, tuple[int, ...]]

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
    pts = f.points
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


def _sweeps(codes: np.ndarray, quotas: Sequence[int]) -> Callable[[int], tuple[MatchPoint, tuple[int, ...]]]:
    """sweep(d) -> (point, category row as a tuple of ints) of sweep d in
    0..n, all on one cost matrix, for the pair codes of categories with
    these quotas.

    The solver sees unit seats: each category's column repeated quota times
    (the codes themselves when every quota is 1), and each seat column it
    assigns is mapped back to its category.  The codes are rows of an
    admitted Problem's pair codes, within the limits Problem.quotas checks.

    The solver minimizes, so the matrix is the negated weight table
    (0, 2n + 1, 2n + 3) of sweep n gathered over the seat codes: one float64
    allocation, which the solver reads in place, and code-0 cells at -0.0.
    Its doubles equal the ones scipy's maximize=True path builds from the
    int64 weights: each weight is an integer below 2^53, so converting and
    negating it are exact, and the solver returns the same pairs.
    `table.take(seat_codes)` gives the same bytes and is faster alone, but
    it first copies the uint8 codes to intp: inside `solve` on a 320 x 320
    instance it took 0.78-0.89 ms a call against 0.36 ms for the gather, on
    2 shared vCPUs.  Every weight stays exact: with n = max(P, S), the top
    weight times the smaller side is (2n + 3) min(P, S) <= 5 P S, and
    5 MAX_CELLS is below 2^53.
    Sweep d's matrix is sweep d_prev's with each eligible cell 2 (d - d_prev)
    lower, so a sweep shifts those cells in place.  The shift is exact, and
    code-0 cells keep their -0.0: the solver reads the bytes a fresh gather
    for d gives.  The shift's mask, one byte a cell, is freed before the
    solve.  A pair the solver assigns at code 0 is no match and is dropped.
    """
    n_patients, n_seats = codes.shape[0], sum(quotas)
    n = max(n_patients, n_seats)
    seat_codes = codes if codes.shape[1] == n_seats else np.repeat(codes, quotas, axis=1)
    category = np.repeat(np.arange(codes.shape[1]), quotas)  # of each seat column
    # negate the small table, not the gathered matrix: one full-size allocation
    cost = (-np.array((0, 2 * n + 1, 2 * n + 3), dtype=np.float64))[seat_codes]
    at = n

    def sweep(d: int) -> tuple[MatchPoint, tuple[int, ...]]:
        nonlocal at
        if d != at:
            np.subtract(cost, 2 * (d - at), out=cost, where=seat_codes != 0)
            at = d
        rows, cols = linear_sum_assignment(cost)
        keep = seat_codes[rows, cols] != 0
        row = np.full(n_patients, -1, dtype=np.intp)
        row[rows[keep]] = category[cols[keep]]
        return row_point(codes, row), tuple(row.tolist())

    return sweep


def frontier_iteration(pr: Problem, d: int) -> tuple[MatchPoint, tuple[int, ...]]:
    """Single weighted sweep: the frontier point that maximizes (2d + 1) e + 2b,
    and its category row, a tuple of ints."""
    n = max(len(pr.patients), sum(pr.quotas))
    if not 0 <= d <= n:
        raise ValueError(f"d must be in [0, {n}], got {d}")
    return _sweeps(pr.pair_codes, pr.quotas)(d)


def witness_at(codes: np.ndarray, f: Frontier, pt: MatchPoint) -> tuple[int, ...]:
    """The category row of a matching at frontier point pt of f, the
    frontier of the pair-code matrix codes (Problem.pair_codes).

    f's own witness if pt has one.  Otherwise, for the witnessed points A
    and C just below and above pt, A's row with the first pt.e - A.e
    augmenting paths of C - A applied.  No kink lies between A and C, so
    for their integer slope s both maximize s e + b, and each path or
    cycle of a conformal decomposition of C - A (Ahuja, Magnanti and Orlin,
    Network Flows, 1993, section 3.5; Berge, 1957) keeps that score when
    applied to A alone: an augmenting path adds a match at a loss of s, and
    at least C.e - A.e components augment.  A path starts at a patient whom
    C places and A does not, taken by ascending patient, and moves each
    patient to C's category.  There it displaces the lowest patient, not
    yet on a path, whom A has there and C moves out, and it ends at a
    category with no such patient, which then still has a free seat.  A path
    that reaches a patient whom C leaves unmatched is skipped.  Raises
    ValueError if pt is not a point of f, and FrontierInvariantError if
    the row does not score pt.
    """
    if pt in f.witnesses:
        return f.witnesses[pt]
    if pt not in f.points:
        raise ValueError(f"{pt} is not a point of the frontier")
    a = max(q for q in f.witnesses if q.e < pt.e)
    c = min(q for q in f.witnesses if q.e > pt.e)
    row, c_row = list(f.witnesses[a]), f.witnesses[c]
    leaving: list[list[int]] = [[] for _ in range(codes.shape[1])]  # per category, descending
    for i in reversed(range(len(row))):
        if row[i] >= 0 and c_row[i] != row[i]:
            leaving[row[i]].append(i)
    need = pt.e - a.e
    for i in [i for i, (j, k) in enumerate(zip(row, c_row)) if j < 0 <= k]:
        if not need:
            break
        path = [i]
        while (k := c_row[path[-1]]) >= 0 and leaving[k]:
            path.append(leaving[k].pop())
        if k >= 0:  # no one left to displace, so category k has a free seat: an augmenting path
            for q in path:
                row[q] = c_row[q]
            need -= 1
    got = row_point(codes, row)
    if got != pt:
        raise FrontierInvariantError(f"witness between {a} and {c} scores {got}, not {pt}")
    return tuple(row)


def _split(
    sweep: Callable[[int], tuple[MatchPoint, tuple[int, ...]]],
    sweeps: dict[int, tuple[MatchPoint, tuple[int, ...]]],
    wanted: Callable[[MatchPoint, MatchPoint], bool],
) -> dict[MatchPoint, tuple[int, ...]]:
    """Split where scores cross every interval between neighbouring done
    sweeps whose end points a != c are wanted(a, c), and each interval that
    split makes, until the wanted ones join adjacent d; sweeps gains every
    sweep run.  Returns each point swept, ascending, with the row of the
    largest d that returned it.

    Interval ends lo < hi returning A and C != A, with de = C.e - A.e > 0
    and db = A.b - C.b > 0, are split at x = (2 db - de) // (2 de), the
    largest d at which A scores at least C (sweep d scores (e, b) as
    (2d + 1) e + 2b), clamped into [lo + 1, hi - 1].  Ends that agree hold
    no other point, and adjacent ends lo, lo + 1 mark the last d of A.
    Raises FrontierInvariantError when the ends of an interval do not trade
    beneficiaries for matches, or when the chords between the points swept
    are not concave.
    """
    done = sorted(sweeps)
    todo = list(zip(done, done[1:]))[::-1]  # intervals with both end sweeps done, leftmost on top
    while todo:
        lo, hi = todo.pop()
        a, c = sweeps[lo][0], sweeps[hi][0]
        if a == c:
            continue
        # points first seen at ascending d must trade b for e; anything else is a bug
        if not (c.e > a.e and c.b < a.b):
            raise FrontierInvariantError(f"sweeps {lo} and {hi} out of order: {a} then {c}")
        if hi == lo + 1 or not wanted(a, c):
            continue
        de = c.e - a.e
        mid = min(max((2 * (a.b - c.b) - de) // (2 * de), lo + 1), hi - 1)
        sweeps[mid] = sweep(mid)
        todo += [(mid, hi), (lo, mid)]
    rows = {pt: row for _, (pt, row) in sorted(sweeps.items())}  # a later d overwrites the row
    found = list(rows)
    for a, b, c in zip(found, found[1:], found[2:]):
        if (a.b - b.b) * (c.e - b.e) > (b.b - c.b) * (b.e - a.e):
            raise FrontierInvariantError(f"chords through {a}, {b} and {c} are not concave")
    return rows


def _segment(a: MatchPoint, c: MatchPoint) -> list[MatchPoint]:
    """The frontier points from kink a up to, not including, the next kink c."""
    span, drop = c.e - a.e, a.b - c.b
    if drop % span:
        raise FrontierInvariantError(f"drop between kinks {a} and {c} is not divisible by their span")
    return [MatchPoint(a.e + j, a.b - j * (drop // span)) for j in range(span)]


def compute_frontier(pr: Problem) -> Frontier:
    """The complete frontier, with witnesses at every kink.

    Splits the sweep range [0, n] where scores cross (_split), into
    intervals whose end sweeps agree or are adjacent.  Each kink's witness
    is the matching of the largest d whose sweep returns it: the lower end
    of the adjacent pair where the next kink takes over, or n for the last
    kink, the same one a sweep of every d = n..0 in order would keep.

    Sweeps are linear in the kinks; A, C, lo, hi and x are _split's.
    Slopes are integers, so no two frontier points tie for the best score
    at a half-integer, and every dominated matching loses strictly.  So A
    wins strictly at lo and C at hi, and lo <= x < hi.  A sweep at x finds
    a new point or A, and then one at x + 1, where C wins, finds a new
    point or C; a sweep at lo + 1 > x
    finds a new point or C.  So the pair (A, C) costs at most two sweeps
    that find nothing new, each charged to the adjacent pair of kinks it
    ends up between: at most 3 * kinks - 2 sweeps (2 when the ends agree),
    where bisection needs O(kinks * log n).  The parametric search is that
    of Eisner and Severance (1976, J. ACM 23(4)).
    """
    return _frontier(pr.pair_codes, pr.quotas)


def _frontier(codes: np.ndarray, quotas: Sequence[int]) -> Frontier:
    """compute_frontier on a pair-code matrix and its categories' quotas,
    such as the rows of a patient subset: sweeps n and 0, then every
    interval split (mechanism._select splits only those it needs)."""
    if not codes.any():
        empty = MatchPoint(0, 0)
        return Frontier(points=(empty,), kinks=frozenset({empty}), witnesses={empty: (-1,) * codes.shape[0]})

    n = max(codes.shape[0], sum(quotas))
    sweep = _sweeps(codes, quotas)
    sweeps = {d: sweep(d) for d in (n, 0)}  # n first: its matrix needs no shift
    witnesses = _split(sweep, sweeps, lambda a, c: True)
    kinks = list(witnesses)
    points = [pt for a, c in zip(kinks, kinks[1:]) for pt in _segment(a, c)] + kinks[-1:]
    f = Frontier(points=tuple(points), kinks=frozenset(kinks), witnesses=witnesses)
    check_frontier_invariants(f)
    return f


def half_bound_ratio(f: Frontier) -> Fraction:
    """Share of total matches given up at the max-beneficiary end: (e_max - e_min)/e_max."""
    if f.e_max == 0:
        raise ValueError("ratio undefined for an empty-matching frontier")
    return Fraction(f.e_max - f.e_min, f.e_max)


def with_all_witnesses(pr: Problem, f: Frontier) -> Frontier:
    """f with a witness at every point: witness_at at each missing one."""
    missing = {pt: witness_at(pr.pair_codes, f, pt) for pt in f.points if pt not in f.witnesses}
    return Frontier(points=f.points, kinks=f.kinks, witnesses={**f.witnesses, **missing})
