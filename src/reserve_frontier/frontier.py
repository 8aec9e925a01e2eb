"""Frontier of (total matches, beneficiary matches) by repeated assignment.

Sweep k in 1..n solves one assignment problem with integer edge weights
(k*n^2 for a plain eligible pair, k*n^2 + n^2 + k for a beneficiary pair,
n = max(patients, seats)), so a matching at point (e, b) scores
k*(n^2*e + b) + n^2*b.  The unscaled weights are 1 and 1 + 1/k + 1/n^2;
the k*n^2 scaling keeps everything integer without moving the argmax.
Sweep 1 returns the max-beneficiary-then-max-total endpoint, sweep n the
max-total-then-max-beneficiary endpoint, and the sweeps in between stop
exactly at the kinks where the per-match beneficiary cost jumps.

Only the kinks are solved for.  The score is linear in k, so when sweeps
lo and hi return the same point P, every sweep in between returns P too:
a rival Q tying P inside would make score(P) - score(Q), which is >= 0 at
both ends, vanish identically, so Q = P.  When they return different
points A and C, the interval is split where the scores of A and C cross,
a parametric search in the manner of Eisner and Severance (1976, J. ACM
23(4)), so every kink is found in O(kinks) sweeps instead of n.  Frontier
points between kinks lie on straight segments, are filled by
interpolation, and get witnesses from the same solver (witness_at).

Every solve reads the instance's cached pair codes (0 ineligible, 1
eligible, 2 beneficiary) with one weight per code, which the solver
gathers into a negated float64 cost matrix in one allocation (see
hungarian).  A sweep is scored by index, e = the number of pairs and
b = the number of code-2 pairs, so a named Matching is built only for a
kept kink witness and for what frontier_iteration and witness_at return.
witness_at appends its dummy columns as code 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .core import InstanceError, Matching, MatchPoint, SeatInstance, match_point
from .hungarian import fits_exactly, max_weight_assignment_dense


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


def _sweep_size(si: SeatInstance) -> int:
    return max(len(si.patients), len(si.seats))


def _sweep_weights(n: int, k: int) -> tuple[int, int]:
    """Edge weights (plain eligible pair, beneficiary pair) of sweep k."""
    w_elig = k * n * n
    return w_elig, w_elig + n * n + k


def _kcard_weights(n: int) -> tuple[int, int, int]:
    """Weights (plain pair, beneficiary pair, dummy) W = n + 1, W + 1 and 2n + 2
    of the k-cardinality solve at total e, which has P - e dummy columns.

    Leaving d < P - e dummies empty gains at most (P - e - d) * W + n but loses
    (P - e - d) * (2n + 2).  With every dummy filled, W > n >= b puts e real
    pairs first and the largest b second: the frontier point at e.  The solve
    is P x (S + P - e) with e <= S, so it needs (2n + 2) * P < 2^53, which
    check_sweep_size's (n^3 + n^2 + n) * min(P, S) < 2^53 implies when S >= 1:
    P <= n, and 2n + 2 <= n^2 + n + 1 for n >= 2 (n = 1 needs only 4 < 2^53).
    A seatless instance has only (0, 0), witnessed by compute_frontier.
    """
    return n + 1, n + 2, 2 * n + 2


def check_sweep_size(n_patients: int, n_seats: int) -> None:
    """Raise InstanceError unless every sweep of the instance is exact.

    The largest sweep weight is a beneficiary pair's at k = n, and the
    assignment solver needs it times min(patients, seats) below 2^53.  An
    instance without patients is held to the one-patient limit: its
    product is 0 for any quota, and its seats would be built for nothing.
    """
    n = max(n_patients, n_seats)
    if not fits_exactly(_sweep_weights(n, n)[1], max(n_patients, 1), n_seats):
        factor = "min(patients, seats)" if n_patients else "1 (the one-patient limit)"
        raise InstanceError(
            f"instance too large for exact sweep weights: {n_patients} patient(s) and "
            f"{n_seats} seat(s) need (n^3 + n^2 + n) * {factor} < 2^53 "
            f"with n = max(patients, seats) = {n}"
        )


def _sweep(si: SeatInstance, n: int, k: int) -> tuple[MatchPoint, np.ndarray, np.ndarray]:
    """Sweep k scored by index: its point and the (rows, cols) of its matching."""
    codes = si.pair_codes
    rows, cols = max_weight_assignment_dense(codes, (0, *_sweep_weights(n, k)))
    return MatchPoint(len(rows), int(np.count_nonzero(codes[rows, cols] == 2))), rows, cols


def _matching(si: SeatInstance, rows: np.ndarray, cols: np.ndarray) -> Matching:
    return Matching(tuple((si.patients[i], si.seats[j]) for i, j in zip(rows.tolist(), cols.tolist())))


def frontier_iteration(si: SeatInstance, k: int) -> tuple[MatchPoint, Matching]:
    """Single weighted sweep: the frontier point optimal at weight index k."""
    n = _sweep_size(si)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    pt, rows, cols = _sweep(si, n, k)
    return pt, _matching(si, rows, cols)


def witness_at(si: SeatInstance, pt: MatchPoint) -> Matching:
    """A matching at frontier point pt, from one k-cardinality assignment (Dell'Amico
    and Martello, 1997).  Raises FrontierInvariantError if it does not score pt."""
    codes = np.pad(si.pair_codes, ((0, 0), (0, len(si.patients) - pt.e)), constant_values=3)
    rows, cols = max_weight_assignment_dense(codes, (0, *_kcard_weights(_sweep_size(si))))
    real = cols < len(si.seats)  # drop the dummy columns
    m = _matching(si, rows[real], cols[real])
    if match_point(si, m) != pt:
        raise FrontierInvariantError(f"k-cardinality solve gave {match_point(si, m)}, not {pt}")
    return m


def compute_frontier(si: SeatInstance) -> Frontier:
    """The complete frontier, with witnesses at every kink.

    Splits the sweep range [1, n] where scores cross.  An interval whose
    end sweeps agree holds no other point and is not split further.  One
    whose ends lo < hi return A and C != A, with de = C.e - A.e > 0 and
    db = A.b - C.b > 0, is split at x = n^2 db // (n^2 de - db), the
    largest k at which A scores at least C (sweep k scores (e, b) as
    k n^2 e + (n^2 + k) b), clamped into [lo + 1, hi - 1]; at adjacent
    ends C first appears at hi.  Each kink's witness is the matching of
    the smallest k whose sweep returns it, the same one a sweep of every
    k = 1..n in order would keep.

    Sweeps are linear in the kinks.  Distinct points never tie in a sweep
    (a tie at k needs n^2 (k de - db) = k db, which lies in (0, n^2], so
    k = db = n and n de = n + 1, impossible for n >= 2), so A wins strictly
    at lo and C at hi, and lo <= x < hi.  A sweep at x finds a new point or A, and then one at
    x + 1, where C wins, finds a new point or C; a sweep at lo + 1 > x
    finds a new point or C.  So the pair (A, C) costs at most two sweeps
    that find nothing new, each charged to the adjacent pair of kinks it
    ends up between: at most 3 * kinks - 2 sweeps (2 when the ends agree),
    where bisection needs O(kinks * log n).  The parametric search is that
    of Eisner and Severance (1976, J. ACM 23(4)).
    """
    n = _sweep_size(si)
    if n == 0 or not si.pair_codes.any():
        pt = MatchPoint(0, 0)
        f = Frontier(points=(pt,), kinks=frozenset({pt}), witnesses={pt: Matching.empty()})
        check_frontier_invariants(f)
        return f

    nn = n * n
    sweeps = {k: _sweep(si, n, k) for k in sorted({1, n})}
    firsts = [1]  # ascending k at which a new point first appears
    todo = [(1, n)]  # intervals with both end sweeps done, leftmost on top
    while todo:
        lo, hi = todo.pop()
        a, c = sweeps[lo][0], sweeps[hi][0]
        if a == c:
            continue
        # points first seen at ascending k must trade b for e; anything else is a bug
        if not (c.e > a.e and c.b < a.b):
            raise FrontierInvariantError(f"sweeps {lo} and {hi} out of order: {a} then {c}")
        if hi == lo + 1:
            firsts.append(hi)
            continue
        db = a.b - c.b
        mid = min(max(nn * db // (nn * (c.e - a.e) - db), lo + 1), hi - 1)
        sweeps[mid] = _sweep(si, n, mid)
        todo += [(mid, hi), (lo, mid)]
    kinks = [sweeps[k][0] for k in firsts]
    witnesses = {sweeps[k][0]: _matching(si, *sweeps[k][1:]) for k in firsts}

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

    f = Frontier(points=tuple(points), kinks=frozenset(kinks), witnesses=witnesses)
    check_frontier_invariants(f)
    return f


def half_bound_ratio(f: Frontier) -> Fraction:
    """Share of total matches given up at the max-beneficiary end: (e_max - e_min)/e_max."""
    if f.e_max == 0:
        raise ValueError("ratio undefined for an empty-matching frontier")
    return Fraction(f.e_max - f.e_min, f.e_max)


def with_all_witnesses(si: SeatInstance, f: Frontier) -> Frontier:
    """f with a witness at every point: one witness_at solve per missing one."""
    missing = {pt: witness_at(si, pt) for pt in f.points if pt not in f.witnesses}
    return Frontier(points=f.points, kinks=f.kinks, witnesses={**f.witnesses, **missing})
