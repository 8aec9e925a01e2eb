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
both ends, vanish identically, so Q = P.  Bisecting [1, n] until adjacent
sweeps differ therefore finds every kink in O(kinks * log n) sweeps
instead of n.  Frontier points between kinks lie on straight segments and
are filled by interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .core import InstanceError, Matching, MatchPoint, SeatInstance, match_point
from .cycles import frontier_walk
from .hungarian import fits_exactly, max_weight_assignment_dense


class FrontierInvariantError(RuntimeError):
    """A computed frontier violates a structural guarantee; indicates a bug."""


@dataclass(frozen=True)
class Frontier:
    """Non-domination frontier: points ascending in e, kinks, and witnesses.

    Witnesses are guaranteed at every kink (hence both endpoints); interior
    straight-segment points get witnesses on demand via with_all_witnesses.
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


def check_sweep_size(n_patients: int, n_seats: int) -> None:
    """Raise InstanceError unless every sweep of the instance is exact.

    The largest sweep weight is a beneficiary pair's at k = n, and the
    assignment solver needs it times min(patients, seats) below 2^53.
    """
    n = max(n_patients, n_seats)
    if not fits_exactly(_sweep_weights(n, n)[1], n_patients, n_seats):
        raise InstanceError(
            f"instance too large for exact sweep weights: {n_patients} patient(s) and "
            f"{n_seats} seat(s) need (n^3 + n^2 + n) * min(patients, seats) < 2^53 "
            f"with n = max(patients, seats) = {n}"
        )


def frontier_iteration(si: SeatInstance, k: int) -> tuple[MatchPoint, Matching]:
    """Single weighted sweep: the frontier point optimal at weight index k."""
    n = _sweep_size(si)
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    w_elig, w_bene = _sweep_weights(n, k)
    elig = si.eligible_mask
    weights = np.where(si.beneficiary_mask, w_bene, np.where(elig, w_elig, 0)).astype(np.int64)
    rows, cols = max_weight_assignment_dense(weights, elig)
    m = Matching(
        tuple((si.patients[i], si.seats[j]) for i, j in zip(rows.tolist(), cols.tolist()))
    )
    return match_point(si, m), m


def compute_frontier(si: SeatInstance) -> Frontier:
    """The complete frontier, with witnesses at every kink.

    Bisects the sweep range [1, n]: an interval whose end sweeps agree
    holds no other point and is not split further, and one whose ends
    differ is halved until its ends are adjacent.  Each kink's witness is
    the matching of the smallest k whose sweep returns it, the same one a
    sweep of every k = 1..n in order would keep.
    """
    n = _sweep_size(si)
    if n == 0 or not si.eligible_mask.any():
        pt = MatchPoint(0, 0)
        f = Frontier(points=(pt,), kinks=frozenset({pt}), witnesses={pt: Matching.empty()})
        check_frontier_invariants(f)
        return f

    sweeps = {k: frontier_iteration(si, k) for k in sorted({1, n})}
    firsts = [1]  # ascending k at which a new point first appears
    todo = [(1, n)]  # intervals with both end sweeps done, leftmost on top
    while todo:
        lo, hi = todo.pop()
        if sweeps[lo][0] == sweeps[hi][0]:
            continue
        if hi == lo + 1:
            firsts.append(hi)
            continue
        mid = (lo + hi) // 2
        sweeps[mid] = frontier_iteration(si, mid)
        todo += [(mid, hi), (lo, mid)]
    kinks = [sweeps[k][0] for k in firsts]
    witnesses = dict(sweeps[k] for k in firsts)
    for a, b in zip(kinks, kinks[1:]):
        # points first seen at ascending k must trade b for e; anything else is a bug
        if not (b.e > a.e and b.b < a.b):
            raise FrontierInvariantError(f"collected kinks out of order: {a} then {b}")

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


def frontier_endpoints(si: SeatInstance) -> tuple[Matching, Matching]:
    """Witness matchings for the two frontier endpoints (first and last sweep)."""
    n = _sweep_size(si)
    if n == 0 or not si.eligible_mask.any():
        return Matching.empty(), Matching.empty()
    _, mu_be = frontier_iteration(si, 1)
    _, mu_eb = frontier_iteration(si, n)
    return mu_be, mu_eb


def half_bound_ratio(f: Frontier) -> Fraction:
    """Share of total matches given up at the max-beneficiary end: (e_max - e_min)/e_max."""
    if f.e_max == 0:
        raise ValueError("ratio undefined for an empty-matching frontier")
    return Fraction(f.e_max - f.e_min, f.e_max)


def with_all_witnesses(si: SeatInstance, f: Frontier) -> Frontier:
    """Fill missing interior witnesses by walking cheapest cycles from e_min."""
    if all(pt in f.witnesses for pt in f.points):
        return f
    walked = dict(frontier_walk(si, f.witnesses[f.points[0]]))
    if set(walked) != set(f.points):
        raise FrontierInvariantError("cycle walk did not visit every frontier point")
    merged = {**walked, **f.witnesses}
    return Frontier(points=f.points, kinks=f.kinks, witnesses=merged)
