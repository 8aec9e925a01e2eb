from __future__ import annotations

import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import reserve_frontier.cli as cli_module
import reserve_frontier.frontier as frontier_module
import reserve_frontier.mechanism as mechanism_module
import reserve_frontier.verify as verify_module
from reserve_frontier import (
    Frontier,
    FrontierInvariantError,
    GenConfig,
    MatchPoint,
    NoNonEmptyMatchingError,
    Problem,
    beneficiary_share,
    check_frontier_invariants,
    compute_frontier,
    dominates,
    enumerate_matchings,
    expand_to_seats,
    frontier_iteration,
    frontier_walk,
    gen_chain_family,
    gen_named,
    gen_random,
    half_bound_ratio,
    kinks_of,
    match_point,
    select_approx_on_frontier,
    validate_matching,
    with_all_witnesses,
)
from reserve_frontier.core import row_point
from reserve_frontier.frontier import _segment, witness_at
from reserve_frontier.mechanism import _select
from reserve_frontier.oracle import Census
from reserve_frontier.serialize import instance_to_json


def pts(*pairs) -> list[MatchPoint]:
    return [MatchPoint(e, b) for e, b in pairs]


def test_kinks_are_endpoints_plus_slope_changes():
    assert kinks_of(pts((3, 5))) == {MatchPoint(3, 5)}
    assert kinks_of(pts((2, 2), (3, 1), (4, 0))) == {MatchPoint(2, 2), MatchPoint(4, 0)}
    assert kinks_of(pts((1, 9), (2, 8), (3, 5), (4, 2))) == {
        MatchPoint(1, 9),
        MatchPoint(2, 8),  # slope changes from -1 to -3 here
        MatchPoint(4, 2),
    }


def test_named_frontiers():
    f = compute_frontier(expand_to_seats(gen_named("conflict")))
    assert list(f.points) == pts((1, 1), (2, 0))
    assert f.kinks == {MatchPoint(1, 1), MatchPoint(2, 0)}

    f = compute_frontier(expand_to_seats(gen_named("figure1")))
    assert list(f.points) == pts((3, 0))

    f = compute_frontier(expand_to_seats(gen_named("beta-threshold")))
    assert list(f.points) == pts((2, 1))

    f = compute_frontier(expand_to_seats(gen_named("path-independence")))
    assert list(f.points) == pts((4, 2), (5, 1))


def test_frontier_iteration_maximizes_the_weighted_objective():
    # sweep d maximizes (2d + 1) e + 2b over every matching, and one point
    # alone attains the maximum: the one-line tie proof, checked by enumeration
    rng = Random(17)
    for _ in range(10):
        inst = gen_random(
            GenConfig(patients=5, categories=4, quota_range=(1, 2), seed=rng.randint(0, 9999))
        )
        si = expand_to_seats(inst)
        n = max(len(si.patients), len(si.seats))
        all_points = {match_point(si, si.name_row(row)) for row in enumerate_matchings(si)}
        for d in range(n + 1):
            pt, row = frontier_iteration(si, d)
            m = validate_matching(si, si.name_row(row))
            assert match_point(si, m) == pt
            value = lambda q: (2 * d + 1) * q.e + 2 * q.b
            assert [q for q in all_points if value(q) >= value(pt)] == [pt]


def test_frontier_iteration_range_check():
    si = expand_to_seats(gen_named("conflict"))
    n = max(len(si.patients), len(si.seats))
    for d in (-1, n + 1):
        with pytest.raises(ValueError, match=f"d must be in \\[0, {n}\\], got {d}"):
            frontier_iteration(si, d)
    for d in (0, n):
        frontier_iteration(si, d)


def test_endpoints_maximize_each_objective_first():
    si = expand_to_seats(gen_named("path-independence"))
    _, mu_be = frontier_iteration(si, 0)
    _, mu_eb = frontier_iteration(si, max(len(si.patients), len(si.seats)))
    f = compute_frontier(si)
    assert match_point(si, si.name_row(mu_be)) == f.points[0]
    assert match_point(si, si.name_row(mu_eb)) == f.points[-1]


def two_conflict_copies() -> Problem:
    # disjoint union of two conflict blocks: frontier (2,2),(3,1),(4,0)
    return Problem(
        categories=("c1", "c2", "d1", "d2"),
        patients=("p1", "p2", "q1", "q2"),
        quota={c: 1 for c in ("c1", "c2", "d1", "d2")},
        eligible={
            "c1": frozenset({"p1"}),
            "c2": frozenset({"p1", "p2"}),
            "d1": frozenset({"q1"}),
            "d2": frozenset({"q1", "q2"}),
        },
        beneficiary={"c2": frozenset({"p1"}), "d2": frozenset({"q1"})},
    )


def test_straight_segments_are_interpolated():
    si = expand_to_seats(two_conflict_copies())
    f = compute_frontier(si)
    assert list(f.points) == pts((2, 2), (3, 1), (4, 0))
    assert f.kinks == {MatchPoint(2, 2), MatchPoint(4, 0)}  # middle point is not a kink
    assert list(Census(si).frontier.points) == list(f.points)


def test_the_kink_sweep_lemma_sweeps_each_kink_once_and_skips_interior_points(monkeypatch):
    pr = two_conflict_copies()
    f = compute_frontier(pr)
    swept = []
    monkeypatch.setattr(verify_module, "frontier_iteration", lambda pr, d: swept.append(d) or frontier_iteration(pr, d))
    results = verify_module.verify_lemmas(pr, Census(pr, points=f.points), f)
    assert all(r.ok for r in results), results
    assert swept == [0, 1]  # at the left drops of (2,2) and (4,0); none at (3,1)


def test_with_all_witnesses_fills_interior_points():
    si = expand_to_seats(two_conflict_copies())
    f = with_all_witnesses(si, compute_frontier(si))
    assert set(f.witnesses) == set(f.points)
    for pt, row in f.witnesses.items():
        assert match_point(si, validate_matching(si, si.name_row(row))) == pt


def test_segment_witness_agrees_with_the_cycle_walk():
    # unit quotas at 3/n eligibility leave straight segments, so many points
    # are not kinks; criterion 12 is the largest frontier the tests build
    rng = Random(6)
    sizes = [rng.randint(6, 30) for _ in range(300)]
    draws = [GenConfig(n, n, (1, 1), 3 / n, 0.5, seed) for seed, n in enumerate(sizes)]
    rng = Random(22)
    for seed in range(300):
        n = rng.randint(30, 100)
        draws.append(GenConfig(n, n, (1, 1), 3 / n, rng.choice([0.3, 0.5, 0.7]), seed))
    draws.append(GenConfig(500, 200, (1, 4), 0.04, 0.35, seed=7))
    insts = [gen_random(cfg) for cfg in draws] + [gen_chain_family(k) for k in range(1, 8)]
    interior = 0
    for inst in insts:
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        walk = frontier_walk(si, f.witnesses[f.points[0]])
        assert [pt for pt, _ in walk] == list(f.points)
        for pt in f.points:
            m = validate_matching(si, si.name_row(witness_at(si.pair_codes, f, pt)))
            assert match_point(si, m) == pt
        interior += len(f.points) - len(f.kinks)
    assert interior >= 500


def test_segment_witness_refuses_a_point_off_the_frontier():
    # beside the frontier, past e_max, below e_min, and beside a segment
    # between kinks of a larger draw
    cases = [
        (two_conflict_copies(), MatchPoint(3, 2)),
        (gen_named("path-independence"), MatchPoint(6, 0)),
        (gen_named("path-independence"), MatchPoint(0, 0)),
        (gen_random(GenConfig(30, 30, (1, 1), 0.1, 0.5, seed=1)), MatchPoint(27, 19)),
    ]
    for inst, pt in cases:
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(pt))} is not a point of the frontier$"):
            witness_at(si.pair_codes, f, pt)


# Hand-built rows A at (6, 4) and C at (9, 1), both optimal at one plain
# weight, two a beneficiary pair.  A xor C holds, by start patient: an even
# path 0 -> s0 -> 2 ending at patient 2, whom C leaves unmatched; augmenting
# paths from patients 1, 4 and 8, each trading a beneficiary pair of A for
# two plain pairs of C; and the cycle 6 -> s6 -> 7 -> s5 -> 6.
SEGMENT_CODES = {(0, 0): 1, (2, 0): 1, (1, 1): 1, (3, 1): 2, (3, 2): 1, (4, 3): 1, (5, 3): 2, (5, 4): 1,
                 (6, 5): 2, (7, 6): 1, (6, 6): 2, (7, 5): 1, (8, 7): 1, (9, 7): 2, (9, 8): 1}
SEGMENT_A = [-1, -1, 0, 1, -1, 3, 5, 6, -1, 7]
SEGMENT_C = [0, 1, -1, 2, 3, 4, 6, 5, 7, 8]


def segment_codes():
    codes = np.zeros((10, 9), dtype=np.uint8)
    for cell, code in SEGMENT_CODES.items():
        codes[cell] = code
    assert [row_point(codes, row) for row in (SEGMENT_A, SEGMENT_C)] == pts((6, 4), (9, 1))
    return codes


def segment_frontier(*points):
    """A frontier through points whose only witnesses are A and C."""
    a, c = pts((6, 4), (9, 1))
    return Frontier(points=points, kinks={a, c}, witnesses={a: tuple(SEGMENT_A), c: tuple(SEGMENT_C)})


def test_witness_row_applies_the_first_augmenting_paths_of_the_two_kink_rows():
    codes = segment_codes()
    f = segment_frontier(*pts((6, 4), (7, 3), (8, 2), (9, 1)))
    for pt in f.kinks:
        assert witness_at(codes, f, pt) is f.witnesses[pt]  # a kink's row, not a copy
    # the even path from patient 0 and the cycle stay as A has them
    want = {
        MatchPoint(7, 3): (-1, 1, 0, 2, -1, 3, 5, 6, -1, 7),
        MatchPoint(8, 2): (-1, 1, 0, 2, 3, 4, 5, 6, -1, 7),
    }
    for pt, row in want.items():
        got = witness_at(codes, f, pt)
        assert got == row
        assert row_point(codes, got) == pt
    assert f.witnesses[MatchPoint(6, 4)] == tuple(SEGMENT_A)  # A's row is not edited
    # a frontier that lists a point no matching between A and C scores
    wrong = segment_frontier(*pts((6, 4), (7, 4), (8, 2), (9, 1)))
    with pytest.raises(FrontierInvariantError, match=r"scores MatchPoint\(e=7, b=3\), not MatchPoint\(e=7, b=4\)"):
        witness_at(codes, wrong, MatchPoint(7, 4))


def test_a_path_displaces_the_lowest_patient_leaving_a_full_category_then_ends_at_a_free_seat():
    # X (quota 2) holds the beneficiaries p1 and p2 in A at (2, 2); C at
    # (4, 0) puts p0 and p3 in X and moves p1 to Y and p2 to Z, each of
    # which has a free seat in A
    inst = Problem(
        categories=("X", "Y", "Z"), patients=("p0", "p1", "p2", "p3"), quota={"X": 2, "Y": 1, "Z": 1},
        eligible={"X": frozenset({"p0", "p1", "p2", "p3"}), "Y": frozenset({"p1"}), "Z": frozenset({"p2"})},
        beneficiary={"X": frozenset({"p1", "p2"})},
    )
    si = expand_to_seats(inst)
    f = compute_frontier(si)
    assert list(f.points) == pts((2, 2), (3, 1), (4, 0)) and f.kinks == set(pts((2, 2), (4, 0)))
    assert (f.witnesses[MatchPoint(2, 2)], f.witnesses[MatchPoint(4, 0)]) == ((-1, 0, 0, -1), (0, 1, 2, 0))
    # the first path starts at p0, enters the full X, displaces p1, the
    # lower of the two patients that C moves out, and ends in Y's free seat
    row = witness_at(si.pair_codes, f, MatchPoint(3, 1))
    assert row == (0, 1, 0, -1)
    assert si.check_row(row) == [0, 1, 0, -1]
    assert match_point(si, validate_matching(si, si.name_row(row))) == MatchPoint(3, 1)


def seat_level_witness_at(codes, f, pt):
    """witness_at as it stood on seat rows: codes is a patients x seats
    matrix, and each path of A xor C follows C's seat to A's holder of it.
    Kept here only as the reference on unit quotas, where seat j is
    category j."""
    if pt in f.witnesses:
        return f.witnesses[pt]
    a = max(q for q in f.witnesses if q.e < pt.e)
    c = min(q for q in f.witnesses if q.e > pt.e)
    row, c_row = np.array(f.witnesses[a], dtype=np.intp), f.witnesses[c]
    holder = np.full(codes.shape[1], -1, dtype=np.intp)  # A's patient at each seat
    holder[row[row >= 0]] = np.flatnonzero(row >= 0)
    holder, need = holder.tolist(), pt.e - a.e
    for i in np.flatnonzero((row < 0) & (np.array(c_row, dtype=np.intp) >= 0)).tolist():
        if not need:
            break
        path = [i]
        while (i := holder[c_row[i]]) >= 0 and c_row[i] >= 0:
            path.append(i)
        if i < 0:  # C's seat is free in A: an augmenting path
            row[path] = [c_row[k] for k in path]
            need -= 1
    return tuple(row.tolist())


def witness_draws(quota_range):
    """160 seeded sparse draws of 20 to 100 patients: square with unit
    quotas, or with n // 2 + 1 categories of quotas 1 to 3."""
    for seed in range(160):
        rng = Random(seed)
        n = rng.randint(20, 100)
        if quota_range == (1, 1):
            yield gen_random(GenConfig(n, n, quota_range, rng.choice([2, 3, 4]) / n, 0.5, seed))
        else:
            yield gen_random(GenConfig(n, n // 2 + 1, quota_range, rng.choice([3, 4, 6]) / n, 0.5, seed))


def test_category_witnesses_keep_the_seat_level_witnesses_on_unit_quotas():
    between = 0
    for inst in witness_draws((1, 1)):
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        for pt, row in with_all_witnesses(si, f).witnesses.items():
            assert row == seat_level_witness_at(si.pair_codes, f, pt), (inst, pt)
            between += pt not in f.kinks
    assert between >= 250, between


def test_category_witnesses_are_matchings_at_their_points_on_mixed_quotas():
    between = 0
    for inst in witness_draws((1, 3)):
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        for pt, row in with_all_witnesses(si, f).witnesses.items():
            assert si.check_row(row) == list(row) and row_point(si.pair_codes, row) == pt, (inst, pt)
            assert match_point(si, validate_matching(si, si.name_row(row))) == pt, (inst, pt)
            between += pt not in f.kinks
    assert between >= 180, between


def test_zero_eligibility_gives_the_empty_point():
    inst = Problem(categories=("c1",), patients=("p1",), quota={"c1": 2}, eligible={}, beneficiary={})
    f = compute_frontier(expand_to_seats(inst))
    assert list(f.points) == [MatchPoint(0, 0)]
    assert f.witnesses[MatchPoint(0, 0)] == (-1,)
    with pytest.raises(ValueError):
        half_bound_ratio(f)


def test_half_bound_ratio_values():
    assert half_bound_ratio(compute_frontier(expand_to_seats(gen_named("conflict")))) == Fraction(1, 2)
    assert half_bound_ratio(compute_frontier(expand_to_seats(gen_named("figure1")))) == 0


def test_invariant_checker_rejects_bad_shapes():
    # e-step of 2
    f = Frontier(points=pts((1, 3), (3, 0)), kinks=frozenset(pts((1, 3), (3, 0))), witnesses={})
    with pytest.raises(FrontierInvariantError):
        check_frontier_invariants(f)
    # b does not fall
    f = Frontier(points=pts((1, 1), (2, 1)), kinks=frozenset(pts((1, 1), (2, 1))), witnesses={})
    with pytest.raises(FrontierInvariantError):
        check_frontier_invariants(f)
    # drop shrinks from 3 to 1 as e grows: convex, not allowed
    f = Frontier(
        points=pts((1, 4), (2, 1), (3, 0)),
        kinks=frozenset(pts((1, 4), (2, 1), (3, 0))),
        witnesses={},
    )
    with pytest.raises(FrontierInvariantError):
        check_frontier_invariants(f)
    with pytest.raises(FrontierInvariantError, match="at least one point"):
        check_frontier_invariants(Frontier(points=(), kinks=frozenset(), witnesses={}))
    # kinks whose drop 3 does not split evenly over their span 2
    with pytest.raises(FrontierInvariantError, match="not divisible by their span"):
        _segment(MatchPoint(1, 3), MatchPoint(3, 0))
    # a kink or a witness off the points is refused when the frontier is built
    with pytest.raises(ValueError, match="kinks must be frontier points"):
        Frontier(points=pts((1, 1)), kinks=pts((2, 0)), witnesses={})
    with pytest.raises(ValueError, match="witnesses must sit on frontier points"):
        Frontier(points=pts((1, 1)), kinks=pts((1, 1)), witnesses={MatchPoint(2, 0): (0, 1)})


def test_matches_oracle_on_random_instances():
    rng = Random(41)
    for _ in range(40):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(1, 6),
                categories=rng.randint(1, 4),
                quota_range=(1, 2),
                eligibility_density=rng.choice([0.3, 0.5, 0.8]),
                beneficiary_density=rng.choice([0.2, 0.5, 0.9]),
                seed=rng.randint(0, 100_000),
            )
        )
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        o = Census(si).frontier
        assert f.points == o.points
        assert f.kinks == o.kinks
        check_frontier_invariants(f)
        # every frontier point defeats or equals every enumerated matching
        for row in enumerate_matchings(si):
            pt = match_point(si, si.name_row(row))
            assert pt in set(f.points) or any(dominates(q, pt) for q in f.points)


def full_sweep_reference(si):
    """Sweep every d = n..0 in order, keeping each new point's first
    matching: the row of the largest d that returns it."""
    n = max(len(si.patients), len(si.seats))
    kinks, witnesses = [], {}
    for d in range(n, -1, -1):
        pt, row = frontier_iteration(si, d)
        if not kinks or pt != kinks[0]:
            kinks.insert(0, pt)
            witnesses[pt] = row
    points = [kinks[0]]
    for a, b in zip(kinks, kinks[1:]):
        step = (a.b - b.b) // (b.e - a.e)
        points += [MatchPoint(e, a.b - (e - a.e) * step) for e in range(a.e + 1, b.e + 1)]
    return points, kinks, witnesses


def small_random_draws():
    rng = Random(2)
    for _ in range(200):
        yield gen_random(
            GenConfig(
                patients=rng.randint(1, 8),
                categories=rng.randint(1, 5),
                quota_range=(1, rng.randint(1, 3)),
                eligibility_density=rng.choice([0.2, 0.5, 0.8]),
                beneficiary_density=rng.choice([0.2, 0.5, 0.9]),
                seed=rng.randint(0, 100_000),
            )
        )


def disjoint_union(*insts: Problem) -> Problem:
    """The instances side by side, ids prefixed by position: frontiers add."""
    cats, pats, quota, eligible, beneficiary = [], [], {}, {}, {}
    for i, inst in enumerate(insts):
        tag = lambda x, i=i: f"u{i}{x}"
        cats += map(tag, inst.categories)
        pats += map(tag, inst.patients)
        for c in inst.categories:
            quota[tag(c)] = inst.quota[c]
            eligible[tag(c)] = frozenset(map(tag, inst.eligible[c]))
            beneficiary[tag(c)] = frozenset(map(tag, inst.beneficiary[c]))
    return Problem(tuple(cats), tuple(pats), quota, eligible, beneficiary)


# chain k drops k + 1 beneficiaries for its last match, so a union of chains
# has one kink per chain at steep, well separated slopes; (2, 6) needs the
# 3 * 3 - 2 = 7 sweeps the crossing split's bound allows
CHAIN_UNIONS = [(2, 6), (2, 10), (3, 8, 15), (2, 5, 9, 14), (1, 1, 4), (6, 3, 6)]

DIFFERENTIAL_FAMILIES = {
    **{
        f"unit-quota-{n}": (lambda n=n: [gen_random(GenConfig(n, n, (1, 1), 3 / n, 0.5, seed=1))])
        for n in (40, 80, 160, 320)
    },
    "criterion-12": lambda: [gen_random(GenConfig(500, 200, (1, 4), 0.04, 0.35, seed=7))],
    "chain": lambda: [gen_chain_family(k) for k in range(1, 8)],
    "chain-unions": lambda: [disjoint_union(*map(gen_chain_family, ks)) for ks in CHAIN_UNIONS],
    "small-random": small_random_draws,
}


def route_sweeps(monkeypatch, through):
    """Answer sweep d of every frontier and selection with
    through(sweep, n, d), where sweep is their own sweep function on the
    same codes and n its largest d."""
    sweeps = frontier_module._sweeps

    def routed(codes, quotas):
        sweep = sweeps(codes, quotas)
        return lambda d: through(sweep, max(len(codes), sum(quotas)), d)

    monkeypatch.setattr(frontier_module, "_sweeps", routed)
    monkeypatch.setattr(mechanism_module, "_sweeps", routed)


@pytest.mark.parametrize("family", sorted(DIFFERENTIAL_FAMILIES))
def test_bisection_matches_the_full_sweep(family, monkeypatch):
    """The crossing split keeps the full sweep's points, kinks and witnesses
    in at most 3 * kinks - 2 sweeps (2 when one point covers every d)."""
    swept = []

    def counted(sweep, n, d):
        swept.append(d)
        return sweep(d)

    route_sweeps(monkeypatch, counted)
    for inst in DIFFERENTIAL_FAMILIES[family]():
        si = expand_to_seats(inst)
        points, kinks, witnesses = full_sweep_reference(si)
        swept.clear()
        f = compute_frontier(si)
        assert list(f.points) == points
        assert f.kinks == frozenset(kinks)
        assert f.witnesses == witnesses
        assert len(swept) == len(set(swept)), "a sweep ran twice"
        assert len(swept) <= max(2, 3 * len(f.kinks) - 2)


def tally_splits(monkeypatch, shift: int) -> Counter:
    """Answer sweep d with sweep d + shift (clamped into [0, n]) and tally
    where each split fell against the crossing x of its interval's ends.

    A monotone remap of d keeps the sweeps a step function, so the split
    must still match the full sweep of the same remap.  A split's interval
    is bounded by the nearest sweeps already done on either side of it.
    """
    done: dict[int, MatchPoint] = {}
    tally = Counter()

    def remapped(sweep, n, d):
        out = sweep(min(max(d + shift, 0), n))
        below, above = [j for j in done if j < d], [j for j in done if j > d]
        if below and above:
            lo, hi = max(below), min(above)
            a, c = done[lo], done[hi]
            de = c.e - a.e
            x = (2 * (a.b - c.b) - de) // (2 * de)
            tally["lower clamp" if x <= lo else "upper clamp" if x >= hi else "at the crossing"] += 1
            if d == x and out[0] == c:
                tally["C ties A at x"] += 1
        done[d] = out[0]
        return out

    route_sweeps(monkeypatch, remapped)
    draws = [two_conflict_copies(), *(gen_chain_family(k) for k in range(1, 5))]
    draws += [disjoint_union(*map(gen_chain_family, ks)) for ks in CHAIN_UNIONS]
    for inst in draws:
        si = expand_to_seats(inst)
        done.clear()
        points, kinks, witnesses = full_sweep_reference(si)  # every d: no splits
        done.clear()
        f = compute_frontier(si)
        assert (list(f.points), f.kinks, f.witnesses) == (points, frozenset(kinks), witnesses)
    return tally


def test_exact_sweeps_split_inside_their_interval_and_never_tie(monkeypatch):
    # each sweep has one optimal point (see compute_frontier), so A wins
    # strictly at lo and C at hi: lo <= x < hi, the upper clamp cannot fire,
    # and the sweep at x never returns C
    tally = tally_splits(monkeypatch, shift=0)
    assert tally["lower clamp"] and tally["at the crossing"]
    assert not tally["upper clamp"] and not tally["C ties A at x"]


def test_a_shifted_sweep_reaches_the_upper_clamp_and_a_tie_at_x(monkeypatch):
    # sweep d answering as sweep d + 1 moves every change point one left:
    # C then appears at x, as at a tie, and the next interval ends at x
    tally = tally_splits(monkeypatch, shift=1)
    assert tally["upper clamp"] and tally["C ties A at x"]


def test_out_of_order_interval_ends_raise(monkeypatch):
    route_sweeps(monkeypatch, lambda sweep, n, d: sweep(n - d))
    si = expand_to_seats(two_conflict_copies())
    with pytest.raises(FrontierInvariantError, match="out of order"):
        compute_frontier(si)
    # a target that no point meets, so that selection sweeps 0 and splits
    with pytest.raises(FrontierInvariantError, match="out of order"):
        _select(si.pair_codes, si.quotas, Fraction(2))


def test_chords_that_are_not_concave_raise():
    row = np.full(3, -1)
    a, b, c = pts((0, 10), (1, 5), (3, 4))  # drops 5 then 1/2 a step
    with pytest.raises(FrontierInvariantError, match="not concave"):
        frontier_module._split(None, {0: (a, row), 1: (b, row), 2: (c, row)}, lambda a, c: True)
    assert list(frontier_module._split(None, {0: (a, row), 2: (c, row)}, lambda a, c: False)) == [a, c]


def selection_targets(f):
    """0, 1, and each point's exact share with shares just above and below
    it, nearer than any other point's share."""
    eps = Fraction(1, 2 * (f.e_max + 1) ** 2)
    shares = [beneficiary_share(pt) for pt in f.points if pt.e]
    return sorted({Fraction(0), Fraction(1), *(s + k * eps for s in shares for k in (-1, 0, 1))})


def selection_draws():
    """Seeded draws: small ones at every density, and sparse ones of 4-40
    patients, each with unit quotas or quotas of 1-3; then the chain
    unions, and unions of repeated chains, whose equal drops make long
    straight segments."""
    rng = Random(30)
    for k in range(240):
        if k % 3 == 0:
            patients, elig = rng.randint(1, 8), rng.choice([0.2, 0.5, 0.8])
        else:
            patients = rng.randint(4, 40)
            elig = min(1.0, rng.choice([2, 3, 5]) / patients)
        yield gen_random(
            GenConfig(
                patients=patients,
                categories=rng.randint(max(1, patients // 2), patients),
                quota_range=(1, 1 if k % 2 else 3),
                eligibility_density=elig,
                beneficiary_density=rng.choice([0.3, 0.5, 0.7]),
                seed=rng.randint(0, 100_000),
            )
        )
    for ks in CHAIN_UNIONS + [(k,) * r + (k + 3,) * r for k in (1, 2, 3) for r in (2, 3, 4)]:
        yield disjoint_union(*map(gen_chain_family, ks))


def test_selection_gives_the_frontier_witness_at_the_rule_point(monkeypatch):
    """_select splits only the intervals its point needs, yet returns the
    rule's point on compute_frontier's frontier and witness_at's row there,
    and sweeps no d twice and none that compute_frontier does not."""
    swept = []
    route_sweeps(monkeypatch, lambda sweep, n, d: swept.append(d) or sweep(d))
    tally = Counter()
    for inst in selection_draws():
        si = expand_to_seats(inst)
        swept.clear()
        f = compute_frontier(si)
        full = set(swept)
        for beta in selection_targets(f):
            swept.clear()
            if not f.e_max:
                with pytest.raises(NoNonEmptyMatchingError):
                    _select(si.pair_codes, si.quotas, beta)
                tally["empty"] += 1
                continue
            got = _select(si.pair_codes, si.quotas, beta)
            qualifying = [p for p in f.points if beneficiary_share(p) >= beta]
            want = qualifying[-1] if qualifying else f.points[0]
            assert got == (witness_at(si.pair_codes, f, want), want), (inst, beta)
            assert len(swept) == len(set(swept)) and set(swept) <= full, (inst, beta)
            tally["one sweep"] += len(swept) == 1
            tally["fewer sweeps"] += len(swept) < len(full)
            tally["between kinks"] += want not in f.kinks
            tally["below an interior kink"] += want not in f.kinks and want.e < max(f.kinks - {f.points[-1]}).e
            tally["interior kink"] += want in f.kinks and want not in (f.points[0], f.points[-1])
            tally["none meets"] += not qualifying
    assert tally["empty"] >= 5 and tally["none meets"] >= 300, tally
    assert tally["interior kink"] >= 50 and tally["between kinks"] >= 100, tally
    assert tally["below an interior kink"] >= 30, tally
    assert tally["one sweep"] >= 500 and tally["fewer sweeps"] >= 800, tally


def test_solve_sweeps_once_where_the_max_total_end_meets_the_target(monkeypatch, tmp_path, capsys):
    """On the solve-walk benchmark's base draw, a 320 x 320 unit-quota
    instance at beta* 1/2, the max-total end meets the target: solve takes
    sweep n alone where the whole frontier takes five.  At every other
    target selection sweeps no more than the whole frontier."""
    swept = []
    route_sweeps(monkeypatch, lambda sweep, n, d: swept.append(d) or sweep(d))
    pr = replace(DIFFERENTIAL_FAMILIES["unit-quota-320"]()[0], beta_star=Fraction(1, 2))
    path = tmp_path / "solve-walk.json"
    path.write_text(instance_to_json(pr))
    assert cli_module.main(["solve", str(path), "--respect-priority"]) == 0
    assert swept == [320]
    assert capsys.readouterr().out.endswith("e=297 b=197 beta=197/297 target=1/2\n")
    swept.clear()
    f = compute_frontier(pr)
    assert len(swept) == 5 and select_approx_on_frontier(pr)[1] == f.points[-1]
    full = set(swept)
    for pt in sorted(f.kinks)[:-1]:
        for beta in (beneficiary_share(pt), beneficiary_share(pt) + Fraction(1, 10**6)):
            swept.clear()
            _select(pr.pair_codes, pr.quotas, beta)
            assert set(swept) <= full and 1 < len(swept) <= len(full)


def fresh_solve(codes, table):
    """(rows, cols) of the max-weight assignment where pair (i, j) weighs
    table[codes[i, j]]: scipy's solve on a fresh gather of the negated
    table, without the code-0 pairs."""
    rows, cols = linear_sum_assignment((-np.array(table, dtype=np.float64))[codes])
    keep = codes[rows, cols] != 0
    return rows[keep], cols[keep]


def fresh_gather_sweeps(codes, quotas):
    """The frontier's sweep function with one fresh cost matrix and solve
    per sweep, on each category's column repeated quota times."""
    seat_codes = np.repeat(codes, quotas, axis=1)
    category = np.repeat(np.arange(codes.shape[1]), quotas)

    def sweep(d):
        rows, cols = fresh_solve(seat_codes, (0, 2 * d + 1, 2 * d + 3))
        row = np.full(len(codes), -1, dtype=np.intp)
        row[rows] = category[cols]
        return MatchPoint(len(rows), int(np.count_nonzero(seat_codes[rows, cols] == 2))), tuple(row.tolist())

    return sweep


def shared_matrix_codes():
    """240 seeded pair-code matrices, a quarter each all eligible, sparse,
    dense with some rows and columns emptied, and a shuffled union of chain
    families, whose kinks make the split search go back to smaller d."""
    rng = np.random.default_rng(2106)
    for k in range(240):
        shape = rng.integers(1, 14, size=2)
        if k % 4 == 0:
            codes = rng.integers(1, 3, size=shape)
        elif k % 4 == 1:
            codes = rng.choice(3, size=shape, p=(0.8, 0.1, 0.1))
        elif k % 4 == 2:
            codes = rng.choice(3, size=shape, p=(0.3, 0.4, 0.3))
            codes[rng.random(shape[0]) < 0.3] = 0
            codes[:, rng.random(shape[1]) < 0.3] = 0
        else:
            ks = rng.integers(1, 9, size=rng.integers(2, 5))
            codes = expand_to_seats(disjoint_union(*map(gen_chain_family, ks))).pair_codes
            codes = codes[rng.permutation(len(codes))][:, rng.permutation(codes.shape[1])]
        yield codes.astype(np.uint8)


def test_sweeps_share_one_cost_matrix_that_reads_as_a_fresh_gather(monkeypatch):
    """Every matrix the solver gets during _frontier has the bytes of
    (-table)[np.repeat(codes, quotas, axis=1)] for its d, -0.0 sign bits
    included, and the points and kink rows are those of a fresh gather per
    sweep.  Each code matrix is solved with unit quotas and with quotas
    drawn from 1..3."""
    solver, got = frontier_module.linear_sum_assignment, []
    monkeypatch.setattr(frontier_module, "linear_sum_assignment", lambda cost: got.append(cost.copy()) or solver(cost))
    rng = np.random.default_rng(2107)
    tally = Counter()
    for codes in shared_matrix_codes():
        drawn = tuple(int(q) for q in rng.integers(1, 4, size=codes.shape[1]))
        for kind, quotas in (("unit", (1,) * codes.shape[1]), ("drawn", drawn)):
            got.clear()
            f = frontier_module._frontier(codes, quotas)
            seat_codes = np.repeat(codes, quotas, axis=1)
            ds = []
            for cost in got:
                i, j = np.argwhere(seat_codes)[0]  # an eligible cell costs -(2d + 1), or -(2d + 3) at code 2
                d = (int(-cost[i, j]) - 1 - 2 * (seat_codes[i, j] == 2)) // 2
                want_cost = (-np.array((0, 2 * d + 1, 2 * d + 3), dtype=np.float64))[seat_codes]
                assert cost.tobytes() == want_cost.tobytes()
                ds.append(d)
            n = max(seat_codes.shape)
            assert len(ds) == len(set(ds)) and (not codes.any() or {0, n} <= set(ds))
            with monkeypatch.context() as m:
                m.setattr(frontier_module, "_sweeps", fresh_gather_sweeps)
                want = frontier_module._frontier(codes, quotas)
            assert f.points == want.points
            assert list(f.witnesses.items()) == list(want.witnesses.items())
            tally[kind, "matrices"] += 1
            tally[kind, "quota > 1"] += max(quotas, default=1) > 1
            tally[kind, "split"] += len(ds) > 2
            tally[kind, "empty lines"] += not (codes.any(axis=0).all() and codes.any(axis=1).all())
            tally[kind, "revisited"] += any(b < a for a, b in zip(ds[2:], ds[3:]))  # after the end sweeps n and 0
    for kind in ("unit", "drawn"):
        assert tally[kind, "matrices"] == 240
        assert tally[kind, "empty lines"] >= 50 and tally[kind, "split"] >= 50
    assert tally["unit", "revisited"] >= 30 and tally["drawn", "quota > 1"] >= 200


# compute_frontier as it stood before the integer-slope sweeps: sweep k in
# 1..n weighed a plain pair k n^2 and a beneficiary pair k n^2 + n^2 + k,
# and split an interval at x = n^2 db // (n^2 de - db), on the seats' own
# pair codes.  Kept here only as the reference for the kinks and their
# witnesses, each the row of the largest k that returns its kink, as a
# sweep of k = n..1 would keep, with its seats mapped to their categories.
def ref_n_cubed_kinks(si):
    cats = si.categories
    category = np.array([cats.index(si.category_of(s)) for s in si.seats], dtype=np.intp)
    codes = np.ascontiguousarray(si.pair_codes[:, category])
    n = max(codes.shape)
    if n == 0 or not codes.any():
        return [MatchPoint(0, 0)], {MatchPoint(0, 0): (-1,) * len(codes)}

    def sweep(k):
        rows, cols = fresh_solve(codes, (0, k * n * n, k * n * n + n * n + k))
        row = np.full(len(codes), -1)  # the category row: patient i's category, or -1
        row[rows] = category[cols]
        return MatchPoint(len(rows), int(np.count_nonzero(codes[rows, cols] == 2))), row

    sweeps = {k: sweep(k) for k in sorted({1, n})}
    lasts, todo = [n], [(1, n)]
    while todo:
        lo, hi = todo.pop()
        a, c = sweeps[lo][0], sweeps[hi][0]
        if a == c:
            continue
        if hi == lo + 1:
            lasts.append(lo)
            continue
        db = a.b - c.b
        mid = min(max(n * n * db // (n * n * (c.e - a.e) - db), lo + 1), hi - 1)
        sweeps[mid] = sweep(mid)
        todo += [(mid, hi), (lo, mid)]
    kinks = [sweeps[k][0] for k in sorted(lasts)]
    return kinks, {sweeps[k][0]: tuple(sweeps[k][1].tolist()) for k in lasts}


def integer_slope_draws():
    """gen_random draws of 1-60 patients at every density, then
    gen_chain_family(1..11), then criterion 12 (500 x 495)."""
    rng = Random(12)
    for _ in range(600):
        patients = rng.randint(1, 60)
        yield gen_random(
            GenConfig(
                patients=patients,
                categories=rng.randint(1, patients),
                quota_range=(1, rng.randint(1, 3)),
                eligibility_density=rng.choice([0.02, 0.05, 0.1, 0.2, 0.35, 0.5, 0.8, 1.0]),
                beneficiary_density=rng.choice([0.0, 0.1, 0.35, 0.6, 0.9, 1.0]),
                seed=rng.randint(0, 100_000),
            )
        )
    yield from (gen_chain_family(k) for k in range(1, 12))
    yield gen_random(GenConfig(500, 200, (1, 4), 0.04, 0.35, seed=7))


def test_integer_slope_sweeps_keep_the_n_cubed_kinks_and_witnesses():
    kinks_seen = ranges_swept = 0
    for inst in integer_slope_draws():
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        kinks, witnesses = ref_n_cubed_kinks(si)
        assert f.kinks == frozenset(kinks), inst
        assert f.witnesses == witnesses, inst
        kinks_seen += len(kinks)
        n = max(len(si.patients), len(si.seats))
        if n > 200 or not f.e_max:
            continue  # criterion 12 would take 501 sweeps; an empty frontier has none
        # every d from a kink's left drop to one below its right drop returns it,
        # and the last kink's range ends at n: the ranges cover 0..n
        drops = [a.b - c.b for a, c in zip(f.points, f.points[1:])]
        ends = [0] + [drops[i - 1] for i, pt in enumerate(f.points) if i and pt in f.kinks] + [n + 1]
        sweep = frontier_module._sweeps(si.pair_codes, si.quotas)
        for kink, lo, hi in zip(sorted(f.kinks), ends, ends[1:]):
            assert [sweep(d)[0] for d in range(lo, hi)] == [kink] * (hi - lo)
            ranges_swept += 1
    assert kinks_seen >= 600 and ranges_swept >= 550, (kinks_seen, ranges_swept)
