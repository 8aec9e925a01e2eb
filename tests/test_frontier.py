from __future__ import annotations

from collections import Counter
from fractions import Fraction
from random import Random

import numpy as np
import pytest

import reserve_frontier.frontier as frontier_module
from reserve_frontier import (
    FrontierInvariantError,
    GenConfig,
    Instance,
    MatchPoint,
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
    oracle_frontier,
    validate_instance,
    validate_matching,
    with_all_witnesses,
)
from reserve_frontier.frontier import witness_at
from reserve_frontier.hungarian import max_weight_assignment_dense


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
    f = compute_frontier(expand_to_seats(gen_named("conflict").instance))
    assert list(f.points) == pts((1, 1), (2, 0))
    assert f.kinks == {MatchPoint(1, 1), MatchPoint(2, 0)}

    f = compute_frontier(expand_to_seats(gen_named("figure1").instance))
    assert list(f.points) == pts((3, 0))

    f = compute_frontier(expand_to_seats(gen_named("beta-threshold").instance))
    assert list(f.points) == pts((2, 1))

    f = compute_frontier(expand_to_seats(gen_named("path-independence").instance))
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
        all_points = {match_point(si, m) for m in enumerate_matchings(si)}
        for d in range(n + 1):
            pt, m = frontier_iteration(si, d)
            validate_matching(si, m)
            assert match_point(si, m) == pt
            value = lambda q: (2 * d + 1) * q.e + 2 * q.b
            assert [q for q in all_points if value(q) >= value(pt)] == [pt]


def test_frontier_iteration_range_check():
    si = expand_to_seats(gen_named("conflict").instance)
    n = max(len(si.patients), len(si.seats))
    for d in (-1, n + 1):
        with pytest.raises(ValueError, match=f"d must be in \\[0, {n}\\], got {d}"):
            frontier_iteration(si, d)
    for d in (0, n):
        frontier_iteration(si, d)


def test_endpoints_maximize_each_objective_first():
    si = expand_to_seats(gen_named("path-independence").instance)
    _, mu_be = frontier_iteration(si, 0)
    _, mu_eb = frontier_iteration(si, max(len(si.patients), len(si.seats)))
    f = compute_frontier(si)
    assert match_point(si, mu_be) == f.points[0]
    assert match_point(si, mu_eb) == f.points[-1]


def two_conflict_copies() -> Instance:
    # disjoint union of two conflict blocks: frontier (2,2),(3,1),(4,0)
    return validate_instance(
        Instance(
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
    )


def test_straight_segments_are_interpolated():
    si = expand_to_seats(two_conflict_copies())
    f = compute_frontier(si)
    assert list(f.points) == pts((2, 2), (3, 1), (4, 0))
    assert f.kinks == {MatchPoint(2, 2), MatchPoint(4, 0)}  # middle point is not a kink
    assert list(oracle_frontier(si).points) == list(f.points)


def test_with_all_witnesses_fills_interior_points():
    si = expand_to_seats(two_conflict_copies())
    f = with_all_witnesses(si, compute_frontier(si))
    assert set(f.witnesses) == set(f.points)
    for pt, m in f.witnesses.items():
        validate_matching(si, m)
        assert match_point(si, m) == pt


def test_kcard_witness_agrees_with_the_cycle_walk():
    # unit quotas at 3/n eligibility leave straight segments, so many points
    # are not kinks; criterion 12 is the largest frontier the tests build
    rng = Random(6)
    sizes = [rng.randint(6, 30) for _ in range(300)]
    draws = [GenConfig(n, n, (1, 1), 3 / n, 0.5, seed) for seed, n in enumerate(sizes)]
    draws.append(GenConfig(500, 200, (1, 4), 0.04, 0.35, seed=7))
    insts = [gen_random(cfg) for cfg in draws] + [gen_chain_family(k) for k in range(1, 8)]
    interior = 0
    for inst in insts:
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        walk = frontier_walk(si, f.witnesses[f.points[0]])
        assert [pt for pt, _ in walk] == list(f.points)
        for pt in f.points:
            m = witness_at(si, pt)
            validate_matching(si, m)
            assert match_point(si, m) == pt
        interior += len(f.points) - len(f.kinks)
    assert interior >= 60


def test_kcard_witness_refuses_a_point_off_the_frontier():
    si = expand_to_seats(two_conflict_copies())
    with pytest.raises(FrontierInvariantError, match="k-cardinality"):
        witness_at(si, MatchPoint(3, 2))


def test_zero_eligibility_gives_the_empty_point():
    inst = validate_instance(
        Instance(categories=("c1",), patients=("p1",), quota={"c1": 2}, eligible={}, beneficiary={})
    )
    f = compute_frontier(expand_to_seats(inst))
    assert list(f.points) == [MatchPoint(0, 0)]
    assert f.witnesses[MatchPoint(0, 0)].pairs == ()
    with pytest.raises(ValueError):
        half_bound_ratio(f)


def test_half_bound_ratio_values():
    assert half_bound_ratio(compute_frontier(expand_to_seats(gen_named("conflict").instance))) == Fraction(1, 2)
    assert half_bound_ratio(compute_frontier(expand_to_seats(gen_named("figure1").instance))) == 0


def test_invariant_checker_rejects_bad_shapes():
    from reserve_frontier import Frontier

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
        o = oracle_frontier(si)
        assert f.points == o.points
        assert f.kinks == o.kinks
        check_frontier_invariants(f)
        # every frontier point defeats or equals every enumerated matching
        for m in enumerate_matchings(si):
            pt = match_point(si, m)
            assert pt in set(f.points) or any(dominates(q, pt) for q in f.points)


def full_sweep_reference(si):
    """Sweep every d = 0..n in order, keeping each new point's first matching."""
    n = max(len(si.patients), len(si.seats))
    kinks, witnesses = [], {}
    for d in range(n + 1):
        pt, m = frontier_iteration(si, d)
        if not kinks or pt != kinks[-1]:
            kinks.append(pt)
            witnesses[pt] = m
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


def disjoint_union(*insts: Instance) -> Instance:
    """The instances side by side, ids prefixed by position: frontiers add."""
    cats, pats, quota, eligible, beneficiary = [], [], {}, {}, {}
    for i, inst in enumerate(insts):
        tag = lambda x, i=i: f"u{i}{x}"
        cats += map(tag, inst.categories)
        pats += map(tag, inst.patients)
        for c in inst.categories:
            quota[tag(c)] = inst.quota[c]
            eligible[tag(c)] = frozenset(map(tag, inst.eligible_of(c)))
            beneficiary[tag(c)] = frozenset(map(tag, inst.beneficiary_of(c)))
    return validate_instance(Instance(tuple(cats), tuple(pats), quota, eligible, beneficiary))


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


@pytest.mark.parametrize("family", sorted(DIFFERENTIAL_FAMILIES))
def test_bisection_matches_the_full_sweep(family, monkeypatch):
    """The crossing split keeps the full sweep's points, kinks and witnesses
    in at most 3 * kinks - 2 sweeps (2 when one point covers every d)."""
    swept = []
    sweep = frontier_module._sweep

    def counted(si, d):
        swept.append(d)
        return sweep(si, d)

    monkeypatch.setattr(frontier_module, "_sweep", counted)
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
    sweep = frontier_module._sweep
    done: dict[int, MatchPoint] = {}
    tally = Counter()

    def remapped(si, d):
        out = sweep(si, min(max(d + shift, 0), max(len(si.patients), len(si.seats))))
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

    monkeypatch.setattr(frontier_module, "_sweep", remapped)
    draws = [two_conflict_copies(), *(gen_chain_family(k) for k in range(1, 5))]
    draws += [disjoint_union(*map(gen_chain_family, ks)) for ks in CHAIN_UNIONS]
    for inst in draws:
        si = expand_to_seats(inst)
        done.clear()
        points, kinks, witnesses = full_sweep_reference(si)  # ascending d: no splits
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
    sweep = frontier_module._sweep
    monkeypatch.setattr(frontier_module, "_sweep", lambda si, d: sweep(si, max(si.pair_codes.shape) - d))
    with pytest.raises(FrontierInvariantError, match="out of order"):
        compute_frontier(expand_to_seats(two_conflict_copies()))


# compute_frontier as it stood before the integer-slope sweeps: sweep k in
# 1..n weighed a plain pair k n^2 and a beneficiary pair k n^2 + n^2 + k,
# and split an interval at x = n^2 db // (n^2 de - db).  Kept here only as
# the reference for the kinks and their witnesses.
def ref_n_cubed_kinks(si):
    codes = si.pair_codes
    n = max(codes.shape)
    if n == 0 or not codes.any():
        return [MatchPoint(0, 0)], {MatchPoint(0, 0): frontier_module.Matching.empty()}

    def sweep(k):
        rows, cols = max_weight_assignment_dense(codes, (0, k * n * n, k * n * n + n * n + k))
        return MatchPoint(len(rows), int(np.count_nonzero(codes[rows, cols] == 2))), rows, cols

    sweeps = {k: sweep(k) for k in sorted({1, n})}
    firsts, todo = [1], [(1, n)]
    while todo:
        lo, hi = todo.pop()
        a, c = sweeps[lo][0], sweeps[hi][0]
        if a == c:
            continue
        if hi == lo + 1:
            firsts.append(hi)
            continue
        db = a.b - c.b
        mid = min(max(n * n * db // (n * n * (c.e - a.e) - db), lo + 1), hi - 1)
        sweeps[mid] = sweep(mid)
        todo += [(mid, hi), (lo, mid)]
    kinks = [sweeps[k][0] for k in firsts]
    return kinks, {sweeps[k][0]: frontier_module._matching(si, *sweeps[k][1:]) for k in firsts}


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
        n = max(si.pair_codes.shape)
        if n > 200 or not f.e_max:
            continue  # criterion 12 would take 501 sweeps; an empty frontier has none
        # every d from a kink's left drop to one below its right drop returns it,
        # and the last kink's range ends at n: the ranges cover 0..n
        drops = [a.b - c.b for a, c in zip(f.points, f.points[1:])]
        ends = [0] + [drops[i - 1] for i, pt in enumerate(f.points) if i and pt in f.kinks] + [n + 1]
        for kink, lo, hi in zip(sorted(f.kinks), ends, ends[1:]):
            assert [frontier_module._sweep(si, d)[0] for d in range(lo, hi)] == [kink] * (hi - lo)
            ranges_swept += 1
    assert kinks_seen >= 600 and ranges_swept >= 550, (kinks_seen, ranges_swept)
