"""Acceptance gate: twelve end-to-end checks at their stated tolerances.

Run with -v to get one pass/fail line per criterion.  Two module-scope
instance pools (1,000 small instances; 500 oracle-scale instances) are
shared across the checks that reuse them, so each pool is built once.
"""

import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

import reserve_frontier.oracle as oracle_module
from reserve_frontier.oracle import Census
from reserve_frontier.verify import _exact_share_domination
from reserve_frontier import (
    GenConfig,
    MatchPoint,
    NoNonEmptyMatchingError,
    apply_cycle,
    audit_substitutability,
    beneficiary_share,
    cheapest_cycle,
    choice_masks,
    compute_frontier,
    enumerate_matchings,
    expand_to_seats,
    frontier_iteration,
    frontier_walk,
    gen_chain_family,
    gen_named,
    gen_random,
    half_bound_ratio,
    match_point,
    oracle_min_cycle_loss,
    rank_sum,
    repair_priority,
    respects_priority,
    restrict_patients,
    select_approx_on_frontier,
)

ELIG_LEVELS = (0.3, 0.5, 0.7, 0.9, 1.0)
BENE_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _small_cfg(i: int) -> GenConfig:
    """Varied instances with at most 10 patients and at most 10 seats."""
    cats = 1 + (i * 3) % 5
    return GenConfig(
        patients=1 + (i * 7) % 10,
        categories=cats,
        quota_range=(1, max(1, 10 // cats)),
        eligibility_density=ELIG_LEVELS[i % 5],
        beneficiary_density=BENE_LEVELS[(i // 5) % 5],
        seed=i,
    )


def _oracle_cfg(i: int, seed_base: int = 10_000) -> GenConfig:
    """Varied instances small enough for exhaustive enumeration (<= 7 x 7)."""
    cats = 1 + (i // 7) % 4
    return GenConfig(
        patients=1 + (i % 7),
        categories=cats,
        quota_range=(1, max(1, 7 // cats)),
        eligibility_density=ELIG_LEVELS[(i // 28) % 5],
        beneficiary_density=BENE_LEVELS[(i // 140) % 5],
        seed=seed_base + i,
    )


def _shape_violations(points) -> list[str]:
    """Deviations from the required frontier shape.

    Unit steps in e, strictly decreasing b (every drop >= 1), and drops
    weakly increasing with e (concavity).
    """
    bad = []
    for a, b in zip(points, points[1:]):
        if b.e != a.e + 1:
            bad.append(f"non-unit e-step {a} -> {b}")
        if b.b >= a.b:
            bad.append(f"b fails to drop {a} -> {b}")
    drops = [a.b - b.b for a, b in zip(points, points[1:])]
    for d1, d2 in zip(drops, drops[1:]):
        if d1 > d2:
            bad.append(f"drops not weakly increasing with e: {d1} then {d2}")
    return bad


@pytest.fixture(scope="module")
def small_pool():
    """1,000 seeded instances (<= 10 patients/seats) with computed frontiers."""
    t0 = time.perf_counter()
    records = []
    for i in range(1000):
        inst = gen_random(_small_cfg(i))
        si = expand_to_seats(inst)
        records.append((i, si, compute_frontier(si)))
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def oracle_pool():
    """500 seeded instances (<= 7 x 7) with computed and oracle frontiers."""
    t0 = time.perf_counter()
    records = []
    for i in range(500):
        inst = gen_random(_oracle_cfg(i))
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        fo = Census(si).frontier()
        walk = frontier_walk(si, f.witnesses[f.points[0]])
        records.append((i, si, f, fo, frozenset(pt for pt, _ in walk)))
    return records, time.perf_counter() - t0


def test_criterion_01_named_frontiers():
    t0 = time.perf_counter()
    cases = {
        "conflict": (MatchPoint(1, 1), MatchPoint(2, 0)),
        "beta-threshold": (MatchPoint(2, 1),),
        "path-independence": (MatchPoint(4, 2), MatchPoint(5, 1)),
    }
    for name, want in cases.items():
        got = compute_frontier(expand_to_seats(gen_named(name))).points
        assert got == want, f"{name}: {got} != {want}"
    sub = restrict_patients(
        gen_named("path-independence"), {"p1", "p2", "p3", "p4", "p5"}
    )
    got = compute_frontier(expand_to_seats(sub)).points
    assert got == (MatchPoint(4, 1), MatchPoint(5, 0)), got
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"{elapsed:.2f}s"
    print(f"criterion 01: four named frontiers exact in {elapsed:.3f}s")


def test_criterion_02_mechanism_values():
    pr = gen_named("beta-threshold")
    assert pr.beta_star == Fraction(7, 10)
    _, pt = select_approx_on_frontier(pr)
    assert pt == MatchPoint(2, 1) and beneficiary_share(pt) == Fraction(1, 2)

    pr = gen_named("path-independence")
    assert pr.beta_star == Fraction(1, 5)
    _, pt = select_approx_on_frontier(pr)
    assert pt == MatchPoint(5, 1) and beneficiary_share(pt) == pr.beta_star
    print("criterion 02: selected points (2,1) at 1/2 and (5,1) at exactly 1/5")


def test_criterion_03_half_bound(small_pool):
    records, build_s = small_pool
    t0 = time.perf_counter()
    nonempty = 0
    for i, _, f in records:
        if f.e_max == 0:
            continue
        nonempty += 1
        r = half_bound_ratio(f)
        assert r <= Fraction(1, 2), f"instance {i}: ratio {r}"
    assert nonempty >= 900, f"only {nonempty} instances had any match"
    conflict = compute_frontier(expand_to_seats(gen_named("conflict")))
    assert half_bound_ratio(conflict) == Fraction(1, 2)
    elapsed = build_s + time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    print(
        f"criterion 03: ratio <= 1/2 on {nonempty} non-empty frontiers, "
        f"equality on the conflict example, {elapsed:.1f}s"
    )


def test_criterion_04_oracle_equivalence(oracle_pool):
    records, build_s = oracle_pool
    t0 = time.perf_counter()
    for i, _, f, fo, walked in records:
        assert f.points == fo.points, f"instance {i}: {f.points} != {fo.points}"
        assert walked == frozenset(fo.points), f"instance {i}: walk visited {walked}"
    elapsed = build_s + time.perf_counter() - t0
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    print(
        f"criterion 04: computed == oracle frontier and walk coverage on "
        f"{len(records)} instances, {elapsed:.1f}s"
    )


def test_criterion_05_concavity_density(small_pool, oracle_pool):
    checked = 0
    for pool in (small_pool[0], oracle_pool[0]):
        for rec in pool:
            i, points = rec[0], rec[2].points
            bad = _shape_violations(points)
            assert not bad, f"instance {i}: {bad}"
            checked += 1
    print(f"criterion 05: zero shape violations across {checked} frontiers")


def test_criterion_06_minimal_cycle_theorem(oracle_pool, monkeypatch):
    monkeypatch.setattr(oracle_module, "SAMPLE_CAP", 16)
    records, _ = oracle_pool
    checked = 0
    for i, si, _, fo, _ in records:
        on_frontier = set(fo.points)
        samples = Census(si).sample(fo.points).matchings
        for pt, rows in samples.items():
            for row in rows:
                checked += 1
                want = oracle_min_cycle_loss(si, row)
                cyc = cheapest_cycle(si, row)
                if cyc is None:
                    assert want is None, f"instance {i}: missed a cycle at {pt}"
                    assert pt.e == fo.e_max, f"instance {i}: stuck at {pt}"
                    continue
                nxt = match_point(si, si.name_row(apply_cycle(si, row, cyc)))
                got = match_point(si, si.name_row(row)).b - nxt.b
                assert got == want, f"instance {i} at {pt}: loss {got} != {want}"
                assert nxt in on_frontier, f"instance {i}: {pt} stepped off to {nxt}"
    assert checked >= 2000
    print(f"criterion 06: minimal cycles exact on {checked} sampled matchings")


def test_criterion_07_kink_correspondence(oracle_pool):
    records, _ = oracle_pool
    kinks_hit = 0
    for i, si, _, fo, _ in records:
        pts = fo.points
        n = max(len(si.patients), len(si.seats))
        assert frontier_iteration(si, 0)[0] == pts[0], f"instance {i}: d=0"
        assert frontier_iteration(si, n)[0] == pts[-1], f"instance {i}: d=n"
        kinks_hit += 2
        for j in range(1, len(pts)):
            if pts[j] not in fo.kinks:
                continue
            d = pts[j - 1].b - pts[j].b  # the kink's left drop
            assert frontier_iteration(si, d)[0] == pts[j], (
                f"instance {i}: kink {pts[j]} not returned at sweep {d}"
            )
            kinks_hit += 1
    print(f"criterion 07: endpoints at d = 0 and n, and kinks at their left drop, surfaced at {kinks_hit} sweeps")


def test_criterion_08_chain_family():
    for k in range(1, 7):
        f = compute_frontier(expand_to_seats(gen_chain_family(k)))
        want = (MatchPoint(k + 1, k + 1), MatchPoint(k + 2, 0))
        assert f.points == want, f"K={k}: {f.points}"
        assert f.points[0].b - f.points[-1].b == k + 1
    print("criterion 08: chain family frontiers and endpoint gaps exact for K=1..6")


def test_criterion_09_exact_share_domination():
    qualifying = 0
    i = 0
    while qualifying < 200:
        assert i < 3000, f"only {qualifying} qualifying cases found"
        inst = gen_random(_oracle_cfg(i, seed_base=17_000))
        i += 1
        si = expand_to_seats(inst)
        census = Census(si)
        shares = set()
        for row in enumerate_matchings(si):
            pt = match_point(si, si.name_row(row))
            if pt.e:
                shares.add(beneficiary_share(pt))
        # realized shares as targets keep the exact-share set non-empty
        for beta in sorted(shares):
            if qualifying >= 200:
                break
            pr = replace(inst, beta_star=beta)
            _, pt = select_approx_on_frontier(pr)
            if beneficiary_share(pt) == beta:
                continue
            qualifying += 1
            assert any(p.e and beneficiary_share(p) == beta for p in census.counts)
            row = _exact_share_domination(pr.beta_star, pt, census)
            assert row.ok, f"instance {i - 1}: {row.detail}"
    print(f"criterion 09: {qualifying} off-target selections dominate every exact-share matching")


def _admissible_order(inst, rng: Random) -> dict[str, tuple[str, ...]]:
    """Random strict order respecting beneficiary > eligible > ineligible tiers."""
    order = {}
    for c in inst.categories:
        bene = sorted(inst.beneficiary_of(c))
        elig = sorted(p for p in inst.eligible_of(c) if p not in inst.beneficiary_of(c))
        rest = sorted(p for p in inst.patients if p not in inst.eligible_of(c))
        for tier in (bene, elig, rest):
            rng.shuffle(tier)
        order[c] = tuple(bene + elig + rest)
    return order


def test_criterion_10_priority_repair():
    targets = [Fraction(a, b) for a, b in
               ((1, 4), (1, 3), (1, 2), (2, 3), (3, 4), (1, 5), (3, 5), (1, 1))]
    done = improved = 0
    i = 0
    while done < 200:
        assert i < 2000, f"only {done} instances processed"
        inst = gen_random(_oracle_cfg(i, seed_base=23_000))
        beta = targets[i % len(targets)]
        rng = Random(i)
        i += 1
        pr = replace(inst, beta_star=beta)
        try:
            row, pt = select_approx_on_frontier(pr)
        except NoNonEmptyMatchingError:
            continue
        pwo = replace(inst, beta_star=beta, priority=_admissible_order(inst, rng))
        fixed = repair_priority(pwo, row)
        si = expand_to_seats(inst)
        assert respects_priority(pwo, fixed) == [], f"instance {i - 1}"
        assert match_point(si, si.name_row(fixed)) == pt, f"instance {i - 1}: point moved"
        r0, r1 = rank_sum(pwo, row), rank_sum(pwo, fixed)
        assert r1 <= r0, f"instance {i - 1}: rank sum {r0} -> {r1}"
        if r1 < r0 or respects_priority(pwo, row):
            improved += 1
        done += 1
    assert improved >= 10, f"only {improved} repairs did any work"
    print(f"criterion 10: {done} repairs clean, point preserved, {improved} non-trivial")


def matched_sets_at(si, pt):
    """The matched patients of every eligible matching scoring exactly pt."""
    named = (si.name_row(row) for row in enumerate_matchings(si))
    return {frozenset(p for p, _ in m.pairs) for m in named if match_point(si, m) == pt}


def test_criterion_11_impossibility_reproduction():
    t0 = time.perf_counter()
    pr = gen_named("path-independence")
    full = frozenset(pr.patients)
    x = frozenset({"p1", "p2", "p3", "p4", "p5"})
    needed = frozenset({"p1", "p2", "p3", "p5"})

    _, violations = audit_substitutability(*choice_masks(pr))
    designed = [v for v in violations if v.x == full and v.x_prime == x]
    assert designed, "audit missed the designed failure pair"
    assert designed[0].lhs == needed and not needed <= designed[0].rhs

    # robustness over tie-breaks: every optimal matching is an admissible
    # choice set, so quantify over all of them on both sides of the pair
    _, pt_full = select_approx_on_frontier(pr)
    full_sets = matched_sets_at(expand_to_seats(pr), pt_full)
    assert full_sets and all(needed <= s for s in full_sets)

    sub = restrict_patients(pr, x)
    _, pt_sub = select_approx_on_frontier(sub)
    sub_sets = matched_sets_at(expand_to_seats(sub), pt_sub)
    assert sub_sets and all(not needed <= s for s in sub_sets)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    print(
        f"criterion 11: substitutability fails for all {len(sub_sets)} admissible "
        f"tie-breaks in {elapsed:.1f}s"
    )


def test_criterion_12_scaling_smoke():
    cfg = GenConfig(
        patients=500,
        categories=200,
        quota_range=(1, 4),
        eligibility_density=0.04,
        beneficiary_density=0.35,
        seed=7,
    )
    inst = gen_random(cfg)
    si = expand_to_seats(inst)
    assert abs(len(si.seats) - 500) <= 25
    t0 = time.perf_counter()
    f = compute_frontier(si)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    assert len(f.points) >= 2, "degenerate frontier defeats the purpose"
    assert not _shape_violations(f.points)
    print(
        f"criterion 12: {len(si.patients)}x{len(si.seats)} frontier with "
        f"{len(f.points)} points in {elapsed:.1f}s"
    )
