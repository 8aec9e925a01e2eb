"""The oracle census against the single-purpose scans it replaced.

The reference functions below are the scans the verify checks ran before
they shared one census: one enumeration each for the frontier, for the
samples, for the matched-patient sets and, per share target, for the
exact-share matchings (scored by name with match_point).  They run on
scan_leaves, the depth-first recursion that enumerated the matchings one
Python call per state before the oracle expanded them in numpy blocks;
it takes the lowest free seat of each category, so it lists each category
row once, and with every_seat it takes every free seat, listing each row
once per assignment of its patients to their categories' seats, as the
oracle did before it enumerated categories.  They are kept here only as
the reference.
"""

from __future__ import annotations

import inspect
import sys
import tracemalloc
from dataclasses import replace
from random import Random

import numpy as np
import pytest

import reserve_frontier.oracle as oracle_module
from reserve_frontier import (
    SUITES,
    BudgetExceededError,
    EnumerationBudget,
    GenConfig,
    MatchPoint,
    Problem,
    beneficiary_share,
    dominates,
    enumerate_matchings,
    expand_to_seats,
    gen_named,
    gen_random,
    match_point,
    run_suites,
    select_approx_on_frontier,
    validate_matching,
)
from reserve_frontier.frontier import Frontier, kinks_of
from reserve_frontier.oracle import (
    BUDGET_ENV,
    DEFAULT_BUDGET,
    MAX_ORACLE_SIZE,
    Census,
    _check_size,
    _leaf_blocks,
    _StateCounter,
)
from reserve_frontier.verify import _exact_share_domination, _sampled_at, verify_lemmas


def scan_leaves(si, budget, visit, every_seat=False) -> int:
    """Call visit(assignment, e, b) for every eligible matching, depth first.

    The recursion takes unit seats, named by the instance: the lowest free
    seat of each eligible category, or with every_seat each free seat.
    `assignment` is a mutable list of the category index of each patient's
    seat (-1 for unmatched) that is only valid during the call.  Returns
    the number of states visited.
    """
    _check_size(si, budget)
    n = len(si.patients)
    category = [si.categories.index(si.category_of(s)) for s in si.seats]
    elig = [[j for j, s in enumerate(si.seats) if p in si.eligible[si.category_of(s)]] for p in si.patients]
    bene = [{j for j, s in enumerate(si.seats) if p in si.beneficiary[si.category_of(s)]} for p in si.patients]
    used = [False] * len(si.seats)
    current = [-1] * n
    counter = _StateCounter(budget.max_states)

    def rec(i: int, e: int, b: int) -> None:
        counter.add()
        if i == n:
            visit(current, e, b)
            return
        current[i] = -1
        rec(i + 1, e, b)
        tried = set()
        for j in elig[i]:
            if not used[j] and (every_seat or category[j] not in tried):
                tried.add(category[j])
                used[j] = True
                current[i] = category[j]
                rec(i + 1, e + 1, b + (1 if j in bene[i] else 0))
                used[j] = False
        current[i] = -1

    rec(0, 0, 0)
    return counter.used


def scan_rows(si, budget=DEFAULT_BUDGET, every_seat=False) -> list:
    """(category row, e, b) of every leaf of scan_leaves, in leaf order."""
    leaves: list = []
    scan_leaves(si, budget, lambda a, e, b: leaves.append((tuple(a), e, b)), every_seat)
    return leaves


def frontier_of(leaves) -> tuple[Frontier, list]:
    """The frontier of the leaves, witnessed by the first row at each point,
    and every point in order of first appearance."""
    first: dict = {}
    for a, e, b in leaves:
        first.setdefault(MatchPoint(e, b), a)
    pts = list(first)
    nd = sorted(p for p in pts if not any(dominates(q, p) for q in pts))
    witnesses = {p: first[p] for p in nd}
    return Frontier(points=tuple(nd), kinks=kinks_of(nd), witnesses=witnesses), pts


def ref_oracle_frontier(si, budget=DEFAULT_BUDGET) -> Frontier:
    return frontier_of(scan_rows(si, budget))[0]


def ref_sample(si, points, budget=DEFAULT_BUDGET, cap=200):
    rng = Random(0)
    wanted = set(points)
    kept = {p: [] for p in wanted}
    seen = {p: 0 for p in wanted}

    def visit(a, e, b):
        pt = MatchPoint(e, b)
        if pt not in wanted:
            return
        seen[pt] += 1
        bucket = kept[pt]
        if len(bucket) < cap:
            bucket.append(tuple(a))
        else:
            slot = rng.randrange(seen[pt])
            if slot < cap:
                bucket[slot] = tuple(a)

    scan_leaves(si, budget, visit)
    mode = "exhaustive" if all(seen[p] <= cap for p in wanted) else "sampled"
    return kept, mode


def ref_matched_sets(si, points, budget=DEFAULT_BUDGET):
    wanted = set(points)
    out = {p: set() for p in wanted}

    def visit(a, e, b):
        pt = MatchPoint(e, b)
        if pt in wanted:
            out[pt].add(frozenset(si.patients[i] for i, j in enumerate(a) if j != -1))

    scan_leaves(si, budget, visit)
    return out


def ref_exact_share(at_share, beta, selected) -> list[str]:
    """The old per-matching check's failures; at_share lists the point of every matching of that share."""
    return [
        f"matching at {pt} with exact share {beta} is not dominated by {selected}"
        for pt in at_share
        if not dominates(selected, pt)
    ]


def small_draws():
    rng = Random(4242)
    for _ in range(200):
        yield gen_random(
            GenConfig(
                patients=rng.randint(0, 7),
                categories=rng.randint(1, 3),
                quota_range=(1, 2),
                eligibility_density=rng.choice([0.3, 0.5, 0.8]),
                beneficiary_density=rng.choice([0.2, 0.5, 0.8]),
                seed=rng.randint(0, 100_000),
            )
        )


def base_draws():
    """The ten 7 x 7 draws of the verify-oracle benchmark workload."""
    for seed in range(100, 110):
        yield gen_random(GenConfig(7, 7, (1, 1), 0.5, 0.5, seed=seed))


def assert_census_matches_the_scans(inst, cap):
    si = expand_to_seats(inst)
    census = Census(si)
    want = ref_oracle_frontier(si)
    got = census.frontier
    assert got.points == want.points
    assert got.kinks == want.kinks
    assert got.witnesses == want.witnesses

    # the frontier plus its most common other point, as a disagreeing fast
    # frontier would ask; the reservoir replaces samples there
    busiest = max(census.counts, key=census.counts.get)
    modes = set()
    for points in (want.points, [*want.points, busiest]):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "SAMPLE_CAP", cap)
            sampled = Census(si, points=points)
        ref_samples, ref_mode = ref_sample(si, points, cap=cap)
        assert sampled.samples == ref_samples
        assert sampled.mode == ref_mode
        modes.add(sampled.mode)
        bit = {p: 1 << i for i, p in enumerate(si.patients)}
        ref_sets = ref_matched_sets(si, points)
        assert sampled.matched == {
            pt: {sum(bit[p] for p in s) for s in sets} for pt, sets in ref_sets.items()
        }

    by_share: dict = {}
    for row in enumerate_matchings(si):
        pt = match_point(si, si.name_row(row))
        if pt.e:
            by_share.setdefault(beneficiary_share(pt), []).append(pt)
    for beta, at_share in by_share.items():
        pr = replace(inst, beta_star=beta)
        _, selected = select_approx_on_frontier(pr)
        # the census counts every matching of that share
        assert sum(n for pt, n in census.counts.items() if pt.e and beneficiary_share(pt) == beta) == len(at_share)
        for point in (selected, MatchPoint(0, 0)):
            got = _exact_share_domination(pr.beta_star, point, census)
            want = ref_exact_share(at_share, beta, point)
            assert got == (f"exact-share rival undominated: {want[0]}" if want else "")
    return modes


def slice_every_level(monkeypatch):
    """Shrink the enumeration's byte cap until every level is expanded in slices."""
    monkeypatch.setattr(oracle_module, "_BLOCK_BYTES", 4096)


def assert_census_matches_on_the_draws():
    modes = set()
    for inst in small_draws():
        modes |= assert_census_matches_the_scans(inst, cap=2)
    for inst in base_draws():
        modes |= assert_census_matches_the_scans(inst, cap=200)
    assert modes == {"exhaustive", "sampled"}  # the reservoir was exercised


def test_census_equals_the_single_purpose_scans():
    assert_census_matches_on_the_draws()


def test_census_equals_the_scans_with_every_level_sliced(monkeypatch):
    slice_every_level(monkeypatch)
    assert_census_matches_on_the_draws()


def assert_a_census_with_points_matches_the_scans(inst, cap):
    """A census built with its points answers as the scans do, in one pass."""
    si = expand_to_seats(inst)
    plain = Census(si)
    want = ref_oracle_frontier(si)
    busiest = max(plain.counts, key=plain.counts.get)
    bit = {p: 1 << i for i, p in enumerate(si.patients)}
    modes = set()
    for points in (want.points, [*want.points, busiest]):
        passes = []
        original = oracle_module._leaf_blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oracle_module, "SAMPLE_CAP", cap)
            mp.setattr(oracle_module, "_leaf_blocks", lambda *args: passes.append(args) or original(*args))
            census = Census(si, points=points)
            assert list(census.counts.items()) == list(plain.counts.items())
            assert list(census._first.items()) == list(plain._first.items())
            got = census.frontier
        assert len(passes) == 1
        assert (got.points, got.kinks, got.witnesses) == (want.points, want.kinks, want.witnesses)
        ref_samples, ref_mode = ref_sample(si, points, cap=cap)
        assert census.samples == ref_samples
        assert census.mode == ref_mode
        assert census.matched == {
            pt: {sum(bit[p] for p in s) for s in sets} for pt, sets in ref_matched_sets(si, points).items()
        }
        modes.add(census.mode)
    return modes


@pytest.mark.parametrize("sliced", [False, True])
def test_a_census_built_with_its_points_equals_the_scans(sliced, monkeypatch):
    if sliced:
        slice_every_level(monkeypatch)
    modes = set()
    for inst in small_draws():
        modes |= assert_a_census_with_points_matches_the_scans(inst, cap=2)
    for inst in base_draws():
        modes |= assert_a_census_with_points_matches_the_scans(inst, cap=200)
    assert modes == {"exhaustive", "sampled"}


def test_seat_rows_name_the_enumerated_matchings():
    for inst in [*small_draws(), *base_draws()]:
        si = expand_to_seats(inst)
        rows = [tuple(row) for read, e, _ in _leaf_blocks(si, DEFAULT_BUDGET)
                for row in read(np.arange(len(e))).tolist()]
        assert list(enumerate_matchings(si)) == rows
        for row in rows:
            m = validate_matching(si, si.name_row(row))
            assert len(m.pairs) == sum(j != -1 for j in row)
            assert all(si.category_of(s) == si.categories[row[si.patient_index[p]]] for p, s in m.pairs)


def test_the_enumeration_is_the_seat_recursion_without_repeats():
    # each category row once, in the order of its first seat assignment;
    # the census's frontier, witnesses and points are the seat recursion's
    r, budget = Random(99), EnumerationBudget(8, 12, 10**7)
    seat_leaves = rows = 0
    for k in range(400):
        cfg = GenConfig(r.randint(0, 7), r.randint(1, 4), (1, r.choice([1, 2, 3])),
                        r.choice([0.3, 0.5, 0.8]), r.choice([0.2, 0.5]), seed=k)
        si = expand_to_seats(gen_random(cfg))
        leaves = scan_rows(si, budget, every_seat=True)
        got = list(enumerate_matchings(si, budget))
        assert got == list(dict.fromkeys(a for a, _, _ in leaves))
        want, points = frontier_of(leaves)
        census = Census(si, budget)
        f = census.frontier
        assert (f.points, f.kinks, f.witnesses) == (want.points, want.kinks, want.witnesses)
        assert list(census.counts) == points
        seat_leaves, rows = seat_leaves + len(leaves), rows + len(got)
    assert (seat_leaves, rows) == (681_983, 46_509)


def test_census_samples_hold_no_repeated_rows():
    # verify --random patients=7 categories=3 quota=2:3 seed=2000 elig=0.7 count=20
    budget = EnumerationBudget(8, 10, 50_000_000)
    for seed in range(2000, 2020):
        si = expand_to_seats(gen_random(GenConfig(7, 3, (2, 3), 0.7, 0.5, seed=seed)))
        census = Census(si, budget, Census(si, budget).frontier.points)
        for rows in census.samples.values():
            assert len(set(rows)) == len(rows)
        assert sum(census.counts.values()) == len(set(enumerate_matchings(si, budget)))


@pytest.fixture
def scan_counter(monkeypatch):
    calls = []
    original = oracle_module._leaf_blocks

    def counting(si, budget):
        calls.append(si)
        return original(si, budget)

    monkeypatch.setattr(oracle_module, "_leaf_blocks", counting)
    return calls


def test_verify_enumerates_each_instance_exactly_once(scan_counter):
    problems = [*base_draws(), gen_named("conflict"), gen_named("path-independence")]
    problems += [gen_random(GenConfig(6, 5, (1, 1), 0.5, 0.5, seed=s)) for s in range(20)]
    for pr in problems:
        scan_counter.clear()
        results = run_suites(pr, SUITES)
        assert all(r.ok for r in results)
        assert len(scan_counter) == 1


def test_a_disagreeing_frontier_gets_its_own_samples(scan_counter):
    si = expand_to_seats(next(base_draws()))
    census = Census(si)
    points = census.frontier.points
    sampled = _sampled_at(census, points)
    assert _sampled_at(sampled, list(reversed(points))) is sampled
    assert len(scan_counter) == 2
    shifted = [MatchPoint(p.e, p.b - 1) for p in points]
    other = _sampled_at(sampled, shifted)
    assert len(scan_counter) == 3
    assert any(other.samples.values())
    assert other.samples == ref_sample(si, shifted)[0]
    # both lemma checks read one census at the oracle's own frontier
    assert all(r.ok for r in verify_lemmas(other, census.frontier))
    assert len(scan_counter) == 4



@pytest.mark.parametrize("sliced", [False, True])
def test_leaf_blocks_list_the_recursions_leaves(sliced, monkeypatch):
    if sliced:
        slice_every_level(monkeypatch)
    most_blocks = 0
    for inst in [*small_draws(), *base_draws()]:
        si = expand_to_seats(inst)
        want: list = []
        states = scan_leaves(si, DEFAULT_BUDGET, lambda a, e, b: want.append((tuple(a), e, b)))
        blocks = list(_leaf_blocks(si, DEFAULT_BUDGET))
        most_blocks = max(most_blocks, len(blocks))
        got = [(tuple(a), e, b) for read, es, bs in blocks
               for a, e, b in zip(read(np.arange(len(es))).tolist(), es.tolist(), bs.tolist())]
        assert got == want
        assert list(enumerate_matchings(si)) == [a for a, _, _ in want]

        counts: dict = {}
        first: dict = {}
        for a, e, b in want:
            counts[(e, b)] = counts.get((e, b), 0) + 1
            first.setdefault((e, b), a)
        census = Census(si)
        assert list(census.counts.items()) == list(counts.items())
        assert list(census._first.items()) == list(first.items())

        # the budget binds at exactly the recursion's state count, when the
        # census is built; a budget below one state (only the root, no
        # patients) is refused when the budget is built
        assert sum(Census(si, EnumerationBudget(max_states=states)).counts.values()) == len(want)
        with pytest.raises(BudgetExceededError if states > 1 else ValueError, match=BUDGET_ENV):
            Census(si, EnumerationBudget(max_states=states - 1))
    assert most_blocks > 1 if sliced else most_blocks == 1


@pytest.mark.parametrize("sliced", [False, True])
def test_an_over_budget_pass_raises_after_a_prefix_of_the_leaves(sliced, monkeypatch):
    # each slice counts its children before it builds them: a census raises
    # at any budget below the recursion's state count, and a stream raises
    # after a prefix of the leaves, no longer than the recursion yields
    # before it raises at that budget
    if sliced:
        slice_every_level(monkeypatch)
    budgets = yielded = 0
    for inst in [*small_draws(), *base_draws()]:
        si = expand_to_seats(inst)
        want: list = []
        states = scan_leaves(si, DEFAULT_BUDGET, lambda a, e, b: want.append(tuple(a)))
        for limit in sorted({states - 1, states // 2, 2}):
            if not 1 <= limit < states:
                continue
            budget = EnumerationBudget(max_states=limit)
            with pytest.raises(BudgetExceededError, match=BUDGET_ENV):
                Census(si, budget)
            got: list = []
            with pytest.raises(BudgetExceededError, match=BUDGET_ENV):
                got.extend(enumerate_matchings(si, budget))
            assert got == want[: len(got)]
            visited: list = []
            with pytest.raises(BudgetExceededError):
                scan_leaves(si, budget, lambda a, e, b: visited.append(tuple(a)))
            assert len(got) <= len(visited)
            budgets, yielded = budgets + 1, yielded + len(got)
    # unsliced, a level is one slice, so every state is counted before the
    # one block of leaves is built
    assert budgets == 524 and (yielded > 0 if sliced else yielded == 0)


def test_the_enumeration_takes_no_frame_per_patient():
    # 300 patients, of whom the last 3 are eligible for 3 unit categories:
    # 1 + 9 + 18 + 6 = 34 matchings, enumerated within 100 frames of the caller
    patients = tuple(f"p{i}" for i in range(300))
    categories = ("c0", "c1", "c2")
    inst = Problem(
        categories=categories,
        patients=patients,
        quota=dict.fromkeys(categories, 1),
        eligible=dict.fromkeys(categories, frozenset(patients[-3:])),
        beneficiary=dict.fromkeys(categories, frozenset(patients[-1:])),
    )
    si = expand_to_seats(inst)
    si.pair_codes, si.quotas  # built before the limit is lowered
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        rows = list(enumerate_matchings(si, EnumerationBudget(300, 300, 10**7)))
    finally:
        sys.setrecursionlimit(limit)
    assert len(rows) == len(set(rows)) == 34
    assert all(row[:297] == (-1,) * 297 for row in rows)


def census_peak_bytes_at_the_ceiling(quota: dict) -> int:
    """Peak traced bytes of a census of MAX_ORACLE_SIZE patients, all eligible
    for every category and every other one a beneficiary, that the state
    budget of 10^7 stops."""
    n = MAX_ORACLE_SIZE
    patients = tuple(f"p{i}" for i in range(n))
    half = frozenset(patients[::2])
    inst = Problem(
        categories=tuple(quota),
        patients=patients,
        quota=quota,
        eligible=dict.fromkeys(quota, frozenset(patients)),
        beneficiary=dict.fromkeys(quota, half),
    )
    si = expand_to_seats(inst)
    si.pair_codes, si.quotas  # the instance's own tables, built before measuring
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError):
            Census(si, EnumerationBudget(n, n, 10_000_000)).counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_enumeration_memory_stays_under_the_byte_cap_at_the_ceiling():
    # 3 choices a patient: the enumeration reaches leaves at depth 500
    # before the state budget binds
    n = MAX_ORACLE_SIZE
    assert census_peak_bytes_at_the_ceiling({"a": n // 2, "b": n - n // 2}) < oracle_module._BLOCK_BYTES


def test_enumeration_memory_stays_under_the_byte_cap_on_the_widest_branching():
    # 500 unit categories: a parent has up to 501 children, more than a
    # level's share of the bytes holds
    quota = {f"c{k}": 1 for k in range(MAX_ORACLE_SIZE)}
    assert census_peak_bytes_at_the_ceiling(quota) < oracle_module._BLOCK_BYTES


def test_enumerate_matchings_streams_its_blocks():
    # 130,922 matchings of 300 patients, of whom only the last 7 are eligible
    patients = tuple(f"p{i}" for i in range(300))
    categories = tuple(f"c{k}" for k in range(7))
    inst = Problem(
        categories=categories,
        patients=patients,
        quota=dict.fromkeys(categories, 1),
        eligible=dict.fromkeys(categories, frozenset(patients[-7:])),
        beneficiary={c: frozenset(patients[-3:]) for c in categories[:3]},
    )
    si = expand_to_seats(inst)
    si.pair_codes, si.quotas  # built before measuring
    tracemalloc.start()
    try:
        next(enumerate_matchings(si, EnumerationBudget(300, 300, 10**7)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < oracle_module._BLOCK_BYTES

    # the leaves alone are over this budget; the error follows the first blocks
    yielded = 0
    with pytest.raises(BudgetExceededError, match="state budget 100000 exceeded"):
        for _ in enumerate_matchings(si, EnumerationBudget(300, 300, 100_000)):
            yielded += 1
    assert yielded > 0
