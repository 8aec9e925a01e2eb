from __future__ import annotations

from random import Random

import pytest

import reserve_frontier.cycles as cycles_module
from reserve_frontier import (
    Cycle,
    CycleError,
    DominatedInputError,
    GenConfig,
    Instance,
    Matching,
    MatchPoint,
    apply_cycle,
    beneficiary_loss,
    check_applicable,
    compute_frontier,
    expand_to_seats,
    find_minimal_cycle,
    frontier_walk,
    gen_chain_family,
    gen_named,
    gen_random,
    match_point,
    oracle_frontier,
    oracle_min_cycle_loss,
    sample_matchings_at_points,
    validate_instance,
)


def conflict_si():
    return expand_to_seats(gen_named("conflict").instance)


def test_cycle_validation():
    with pytest.raises(CycleError):
        Cycle(patients=("p1",), seats=())
    with pytest.raises(CycleError):
        Cycle(patients=("p1", "p1"), seats=("s1", "s2"))
    assert len(Cycle(patients=("p1",), seats=("s1",))) == 1


def test_applicability_and_application_on_conflict():
    si = conflict_si()
    m = Matching(pairs=(("p1", "c2#0"),))
    # p2 enters c2, pushing p1 over to c1
    c = Cycle(patients=("p2", "p1"), seats=("c2#0", "c1#0"))
    check_applicable(si, m, c)
    out = apply_cycle(si, m, c)
    assert match_point(si, out) == MatchPoint(2, 0)
    assert beneficiary_loss(si, m, c) == 1


def test_applicability_failures():
    si = conflict_si()
    m = Matching(pairs=(("p1", "c2#0"),))
    with pytest.raises(CycleError, match="is matched"):
        check_applicable(si, m, Cycle(patients=("p1",), seats=("c1#0",)))
    with pytest.raises(CycleError, match="not eligible"):
        check_applicable(si, m, Cycle(patients=("p2",), seats=("c1#0",)))
    with pytest.raises(CycleError, match="is filled"):
        check_applicable(si, m, Cycle(patients=("p2",), seats=("c2#0",)))
    # chain break: middle seat must hand over to the next patient
    full = Matching(pairs=(("p1", "c1#0"), ("p2", "c2#0")))
    with pytest.raises(CycleError):
        check_applicable(si, full, Cycle(patients=("p1", "p2"), seats=("c2#0", "c1#0")))


def test_minimal_cycle_on_conflict():
    si = conflict_si()
    m = Matching(pairs=(("p1", "c2#0"),))
    c = find_minimal_cycle(si, m)
    assert c is not None
    assert beneficiary_loss(si, m, c) == 1
    assert c.patients == ("p2", "p1") and c.seats == ("c2#0", "c1#0")
    # nothing larger than the full matching
    full = Matching(pairs=(("p1", "c1#0"), ("p2", "c2#0")))
    assert find_minimal_cycle(si, full) is None


def test_minimal_cycle_is_deterministic():
    inst = gen_random(GenConfig(patients=6, categories=4, quota_range=(1, 2), seed=12))
    si = expand_to_seats(inst)
    f = compute_frontier(si)
    m = f.witnesses[f.points[0]]
    if f.points[0] != f.points[-1]:
        cycles = {find_minimal_cycle(si, m) for _ in range(5)}
        assert len(cycles) == 1


def test_dominated_matching_is_rejected():
    si = conflict_si()
    # (1,0): dominated by both frontier points; a free zero-loss move exists
    m = Matching(pairs=(("p1", "c1#0"),))
    with pytest.raises(DominatedInputError):
        find_minimal_cycle(si, m)


def test_beneficiary_gaining_swap_loop_is_rejected():
    # p1 and p2 sit where they help nobody; swapping both would gain two
    # beneficiary matches, so the matching is dominated at equal size
    inst = validate_instance(
        Instance(
            categories=("c1", "c2", "c3"),
            patients=("p1", "p2", "p3"),
            quota={"c1": 1, "c2": 1, "c3": 1},
            eligible={
                "c1": frozenset({"p1", "p2", "p3"}),
                "c2": frozenset({"p1", "p2"}),
                "c3": frozenset({"p2"}),
            },
            beneficiary={"c1": frozenset({"p2"}), "c2": frozenset({"p1"})},
        )
    )
    si = expand_to_seats(inst)
    m = Matching(pairs=(("p1", "c1#0"), ("p2", "c2#0")))
    with pytest.raises(DominatedInputError):
        find_minimal_cycle(si, m)


def test_chain_family_single_cycle_costs_everything():
    for k in (1, 2, 3):
        si = expand_to_seats(gen_chain_family(k))
        f = compute_frontier(si)
        assert list(f.points) == [MatchPoint(k + 1, k + 1), MatchPoint(k + 2, 0)]
        m = f.witnesses[f.points[0]]
        c = find_minimal_cycle(si, m)
        assert c is not None
        assert beneficiary_loss(si, m, c) == k + 1
        assert len(c) == k + 2  # the cycle must ripple through every category


def test_walk_visits_the_whole_frontier():
    for name in ("conflict", "figure1", "path-independence"):
        si = expand_to_seats(gen_named(name).instance)
        f = compute_frontier(si)
        walk = frontier_walk(si, f.witnesses[f.points[0]])
        assert [pt for pt, _ in walk] == list(f.points)
        for pt, m in walk:
            assert match_point(si, m) == pt


def test_each_walk_step_applies_its_cycle_once(monkeypatch):
    applied = []
    original = cycles_module.apply_cycle

    def counting(si, m, c):
        applied.append(c)
        return original(si, m, c)

    monkeypatch.setattr(cycles_module, "apply_cycle", counting)
    monkeypatch.setattr(cycles_module, "beneficiary_loss", None)  # the walk must not call it
    for name in ("conflict", "figure1", "path-independence"):
        si = expand_to_seats(gen_named(name).instance)
        f = compute_frontier(si)
        applied.clear()
        walk = frontier_walk(si, f.witnesses[f.points[0]])
        assert len(applied) == len(walk) - 1
        assert [pt for pt, _ in walk] == list(f.points)


def test_walk_with_shrinking_losses_is_rejected(monkeypatch):
    # a conflict pair (loss 1) beside a two-step chain (loss 2); a search
    # that took the chain first would then lose less, which no frontier
    # walk can do
    inst = validate_instance(
        Instance(
            categories=("a1", "a2", "d1", "d2", "d3"),
            patients=("p1", "p2", "x1", "x2", "x3"),
            quota={c: 1 for c in ("a1", "a2", "d1", "d2", "d3")},
            eligible={
                "a1": frozenset({"p1"}),
                "a2": frozenset({"p1", "p2"}),
                "d1": frozenset({"x1", "x3"}),
                "d2": frozenset({"x1", "x2"}),
                "d3": frozenset({"x2"}),
            },
            beneficiary={"a2": frozenset({"p1"}), "d1": frozenset({"x1"}), "d2": frozenset({"x2"})},
        )
    )
    si = expand_to_seats(inst)
    start = Matching(pairs=(("p1", "a2#0"), ("x1", "d1#0"), ("x2", "d2#0")))
    assert [pt for pt, _ in frontier_walk(si, start)] == [(3, 3), (4, 2), (5, 0)]
    chain = Cycle(patients=("x3", "x1", "x2"), seats=("d1#0", "d2#0", "d3#0"))
    conflict = Cycle(patients=("p2", "p1"), seats=("a2#0", "a1#0"))
    forced = iter([chain, conflict])
    monkeypatch.setattr(cycles_module, "find_minimal_cycle", lambda si, m: next(forced, None))
    with pytest.raises(DominatedInputError, match="decreased"):
        frontier_walk(si, start)


def test_walk_from_dominated_start_is_rejected():
    si = conflict_si()
    with pytest.raises(DominatedInputError):
        frontier_walk(si, Matching(pairs=(("p1", "c1#0"),)))


def test_minimal_loss_matches_exhaustive_search():
    rng = Random(31)
    for _ in range(20):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(2, 6),
                categories=rng.randint(1, 4),
                quota_range=(1, 2),
                eligibility_density=rng.choice([0.4, 0.7]),
                beneficiary_density=rng.choice([0.3, 0.8]),
                seed=rng.randint(0, 100_000),
            )
        )
        si = expand_to_seats(inst)
        f = oracle_frontier(si)
        if f.points[-1].e == 0:
            continue
        samples, _ = sample_matchings_at_points(si, f.points, cap=10)
        for pt, ms in samples.items():
            for m in ms:
                want = oracle_min_cycle_loss(si, m)
                got = find_minimal_cycle(si, m)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert beneficiary_loss(si, m, got) == want
