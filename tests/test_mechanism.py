from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

import reserve_frontier.cycles as cycles_module
from reserve_frontier.oracle import Census
from reserve_frontier import (
    BudgetExceededError,
    GenConfig,
    Instance,
    InstanceError,
    Matching,
    MatchPoint,
    NoNonEmptyMatchingError,
    PriorityOrder,
    Problem,
    ProblemWithOrder,
    audit_path_independence,
    audit_substitutability,
    beneficiary_share,
    compute_frontier,
    dominates,
    dominates_exact_share_matchings,
    enumerate_matchings,
    expand_to_seats,
    gen_named,
    gen_random,
    induce_choice,
    match_point,
    rank_sum,
    repair_priority,
    respects_priority,
    respects_share,
    select_approx_on_frontier,
    validate_instance,
    validate_priority,
    with_all_witnesses,
)


def test_selection_on_named_problems():
    # single frontier point (2,1) with share 1/2 < 7/10: fall back to it
    m, pt = select_approx_on_frontier(gen_named("beta-threshold"))
    assert pt == MatchPoint(2, 1)
    assert beneficiary_share(pt) == Fraction(1, 2)

    # share 1/5 is met exactly at the larger endpoint
    m, pt = select_approx_on_frontier(gen_named("path-independence"))
    assert pt == MatchPoint(5, 1)
    assert beneficiary_share(pt) == Fraction(1, 5)


def test_selection_picks_largest_qualifying_point():
    inst = gen_named("conflict")
    m, pt = select_approx_on_frontier(Problem(instance=inst, beta_star=Fraction(1, 3)))
    assert pt == MatchPoint(1, 1)
    m, pt = select_approx_on_frontier(Problem(instance=inst, beta_star=Fraction(0)))
    assert pt == MatchPoint(2, 0)
    m, pt = select_approx_on_frontier(Problem(instance=inst, beta_star=Fraction(1)))
    assert pt == MatchPoint(1, 1)
    si = expand_to_seats(inst)
    assert match_point(si, m) == pt


def test_selection_needs_an_eligible_pair():
    empty = validate_instance(
        Instance(categories=("c1",), patients=("p1",), quota={"c1": 1}, eligible={}, beneficiary={})
    )
    with pytest.raises(NoNonEmptyMatchingError):
        select_approx_on_frontier(Problem(instance=empty, beta_star=Fraction(1, 2)))


def unit_quota_draws():
    # 3/n eligibility leaves straight frontier segments, so most draws have
    # points that are not kinks
    return [
        gen_random(GenConfig(n, n, (1, 1), 3 / n, 0.5, seed=seed))
        for n in (20, 30, 40, 80)
        for seed in range(3)
    ]


def test_selection_witness_equals_the_whole_frontier_walk():
    interior = 0
    for inst in unit_quota_draws():
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        full = with_all_witnesses(si, f).witnesses
        for pt in f.points:
            if pt.e == 0:
                continue
            interior += pt not in f.kinks
            m, got = select_approx_on_frontier(Problem(instance=inst, beta_star=beneficiary_share(pt)))
            assert got == pt
            assert m == full[pt]
    assert interior >= 10


def test_selecting_a_kink_runs_no_cycle_search(monkeypatch):
    def forbidden(si, m):
        raise AssertionError("cycle search at a kink")

    monkeypatch.setattr(cycles_module, "find_minimal_cycle", forbidden)
    for inst in unit_quota_draws():
        f = compute_frontier(expand_to_seats(inst))
        for pt in f.kinks:
            if pt.e:
                pr = Problem(instance=inst, beta_star=beneficiary_share(pt))
                assert select_approx_on_frontier(pr)[0] == f.witnesses[pt]


def test_respects_share():
    assert respects_share(MatchPoint(2, 1), Fraction(1, 2))
    assert not respects_share(MatchPoint(3, 1), Fraction(1, 2))


def test_no_qualifying_matching_is_larger_than_the_selection():
    # whenever some frontier point meets the target, nothing meeting the
    # target can have more eligible matches than the selected point
    rng = Random(19)
    checked = 0
    for _ in range(60):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(1, 6),
                categories=rng.randint(1, 4),
                quota_range=(1, 2),
                eligibility_density=rng.choice([0.4, 0.8]),
                beneficiary_density=rng.choice([0.3, 0.7]),
                seed=rng.randint(0, 100_000),
            )
        )
        beta = Fraction(rng.randrange(0, 5), 4)
        si = expand_to_seats(inst)
        try:
            m, pt = select_approx_on_frontier(Problem(instance=inst, beta_star=beta))
        except NoNonEmptyMatchingError:
            continue
        if beneficiary_share(pt) < beta:
            continue  # fallback case: the guarantee is vacuous
        checked += 1
        for other in enumerate_matchings(si):
            opt = match_point(si, other)
            if opt.e > pt.e:
                assert beneficiary_share(opt) < beta
    assert checked >= 20


def test_exact_share_matchings_are_dominated():
    rng = Random(77)
    nonvacuous = 0
    for _ in range(80):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(2, 6),
                categories=rng.randint(1, 4),
                quota_range=(1, 2),
                eligibility_density=0.7,
                beneficiary_density=0.5,
                seed=rng.randint(0, 100_000),
            )
        )
        beta = Fraction(rng.randrange(0, 4), 3)
        pr = Problem(instance=inst, beta_star=beta)
        try:
            m, pt = select_approx_on_frontier(pr)
        except NoNonEmptyMatchingError:
            continue
        if beneficiary_share(pt) == beta:
            continue
        report = dominates_exact_share_matchings(pr, pt)
        assert report.ok, report.failures[:1]
        nonvacuous += report.witnesses_checked > 0
    assert nonvacuous >= 5


def test_exact_share_check_catches_an_undominated_rival():
    # p1 and p2 each have one beneficiary category: both matched gives (2, 2),
    # swapped gives (2, 0), and each single match gives (1, 1) or (1, 0)
    inst = validate_instance(
        Instance(
            categories=("a", "b"),
            patients=("p1", "p2"),
            quota={"a": 1, "b": 1},
            eligible={"a": frozenset({"p1", "p2"}), "b": frozenset({"p1", "p2"})},
            beneficiary={"a": frozenset({"p1"}), "b": frozenset({"p2"})},
        )
    )
    si = expand_to_seats(inst)
    scored = [match_point(si, m) for m in enumerate_matchings(si)]
    pr = Problem(instance=inst, beta_star=Fraction(1))
    selected = MatchPoint(2, 0)  # dominates none of the share-1 matchings
    exact = [pt for pt in scored if pt.e and beneficiary_share(pt) == pr.beta_star]
    escaped = [pt for pt in exact if not dominates(selected, pt)]
    assert len(exact) == 3 and len(escaped) == 3
    census = Census(si)
    for report in (
        dominates_exact_share_matchings(pr, selected),
        dominates_exact_share_matchings(pr, selected, census=census),
    ):
        assert not report.ok
        assert report.witnesses_checked == len(exact)
        assert len(report.failures) == len(escaped)
        assert "matching at MatchPoint(e=1, b=1) with exact share 1" in report.failures[0]
    # (2, 1) dominates both (1, 1) singles; only (2, 2) escapes it
    report = dominates_exact_share_matchings(pr, MatchPoint(2, 1), census=census)
    assert (report.witnesses_checked, len(report.failures)) == (3, 1)


def priority_fixture():
    inst = validate_instance(
        Instance(
            categories=("c1", "c2"),
            patients=("p1", "p2", "p3"),
            quota={"c1": 1, "c2": 1},
            eligible={"c1": frozenset({"p1", "p2", "p3"}), "c2": frozenset({"p2", "p3"})},
            beneficiary={"c1": frozenset({"p2"})},
        )
    )
    return inst


def test_from_tiers_orders_beneficiaries_first():
    inst = priority_fixture()
    po = PriorityOrder.from_tiers(inst)
    assert po.order["c1"] == ("p2", "p1", "p3")  # beneficiary, then eligible, then rest
    assert po.order["c2"] == ("p2", "p3", "p1")
    validate_priority(inst, po)
    assert po.rank("c1", "p2") == 1
    assert po.outranks("c1", "p2", "p3")


def test_validate_priority_rejects_bad_orders():
    inst = priority_fixture()
    with pytest.raises(InstanceError):
        validate_priority(inst, PriorityOrder(order={"c1": ("p1", "p2", "p3")}))  # c2 missing
    with pytest.raises(InstanceError):
        validate_priority(
            inst,
            PriorityOrder(order={"c1": ("p1", "p1", "p3"), "c2": ("p2", "p3", "p1")}),
        )
    # eligible non-beneficiary ahead of a beneficiary breaks the tier rule
    with pytest.raises(InstanceError):
        validate_priority(
            inst,
            PriorityOrder(order={"c1": ("p1", "p2", "p3"), "c2": ("p2", "p3", "p1")}),
        )


def test_rank_sum_by_hand():
    inst = priority_fixture()
    pwo = ProblemWithOrder(
        problem=Problem(instance=inst, beta_star=Fraction(0)),
        priority=PriorityOrder.from_tiers(inst),
    )
    m = Matching(pairs=(("p1", "c1#0"), ("p3", "c2#0")))
    # p1 is rank 2 in c1, p3 is rank 2 in c2
    assert rank_sum(pwo, m) == 4


def test_repair_swaps_in_the_outranking_patient():
    # one seat, no beneficiaries, priority prefers the unmatched patient
    inst = validate_instance(
        Instance(
            categories=("c1",),
            patients=("p1", "p2"),
            quota={"c1": 1},
            eligible={"c1": frozenset({"p1", "p2"})},
            beneficiary={},
        )
    )
    pwo = ProblemWithOrder(
        problem=Problem(instance=inst, beta_star=Fraction(0)),
        priority=PriorityOrder(order={"c1": ("p2", "p1")}),
    )
    m = Matching(pairs=(("p1", "c1#0"),))
    assert respects_priority(pwo, m) == [("c1", "p1", "p2")]
    fixed = repair_priority(pwo, m)
    assert fixed == Matching(pairs=(("p2", "c1#0"),))
    assert respects_priority(pwo, fixed) == []
    assert rank_sum(pwo, fixed) < rank_sum(pwo, m)
    si = expand_to_seats(inst)
    assert match_point(si, fixed) == match_point(si, m)


def test_repair_rejects_score_changing_swaps():
    # the only fix would swap a beneficiary in, changing the point
    inst = validate_instance(
        Instance(
            categories=("c1",),
            patients=("p1", "p2"),
            quota={"c1": 1},
            eligible={"c1": frozenset({"p1", "p2"})},
            beneficiary={"c1": frozenset({"p2"})},
        )
    )
    pwo = ProblemWithOrder(
        problem=Problem(instance=inst, beta_star=Fraction(0)),
        priority=PriorityOrder.from_tiers(inst),
    )
    dominated = Matching(pairs=(("p1", "c1#0"),))
    with pytest.raises(ValueError, match="not a frontier matching"):
        repair_priority(pwo, dominated)


def test_repair_preserves_selected_points_on_random_instances():
    rng = Random(13)
    repaired_any = False
    for _ in range(40):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(2, 6),
                categories=rng.randint(1, 4),
                quota_range=(1, 2),
                eligibility_density=0.7,
                beneficiary_density=0.4,
                seed=rng.randint(0, 100_000),
            )
        )
        pr = Problem(instance=inst, beta_star=Fraction(rng.randrange(0, 4), 3))
        try:
            m, pt = select_approx_on_frontier(pr)
        except NoNonEmptyMatchingError:
            continue
        # scramble within tiers deterministically to provoke violations
        base = PriorityOrder.from_tiers(inst)
        order = {}
        for c, ps in base.order.items():
            tiers = [
                [p for p in ps if p in inst.beneficiary_of(c)],
                [p for p in ps if p in inst.eligible_of(c) and p not in inst.beneficiary_of(c)],
                [p for p in ps if p not in inst.eligible_of(c)],
            ]
            shuffled = []
            for tier in tiers:
                rng.shuffle(tier)
                shuffled.extend(tier)
            order[c] = tuple(shuffled)
        pwo = ProblemWithOrder(problem=pr, priority=validate_priority(inst, PriorityOrder(order=order)))
        before = respects_priority(pwo, m)
        fixed = repair_priority(pwo, m)
        si = expand_to_seats(inst)
        assert match_point(si, fixed) == pt
        assert respects_priority(pwo, fixed) == []
        assert rank_sum(pwo, fixed) <= rank_sum(pwo, m)
        repaired_any = repaired_any or bool(before)
    assert repaired_any


def test_induced_choice_on_the_six_patient_problem():
    pr = gen_named("path-independence")
    assert induce_choice(pr, pr.instance.patients).chosen == frozenset(
        {"p1", "p2", "p3", "p5", "p6"}
    )
    cx = induce_choice(pr, ["p1", "p2", "p3", "p4", "p5"]).chosen
    assert cx in (
        frozenset({"p1", "p2", "p3", "p4"}),
        frozenset({"p1", "p2", "p4", "p5"}),
        frozenset({"p1", "p3", "p4", "p5"}),
    )
    assert induce_choice(pr, []).chosen == frozenset()


def test_audits_flag_the_designed_failure():
    pr = gen_named("path-independence")
    pi = audit_path_independence(pr)
    assert pi
    subs = audit_substitutability(pr)
    assert subs
    everyone = frozenset(pr.instance.patients)
    x = frozenset({"p1", "p2", "p3", "p4", "p5"})
    hits = [v for v in subs if v.x == everyone and v.x_prime == x]
    assert hits and hits[0].lhs == frozenset({"p1", "p2", "p3", "p5"})


def test_audits_pass_on_an_unconstrained_instance():
    # everyone always fits, so choice is the identity and both laws hold
    inst = validate_instance(
        Instance(
            categories=("c1",),
            patients=("p1", "p2", "p3"),
            quota={"c1": 3},
            eligible={"c1": frozenset({"p1", "p2", "p3"})},
            beneficiary={"c1": frozenset({"p1", "p2", "p3"})},
        )
    )
    pr = Problem(instance=inst, beta_star=Fraction(1))
    assert audit_path_independence(pr) == []
    assert audit_substitutability(pr) == []


def test_audit_respects_the_patient_cap():
    pr = gen_named("path-independence")
    with pytest.raises(BudgetExceededError):
        audit_path_independence(pr, max_patients=5)
    with pytest.raises(BudgetExceededError):
        audit_substitutability(pr, max_patients=5)
