from __future__ import annotations

import json
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

import reserve_frontier.cli as cli_module
import reserve_frontier.core as core_module
import reserve_frontier.cycles as cycles_module
import reserve_frontier.mechanism as mechanism_module
from conftest import tier_order
from reserve_frontier.mechanism import AUDIT_SHOWN, _select
from reserve_frontier.oracle import Census
from reserve_frontier.serialize import instance_to_json, matching_to_dict, share_str
from reserve_frontier.verify import _exact_share_domination
from reserve_frontier import (
    NAMED_INSTANCES,
    AuditViolation,
    BudgetExceededError,
    GenConfig,
    InstanceError,
    Matching,
    MatchingError,
    MatchPoint,
    NoNonEmptyMatchingError,
    Problem,
    audit_path_independence,
    audit_substitutability,
    beneficiary_share,
    choice_masks,
    compute_frontier,
    dominates,
    enumerate_matchings,
    expand_to_seats,
    gen_named,
    gen_random,
    match_point,
    rank_sum,
    repair_priority,
    respects_priority,
    restrict_patients,
    run_suites,
    select_approx_on_frontier,
    validate_matching,
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

    # a named problem without a share target cannot be selected on
    with pytest.raises(ValueError, match="beta_star"):
        select_approx_on_frontier(gen_named("conflict"))


def test_selection_picks_largest_qualifying_point():
    inst = gen_named("conflict")
    m, pt = select_approx_on_frontier(replace(inst, beta_star=Fraction(1, 3)))
    assert pt == MatchPoint(1, 1)
    m, pt = select_approx_on_frontier(replace(inst, beta_star=Fraction(0)))
    assert pt == MatchPoint(2, 0)
    row, pt = select_approx_on_frontier(replace(inst, beta_star=Fraction(1)))
    assert pt == MatchPoint(1, 1)
    si = expand_to_seats(inst)
    assert match_point(si, si.name_row(row)) == pt


def test_selection_needs_an_eligible_pair():
    empty = Problem(categories=("c1",), patients=("p1",), quota={"c1": 1}, eligible={}, beneficiary={})
    with pytest.raises(NoNonEmptyMatchingError):
        select_approx_on_frontier(replace(empty, beta_star=Fraction(1, 2)))


def unit_quota_draws():
    # 3/n eligibility leaves straight frontier segments, so most draws have
    # points that are not kinks
    return [
        gen_random(GenConfig(n, n, (1, 1), 3 / n, 0.5, seed=seed))
        for n in (20, 30, 40, 80)
        for seed in range(3)
    ]


def test_selection_witness_equals_with_all_witnesses():
    interior = 0
    for inst in unit_quota_draws():
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        full = with_all_witnesses(si, f).witnesses
        for pt in f.points:
            if pt.e == 0:
                continue
            interior += pt not in f.kinks
            row, got = select_approx_on_frontier(replace(inst, beta_star=beneficiary_share(pt)))
            assert got == pt
            assert row == full[pt]
    assert interior >= 10


def test_selection_and_all_witnesses_run_no_cycle_search(monkeypatch):
    def forbidden(*args):
        raise AssertionError("cycle search in production")

    for name in ("cheapest_cycle", "_cheapest", "frontier_walk"):
        monkeypatch.setattr(cycles_module, name, forbidden)
    interior = 0
    for inst in unit_quota_draws():
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        assert set(with_all_witnesses(si, f).witnesses) == set(f.points)
        for pt in f.points:
            if pt.e:
                interior += pt not in f.kinks
                row, got = select_approx_on_frontier(replace(inst, beta_star=beneficiary_share(pt)))
                assert got == pt
                if pt in f.kinks:
                    assert row == f.witnesses[pt]
    assert interior >= 10


def test_respects_share():
    assert beneficiary_share(MatchPoint(2, 1)) >= Fraction(1, 2)
    assert not beneficiary_share(MatchPoint(3, 1)) >= Fraction(1, 2)


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
            m, pt = select_approx_on_frontier(replace(inst, beta_star=beta))
        except NoNonEmptyMatchingError:
            continue
        if beneficiary_share(pt) < beta:
            continue  # fallback case: the guarantee is vacuous
        checked += 1
        for other in enumerate_matchings(si):
            opt = match_point(si, si.name_row(other))
            if opt.e > pt.e:
                assert beneficiary_share(opt) < beta
    assert checked >= 20


@pytest.mark.parametrize(
    "beta_star, selected",
    [(Fraction(10, 13), MatchPoint(26, 20)), (Fraction(2, 3), MatchPoint(27, 18))],
    ids=["kink", "between-kinks"],
)
def test_selection_names_only_the_witness_it_returns(beta_star, selected, monkeypatch, tmp_path, capsys):
    """Selection and repair name nothing, and neither does solve: it prints
    the witness's categories straight from its category row."""
    pr = replace(gen_random(GenConfig(30, 30, (1, 1), 0.1, 0.5, seed=1)), beta_star=beta_star)
    f = compute_frontier(pr)
    assert len(f.kinks) == 3 and (selected in f.kinks) == (selected == MatchPoint(26, 20))
    path = tmp_path / "draw.json"
    path.write_text(instance_to_json(pr))
    named, built = [], []
    name_row, post_init = core_module.Problem.name_row, core_module.Matching.__post_init__
    monkeypatch.setattr(core_module.Problem, "name_row", lambda self, row: named.append(1) or name_row(self, row))
    monkeypatch.setattr(core_module.Matching, "__post_init__", lambda self: built.append(1) or post_init(self))
    row, pt = select_approx_on_frontier(pr)
    fixed = repair_priority(pr, row)
    assert respects_priority(pr, fixed) == [] and (len(named), len(built)) == (0, 0)
    assert cli_module.main(["solve", str(path), "--respect-priority"]) == 0
    assert (len(named), len(built)) == (0, 0)
    assert capsys.readouterr().out == name_route_solve_stdout(pr, True)
    assert pt == selected and row == f.witnesses.get(pt, row) and match_point(pr, pr.name_row(row)) == pt


def test_selection_returns_the_frontier_witness_at_its_point():
    rng = Random(20)
    checked = between_kinks = 0
    for _ in range(360):
        patients = rng.randint(1, 50)
        inst = gen_random(
            GenConfig(
                patients=patients,
                categories=rng.randint(max(1, patients // 2), patients),
                quota_range=(1, rng.randint(1, 2)),
                eligibility_density=min(1.0, rng.choice([2, 3, 3, 5]) / patients),
                beneficiary_density=rng.choice([0.3, 0.5, 0.5]),
                seed=rng.randint(0, 100_000),
            )
        )
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        den = rng.randint(1, 12)
        beta_star = Fraction(rng.randint(0, den), den)
        between = [p for p in f.points if p not in f.kinks]
        if between and rng.random() < 0.75:  # the share of a point selects that point
            beta_star = beneficiary_share(rng.choice(between))
        pr = replace(inst, beta_star=beta_star)
        if f.e_max == 0:
            with pytest.raises(NoNonEmptyMatchingError):
                select_approx_on_frontier(pr)
            continue
        row, pt = select_approx_on_frontier(pr)
        qualifying = [p for p in f.points if beneficiary_share(p) >= beta_star]
        assert pt == (qualifying[-1] if qualifying else f.points[0]), inst
        assert row == with_all_witnesses(pr, f).witnesses[pt], inst
        checked += 1
        between_kinks += pt not in f.kinks
    assert checked >= 300 and between_kinks >= 30, (checked, between_kinks)


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
        pr = replace(inst, beta_star=beta)
        try:
            m, pt = select_approx_on_frontier(pr)
        except NoNonEmptyMatchingError:
            continue
        if beneficiary_share(pt) == beta:
            continue
        census = Census(pr)
        failure = _exact_share_domination(pr.beta_star, pt, census)
        assert not failure, failure
        nonvacuous += any(p.e and beneficiary_share(p) == beta for p in census.counts)
    assert nonvacuous >= 5


def test_exact_share_check_catches_an_undominated_rival():
    # p1 and p2 each have one beneficiary category: both matched gives (2, 2),
    # swapped gives (2, 0), and each single match gives (1, 1) or (1, 0)
    inst = Problem(
        categories=("a", "b"),
        patients=("p1", "p2"),
        quota={"a": 1, "b": 1},
        eligible={"a": frozenset({"p1", "p2"}), "b": frozenset({"p1", "p2"})},
        beneficiary={"a": frozenset({"p1"}), "b": frozenset({"p2"})},
    )
    si = expand_to_seats(inst)
    scored = [match_point(si, si.name_row(row)) for row in enumerate_matchings(si)]
    pr = replace(inst, beta_star=Fraction(1))
    selected = MatchPoint(2, 0)  # dominates none of the share-1 matchings
    exact = [pt for pt in scored if pt.e and beneficiary_share(pt) == pr.beta_star]
    escaped = [pt for pt in exact if not dominates(selected, pt)]
    assert len(exact) == 3 and len(escaped) == 3
    census = Census(si)
    assert sum(n for pt, n in census.counts.items() if pt.e and beneficiary_share(pt) == 1) == len(exact)
    failure = _exact_share_domination(pr.beta_star, selected, census)
    # the first undominated point in enumeration order is reported
    assert "matching at MatchPoint(e=1, b=1) with exact share 1 is not dominated" in failure
    # (2, 1) dominates both (1, 1) singles; only (2, 2) escapes it
    failure = _exact_share_domination(pr.beta_star, MatchPoint(2, 1), census)
    assert "matching at MatchPoint(e=2, b=2)" in failure


def priority_fixture():
    return Problem(
        categories=("c1", "c2"),
        patients=("p1", "p2", "p3"),
        quota={"c1": 1, "c2": 1},
        eligible={"c1": frozenset({"p1", "p2", "p3"}), "c2": frozenset({"p2", "p3"})},
        beneficiary={"c1": frozenset({"p2"})},
    )


def test_from_tiers_orders_beneficiaries_first():
    inst = priority_fixture()
    po = tier_order(inst)
    assert po["c1"] == ("p2", "p1", "p3")  # beneficiary, then eligible, then rest
    assert po["c2"] == ("p2", "p3", "p1")
    assert replace(inst, priority=po).priority == po  # validated: the tiers hold


def test_validate_priority_rejects_bad_orders():
    inst = priority_fixture()
    with pytest.raises(InstanceError):
        replace(inst, priority={"c1": ("p1", "p2", "p3")})  # c2 missing
    with pytest.raises(InstanceError):
        replace(inst, priority={"c1": ("p1", "p1", "p3"), "c2": ("p2", "p3", "p1")})
    # eligible non-beneficiary ahead of a beneficiary breaks the tier rule
    with pytest.raises(InstanceError):
        replace(inst, priority={"c1": ("p1", "p2", "p3"), "c2": ("p2", "p3", "p1")})


def test_rank_sum_by_hand():
    inst = priority_fixture()
    pwo = replace(
        inst,
        beta_star=Fraction(0),
        priority=tier_order(inst),
    )
    row = (0, -1, 1)  # p1 at c1#0, p3 at c2#0
    # p1 is rank 2 in c1, p3 is rank 2 in c2
    assert rank_sum(pwo, row) == 4


def test_repair_swaps_in_the_outranking_patient():
    # one seat, no beneficiaries, priority prefers the unmatched patient
    inst = Problem(
        categories=("c1",),
        patients=("p1", "p2"),
        quota={"c1": 1},
        eligible={"c1": frozenset({"p1", "p2"})},
        beneficiary={},
    )
    pwo = replace(
        inst,
        beta_star=Fraction(0),
        priority={"c1": ("p2", "p1")},
    )
    row = (0, -1)  # p1 at c1#0
    assert respects_priority(pwo, row) == [(0, 0, 1)]  # c1 seats p1 over p2
    fixed = repair_priority(pwo, row)
    assert fixed == (-1, 0)
    assert respects_priority(pwo, fixed) == []
    assert rank_sum(pwo, fixed) < rank_sum(pwo, row)
    si = expand_to_seats(inst)
    assert match_point(si, si.name_row(fixed)) == match_point(si, si.name_row(row))


def test_repair_rejects_score_changing_swaps():
    # the only fix would swap a beneficiary in, changing the point
    inst = Problem(
        categories=("c1",),
        patients=("p1", "p2"),
        quota={"c1": 1},
        eligible={"c1": frozenset({"p1", "p2"})},
        beneficiary={"c1": frozenset({"p2"})},
    )
    pwo = replace(
        inst,
        beta_star=Fraction(0),
        priority=tier_order(inst),
    )
    dominated = (0, -1)  # p1 at c1#0
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
        pr = replace(inst, beta_star=Fraction(rng.randrange(0, 4), 3))
        try:
            row, pt = select_approx_on_frontier(pr)
        except NoNonEmptyMatchingError:
            continue
        # scramble within tiers deterministically to provoke violations
        base = tier_order(inst)
        order = {}
        for c, ps in base.items():
            tiers = [
                [p for p in ps if p in inst.beneficiary[c]],
                [p for p in ps if p in inst.eligible[c] and p not in inst.beneficiary[c]],
                [p for p in ps if p not in inst.eligible[c]],
            ]
            shuffled = []
            for tier in tiers:
                rng.shuffle(tier)
                shuffled.extend(tier)
            order[c] = tuple(shuffled)
        pwo = replace(pr, priority=order)
        before = respects_priority(pwo, row)
        fixed = repair_priority(pwo, row)
        si = expand_to_seats(inst)
        assert match_point(si, si.name_row(fixed)) == pt
        assert respects_priority(pwo, fixed) == []
        assert rank_sum(pwo, fixed) <= rank_sum(pwo, row)
        repaired_any = repaired_any or bool(before)
    assert repaired_any


def reference_order(pr):
    return pr.priority if pr.priority is not None else tier_order(pr)


def reference_rank(po, c, p):
    return po[c].index(p) + 1


def reference_respects_priority(pr, m):
    """The full scan: every assigned patient against every unmatched one."""
    po = reference_order(pr)
    si = expand_to_seats(pr)
    matched = {p for p, _ in m.pairs}
    unmatched = [p for p in pr.patients if p not in matched]
    out = []
    for p, s in m.pairs:
        c = si.category_of(s)
        rp = reference_rank(po, c, p)
        out += [(c, p, q) for q in unmatched if reference_rank(po, c, q) < rp]
    return sorted(out)


def reference_repair_priority(pr, m):
    """One full scan per swap; each swap takes the min-key violation."""
    po = reference_order(pr)
    si = expand_to_seats(pr)
    target = match_point(si, m)
    cat_pos = {c: i for i, c in enumerate(pr.categories)}
    while True:
        violations = reference_respects_priority(pr, m)
        if not violations:
            return m
        c, p, q = min(
            violations,
            key=lambda v: (
                cat_pos[v[0]], reference_rank(po, v[0], v[2]), -reference_rank(po, v[0], v[1])
            ),
        )
        assignment = dict(m.pairs)
        assignment[q] = assignment.pop(p)
        m = Matching(tuple(assignment.items()))
        if match_point(si, m) != target:
            raise ValueError(
                "input was not a frontier matching: a priority swap changed its score"
            )


def shuffled_admissible_order(inst, rng):
    order = {}
    for c in inst.categories:
        bene, elig = inst.beneficiary[c], inst.eligible[c]
        tiers = [
            [p for p in inst.patients if p in bene],
            [p for p in inst.patients if p in elig and p not in bene],
            [p for p in inst.patients if p not in elig],
        ]
        order[c] = tuple(p for tier in tiers for p in rng.sample(tier, len(tier)))
    return order


def random_matching(inst, rng):
    """The category row of an eligible matching: each drawn patient takes a
    random free seat it is eligible for."""
    si = expand_to_seats(inst)
    free, pairs = set(si.seats), []
    for p in rng.sample(inst.patients, rng.randint(0, len(inst.patients))):
        options = [s for s in si.seats if s in free and p in si.eligible[si.category_of(s)]]
        if options:
            s = rng.choice(options)
            free.remove(s)
            pairs.append((p, s))
    row = [-1] * len(si.patients)
    for p, s in pairs:
        row[si.patient_index[p]] = inst.categories.index(si.category_of(s))
    return tuple(row)


def reference_rank_sum(pr, m):
    po, si = reference_order(pr), expand_to_seats(pr)
    return sum(reference_rank(po, si.category_of(s), p) for p, s in m.pairs)


def placements(si, m):
    """The (patient, category) pairs of a named matching."""
    return sorted((p, si.category_of(s)) for p, s in m.pairs)


def assert_priority_layer_matches_reference(pr, row):
    """The repaired category row, or None when both repairs refuse row.  The
    reference scans work on the named matching."""
    m = pr.name_row(row)
    cats, pats = pr.categories, pr.patients
    named = sorted((cats[c], pats[p], pats[q]) for c, p, q in respects_priority(pr, row))
    assert named == reference_respects_priority(pr, m)
    assert rank_sum(pr, row) == reference_rank_sum(pr, m)
    try:
        want = reference_repair_priority(pr, m)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            repair_priority(pr, row)
        return None
    got = repair_priority(pr, row)
    assert placements(pr, pr.name_row(got)) == placements(pr, want)
    assert rank_sum(pr, got) == reference_rank_sum(pr, want)
    return got


def test_priority_layer_matches_the_full_scan_on_random_matchings():
    rng = Random(2025)
    flagged = swapped = 0
    for _ in range(300):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(1, 8),
                categories=rng.randint(1, 5),
                quota_range=(1, 3),
                eligibility_density=rng.choice([0.2, 0.5, 0.9]),
                beneficiary_density=0.5,
                seed=rng.randint(0, 100_000),
            )
        )
        for priority in (None, shuffled_admissible_order(inst, rng)):
            pr = replace(inst, beta_star=Fraction(1, 2), priority=priority)
            row = random_matching(inst, rng)
            flagged += bool(reference_respects_priority(pr, pr.name_row(row)))
            fixed = assert_priority_layer_matches_reference(pr, row)
            swapped += fixed is not None and fixed != row
    assert flagged > 100 and swapped > 20


def two_categories():
    inst = Problem(
        categories=("c1", "c2"),
        patients=("p1", "p2", "p3"),
        quota={"c1": 1, "c2": 1},
        eligible={"c1": frozenset({"p2", "p3"}), "c2": frozenset({"p3"})},
        beneficiary={},
    )
    return inst, {"c1": ("p2", "p3", "p1"), "c2": ("p3", "p1", "p2")}


def one_category_of_quota_two():
    inst = Problem(
        categories=("c1",),
        patients=("p1", "p2", "p3"),
        quota={"c1": 2},
        eligible={"c1": frozenset({"p1", "p2", "p3"})},
        beneficiary={},
    )
    return inst, {"c1": ("p3", "p1", "p2")}


@pytest.mark.parametrize(
    "instance, row, pairs, message",
    [
        (two_categories, (0, -1, -1), (("p1", "c1#0"),), "patient p1 not eligible for (category c1|seat c1#0)"),
        (two_categories, (-1, 2, -1), (("p2", "c9#0"),), "category index 2 outside \\[-1, 2\\)|unknown seat c9#0"),
        (two_categories, (-1, -2, -1), None, "category index -2 outside \\[-1, 2\\)"),
        (two_categories, (-1, 0), None, "one entry per patient: 2 for 3"),
        (two_categories, (-1, 0, -1, -1), None, "one entry per patient: 4 for 3"),
        # two patients on the one seat of c1
        (two_categories, (-1, 0, 0), (("p2", "c1#0"), ("p3", "c1#0")),
         "more patients in c1 than its quota of 1|seat c1#0 assigned more than one"),
        (one_category_of_quota_two, (0, 0, 0), (("p1", "c1#0"), ("p2", "c1#1"), ("p3", "c1#2")),
         "more patients in c1 than its quota of 2|unknown seat c1#2"),
    ],
    ids=["ineligible", "unknown-seat", "below-minus-one", "short", "long", "seat-twice", "over-quota"],
)
def test_priority_layer_refuses_a_pair_it_cannot_rank(instance, row, pairs, message):
    """A row that is not a matching of the instance is refused by each
    priority function; a named pair list is refused by validate_matching
    or the Matching constructor with the same fault."""
    inst, order = instance()
    for priority in (None, order):
        pr = replace(inst, beta_star=Fraction(0), priority=priority)
        for fn in (rank_sum, respects_priority, repair_priority):
            with pytest.raises(MatchingError, match=message):
                fn(pr, row)
    if pairs is not None:
        with pytest.raises(MatchingError, match=message):
            validate_matching(pr, Matching(pairs=pairs))


def name_route_solve_stdout(pr: Problem, respect: bool) -> str:
    """What solve prints, built on names: select_approx_on_frontier, then
    repair_priority and respects_priority, then matching_to_dict."""
    row, pt = select_approx_on_frontier(pr)
    if respect:
        row = repair_priority(pr, row)
    out = matching_to_dict(pr, row)
    out["target"] = share_str(pr.beta_star)
    if respect:
        out["priority_violations"] = len(respects_priority(pr, row))
    summary = f"e={pt.e} b={pt.b} beta={share_str(beneficiary_share(pt))} target={share_str(pr.beta_star)}"
    return json.dumps(out, indent=2, sort_keys=True) + "\n" + summary + "\n"


def test_solve_prints_the_name_route_on_seat_rows(tmp_path, capsys):
    """solve and solve --respect-priority repair and count on the selected
    category row; their stdout is the name route's, byte for byte."""
    rng = Random(2107)
    problems = []
    for _ in range(200):
        patients = rng.randint(1, 12)
        inst = gen_random(
            GenConfig(
                patients, rng.randint(1, 6), (1, 3), rng.choice([0.2, 0.4, 0.7]), rng.choice([0.2, 0.5, 0.8]),
                seed=rng.randint(0, 10**5),
            )
        )
        beta = Fraction(rng.randrange(6), 5)
        pr = replace(inst, beta_star=beta)
        problems += [pr, replace(pr, priority=shuffled_admissible_order(pr, rng))]
    walk = replace(gen_random(GenConfig(320, 320, (1, 1), 3 / 320, 0.5, seed=1)), beta_star=Fraction(1, 2))
    problems += [walk, replace(walk, priority=shuffled_admissible_order(walk, rng))]
    path, compared, swapped = tmp_path / "draw.json", Counter(), 0
    for pr in problems:
        path.write_text(instance_to_json(pr))
        try:
            swapped += bool(respects_priority(pr, select_approx_on_frontier(pr)[0]))
            wants = [name_route_solve_stdout(pr, respect) for respect in (False, True)]
        except NoNonEmptyMatchingError:
            wants = [None, None]
        for respect, want in zip((False, True), wants):
            code = cli_module.main(["solve", str(path), *(["--respect-priority"] if respect else [])])
            out, err = capsys.readouterr()
            if want is None:
                assert (code, out, err) == (2, "", "error: no non-empty matching exists\n")
            else:
                assert (code, out, err) == (0, want, "")
                compared[pr.priority is None, respect] += 1
    assert min(compared.values()) >= 150 and swapped >= 40, (compared, swapped)


def test_rank_tables_are_built_once_per_problem(monkeypatch):
    builds = []
    original = core_module._build_rank_rows

    def counting(pr):
        builds.append(pr)
        return original(pr)

    monkeypatch.setattr(core_module, "_build_rank_rows", counting)
    inst = gen_random(GenConfig(7, 4, (1, 2), 0.6, 0.5, seed=5))
    for priority in (None, tier_order(inst)):
        builds.clear()
        pr = replace(inst, beta_star=Fraction(1, 2), priority=priority)
        row, _ = select_approx_on_frontier(pr)
        fixed = repair_priority(pr, row)
        assert respects_priority(pr, fixed) == [] and rank_sum(pr, fixed) <= rank_sum(pr, row)
        assert all(r.ok for r in run_suites(pr, ("mechanism",)))
        assert len(builds) == 1
        with pytest.raises(MatchingError):  # each call still checks its row
            respects_priority(pr, (len(pr.categories),) + row[1:])


def test_priority_layer_matches_the_full_scan_on_frontier_matchings():
    rng = Random(31)
    swapped = 0
    for _ in range(60):
        inst = gen_random(
            GenConfig(
                rng.randint(3, 9), rng.randint(1, 5), (1, 2), 0.6, 0.4, seed=rng.randint(0, 10**5)
            )
        )
        for priority in (None, shuffled_admissible_order(inst, rng)):
            pr = replace(inst, beta_star=Fraction(rng.randrange(4), 3), priority=priority)
            try:
                row, _ = select_approx_on_frontier(pr)
            except NoNonEmptyMatchingError:
                continue
            swapped += assert_priority_layer_matches_reference(pr, row) != row
    assert swapped > 5


def test_priority_layer_matches_the_full_scan_on_the_solve_walk_draw():
    # the solve-walk base draw: 320 x 320, quota 1, elig 3/320, bene 0.5, seed 1
    inst = gen_random(GenConfig(320, 320, (1, 1), 3 / 320, 0.5, seed=1))
    pr = replace(inst, beta_star=Fraction(1, 2))
    row, _ = select_approx_on_frontier(pr)
    assert reference_respects_priority(pr, pr.name_row(row))
    fixed = assert_priority_layer_matches_reference(pr, row)
    assert respects_priority(pr, fixed) == []


def test_induced_choice_on_the_six_patient_problem():
    pr = gen_named("path-independence")
    patients, masks = choice_masks(pr)
    assert patients == pr.patients

    def chosen(subset):
        return unmask(patients, masks[sum(1 << patients.index(p) for p in subset)])

    assert chosen(pr.patients) == frozenset({"p1", "p2", "p3", "p5", "p6"})
    assert chosen(["p1", "p2", "p3", "p4", "p5"]) in (
        frozenset({"p1", "p2", "p3", "p4"}),
        frozenset({"p1", "p2", "p4", "p5"}),
        frozenset({"p1", "p3", "p4", "p5"}),
    )
    assert chosen([]) == frozenset()


def test_audits_flag_the_designed_failure():
    pr = gen_named("path-independence")
    patients, masks = choice_masks(pr)
    pi, _ = audit_path_independence(patients, masks)
    assert pi
    subs, first = audit_substitutability(patients, masks)
    assert subs == len(first) == 3
    everyone = frozenset(pr.patients)
    x = frozenset({"p1", "p2", "p3", "p4", "p5"})
    hits = [v for v in first if v.x == everyone and v.x_prime == x]
    assert hits and hits[0].lhs == frozenset({"p1", "p2", "p3", "p5"})


def test_audits_pass_on_an_unconstrained_instance():
    # everyone always fits, so choice is the identity and both laws hold
    inst = Problem(
        categories=("c1",),
        patients=("p1", "p2", "p3"),
        quota={"c1": 3},
        eligible={"c1": frozenset({"p1", "p2", "p3"})},
        beneficiary={"c1": frozenset({"p1", "p2", "p3"})},
    )
    patients, masks = choice_masks(replace(inst, beta_star=Fraction(1)))
    assert masks.tolist() == list(range(8))
    assert audit_path_independence(patients, masks) == (0, [])
    assert audit_substitutability(patients, masks) == (0, [])


def test_audit_respects_the_patient_cap(monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("an audit over the patient cap solved a subset")

    monkeypatch.setattr(mechanism_module, "_select", no_enumeration)
    pr = replace(gen_random(GenConfig(15, 4, (1, 2), 0.5, seed=3)), beta_star=Fraction(1, 3))
    with pytest.raises(BudgetExceededError, match="MAX_AUDIT_PATIENTS = 14"):
        choice_masks(pr)


# The choice rule and the audits as they stood before choice_masks: one
# restricted instance, Problem, expansion and selection per subset, and
# every violation kept in a list.  Kept here only as the reference.
def reference_choice_masks(pr):
    patients = pr.patients
    beta_star = Fraction(0) if pr.beta_star is None else pr.beta_star
    masks = []
    for x in range(1 << len(patients)):
        sub = restrict_patients(pr, unmask(patients, x))
        try:
            row, _ = select_approx_on_frontier(replace(sub, beta_star=beta_star))
        except NoNonEmptyMatchingError:
            row = ()
        chosen = [p for p, j in zip(sub.patients, row) if j >= 0]
        masks.append(sum(1 << patients.index(p) for p in chosen))
    return masks


def unmask(patients, mask):
    return frozenset(p for i, p in enumerate(patients) if mask >> i & 1)


def violation(patients, *masks):
    return AuditViolation(*(unmask(patients, m) for m in masks))


def reference_path_independence(patients, masks):
    out = []
    for x in range(len(masks)):
        for xp in range(len(masks)):
            left, right = masks[x | xp], masks[masks[x] | xp]
            if left != right:
                out.append(violation(patients, x, xp, left, right))
    return out


def reference_substitutability(patients, masks):
    out = []
    for x in range(len(masks)):
        xp = x
        while True:
            kept = masks[x] & xp
            if kept & ~masks[xp]:
                out.append(violation(patients, x, xp, kept, masks[xp]))
            if xp == 0:
                break
            xp = (xp - 1) & x
    return out


# the draw on which two witnesses gave 528 / 43 and 418 / 30 violations; the
# witness built from the kink rows gives 528 / 43
TIE_DRAW = GenConfig(7, 5, (1, 1), 0.5, 0.3, seed=5067)
A12 = GenConfig(12, 4, (1, 2), 0.5, seed=3)


def audit_problems():
    """The named problems, then 40 seeded draws of 2-8 patients and the tie
    draw, each at the share targets 0, 1/5, 1/2 and 1."""
    yield from (gen_named(name) for name in NAMED_INSTANCES)
    rng = Random(13)
    draws = [
        GenConfig(
            patients=rng.randint(2, 8),
            categories=rng.randint(1, 5),
            quota_range=(1, rng.randint(1, 2)),
            eligibility_density=rng.choice([0.3, 0.5, 0.8]),
            beneficiary_density=rng.choice([0.2, 0.5, 0.9]),
            seed=rng.randint(0, 100_000),
        )
        for _ in range(40)
    ]
    for cfg in [*draws, TIE_DRAW]:
        inst = gen_random(cfg)
        yield from (replace(inst, beta_star=t) for t in (Fraction(0), Fraction(1, 5), Fraction(1, 2), Fraction(1)))


def test_choice_masks_and_audits_match_the_per_subset_route():
    for pr in audit_problems():
        patients, masks = choice_masks(pr)
        want = reference_choice_masks(pr)
        assert masks.tolist() == want, pr
        for audit, reference in (
            (audit_path_independence, reference_path_independence),
            (audit_substitutability, reference_substitutability),
        ):
            violations = reference(patients, want)
            assert audit(patients, masks) == (len(violations), violations[:AUDIT_SHOWN]), pr


def test_audit_counts_on_the_tie_draw_and_a12():
    patients, masks = choice_masks(replace(gen_random(TIE_DRAW), beta_star=Fraction(1, 5)))
    assert audit_path_independence(patients, masks)[0] == 528
    assert audit_substitutability(patients, masks)[0] == 43

    pr = replace(gen_random(A12), beta_star=Fraction(1, 3))
    patients, masks = choice_masks(pr)
    assert masks.tolist() == reference_choice_masks(pr)
    # never build the reference path-independence list here: it held 2.4 M
    # violations and took 6.95 GB
    assert audit_path_independence(patients, masks)[0] == 2_346_493
    assert audit_substitutability(patients, masks)[0] == 15_218


def ira_holds(masks):
    """Irrelevance of rejected alternatives: C(X - {x}) = C(X) for every x in X - C(X)."""
    for x, chosen in enumerate(masks):
        rejected = x & ~chosen
        for i in range(len(masks).bit_length() - 1):
            if rejected >> i & 1 and masks[x ^ (1 << i)] != chosen:
                return False
    return True


def test_path_independence_is_substitutability_plus_ira():
    # a choice rule is path-independent if and only if it is substitutable
    # and satisfies IRA (Aizerman and Malishevski, 1981)
    verdicts = Counter()
    for pr in audit_problems():
        patients, masks = choice_masks(pr)
        pi = audit_path_independence(patients, masks)[0] == 0
        subs = audit_substitutability(patients, masks)[0] == 0
        ira = ira_holds(masks.tolist())
        assert pi == (subs and ira), pr
        verdicts[pi, subs, ira] += 1
    # no draw seen so far fails IRA while substitutable, so only one side
    # of the conjunction is seen failing alone
    assert verdicts[True, True, True], "no path-independent case"
    assert verdicts[False, False, True], "no case where substitutability alone fails"
