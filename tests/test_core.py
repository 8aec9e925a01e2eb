from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tier_order
from reserve_frontier import (
    InstanceError,
    Matching,
    MatchingError,
    MatchPoint,
    Problem,
    beneficiary_share,
    dominates,
    expand_to_seats,
    match_point,
    rank_sum,
    respects_priority,
    restrict_patients,
    validate_matching,
)
from reserve_frontier.core import MAX_CELLS, MAX_SEATS
from reserve_frontier.frontier import compute_frontier


def tiny() -> Problem:
    return Problem(
        categories=("c1", "c2"),
        patients=("p1", "p2"),
        quota={"c1": 1, "c2": 1},
        eligible={"c1": frozenset({"p1"}), "c2": frozenset({"p1", "p2"})},
        beneficiary={"c2": frozenset({"p1"})},
    )


def test_validate_accepts_tiny_instance():
    inst = tiny()
    assert inst.eligible_of("c1") == frozenset({"p1"})
    assert inst.beneficiary_of("c1") == frozenset()
    assert inst.total_quota == 2


def test_validate_rejects_duplicate_ids():
    with pytest.raises(InstanceError):
        Problem(categories=("c1", "c1"), patients=("p1",), quota={"c1": 1}, eligible={}, beneficiary={})
    with pytest.raises(InstanceError):
        Problem(categories=("c1",), patients=("p1", "p1"), quota={"c1": 1}, eligible={}, beneficiary={})


def test_validate_rejects_bad_quota():
    with pytest.raises(InstanceError, match="positive"):
        Problem(categories=("c1",), patients=(), quota={"c1": 0}, eligible={}, beneficiary={})
    with pytest.raises(InstanceError):
        Problem(categories=("c1",), patients=(), quota={}, eligible={}, beneficiary={})


def test_validate_rejects_unknown_names():
    with pytest.raises(InstanceError):
        Problem(
            categories=("c1",),
            patients=("p1",),
            quota={"c1": 1},
            eligible={"c1": frozenset({"ghost"})},
            beneficiary={},
        )
    with pytest.raises(InstanceError, match="not eligible"):
        Problem(
            categories=("c1",),
            patients=("p1",),
            quota={"c1": 1},
            eligible={"c1": frozenset()},
            beneficiary={"c1": frozenset({"p1"})},
        )
    # sets keyed by a category that does not exist
    with pytest.raises(InstanceError):
        Problem(categories=("c1",), patients=(), quota={"c1": 1}, eligible={"cX": frozenset()}, beneficiary={})


def test_restrict_patients_keeps_categories_and_trims_sets():
    inst = tiny()
    sub = restrict_patients(inst, {"p2"})
    assert sub.categories == inst.categories
    assert sub.patients == ("p2",)
    assert sub.eligible_of("c2") == frozenset({"p2"})
    assert sub.beneficiary_of("c2") == frozenset()
    with pytest.raises(InstanceError):
        restrict_patients(inst, {"p9"})


def test_problem_requires_exact_fraction():
    inst = tiny()
    assert replace(inst, beta_star=Fraction(7, 10)).beta_star == Fraction(7, 10)
    with pytest.raises(TypeError):
        replace(inst, beta_star=0.7)
    # a bool is an int to Fraction, but no share: True once read as 1
    for flag in (True, False):
        with pytest.raises(TypeError, match=f"not {flag}"):
            replace(inst, beta_star=flag)
    with pytest.raises(InstanceError):
        replace(inst, beta_star=Fraction(11, 10))
    with pytest.raises(InstanceError):
        replace(inst, beta_star=Fraction(-1, 10))


def test_a_problem_validates_its_instance_on_construction():
    with pytest.raises(InstanceError, match="not in patient set"):
        Problem(categories=("c1",), patients=("p1",), quota={"c1": 1}, eligible={"c1": {"p9"}}, beneficiary={})


def test_problem_validates_its_priority_and_fills_in_the_tier_order():
    bare = tiny()
    assert bare.beta_star is None and bare.priority is None
    # without a priority, the priority layer ranks by the tier order
    tiered = replace(bare, priority=tier_order(bare))
    row = (-1, 1)  # p2 at c2#0
    assert rank_sum(bare, row) == rank_sum(tiered, row)
    # c2 seats p2 over the unmatched p1
    assert respects_priority(bare, row) == respects_priority(tiered, row) == [(1, 1, 0)]
    with pytest.raises(InstanceError, match="unknown category"):
        replace(bare, priority={"zz": bare.patients})


def test_expand_to_seats_unit_quotas():
    inst = Problem(
        categories=("c1",),
        patients=("p1", "p2"),
        quota={"c1": 3},
        eligible={"c1": frozenset({"p1", "p2"})},
        beneficiary={"c1": frozenset({"p2"})},
    )
    si = expand_to_seats(inst)
    assert si.seats == ("c1#0", "c1#1", "c1#2")
    assert all(si.category_of(s) == "c1" for s in si.seats)
    assert si.eligible_of(si.category_of("c1#1")) == frozenset({"p1", "p2"})
    assert si.beneficiary_of(si.category_of("c1#2")) == frozenset({"p2"})


def test_name_row_gives_each_category_its_seats_in_patient_order():
    inst = Problem(
        categories=("c1", "c2"),
        patients=("p1", "p2", "p3"),
        quota={"c1": 2, "c2": 1},
        eligible={"c1": frozenset({"p1", "p2", "p3"}), "c2": frozenset({"p1"})},
        beneficiary={"c1": frozenset({"p3"})},
    )
    si = expand_to_seats(inst)
    m = si.name_row((-1, 0, 0))
    assert m.pairs == (("p2", "c1#0"), ("p3", "c1#1"))
    assert match_point(si, validate_matching(si, m)) == MatchPoint(2, 1)
    assert si.name_row((1, -1, 0)).pairs == (("p1", "c2#0"), ("p3", "c1#0"))
    # a row that check_row refuses names no seat past a category's quota
    with pytest.raises(MatchingError, match="more patients in c1 than its quota of 2"):
        si.name_row((0, 0, 0))


def test_memory_limits_admit_every_exact_weight_shape_and_refuse_past_each_cap():
    def instance(n_patients: int, quota: int, n_beneficiaries: int = 0) -> Problem:
        patients = tuple(f"p{i}" for i in range(n_patients))
        eligible = {"c1": frozenset(patients)} if n_beneficiaries else {}
        beneficiary = {"c1": frozenset(patients[:n_beneficiaries])} if n_beneficiaries else {}
        return Problem(("c1",), patients, {"c1": quota}, eligible, beneficiary)

    def n_cubed_bound(n_patients: int, n_seats: int) -> int:
        # the largest n^3-weight sweep times the smaller side, which had to stay
        # below 2^53; an instance without patients was held to the one-patient limit
        n = max(n_patients, n_seats)
        return (n**3 + n**2 + n) * min(max(n_patients, 1), n_seats)

    # the extreme shapes that the n^3 sweep weights admitted are admitted
    extremes = ((9741, 9741), (1, 208_063), (0, 208_063), (208_063, 1), (10_000, 50))
    for n_patients, n_seats in extremes:
        assert n_cubed_bound(n_patients, n_seats) < 2**53
        assert n_seats <= MAX_SEATS and n_patients * n_seats <= MAX_CELLS
    assert n_cubed_bound(9742, 9742) >= 2**53 and n_cubed_bound(1, 208_064) >= 2**53
    assert MAX_CELLS == 9741 * (9741 + 9741)  # a 9,741 x 19,482 instance, about 1.7 GB of solve
    for n_patients, n_seats in ((1, MAX_SEATS), (0, MAX_SEATS), (9741, 9741), (208_063, 1)):
        assert len(expand_to_seats(instance(n_patients, n_seats)).seats) == n_seats

    # the first shape past each cap is refused before a seat is built
    for n_patients in (0, 1):
        with pytest.raises(InstanceError, match=f"{MAX_SEATS + 1} seat\\(s\\) exceed MAX_SEATS"):
            expand_to_seats(instance(n_patients, MAX_SEATS + 1))
    assert len(expand_to_seats(instance(9741, 2 * 9741)).seats) == 2 * 9741  # MAX_CELLS exactly
    with pytest.raises(InstanceError, match=f"9742 x 19482 = {9742 * 19482} cells exceed MAX_CELLS"):
        expand_to_seats(instance(9742, 2 * 9741))

    # every sweep that passes the cell check is exact: with n = max(P, S),
    # (2n + 3) min(P, S) <= 5 P S <= 5 MAX_CELLS; checked at the corners
    assert 5 * MAX_CELLS < 2**53
    for n_patients, n_seats in ((9741, 9741), (1, MAX_SEATS), (MAX_CELLS, 1), (9741, 2 * 9741)):
        assert (2 * max(n_patients, n_seats) + 3) * min(n_patients, n_seats) < 2**53

    # many patients, few seats, solved: 500,000 cells
    f = compute_frontier(expand_to_seats(instance(10_000, 50, n_beneficiaries=20)))
    assert f.points == (MatchPoint(50, 20),)


def test_matching_is_canonical_and_hashable():
    a = Matching(pairs=(("p2", "s2"), ("p1", "s1")))
    b = Matching(pairs=(("p1", "s1"), ("p2", "s2")))
    assert a == b
    assert hash(a) == hash(b)
    assert a.pairs == (("p1", "s1"), ("p2", "s2"))


def test_matching_rejects_reuse():
    with pytest.raises(MatchingError):
        Matching(pairs=(("p1", "s1"), ("p1", "s2")))
    with pytest.raises(MatchingError):
        Matching(pairs=(("p1", "s1"), ("p2", "s1")))


def test_validate_matching_checks_eligibility():
    si = expand_to_seats(tiny())
    ok = Matching(pairs=(("p1", "c1#0"), ("p2", "c2#0")))
    assert validate_matching(si, ok) is ok
    with pytest.raises(MatchingError):
        validate_matching(si, Matching(pairs=(("p2", "c1#0"),)))  # p2 not eligible at c1
    with pytest.raises(MatchingError):
        validate_matching(si, Matching(pairs=(("p9", "c1#0"),)))
    with pytest.raises(MatchingError):
        validate_matching(si, Matching(pairs=(("p1", "c9#0"),)))


def test_match_point_counts_beneficiaries():
    si = expand_to_seats(tiny())
    assert match_point(si, Matching(pairs=())) == MatchPoint(0, 0)
    assert match_point(si, Matching(pairs=(("p1", "c2#0"),))) == MatchPoint(1, 1)
    both = Matching(pairs=(("p1", "c1#0"), ("p2", "c2#0")))
    assert match_point(si, both) == MatchPoint(2, 0)


def test_share_and_domination():
    assert beneficiary_share(MatchPoint(2, 1)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        beneficiary_share(MatchPoint(0, 0))
    assert dominates(MatchPoint(2, 1), MatchPoint(1, 1))
    assert dominates(MatchPoint(2, 1), MatchPoint(2, 0))
    assert not dominates(MatchPoint(2, 1), MatchPoint(2, 1))
    assert not dominates(MatchPoint(1, 1), MatchPoint(2, 0))
    assert not dominates(MatchPoint(2, 0), MatchPoint(1, 1))


points = st.tuples(st.integers(0, 50), st.integers(0, 50)).map(lambda t: MatchPoint(*t))


@given(points, points)
@settings(max_examples=200, deadline=None)
def test_domination_is_a_strict_partial_order(a, b):
    assert not dominates(a, a)
    if dominates(a, b):
        assert not dominates(b, a)
