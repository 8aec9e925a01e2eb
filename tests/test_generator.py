from __future__ import annotations

from fractions import Fraction

import pytest

from reserve_frontier import (
    NAMED_INSTANCES,
    GenConfig,
    gen_chain_family,
    gen_named,
    gen_random,
)


def test_registry_lists_all_named_instances():
    assert set(NAMED_INSTANCES) == {"conflict", "figure1", "beta-threshold", "path-independence"}
    with pytest.raises(ValueError):
        gen_named("nope")


def test_conflict_structure():
    pr = gen_named("conflict")
    assert pr.beta_star is None and pr.priority is None
    assert pr.quota == {"c1": 1, "c2": 1}
    assert pr.eligible_of("c1") == frozenset({"p1"})
    assert pr.eligible_of("c2") == frozenset({"p1", "p2"})
    assert pr.beneficiary_of("c2") == frozenset({"p1"})
    assert pr.beneficiary_of("c1") == frozenset()


def test_figure1_structure():
    pr = gen_named("figure1")
    assert pr.beta_star is None and pr.priority is None
    assert pr.eligible_of("c1") == frozenset({"p1", "p2"})
    assert pr.eligible_of("c2") == frozenset({"p2", "p3"})
    assert pr.eligible_of("c3") == frozenset({"p1"})
    assert all(not pr.beneficiary_of(c) for c in pr.categories)


def test_beta_threshold_structure():
    pr = gen_named("beta-threshold")
    assert pr.beta_star is not None and pr.priority is None
    assert pr.beta_star == Fraction(7, 10)
    assert pr.eligible_of("c1") == pr.beneficiary_of("c1") == frozenset({"p1"})
    assert pr.eligible_of("c2") == frozenset({"p2"})
    assert pr.beneficiary_of("c2") == frozenset()


def test_path_independence_structure():
    pr = gen_named("path-independence")
    assert pr.beta_star is not None and pr.priority is None
    assert pr.beta_star == Fraction(1, 5)
    assert pr.patients == ("p1", "p2", "p3", "p4", "p5", "p6")
    assert all(pr.quota[c] == 1 for c in pr.categories)
    assert pr.eligible_of("c1") == frozenset({"p1", "p2"})
    assert pr.beneficiary_of("c1") == frozenset({"p1"})
    assert pr.eligible_of("c2") == frozenset({"p2", "p3"})
    assert pr.eligible_of("c3") == frozenset({"p3", "p5"})
    assert pr.eligible_of("c4") == frozenset({"p4", "p6"})
    assert pr.beneficiary_of("c4") == frozenset({"p6"})
    assert pr.eligible_of("c5") == frozenset({"p1"})


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_family_structure(k):
    inst = gen_chain_family(k)
    n = k + 2
    assert len(inst.patients) == n and len(inst.categories) == n
    assert inst.eligible_of("c1") == frozenset({"p1", f"p{n}"})
    for i in range(2, n):
        assert inst.eligible_of(f"c{i}") == frozenset({f"p{i}", f"p{i - 1}"})
    assert inst.eligible_of(f"c{n}") == frozenset({f"p{n - 1}"})
    for i in range(1, n):
        assert inst.beneficiary_of(f"c{i}") == frozenset({f"p{i}"})
    assert inst.beneficiary_of(f"c{n}") == frozenset()


def test_chain_family_rejects_bad_k():
    with pytest.raises(ValueError):
        gen_chain_family(0)


def test_gen_random_is_deterministic_and_valid():
    cfg = GenConfig(patients=8, categories=4, quota_range=(1, 3), seed=5)
    a = gen_random(cfg)
    b = gen_random(cfg)
    assert a == b
    assert a != gen_random(GenConfig(patients=8, categories=4, quota_range=(1, 3), seed=6))
    assert len(a.patients) == 8 and len(a.categories) == 4


def test_gen_random_density_extremes():
    full = gen_random(GenConfig(patients=5, categories=3, eligibility_density=1.0, beneficiary_density=1.0, seed=1))
    for c in full.categories:
        assert full.eligible_of(c) == frozenset(full.patients)
        assert full.beneficiary_of(c) == frozenset(full.patients)
    none = gen_random(GenConfig(patients=5, categories=3, eligibility_density=0.01, beneficiary_density=0.0, seed=1))
    for c in none.categories:
        assert not none.beneficiary_of(c)


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(patients=-1, categories=2)
    with pytest.raises(ValueError):
        GenConfig(patients=1, categories=1, quota_range=(2, 1))
    with pytest.raises(ValueError):
        GenConfig(patients=1, categories=1, eligibility_density=0.0)
    with pytest.raises(ValueError):
        GenConfig(patients=1, categories=1, beneficiary_density=1.5)
