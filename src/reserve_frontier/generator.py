"""Instance generators: seeded random draws and small named worked instances.

Random generation is deterministic per seed.  Degenerate draws (a patient
eligible nowhere, a category with no eligible patients) are kept, not
resampled; they exercise empty-row handling downstream.  Generated
instances are valid by construction and come back unchecked; a Problem
validates its instance when it is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .core import Instance, Problem

NAMED_INSTANCES = ("conflict", "figure1", "beta-threshold", "path-independence")


@dataclass(frozen=True)
class GenConfig:
    patients: int
    categories: int
    quota_range: tuple[int, int] = (1, 1)
    eligibility_density: float = 0.5
    beneficiary_density: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.patients < 0 or self.categories < 0:
            raise ValueError("patients and categories must be non-negative")
        lo, hi = self.quota_range
        if not (isinstance(lo, int) and isinstance(hi, int) and 1 <= lo <= hi):
            raise ValueError(f"bad quota range {self.quota_range}")
        if not 0 < self.eligibility_density <= 1:
            raise ValueError("eligibility_density must be in (0, 1]")
        if not 0 <= self.beneficiary_density <= 1:
            raise ValueError("beneficiary_density must be in [0, 1]")


def gen_random(cfg: GenConfig) -> Instance:
    """Draw a random instance; the same config always yields the same instance."""
    rng = random.Random(cfg.seed)
    patients = tuple(f"p{i}" for i in range(1, cfg.patients + 1))
    categories = tuple(f"c{j}" for j in range(1, cfg.categories + 1))
    quota = {c: rng.randint(*cfg.quota_range) for c in categories}
    eligible: dict[str, frozenset[str]] = {}
    beneficiary: dict[str, frozenset[str]] = {}
    for c in categories:
        elig = [p for p in patients if rng.random() < cfg.eligibility_density]
        bene = [p for p in elig if rng.random() < cfg.beneficiary_density]
        eligible[c] = frozenset(elig)
        beneficiary[c] = frozenset(bene)
    return Instance(
        categories=categories,
        patients=patients,
        quota=quota,
        eligible=eligible,
        beneficiary=beneficiary,
    )


def gen_chain_family(k: int) -> Instance:
    """Displacement-chain instance with K+2 patients and K+2 unit categories.

    Matching everyone forces a chain of displacements that destroys every
    beneficiary match: the frontier is exactly {(K+1, K+1), (K+2, 0)}.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    n = k + 2
    patients = tuple(f"p{i}" for i in range(1, n + 1))
    categories = tuple(f"c{i}" for i in range(1, n + 1))
    eligible = {f"c{i}": frozenset({f"p{i}", f"p{i - 1}"}) for i in range(2, n)}
    eligible["c1"] = frozenset({"p1", f"p{n}"})
    eligible[f"c{n}"] = frozenset({f"p{n - 1}"})
    beneficiary = {f"c{i}": frozenset({f"p{i}"}) for i in range(1, n)}
    beneficiary[f"c{n}"] = frozenset()
    return Instance(
        categories=categories,
        patients=patients,
        quota={c: 1 for c in categories},
        eligible=eligible,
        beneficiary=beneficiary,
    )


def _conflict() -> Problem:
    inst = Instance(
        categories=("c1", "c2"),
        patients=("p1", "p2"),
        quota={"c1": 1, "c2": 1},
        eligible={"c1": frozenset({"p1"}), "c2": frozenset({"p1", "p2"})},
        beneficiary={"c1": frozenset(), "c2": frozenset({"p1"})},
    )
    return Problem(instance=inst)


def _figure1() -> Problem:
    inst = Instance(
        categories=("c1", "c2", "c3"),
        patients=("p1", "p2", "p3"),
        quota={"c1": 1, "c2": 1, "c3": 1},
        eligible={
            "c1": frozenset({"p1", "p2"}),
            "c2": frozenset({"p2", "p3"}),
            "c3": frozenset({"p1"}),
        },
        beneficiary={},
    )
    return Problem(instance=inst)


def _beta_threshold() -> Problem:
    inst = Instance(
        categories=("c1", "c2"),
        patients=("p1", "p2"),
        quota={"c1": 1, "c2": 1},
        eligible={"c1": frozenset({"p1"}), "c2": frozenset({"p2"})},
        beneficiary={"c1": frozenset({"p1"})},
    )
    return Problem(instance=inst, beta_star=Fraction(7, 10))


def _path_independence() -> Problem:
    inst = Instance(
        categories=("c1", "c2", "c3", "c4", "c5"),
        patients=("p1", "p2", "p3", "p4", "p5", "p6"),
        quota={c: 1 for c in ("c1", "c2", "c3", "c4", "c5")},
        eligible={
            "c1": frozenset({"p1", "p2"}),
            "c2": frozenset({"p2", "p3"}),
            "c3": frozenset({"p3", "p5"}),
            "c4": frozenset({"p6", "p4"}),
            "c5": frozenset({"p1"}),
        },
        beneficiary={
            "c1": frozenset({"p1"}),
            "c4": frozenset({"p6"}),
        },
    )
    return Problem(instance=inst, beta_star=Fraction(1, 5))


def gen_named(name: str) -> Problem:
    """Small worked instances used across the docs and test suite.

    Each comes back as a Problem.  "beta-threshold" and "path-independence"
    carry a share target; "conflict" and "figure1" have beta_star None.
    """
    makers = {
        "conflict": _conflict,
        "figure1": _figure1,
        "beta-threshold": _beta_threshold,
        "path-independence": _path_independence,
    }
    if name not in makers:
        raise ValueError(f"unknown named instance {name!r}; choose from {NAMED_INSTANCES}")
    return makers[name]()
