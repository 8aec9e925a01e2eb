"""Helpers shared by the test modules."""

from __future__ import annotations


def tier_order(pr) -> dict[str, tuple[str, ...]]:
    """The admissible priority order of pr built from its tiers: per
    category, beneficiaries, then other eligible patients, then the rest,
    each tier in input order."""
    def tiers(c: str) -> tuple[str, ...]:
        bene, elig = pr.beneficiary[c], pr.eligible[c]
        return tuple(sorted(pr.patients, key=lambda p: (p not in bene, p not in elig)))

    return {c: tiers(c) for c in pr.categories}
