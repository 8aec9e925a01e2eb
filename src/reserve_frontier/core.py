"""Core types for reserve-system matching.

An instance has categories with integer quotas and per-category eligible
and beneficiary patient sets (beneficiaries are a subset of the eligible).
Quotas are expanded into unit seats before any matching computation; all
category-level reporting is re-aggregated at the I/O boundary.

A matching is scored by the pair (e, b): total eligible matches and
beneficiary matches.  Shares b/e are kept as exact fractions throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

import numpy as np


class InstanceError(ValueError):
    """An instance violates its structural invariants."""


class MatchingError(ValueError):
    """An assignment is not a valid matching for the given instance."""


class MatchPoint(NamedTuple):
    """Score of a matching: e = eligible (total) matches, b = beneficiary matches."""

    e: int
    b: int


def beneficiary_share(point: MatchPoint) -> Fraction:
    """Exact share b/e of a non-empty match point."""
    if point.e == 0:
        raise ValueError("share undefined for empty matching")
    return Fraction(point.b, point.e)


def dominates(a: MatchPoint, b: MatchPoint) -> bool:
    """True if a is weakly better on both counts and strictly better on one."""
    return a.e >= b.e and a.b >= b.b and (a.e > b.e or a.b > b.b)


@dataclass(frozen=True)
class Instance:
    """A reserve system: categories with quotas, eligible and beneficiary sets.

    Categories missing from `eligible` or `beneficiary` get empty sets.
    Instances are treated as immutable once validated.
    """

    categories: tuple[str, ...]
    patients: tuple[str, ...]
    quota: Mapping[str, int]
    eligible: Mapping[str, frozenset[str]]
    beneficiary: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "patients", tuple(self.patients))
        object.__setattr__(self, "quota", dict(self.quota))
        for field in ("eligible", "beneficiary"):
            raw = {c: frozenset(v) for c, v in dict(getattr(self, field)).items()}
            # normalize so instances differing only in omitted-vs-empty sets compare equal
            for c in self.categories:
                raw.setdefault(c, frozenset())
            object.__setattr__(self, field, raw)

    def eligible_of(self, category: str) -> frozenset[str]:
        return self.eligible.get(category, frozenset())

    def beneficiary_of(self, category: str) -> frozenset[str]:
        return self.beneficiary.get(category, frozenset())

    @property
    def total_quota(self) -> int:
        return sum(self.quota.values())


def validate_instance(inst: Instance) -> Instance:
    """Check all structural invariants; raise InstanceError on the first violation."""
    if len(set(inst.categories)) != len(inst.categories):
        raise InstanceError("duplicate category id")
    if len(set(inst.patients)) != len(inst.patients):
        raise InstanceError("duplicate patient id")
    cats = set(inst.categories)
    pats = set(inst.patients)
    for c in inst.categories:
        if c not in inst.quota:
            raise InstanceError(f"category {c}: missing quota")
        q = inst.quota[c]
        if not isinstance(q, int) or isinstance(q, bool) or q < 1:
            raise InstanceError(f"category {c}: quota must be positive")
    for name, mapping in (("quota", inst.quota), ("eligible", inst.eligible),
                          ("beneficiary", inst.beneficiary)):
        for c in mapping:
            if c not in cats:
                raise InstanceError(f"{name} references unknown category {c}")
    for c in inst.categories:
        for p in inst.eligible_of(c):
            if p not in pats:
                raise InstanceError(f"category {c}: eligible patient {p} not in patient set")
        for p in inst.beneficiary_of(c):
            if p not in inst.eligible_of(c):
                raise InstanceError(f"category {c}: beneficiary {p} not eligible")
    return inst


def restrict_patients(inst: Instance, keep: Iterable[str]) -> Instance:
    """Sub-instance on a patient subset; categories and quotas are unchanged."""
    keep_set = frozenset(keep)
    unknown = keep_set - set(inst.patients)
    if unknown:
        raise InstanceError(f"unknown patient {sorted(unknown)[0]}")
    return Instance(
        categories=inst.categories,
        patients=tuple(p for p in inst.patients if p in keep_set),
        quota=inst.quota,
        eligible={c: inst.eligible_of(c) & keep_set for c in inst.categories},
        beneficiary={c: inst.beneficiary_of(c) & keep_set for c in inst.categories},
    )


@dataclass(frozen=True)
class Problem:
    """An instance together with an exact beneficiary-share target beta_star."""

    instance: Instance
    beta_star: Fraction

    def __post_init__(self) -> None:
        beta = self.beta_star
        if isinstance(beta, float):
            raise TypeError("beta_star must be exact; pass a Fraction, int, or string")
        beta = Fraction(beta)
        if not 0 <= beta <= 1:
            raise InstanceError(f"beta_star must lie in [0, 1], got {beta}")
        object.__setattr__(self, "beta_star", beta)


@dataclass(frozen=True)
class SeatInstance:
    """Unit-quota expansion of an instance.

    Seat ids are "<category>#<k>" for k in range(quota).  Seats of one
    category share the parent's eligible and beneficiary sets.
    """

    source: Instance
    patients: tuple[str, ...]
    seats: tuple[str, ...]
    seat_category: Mapping[str, str]

    def category_of(self, seat: str) -> str:
        return self.seat_category[seat]

    def eligible_of(self, seat: str) -> frozenset[str]:
        return self.source.eligible_of(self.seat_category[seat])

    def beneficiary_of(self, seat: str) -> frozenset[str]:
        return self.source.beneficiary_of(self.seat_category[seat])

    @cached_property
    def patient_index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.patients)}

    @cached_property
    def seat_index(self) -> dict[str, int]:
        return {s: j for j, s in enumerate(self.seats)}

    @cached_property
    def eligible_mask(self) -> np.ndarray:
        """Boolean (patients x seats) eligibility matrix."""
        mask = np.zeros((len(self.patients), len(self.seats)), dtype=bool)
        for j, s in enumerate(self.seats):
            for p in self.eligible_of(s):
                mask[self.patient_index[p], j] = True
        return mask

    @cached_property
    def beneficiary_mask(self) -> np.ndarray:
        """Boolean (patients x seats) beneficiary matrix."""
        mask = np.zeros((len(self.patients), len(self.seats)), dtype=bool)
        for j, s in enumerate(self.seats):
            for p in self.beneficiary_of(s):
                mask[self.patient_index[p], j] = True
        return mask

    @cached_property
    def eligible_seats(self) -> tuple[tuple[int, ...], ...]:
        """Per patient index, the ascending seat indices the patient is eligible for."""
        out: list[tuple[int, ...]] = []
        for i in range(len(self.patients)):
            out.append(tuple(np.flatnonzero(self.eligible_mask[i]).tolist()))
        return tuple(out)

    @cached_property
    def beneficiary_seat_sets(self) -> tuple[frozenset[int], ...]:
        """Per patient index, the seat indices where the patient is a beneficiary."""
        out: list[frozenset[int]] = []
        for i in range(len(self.patients)):
            out.append(frozenset(np.flatnonzero(self.beneficiary_mask[i]).tolist()))
        return tuple(out)


def expand_to_seats(inst: Instance) -> SeatInstance:
    """Expand quotas into unit seats, in category order.

    An instance too large for exact sweep weights is refused before any
    seat is built, so an oversized quota fails at once.
    """
    from .frontier import check_sweep_size  # frontier imports this module

    check_sweep_size(len(inst.patients), inst.total_quota)
    seats: list[str] = []
    seat_category: dict[str, str] = {}
    for c in inst.categories:
        for k in range(inst.quota[c]):
            sid = f"{c}#{k}"
            if sid in seat_category:
                raise InstanceError(f"seat id collision at {sid}")
            seats.append(sid)
            seat_category[sid] = c
    return SeatInstance(
        source=inst,
        patients=inst.patients,
        seats=tuple(seats),
        seat_category=seat_category,
    )


@dataclass(frozen=True)
class Matching:
    """Immutable partial assignment of patients to seats.

    Stored as a canonical sorted tuple of (patient, seat) pairs, so equal
    matchings compare and hash equal regardless of construction order.
    """

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        pairs = tuple(sorted((p, s) for p, s in self.pairs))
        object.__setattr__(self, "pairs", pairs)
        seen_p: set[str] = set()
        seen_s: set[str] = set()
        for p, s in pairs:
            if p in seen_p:
                raise MatchingError(f"patient {p} assigned more than one seat")
            if s in seen_s:
                raise MatchingError(f"seat {s} assigned more than one patient")
            seen_p.add(p)
            seen_s.add(s)

    @classmethod
    def from_assignment(cls, assignment: Mapping[str, str]) -> "Matching":
        return cls(tuple(assignment.items()))

    @classmethod
    def empty(cls) -> "Matching":
        return cls(())

    @cached_property
    def by_patient(self) -> dict[str, str]:
        return {p: s for p, s in self.pairs}

    @cached_property
    def by_seat(self) -> dict[str, str]:
        return {s: p for p, s in self.pairs}

    @cached_property
    def matched_patients(self) -> frozenset[str]:
        return frozenset(self.by_patient)

    @cached_property
    def matched_seats(self) -> frozenset[str]:
        return frozenset(self.by_seat)

    def seat_of(self, patient: str) -> str | None:
        return self.by_patient.get(patient)

    def patient_of(self, seat: str) -> str | None:
        return self.by_seat.get(seat)

    def __len__(self) -> int:
        return len(self.pairs)


def validate_matching(si: SeatInstance, m: Matching) -> Matching:
    """Check that m matches known patients to known seats they are eligible for."""
    for p, s in m.pairs:
        if p not in si.patient_index:
            raise MatchingError(f"unknown patient {p}")
        if s not in si.seat_index:
            raise MatchingError(f"unknown seat {s}")
        if p not in si.eligible_of(s):
            raise MatchingError(f"patient {p} not eligible for seat {s}")
    return m


def match_point(si: SeatInstance, m: Matching) -> MatchPoint:
    """Score (e, b) of an eligible matching."""
    e = len(m.pairs)
    b = sum(1 for p, s in m.pairs if p in si.beneficiary_of(s))
    return MatchPoint(e, b)
