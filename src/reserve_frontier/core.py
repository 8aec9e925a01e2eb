"""Core types for reserve-system matching.

An instance has categories with integer quotas and per-category eligible
and beneficiary patient sets (beneficiaries are a subset of the eligible).
Quotas are expanded into unit seats before any matching computation; all
category-level reporting is re-aggregated at the I/O boundary.

Every input, parsed, generated or named, is one Problem: an instance plus
an optional share target beta_star and optional priority orders.  The
Instance alone is the structural type that seat expansion, restriction
and the generators work on.  A Problem validates its instance once, when
it is built, and expands it once, on first use of seat_instance; every
consumer reads that expansion.  Its priority ranks are likewise built
once, on first use of rank_rows, as rows of patient indices.

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


class BudgetExceededError(RuntimeError):
    """The instance or search exceeds a budget: the oracle's or the audit cap."""


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
            raise InstanceError(f"category {c}: quota must be a positive integer")
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
class PriorityOrder:
    """Per-category strict total orders over all patients, highest first."""

    order: Mapping[str, tuple[str, ...]]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "order", {c: tuple(ps) for c, ps in dict(self.order).items()}
        )

    @classmethod
    def from_tiers(cls, inst: Instance) -> "PriorityOrder":
        """Admissible order synthesized from tiers, input order within a tier."""
        def tiers(c: str) -> tuple[str, ...]:
            bene, elig = inst.beneficiary_of(c), inst.eligible_of(c)
            return tuple(sorted(inst.patients, key=lambda p: (p not in bene, p not in elig)))

        return cls(order={c: tiers(c) for c in inst.categories})


def validate_priority(inst: Instance, po: PriorityOrder) -> PriorityOrder:
    """Check bijectivity and the beneficiary > eligible > ineligible tiers."""
    for c in po.order:
        if c not in inst.categories:
            raise InstanceError(f"priority names unknown category {c}")
    pats = set(inst.patients)
    for c in inst.categories:
        if c not in po.order:
            raise InstanceError(f"priority missing category {c}")
        ps = po.order[c]
        if len(ps) != len(inst.patients) or set(ps) != pats:
            raise InstanceError(f"priority for {c} is not a permutation of the patients")
        bene = inst.beneficiary_of(c)
        elig = inst.eligible_of(c)
        tier_seen = 0  # 0 = beneficiaries, 1 = other eligible, 2 = ineligible
        for p in ps:
            tier = 0 if p in bene else (1 if p in elig else 2)
            if tier < tier_seen:
                raise InstanceError(
                    f"priority for {c} breaks the beneficiary/eligible/ineligible tiers at {p}"
                )
            tier_seen = tier
    return po


def _build_rank_rows(pr: Problem) -> tuple[tuple[int, ...], ...]:
    """Problem.rank_rows."""
    inst, index = pr.instance, pr.seat_instance.patient_index.__getitem__
    rows = []
    for c in inst.categories:
        elig, bene = inst.eligible[c], inst.beneficiary[c]
        if pr.priority is not None:
            rows.append(tuple(map(index, pr.priority.order[c][: len(elig)])))
        else:
            rows.append((*sorted(map(index, bene)), *sorted(map(index, elig - bene))))
    return tuple(rows)


@dataclass(frozen=True)
class Problem:
    """The mechanism's input: an instance, an optional exact beneficiary-share
    target beta_star, and optional per-category priority orders.

    Construction validates the instance, then beta_star, then the priority
    orders, and raises on the first fault; nothing downstream validates
    the instance again."""

    instance: Instance
    beta_star: Fraction | None = None
    priority: PriorityOrder | None = None

    def __post_init__(self) -> None:
        validate_instance(self.instance)
        beta = self.beta_star
        if beta is not None:
            if isinstance(beta, float):
                raise TypeError("beta_star must be exact; pass a Fraction, int, or string")
            beta = Fraction(beta)
            if not 0 <= beta <= 1:
                raise InstanceError(f"beta_star must lie in [0, 1], got {beta}")
            object.__setattr__(self, "beta_star", beta)
        if self.priority is not None:
            validate_priority(self.instance, self.priority)

    @cached_property
    def seat_instance(self) -> SeatInstance:
        """The instance expanded to unit seats, built on first use."""
        return expand_to_seats(self.instance)

    @cached_property
    def rank_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per category, in instance order, the patient indices of its
        eligible patients, best first, built on first use: from the priority
        or, when it names none, from the tier order in input order."""
        return _build_rank_rows(self)


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
    def category_index(self) -> tuple[int, ...]:
        """Per seat index, the index of the seat's category in source.categories."""
        column = {cat: c for c, cat in enumerate(self.source.categories)}
        return tuple(column[self.seat_category[s]] for s in self.seats)

    @cached_property
    def pair_codes(self) -> np.ndarray:
        """uint8 (patients x seats) pair codes: 0 ineligible, 1 eligible, 2 beneficiary."""
        index, cats = self.patient_index, self.source.categories
        by_category = np.zeros((len(self.patients), len(cats)), dtype=np.uint8)
        for code, members in ((1, self.source.eligible), (2, self.source.beneficiary)):
            sets = [members[cat] for cat in cats]
            rows = [index[p] for ps in sets for p in ps]
            by_category[rows, np.repeat(np.arange(len(cats)), [len(ps) for ps in sets])] = code
        # take, not by_category[:, cols], whose result is column-major: the
        # solver copies a cost matrix gathered over that into row-major order
        return np.take(by_category, self.category_index, axis=1)

    @cached_property
    def eligible_seats(self) -> tuple[tuple[int, ...], ...]:
        """Per patient index, the ascending seat indices the patient is eligible for."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.pair_codes)

    @cached_property
    def beneficiary_seat_sets(self) -> tuple[frozenset[int], ...]:
        """Per patient index, the seat indices where the patient is a beneficiary."""
        return tuple(frozenset(np.flatnonzero(row == 2).tolist()) for row in self.pair_codes)

    # A seat row lists a matching by index: row[i] is patient i's seat
    # index, -1 when patient i is unmatched.
    def name_row(self, row: Iterable[int]) -> Matching:
        """The Matching that the seat row lists."""
        return Matching(tuple((self.patients[i], self.seats[j]) for i, j in enumerate(row) if j != -1))

    def index_matching(self, m: Matching) -> tuple[list[int], list[int]]:
        """(seat_of, patient_of): m's seat row, and each seat's patient index or -1."""
        seat_of = [-1] * len(self.patients)
        patient_of = [-1] * len(self.seats)
        for p, s in m.pairs:
            i, j = self.patient_index[p], self.seat_index[s]
            seat_of[i] = j
            patient_of[j] = i
        return seat_of, patient_of


# Memory limits.  A dense assignment solve costs 9 bytes a cell, a uint8
# pair code and a float64 cost, so MAX_CELLS is about 1.7 GB of solve.
# Every solve is a sweep on an admitted instance's patients x seats matrix.
# MAX_SEATS bounds the seat ids that expand_to_seats builds, which the cell
# check misses when there are few or no patients.
MAX_SEATS = 208_063
MAX_CELLS = 2 * 9_741**2


def check_cells(n_rows: int, n_cols: int, what: str) -> None:
    """Raise InstanceError if a dense n_rows x n_cols matrix exceeds MAX_CELLS."""
    if n_rows * n_cols > MAX_CELLS:
        raise InstanceError(f"{what} too large for memory: {n_rows} x {n_cols} = {n_rows * n_cols}"
                            f" cells exceed MAX_CELLS = {MAX_CELLS}, at 9 bytes a cell")


def expand_to_seats(inst: Instance) -> SeatInstance:
    """Expand quotas into unit seats, in category order.

    An instance over MAX_SEATS seats or MAX_CELLS patients x seats is
    refused before any seat is built, so an oversized quota fails at once.
    Seat id c#k splits at its last '#', so distinct categories give distinct seats.
    """
    if inst.total_quota > MAX_SEATS:
        raise InstanceError(f"instance too large for memory: {inst.total_quota} seat(s) "
                            f"exceed MAX_SEATS = {MAX_SEATS}")
    check_cells(len(inst.patients), inst.total_quota, "instance (patients x seats)")
    seats: list[str] = []
    seat_category: dict[str, str] = {}
    for c in inst.categories:
        for k in range(inst.quota[c]):
            sid = f"{c}#{k}"
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
