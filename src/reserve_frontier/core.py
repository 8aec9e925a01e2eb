"""Core types for reserve-system matching.

An instance has categories with integer quotas and per-category eligible
and beneficiary patient sets (beneficiaries are a subset of the eligible).
A matching is a category row: row[i] is the index of patient i's
category, or -1.  Quotas are expanded into unit seats only where a step
works seat by seat: the frontier's solver and the naming of a row at the
I/O boundary (Problem.name_row).

Every input, parsed, generated, named or restricted to a patient subset,
is one Problem: an instance plus an optional share target beta_star and
optional priority orders, and every step takes it.  A Problem keeps each
instance fact once and is read directly (pr.eligible[c]).  It validates
itself once, when it is built, and builds its indexed form (quotas, pair
codes, priority ranks) once each, on first use; every consumer reads
those.  Building quotas is the one memory-limit check.

A matching is scored by the pair (e, b): total eligible matches and
beneficiary matches.  Shares b/e are kept as exact fractions throughout.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

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


def _validate_instance(pr: Problem) -> None:
    """Check the reserve system's structural invariants; raise InstanceError
    on the first violation, naming the least of the ids at fault."""
    if len(set(pr.categories)) != len(pr.categories):
        raise InstanceError("duplicate category id")
    if len(set(pr.patients)) != len(pr.patients):
        raise InstanceError("duplicate patient id")
    cats = set(pr.categories)
    pats = set(pr.patients)
    for c in pr.categories:
        if c not in pr.quota:
            raise InstanceError(f"category {c}: missing quota")
        q = pr.quota[c]
        if not isinstance(q, int) or isinstance(q, bool) or q < 1:
            raise InstanceError(f"category {c}: quota must be a positive integer")
    for name, mapping in (("quota", pr.quota), ("eligible", pr.eligible),
                          ("beneficiary", pr.beneficiary)):
        for c in mapping:
            if c not in cats:
                raise InstanceError(f"{name} references unknown category {c}")
    for c in pr.categories:
        elig = pr.eligible[c]
        if unknown := elig - pats:
            raise InstanceError(f"category {c}: eligible patient {min(unknown)} not in patient set")
        if ineligible := pr.beneficiary[c] - elig:
            raise InstanceError(f"category {c}: beneficiary {min(ineligible)} not eligible")


def restrict_patients(pr: Problem, keep: Iterable[str]) -> Problem:
    """pr on a patient subset: categories, quotas and beta_star are
    unchanged, and each priority order keeps its kept patients, in order."""
    keep_set = frozenset(keep)
    unknown = keep_set - set(pr.patients)
    if unknown:
        raise InstanceError(f"unknown patient {min(unknown)}")
    return Problem(
        categories=pr.categories,
        patients=tuple(p for p in pr.patients if p in keep_set),
        quota=pr.quota,
        eligible={c: pr.eligible[c] & keep_set for c in pr.categories},
        beneficiary={c: pr.beneficiary[c] & keep_set for c in pr.categories},
        beta_star=pr.beta_star,
        priority=None if pr.priority is None else {
            c: tuple(p for p in ps if p in keep_set) for c, ps in pr.priority.items()
        },
    )


def _validate_priority(pr: Problem) -> None:
    """Check bijectivity and the beneficiary > eligible > ineligible tiers."""
    for c in pr.priority:
        if c not in pr.categories:
            raise InstanceError(f"priority names unknown category {c}")
    pats = set(pr.patients)
    for c in pr.categories:
        if c not in pr.priority:
            raise InstanceError(f"priority missing category {c}")
        ps = pr.priority[c]
        if len(ps) != len(pr.patients) or set(ps) != pats:
            raise InstanceError(f"priority for {c} is not a permutation of the patients")
        bene, elig = pr.beneficiary[c], pr.eligible[c]
        tier_seen = 0  # 0 = beneficiaries, 1 = other eligible, 2 = ineligible
        for p in ps:
            tier = 0 if p in bene else (1 if p in elig else 2)
            if tier < tier_seen:
                raise InstanceError(
                    f"priority for {c} breaks the beneficiary/eligible/ineligible tiers at {p}"
                )
            tier_seen = tier


def _build_rank_rows(pr: Problem) -> tuple[tuple[int, ...], ...]:
    """Problem.rank_rows."""
    index = pr.patient_index.__getitem__
    rows = []
    for c in pr.categories:
        elig, bene = pr.eligible[c], pr.beneficiary[c]
        if pr.priority is not None:
            rows.append(tuple(map(index, pr.priority[c][: len(elig)])))
        else:
            rows.append((*sorted(map(index, bene)), *sorted(map(index, elig - bene))))
    return tuple(rows)


# Memory limits, checked once, when Problem.quotas is built.  A dense
# assignment solve costs 9 bytes a cell, a uint8 pair code and a float64
# cost, so MAX_CELLS is about 1.7 GB of solve.  Every solve is a sweep on
# rows of an admitted instance's patients x seats matrix.  MAX_SEATS bounds
# the seat ids and the solver's seat columns, which the cell check misses
# when there are few or no patients.
MAX_SEATS = 208_063
MAX_CELLS = 2 * 9_741**2


@dataclass(frozen=True)
class Problem:
    """The mechanism's input: a reserve system (categories with quotas,
    eligible and beneficiary sets), an optional exact beneficiary-share
    target beta_star, and optional per-category priority orders, each a
    tuple of all patient ids, highest first.

    The id lists are taken as given and the sets built here: each category
    has a frozenset in `eligible` and `beneficiary`, an empty one when the
    input omits it, so both are read directly.  Construction validates the
    reserve system, then beta_star, then the priority orders, and raises on
    the first fault; nothing downstream validates again.  The indexed form
    that every step below the I/O boundary reads is built on first use and
    kept: quotas, pair_codes, each patient's eligible and beneficiary
    categories, and rank_rows.  Building quotas, which pair_codes does
    first, is the only check of the memory limits, so a Problem that is
    only restricted to a patient subset is never held to them; the
    subset's own Problem is.

    A matching is a category row: row[i] is the index of patient i's
    category in categories, -1 when patient i is unmatched; which of the
    category's seats they hold is no part of it.  Unit seats
    "<category>#<k>", k in range(quota), are named only at the I/O
    boundary: by name_row, and by seats and category_of, the seat-keyed
    view of a Matching (validate_matching, match_point).
    """

    categories: tuple[str, ...]
    patients: tuple[str, ...]
    quota: Mapping[str, int]
    eligible: Mapping[str, frozenset[str]]
    beneficiary: Mapping[str, frozenset[str]]
    beta_star: Fraction | None = None
    priority: Mapping[str, tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "categories", tuple(self.categories))
        object.__setattr__(self, "patients", tuple(self.patients))
        object.__setattr__(self, "quota", dict(self.quota))
        for field in ("eligible", "beneficiary"):
            raw = {c: frozenset(v) for c, v in dict(getattr(self, field)).items()}
            # normalize so problems differing only in omitted-vs-empty sets compare equal
            for c in self.categories:
                raw.setdefault(c, frozenset())
            object.__setattr__(self, field, raw)
        _validate_instance(self)
        beta = self.beta_star
        if beta is not None:
            if isinstance(beta, (bool, float)):
                raise TypeError(f"beta_star must be exact; pass a Fraction, int, or string, not {beta!r}")
            beta = Fraction(beta)
            if not 0 <= beta <= 1:
                raise InstanceError(f"beta_star must lie in [0, 1], got {beta}")
            object.__setattr__(self, "beta_star", beta)
        if self.priority is not None:
            object.__setattr__(self, "priority", {c: tuple(ps) for c, ps in dict(self.priority).items()})
            _validate_priority(self)

    @cached_property
    def patient_index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.patients)}

    @cached_property
    def rank_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per category, in instance order, the patient indices of its
        eligible patients, best first, built on first use: from the priority
        or, when it names none, from the tier order in input order."""
        return _build_rank_rows(self)

    @cached_property
    def quotas(self) -> tuple[int, ...]:
        """Per category index, in instance order, its quota.  An instance
        over MAX_SEATS seats or MAX_CELLS patients x seats is refused here,
        before anything of that size is built: the only memory-limit check."""
        quotas = tuple(self.quota[c] for c in self.categories)
        n_rows, n_cols = len(self.patients), sum(quotas)
        if n_cols > MAX_SEATS:
            raise InstanceError(f"instance too large for memory: {n_cols} seat(s) exceed MAX_SEATS = {MAX_SEATS}")
        if n_rows * n_cols > MAX_CELLS:
            raise InstanceError(f"instance (patients x seats) too large for memory: {n_rows} x {n_cols} = "
                                f"{n_rows * n_cols} cells exceed MAX_CELLS = {MAX_CELLS}, at 9 bytes a cell")
        return quotas

    @cached_property
    def pair_codes(self) -> np.ndarray:
        """uint8 (patients x categories) pair codes: 0 ineligible, 1 eligible,
        2 beneficiary; built after quotas, so within the memory limits."""
        index = self.patient_index
        codes = np.zeros((len(self.patients), len(self.quotas)), dtype=np.uint8)
        for code, members in ((1, self.eligible), (2, self.beneficiary)):
            sets = [members[cat] for cat in self.categories]
            rows = [index[p] for ps in sets for p in ps]
            codes[rows, np.repeat(np.arange(len(sets)), [len(ps) for ps in sets])] = code
        return codes

    @cached_property
    def eligible_categories(self) -> tuple[tuple[int, ...], ...]:
        """Per patient index, the ascending category indices the patient is eligible for."""
        return tuple(tuple(np.flatnonzero(row).tolist()) for row in self.pair_codes)

    @cached_property
    def beneficiary_categories(self) -> tuple[frozenset[int], ...]:
        """Per patient index, the category indices where the patient is a beneficiary."""
        return tuple(frozenset(np.flatnonzero(row == 2).tolist()) for row in self.pair_codes)

    def check_row(self, row: Sequence[int]) -> list[int]:
        """row as a list, once it is the category row of a matching of this
        instance; raises MatchingError for a row of the wrong length, with a
        category index outside [-1, categories), with a patient placed where
        they are not eligible, or with a category over its quota."""
        codes, cats = self.pair_codes, self.categories
        n_patients, n_categories = codes.shape
        row = list(map(operator.index, row))
        if len(row) != n_patients:
            raise MatchingError(f"a category row has one entry per patient: {len(row)} for {n_patients} patient(s)")
        free = list(self.quotas)
        # item() per pair: a numpy gather is no faster at 20,000 patients, and 4x slower at 7
        for i, c in enumerate(row):
            if c == -1:
                continue
            if not 0 <= c < n_categories:
                raise MatchingError(f"patient {self.patients[i]}: category index {c} outside [-1, {n_categories})")
            if not codes.item(i, c):
                raise MatchingError(f"patient {self.patients[i]} not eligible for category {cats[c]}")
            if not free[c]:
                raise MatchingError(f"a category row places more patients in {cats[c]}"
                                    f" than its quota of {self.quotas[c]}")
            free[c] -= 1
        return row

    def name_row(self, row: Iterable[int]) -> Matching:
        """The Matching that the category row lists, once check_row accepts
        it: each category's seats go to its patients in patient order."""
        cats, taken, pairs = self.categories, [0] * len(self.quotas), []
        for i, c in enumerate(self.check_row(row)):
            if c != -1:
                pairs.append((self.patients[i], f"{cats[c]}#{taken[c]}"))
                taken[c] += 1
        return Matching(tuple(pairs))

    @cached_property
    def _seat_category(self) -> dict[str, str]:
        # a seat id splits at its last '#', so distinct categories give distinct seats
        return {f"{c}#{k}": c for c, q in zip(self.categories, self.quotas) for k in range(q)}

    @property
    def seats(self) -> tuple[str, ...]:
        """The unit seat ids, in category order."""
        return tuple(self._seat_category)

    def category_of(self, seat: str) -> str:
        return self._seat_category[seat]


def row_point(codes: np.ndarray, row: Sequence[int]) -> MatchPoint:
    """The point of a category row on its pair-code matrix (Problem.pair_codes)."""
    row = np.asarray(row, dtype=np.intp)
    rows = np.flatnonzero(row >= 0)
    return MatchPoint(len(rows), int(np.count_nonzero(codes[rows, row[rows]] == 2)))


def expand_to_seats(pr: Problem) -> Problem:
    """pr, its memory limits checked at once, for a caller of the seat-keyed
    view (seats, category_of)."""
    pr.quotas  # built now, so the memory limits are checked now
    return pr


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


def validate_matching(pr: Problem, m: Matching) -> Matching:
    """Check that m matches known patients to known seats they are eligible for."""
    for p, s in m.pairs:
        if p not in pr.patient_index:
            raise MatchingError(f"unknown patient {p}")
        if s not in pr._seat_category:
            raise MatchingError(f"unknown seat {s}")
        if p not in pr.eligible[pr.category_of(s)]:
            raise MatchingError(f"patient {p} not eligible for seat {s}")
    return m


def match_point(pr: Problem, m: Matching) -> MatchPoint:
    """Score (e, b) of an eligible matching."""
    e = len(m.pairs)
    b = sum(1 for p, s in m.pairs if p in pr.beneficiary[pr.category_of(s)])
    return MatchPoint(e, b)
