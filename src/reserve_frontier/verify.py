"""Cross-checks between the fast algorithms and the exhaustive oracle.

Each suite takes (pr, census, f) and returns CheckResult rows.  The
suites never share code with the algorithms they audit beyond the core
data types, so a bug has to appear on both routes to slip through.
Every check lives here, as a CheckResult row that keeps its first
failure; the oracle only computes.
run_suites builds one census and one frontier per Problem and hands
them to every suite beside the Problem: the oracle Census, built with
the computed frontier's points, enumerates it once however many suites
and targets read it, and the mechanism suite reads each target's point
and witness off the shared frontier; selection's own route
(mechanism._select) runs once, at the repair target.

Matchings reach these checks as category rows (row[i] is the index of
patient i's category, or -1).  A check names a row only to print it, or
to score it by match_point on patient and seat ids, apart from the
pair-code scorer (core.row_point) of the routes it checks.

Setting RESERVE_FRONTIER_INJECT_CORRUPTION=1 deliberately corrupts the
frontier that the frontier suite checks, and only that copy.  That is
the negative control: a verifier that cannot fail is not verifying
anything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from random import Random
from typing import Iterator

from .core import BudgetExceededError, MatchPoint, Problem, dominates, match_point
from .cycles import apply_cycle, cheapest_cycle, frontier_walk
from .frontier import (
    Frontier,
    check_frontier_invariants,
    compute_frontier,
    frontier_iteration,
    half_bound_ratio,
    witness_at,
)
from .generator import GenConfig, gen_random
from .mechanism import NoNonEmptyMatchingError, _select, rank_sum, repair_priority, respects_priority
from .oracle import (
    BUDGET_ENV,
    Census,
    _applicable_cycles,
    _check_size,
    _find_disjoint_family,
    budget_from_env,
    oracle_min_cycle_loss,
)

CORRUPTION_ENV = "RESERVE_FRONTIER_INJECT_CORRUPTION"

SUITES = ("frontier", "cycles", "lemmas", "mechanism")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    check: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  {self.detail}" if self.detail else ""
        return f"{status} {self.suite}:{self.check}{tail}"


def _maybe_corrupt(f: Frontier) -> Frontier:
    if os.environ.get(CORRUPTION_ENV) != "1":
        return f
    pts = list(f.points)
    if len(pts) >= 2:
        # lift the second point's b up to the first's: it now dominates
        pts[1] = MatchPoint(pts[1].e, pts[0].b)
    else:
        pts.append(MatchPoint(pts[0].e + 1, pts[0].b))
    keep = set(pts)
    return Frontier(
        points=tuple(pts),
        kinks=frozenset(k for k in f.kinks if k in keep),
        witnesses={p: row for p, row in f.witnesses.items() if p in keep},
    )


def verify_frontier(pr: Problem, census: Census, f: Frontier) -> list[CheckResult]:
    """Computed frontier == enumerated frontier, plus its shape invariants."""
    results: list[CheckResult] = []
    f = _maybe_corrupt(f)

    bad = [
        (p, q)
        for i, p in enumerate(f.points)
        for q in f.points[i + 1 :]
        if dominates(p, q) or dominates(q, p)
    ]
    results.append(
        CheckResult(
            "frontier",
            "mutual-non-domination",
            not bad,
            "" if not bad else f"{bad[0][1]} dominates {bad[0][0]}",
        )
    )

    try:
        check_frontier_invariants(f)
        results.append(CheckResult("frontier", "shape-invariants", True))
    except Exception as exc:  # report, do not abort the suite
        results.append(CheckResult("frontier", "shape-invariants", False, str(exc)))

    oracle = census.frontier()
    same = f.points == oracle.points
    results.append(
        CheckResult(
            "frontier",
            "matches-exhaustive-enumeration",
            same,
            "" if same else f"fast={list(f.points)} oracle={list(oracle.points)}",
        )
    )
    same_kinks = f.kinks == oracle.kinks
    results.append(
        CheckResult(
            "frontier",
            "kinks-match",
            same_kinks,
            "" if same_kinks else f"fast={list(f.kinks)} oracle={list(oracle.kinks)}",
        )
    )

    wit_ok = all(match_point(pr, pr.name_row(row)) == pt for pt, row in f.witnesses.items())
    results.append(CheckResult("frontier", "witnesses-score-their-points", wit_ok))

    if f.e_max:
        ratio = half_bound_ratio(f)
        results.append(
            CheckResult(
                "frontier",
                "range-at-most-half",
                ratio <= Fraction(1, 2),
                f"ratio={ratio}",
            )
        )
    return results


def verify_cycles(pr: Problem, census: Census, f: Frontier) -> list[CheckResult]:
    """Minimal reassignment cycles agree with exhaustive cycle search."""
    results: list[CheckResult] = []

    if f.e_max == 0:
        results.append(CheckResult("cycles", "walk-covers-frontier", True, "empty frontier"))
        return results

    start_pt = f.points[0]
    walk = frontier_walk(pr, f.witnesses[start_pt])
    walk_pts = [pt for pt, _ in walk]
    covered = walk_pts == list(f.points)
    results.append(
        CheckResult(
            "cycles",
            "walk-covers-frontier",
            covered,
            "" if covered else f"walk={walk_pts} frontier={list(f.points)}",
        )
    )

    sample = census.sample(f.points)
    samples, mode = sample.matchings, sample.mode
    min_ok = True
    detail = f"mode={mode}"
    for pt in f.points:
        for row in samples.get(pt, ()):
            cyc = cheapest_cycle(pr, row)
            want = oracle_min_cycle_loss(pr, row, census.budget)
            if cyc is None:
                if want is not None:
                    min_ok, detail = False, f"missed a cycle at {pt}"
                    break
                if pt != f.points[-1]:
                    min_ok, detail = False, f"no cycle before the max-size point {pt}"
                    break
                continue
            nxt = match_point(pr, pr.name_row(apply_cycle(pr, row, cyc)))
            got = pt.b - nxt.b  # the sample at pt scores pt
            if want is None or got != want:
                min_ok, detail = False, f"loss {got} vs exhaustive {want} at {pt}"
                break
            if nxt not in set(f.points):
                min_ok, detail = False, f"cheapest cycle from {pt} landed off the frontier at {nxt}"
                break
        if not min_ok:
            break
    results.append(CheckResult("cycles", "minimal-loss-matches-exhaustive", min_ok, detail))
    return results


def _lemma(check: str, counts: str, failure: str) -> CheckResult:
    """A lemma check's row: what it counted, then its first failure if any."""
    tail = f" first failure: {failure}" if failure else ""
    return CheckResult("lemmas", check, not failure, counts + tail)


def _disjoint_cycles(census: Census) -> CheckResult:
    """For every frontier pair f2 -> f1 (e1 > e2) and every sampled matching at
    f2, find e1-e2 pairwise disjoint applicable cycles with positive losses
    summing to b2-b1 whose joint application lands exactly on f1."""
    pr, budget = census.pr, census.budget
    f = census.frontier()
    sample = census.sample(f.points)
    pairs = witnesses = 0
    failure = ""
    for lo_idx, f2 in enumerate(f.points[:-1]):
        # the cycles of a sampled matching serve every f1 above its f2
        sampled = []
        for row2 in sample.matchings[f2]:
            positive = [
                (list(zip(ps, cs)), frozenset(ps) | {end}, loss)
                for ps, cs, loss, end in _applicable_cycles(pr, row2, budget)
                if loss >= 1
            ]
            sampled.append((row2, positive))
        for f1 in f.points[lo_idx + 1 :]:
            k = f1.e - f2.e
            target = f2.b - f1.b
            pairs += 1
            for row2, positive in sampled:
                witnesses += 1
                family = _find_disjoint_family(positive, k, target, budget)
                if family is None:
                    failure = failure or (
                        f"no {k} disjoint cycles with total loss {target} "
                        f"from {f2} to {f1} for witness {pr.name_row(row2).pairs}"
                    )
                    continue
                row = list(row2)
                for idx in family:
                    for i, c in positive[idx][0]:
                        row[i] = c
                landed = match_point(pr, pr.name_row(row))
                if landed != f1:
                    failure = failure or f"joint application landed on {landed}, expected {f1}"
    counts = f"pairs={pairs} witnesses={witnesses} mode={sample.mode}"
    return _lemma("gaps-split-into-disjoint-cycles", counts, failure)


def _matched_preservation(census: Census) -> CheckResult:
    """For every frontier pair f2 -> f1 (e1 > e2) and every sampled matching at
    f2, some matching at f1 keeps all of f2's matched patients matched."""
    f = census.frontier()
    sample = census.sample(f.points)
    pairs = 0
    failure = ""
    for lo_idx, f2 in enumerate(f.points):
        for f1 in f.points[lo_idx + 1 :]:
            pairs += 1
            for row2 in sample.matchings[f2]:
                kept = [i for i, c in enumerate(row2) if c != -1]
                mask = sum(1 << i for i in kept)
                if not failure and not any(mask & s == mask for s in sample.matched[f1]):
                    named = sorted(census.pr.patients[i] for i in kept)
                    failure = f"no matching at {f1} keeps matched set {named} from {f2}"
    return _lemma("matched-sets-extend-along-frontier", f"pairs={pairs} mode={sample.mode}", failure)


def verify_lemmas(pr: Problem, census: Census, f: Frontier) -> list[CheckResult]:
    """Structural facts: disjoint cycle families, matched-set preservation, kink sweep."""
    results = [_disjoint_cycles(census), _matched_preservation(census)]

    ok = True
    detail = ""
    if f.e_max:
        pts = f.points
        for i, pt in enumerate(pts):
            if pt not in f.kinks:
                continue
            d = pts[i - 1].b - pt.b if i else 0  # the left drop
            got, _ = frontier_iteration(pr, d)
            if got != pt:
                ok, detail = False, f"sweep {d} gave {got}, expected {pt}"
                break
    results.append(CheckResult("lemmas", "kinks-surface-at-their-tradeoff-weight", ok, detail))
    return results


def _targets_for(beta_star: Fraction | None, f: Frontier) -> list[Fraction]:
    targets = [] if beta_star is None else [beta_star]
    rng = Random(0)
    for _ in range(5):
        targets.append(Fraction(rng.randrange(0, 11), 10))
    # hit exact frontier shares too: those exercise the equality branch
    for pt in f.points[:3]:
        if pt.e:
            targets.append(Fraction(pt.b, pt.e))
    return targets


def _exact_share_domination(beta: Fraction, selected: MatchPoint, census: Census) -> CheckResult:
    """Whether the selected point dominates every matching whose share is
    exactly the target (meaningful when the selected share differs from it).
    b/e = num/den is tested exactly as b*den == e*num at each point the
    census counts, and the first undominated one, in enumeration order, fails."""
    num, den = beta.numerator, beta.denominator
    for pt in census.counts:
        if pt.e and pt.b * den == pt.e * num and not dominates(selected, pt):
            return CheckResult("mechanism", "selection-rule-and-exact-share-domination", False,
                               f"exact-share rival undominated: matching at {pt} with exact share {beta} "
                               f"is not dominated by {selected}")
    return CheckResult("mechanism", "selection-rule-and-exact-share-domination", True)


def verify_mechanism(pr: Problem, census: Census, f: Frontier) -> list[CheckResult]:
    """Selection rule, share guarantee, domination of exact-share rivals, repair.

    Every target reads the rule's point and its witness off the shared
    frontier f.  Selection itself (mechanism._select, which sweeps only
    what its point needs) runs once, at the repair target, and must give
    f's point and witness_at's row there."""
    results: list[CheckResult] = []

    if f.e_max == 0:
        ok = True
        try:
            _select(pr.pair_codes, pr.quotas, Fraction(1, 2))
            ok = False
        except NoNonEmptyMatchingError:
            pass
        results.append(CheckResult("mechanism", "empty-instance-refused", ok))
        return results

    shares = [Fraction(pt.b, pt.e) for pt in f.points]
    mono = all(a > b for a, b in zip(shares, shares[1:]))
    results.append(CheckResult("mechanism", "share-falls-strictly-along-frontier", mono))

    def rule(beta: Fraction) -> MatchPoint:
        qualifying = [p for p, share in zip(f.points, shares) if share >= beta]
        return qualifying[-1] if qualifying else f.points[0]

    # the priority functions never read beta_star, so pr itself serves
    target = Fraction(1, 2) if pr.beta_star is None else pr.beta_star
    row, pt = _select(pr.pair_codes, pr.quotas, target)
    sel_ok, detail = True, ""
    if pt != rule(target):
        sel_ok, detail = False, f"picked {pt}, expected {rule(target)} at target {target}"
    elif row != witness_at(pr.pair_codes, f, pt):
        sel_ok, detail = False, f"selected row is not the frontier's witness at {pt}, target {target}"
    scored: set[MatchPoint] = set()  # points whose witness match_point scored
    for beta in _targets_for(pr.beta_star, f) if sel_ok else ():
        want = rule(beta)
        if want not in scored and match_point(pr, pr.name_row(witness_at(pr.pair_codes, f, want))) != want:
            sel_ok, detail = False, f"witness off the frontier at target {beta}"
            break
        scored.add(want)
        if Fraction(want.b, want.e) != beta:
            rival = _exact_share_domination(beta, want, census)
            if not rival.ok:
                sel_ok, detail = False, rival.detail
                break
    results.append(CheckResult("mechanism", "selection-rule-and-exact-share-domination", sel_ok, detail))

    fixed = repair_priority(pr, row)
    rep_ok = (
        match_point(pr, pr.name_row(fixed)) == pt
        and not respects_priority(pr, fixed)
        and rank_sum(pr, fixed) <= rank_sum(pr, row)
    )
    results.append(
        CheckResult(
            "mechanism",
            "priority-repair-keeps-the-point",
            rep_ok,
            f"violations before={len(respects_priority(pr, row))}",
        )
    )
    return results


SUITE_FUNCS = {
    "frontier": verify_frontier,
    "cycles": verify_cycles,
    "lemmas": verify_lemmas,
    "mechanism": verify_mechanism,
}


def run_suites(pr: Problem, suites: tuple[str, ...]) -> list[CheckResult]:
    budget = budget_from_env()
    _check_size(pr, budget)  # an instance the oracle refuses is never solved
    f = compute_frontier(pr)
    census = Census(pr, budget, f.points)
    out: list[CheckResult] = []
    for name in suites:
        out.extend(SUITE_FUNCS[name](pr, census, f))
    return out


# the keys of verify --random, with their defaults
RANDOM_DEFAULTS = {"patients": "6", "categories": "5", "seed": "0", "count": "1",
                   "quota": "1:1", "elig": "0.5", "bene": "0.5"}


def random_inputs(params: dict[str, str]) -> tuple[int, Iterator[Problem]]:
    """The draw count, and the Problems drawn one at a time, from key=value
    tokens: patients= categories= seed= count= quota= elig= bene=.

    An unknown key, a value that is not a number, or one that GenConfig
    refuses is refused by its key, before anything is drawn.  So are draws
    that cannot fit the oracle budget: every category has at least the
    quota range's low end of seats.
    """
    for key in params:
        if key not in RANDOM_DEFAULTS:
            raise ValueError(f"unknown --random key {key!r}; expected one of {', '.join(RANDOM_DEFAULTS)}")
    raw = {**RANDOM_DEFAULTS, **params}

    def number(key: str, text: str, kind: type = int):
        try:
            return kind(text)
        except ValueError:
            what = "an integer" if kind is int else "a number"
            raise ValueError(f"--random {key}={raw[key]}: {text!r} is not {what}") from None

    patients, categories, seed, count = (number(k, raw[k]) for k in ("patients", "categories", "seed", "count"))
    if count < 1:
        raise ValueError(f"--random count must be at least 1, got {count}")
    lo, _, hi = raw["quota"].partition(":")
    cfg = GenConfig(0, 0, seed=seed)
    for key, field, value in (
        ("patients", "patients", patients),
        ("categories", "categories", categories),
        ("quota", "quota_range", (number("quota", lo), number("quota", hi or lo))),
        ("elig", "eligibility_density", number("elig", raw["elig"], float)),
        ("bene", "beneficiary_density", number("bene", raw["bene"], float)),
    ):
        try:  # one field at a time, so that GenConfig's own check names the key
            cfg = replace(cfg, **{field: value})
        except ValueError as exc:
            raise ValueError(f"--random {key}={raw[key]}: {exc}") from None
    budget, seats = budget_from_env(), categories * cfg.quota_range[0]
    if patients > budget.max_patients or seats > budget.max_seats:
        raise BudgetExceededError(
            f"--random draws {patients} patients and at least {seats} seats; "
            f"budget allows {budget.max_patients} patients and {budget.max_seats} seats; "
            f"raise it with {BUDGET_ENV}=patients,seats,states"
        )
    return count, (gen_random(replace(cfg, seed=seed + i)) for i in range(count))
