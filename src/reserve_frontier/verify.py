"""Cross-checks between the fast algorithms and the exhaustive oracle.

Each suite takes (census, f), the oracle Census of one Problem
(census.pr) and that Problem's computed frontier, and returns
CheckResult rows.  A check that can name a fault returns its first
failure as text, or "" when it passes, and _row makes its row; a lemma
row (_lemma) prints what it counted before the failure, and a yes/no
check with nothing to name is the CheckResult of its bool.  A route
that raises ValueError inside a suite, say by returning a row that is no
matching, fails that suite with one route-raised row in place of its
rows: the input was admitted before any suite ran.  The suites never
share code with the algorithms they audit beyond the core data types,
so a bug has to appear on both routes to slip through.
Every check lives here; the oracle only computes.
run_suites builds one census and one frontier per Problem and hands
them to every suite: the oracle Census, built with the computed
frontier's points, enumerates it once however many suites and targets
read it, and the mechanism suite reads each target's point and witness
off the shared frontier; selection's own route (mechanism._select) runs
once, at the repair target.  A suite that needs samples at other
points, as the lemma checks do at the oracle's own frontier when the
two disagree, gets them from _sampled_at, the one function that builds
a second Census of an instance.  The checks call the routes they audit
through this module's names, so a test can break a route by patching it
here.

Matchings reach these checks as category rows (row[i] is the index of
patient i's category, or -1).  A check names a row only to print it, or
to score it with _score, by match_point on patient and seat ids, apart
from the pair-code scorer (core.row_point) of the routes it checks.

Setting RESERVE_FRONTIER_INJECT_CORRUPTION=1 deliberately corrupts the
frontier that the frontier suite checks, and only that copy.  That is
the negative control: a verifier that cannot fail is not verifying
anything.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, pairwise
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


def _row(suite: str, check: str, failure: str, detail: str = "") -> CheckResult:
    """The row of a check that returns its first failure: it passes when
    failure is "", and prints failure, or detail when it passes."""
    return CheckResult(suite, check, not failure, failure or detail)


def _score(pr: Problem, row) -> MatchPoint:
    """The (e, b) of a category row, by match_point on patient and seat ids."""
    return match_point(pr, pr.name_row(row))


def _mutual_domination(points) -> str:
    """The first pair of points where one dominates the other, named
    dominating point first, or ""."""
    for p, q in combinations(points, 2):
        for a, b in ((q, p), (p, q)):
            if dominates(a, b):
                return f"{a} dominates {b}"
    return ""


def _shape_failure(f: Frontier) -> str:
    """check_frontier_invariants' complaint about f, or ""."""
    try:
        check_frontier_invariants(f)
    except Exception as exc:  # report, do not abort the suite
        return str(exc) or type(exc).__name__  # a failure with no message still fails
    return ""


def verify_frontier(census: Census, f: Frontier) -> list[CheckResult]:
    """Computed frontier == enumerated frontier, plus its shape invariants."""
    pr, oracle, f = census.pr, census.frontier, _maybe_corrupt(f)
    results = [
        _row("frontier", "mutual-non-domination", _mutual_domination(f.points)),
        _row("frontier", "shape-invariants", _shape_failure(f)),
        _row("frontier", "matches-exhaustive-enumeration",
             "" if f.points == oracle.points else f"fast={list(f.points)} oracle={list(oracle.points)}"),
        _row("frontier", "kinks-match",
             "" if f.kinks == oracle.kinks else f"fast={list(f.kinks)} oracle={list(oracle.kinks)}"),
        CheckResult("frontier", "witnesses-score-their-points",
                    all(_score(pr, row) == pt for pt, row in f.witnesses.items())),
    ]
    if f.e_max:
        ratio = half_bound_ratio(f)
        results.append(CheckResult("frontier", "range-at-most-half", ratio <= Fraction(1, 2), f"ratio={ratio}"))
    return results


def _minimal_loss(census: Census, points) -> str:
    """The first failure, in frontier order, of a sampled matching whose
    cheapest cycle disagrees with exhaustive cycle search or lands off the
    frontier, or "".  The census samples exactly these points."""
    pr = census.pr
    for pt in points:
        for row in census.samples[pt]:
            cyc = cheapest_cycle(pr, row)
            want = oracle_min_cycle_loss(pr, row, census.budget)
            if cyc is None:
                if want is not None:
                    return f"missed a cycle at {pt}"
                if pt != points[-1]:
                    return f"no cycle before the max-size point {pt}"
                continue
            nxt = _score(pr, apply_cycle(pr, row, cyc))
            got = pt.b - nxt.b  # the sample at pt scores pt
            if want is None or got != want:
                return f"loss {got} vs exhaustive {want} at {pt}"
            if nxt not in census.points:
                return f"cheapest cycle from {pt} landed off the frontier at {nxt}"
    return ""


def verify_cycles(census: Census, f: Frontier) -> list[CheckResult]:
    """Minimal reassignment cycles agree with exhaustive cycle search."""
    if f.e_max == 0:
        return [_row("cycles", "walk-covers-frontier", "", "empty frontier")]
    walk_pts = [pt for pt, _ in frontier_walk(census.pr, f.witnesses[f.points[0]])]
    walked = "" if walk_pts == list(f.points) else f"walk={walk_pts} frontier={list(f.points)}"
    sampled = _sampled_at(census, f.points)
    return [
        _row("cycles", "walk-covers-frontier", walked),
        _row("cycles", "minimal-loss-matches-exhaustive", _minimal_loss(sampled, f.points),
             f"mode={sampled.mode}"),
    ]


def _sampled_at(census: Census, points) -> Census:
    """census if it was built with exactly these points, else a Census of
    its instance that samples them, so that a frontier that disagrees with
    the oracle still gets its samples."""
    if census.points == frozenset(points):
        return census
    return Census(census.pr, census.budget, points)


def _lemma(check: str, counts: str, failure: str) -> CheckResult:
    """A lemma check's row: what it counted, then its first failure if any."""
    tail = f" first failure: {failure}" if failure else ""
    return CheckResult("lemmas", check, not failure, counts + tail)


def _disjoint_cycles(census: Census) -> CheckResult:
    """For every frontier pair f2 -> f1 (e1 > e2) and every sampled matching at
    f2, find e1-e2 pairwise disjoint applicable cycles with positive losses
    summing to b2-b1 whose joint application lands exactly on f1.  The
    census samples its own frontier's points."""
    pr, budget, f = census.pr, census.budget, census.frontier
    pairs = witnesses = 0
    failure = ""
    for lo_idx, f2 in enumerate(f.points[:-1]):
        # the cycles of a sampled matching serve every f1 above its f2
        sampled = []
        for row2 in census.samples[f2]:
            free = [q - row2.count(c) for c, q in enumerate(pr.quotas)]
            positive = [
                (list(zip(ps, cs)), frozenset(ps), cs[-1], loss)
                for ps, cs, loss in _applicable_cycles(pr, row2, budget)
                if loss >= 1
            ]
            sampled.append((row2, free, positive))
        for f1 in f.points[lo_idx + 1 :]:
            k = f1.e - f2.e
            target = f2.b - f1.b
            pairs += 1
            for row2, free, positive in sampled:
                witnesses += 1
                family = _find_disjoint_family(positive, k, target, free, budget)
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
                landed = _score(pr, row)
                if landed != f1:
                    failure = failure or f"joint application landed on {landed}, expected {f1}"
    counts = f"pairs={pairs} witnesses={witnesses} mode={census.mode}"
    return _lemma("gaps-split-into-disjoint-cycles", counts, failure)


def _matched_preservation(census: Census) -> CheckResult:
    """For every frontier pair f2 -> f1 (e1 > e2) and every sampled matching at
    f2, some matching at f1 keeps all of f2's matched patients matched.  The
    census samples its own frontier's points."""
    f = census.frontier
    pairs = 0
    failure = ""
    for lo_idx, f2 in enumerate(f.points):
        for f1 in f.points[lo_idx + 1 :]:
            pairs += 1
            for row2 in census.samples[f2]:
                kept = [i for i, c in enumerate(row2) if c != -1]
                mask = sum(1 << i for i in kept)
                if not failure and not any(mask & s == mask for s in census.matched[f1]):
                    named = sorted(census.pr.patients[i] for i in kept)
                    failure = f"no matching at {f1} keeps matched set {named} from {f2}"
    return _lemma("matched-sets-extend-along-frontier", f"pairs={pairs} mode={census.mode}", failure)


def _kink_sweep(pr: Problem, f: Frontier) -> str:
    """The first kink that the sweep at its left drop misses, or ""."""
    pts = f.points if f.e_max else ()
    for i, pt in enumerate(pts):
        if pt in f.kinks:
            d = pts[i - 1].b - pt.b if i else 0  # the left drop
            got, _ = frontier_iteration(pr, d)
            if got != pt:
                return f"sweep {d} gave {got}, expected {pt}"
    return ""


def verify_lemmas(census: Census, f: Frontier) -> list[CheckResult]:
    """Structural facts: disjoint cycle families, matched-set preservation, kink sweep."""
    sampled = _sampled_at(census, census.frontier.points)
    return [
        _disjoint_cycles(sampled),
        _matched_preservation(sampled),
        _row("lemmas", "kinks-surface-at-their-tradeoff-weight", _kink_sweep(census.pr, f)),
    ]


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


def _exact_share_domination(beta: Fraction, selected: MatchPoint, census: Census) -> str:
    """The failure, or "" when the selected point dominates every matching
    whose share is exactly the target (meaningful when the selected share
    differs from it).  b/e = num/den is tested exactly as b*den == e*num at
    each point the census counts, and the first undominated one, in
    enumeration order, fails."""
    num, den = beta.numerator, beta.denominator
    for pt in census.counts:
        if pt.e and pt.b * den == pt.e * num and not dominates(selected, pt):
            return (f"exact-share rival undominated: matching at {pt} with exact share {beta} "
                    f"is not dominated by {selected}")
    return ""


def _selection(census: Census, f: Frontier, target: Fraction, row, pt) -> str:
    """The first failure of the selection rule read off f, or "": (row, pt),
    selection's own answer at target, must be f's point there and its
    witness_at row; at each of _targets_for's targets the rule's witness
    must score its point, which must dominate every exact-share rival."""
    pr, shares = census.pr, [Fraction(p.b, p.e) for p in f.points]

    def rule(beta: Fraction) -> MatchPoint:
        qualifying = [p for p, share in zip(f.points, shares) if share >= beta]
        return qualifying[-1] if qualifying else f.points[0]

    if pt != rule(target):
        return f"picked {pt}, expected {rule(target)} at target {target}"
    if row != witness_at(pr.pair_codes, f, pt):
        return f"selected row is not the frontier's witness at {pt}, target {target}"
    scored: set[MatchPoint] = set()  # points whose witness _score scored
    for beta in _targets_for(pr.beta_star, f):
        want = rule(beta)
        if want not in scored and _score(pr, witness_at(pr.pair_codes, f, want)) != want:
            return f"witness off the frontier at target {beta}"
        scored.add(want)
        if Fraction(want.b, want.e) != beta and (rival := _exact_share_domination(beta, want, census)):
            return rival
    return ""


def verify_mechanism(census: Census, f: Frontier) -> list[CheckResult]:
    """Selection rule, share guarantee, domination of exact-share rivals, repair.

    Every target reads the rule's point and its witness off the shared
    frontier f.  Selection itself (mechanism._select, which sweeps only
    what its point needs) runs once, at the repair target, and must give
    f's point and witness_at's row there."""
    pr = census.pr
    if f.e_max == 0:
        try:
            _select(pr.pair_codes, pr.quotas, Fraction(1, 2))
        except NoNonEmptyMatchingError:
            return [CheckResult("mechanism", "empty-instance-refused", True)]
        return [CheckResult("mechanism", "empty-instance-refused", False)]

    # the priority functions never read beta_star, so pr itself serves
    target = Fraction(1, 2) if pr.beta_star is None else pr.beta_star
    row, pt = _select(pr.pair_codes, pr.quotas, target)
    selection = _selection(census, f, target, row, pt)
    fixed = repair_priority(pr, row)
    return [
        CheckResult("mechanism", "share-falls-strictly-along-frontier",
                    all(p.b * q.e > q.b * p.e for p, q in pairwise(f.points))),  # b/e falls, exactly
        _row("mechanism", "selection-rule-and-exact-share-domination", selection),
        CheckResult("mechanism", "priority-repair-keeps-the-point",
                    _score(pr, fixed) == pt and not respects_priority(pr, fixed)
                    and rank_sum(pr, fixed) <= rank_sum(pr, row),
                    f"violations before={len(respects_priority(pr, row))}"),
    ]


SUITE_FUNCS = {
    "frontier": verify_frontier,
    "cycles": verify_cycles,
    "lemmas": verify_lemmas,
    "mechanism": verify_mechanism,
}
SUITES = tuple(SUITE_FUNCS)


def run_suites(pr: Problem, suites: tuple[str, ...]) -> list[CheckResult]:
    budget = budget_from_env()
    _check_size(pr, budget)  # an instance the oracle refuses is never solved
    f = compute_frontier(pr)
    census = Census(pr, budget, f.points)
    out: list[CheckResult] = []
    for name in suites:
        try:
            out.extend(SUITE_FUNCS[name](census, f))
        except ValueError as exc:  # a checked route refused its own answer: the suite fails, the input stands
            out.append(CheckResult(name, "route-raised", False, f"{type(exc).__name__}: {exc}"))
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
