"""Output checks and input shapes, one checker per CLI subcommand.

A checker takes the instance files of one copy and the captured stdout
of one op on them.  It raises CheckFailed when the output is wrong and
otherwise returns the copy's shape.  The checks run through the public
API with tracing off, never inside a timed op.  They are independent of
the route that produced the output: they re-validate it (matching
validity and score, every verify line), they do not re-run it.  No op prints its frontier, so frontier_shape
computes the frontiers of copy 0 and applies check_frontier_invariants.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

from reserve_frontier.core import Matching, expand_to_seats, match_point, validate_matching
from reserve_frontier.frontier import check_frontier_invariants, compute_frontier
from reserve_frontier.serialize import parse_instance_file


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _instance(obj):
    problem = getattr(obj, "problem", obj)
    return getattr(problem, "instance", problem)


def _base_shape(path: Path) -> tuple[object, dict]:
    obj = parse_instance_file(str(path))
    si = expand_to_seats(_instance(obj))
    return obj, {"patients": len(si.patients), "seats": len(si.seats)}


def check_solve(files: list[Path], stdout: str) -> dict:
    obj, shape = _base_shape(files[0])
    body, _, last = stdout.rstrip("\n").rpartition("\n")
    doc = json.loads(body)
    m = re.fullmatch(r"e=(\d+) b=(\d+) beta=(\d+/\d+) target=(\d+/\d+)", last)
    _require(m is not None, f"bad summary line {last!r}")
    e, b = int(m.group(1)), int(m.group(2))
    _require((doc["e"], doc["b"]) == (e, b), "matching JSON and summary line disagree")
    _require(doc["priority_violations"] == 0, "priority violations remain after repair")
    problem = getattr(obj, "problem", obj)
    _require(Fraction(doc["target"]) == problem.beta_star, "wrong target echoed")
    si = expand_to_seats(_instance(obj))
    free: dict[str, list[str]] = {}
    for s in si.seats:
        free.setdefault(si.category_of(s), []).append(s)
    pairs = []
    for p, c in doc["assignment"].items():
        _require(bool(free.get(c)), f"category {c} over its quota")
        pairs.append((p, free[c].pop(0)))
    matching = Matching(tuple(pairs))
    try:
        validate_matching(si, matching)
    except ValueError as exc:
        raise CheckFailed(f"invalid matching: {exc}") from exc
    _require(match_point(si, matching) == (e, b), "reported e,b is not the matching's score")
    if e:
        _require(Fraction(m.group(3)) == Fraction(b, e), "reported beta is not b/e")
    return {**shape, "e": e, "b": b}


def frontier_shape(files: list[Path]) -> dict:
    """Frontier points and kinks, summed over the files; no op prints them.

    Each frontier must also pass check_frontier_invariants.
    """
    points = kinks = 0
    for path in files:
        f = compute_frontier(expand_to_seats(_instance(parse_instance_file(str(path)))))
        try:
            check_frontier_invariants(f)
        except Exception as exc:
            raise CheckFailed(f"{path.name}: frontier invariants: {exc}") from exc
        points, kinks = points + len(f.points), kinks + len(f.kinks)
    return {"points": points, "kinks": kinks}


_VERIFY_SUMMARY = re.compile(r"(\d+)/(\d+) checks passed on 1 instance\(s\)")


def check_verify(files: list[Path], stdout: str) -> dict:
    # one op is one verify call per file; their outputs are concatenated
    checks = 0
    lines = stdout.splitlines()
    for line in lines:
        summary = _VERIFY_SUMMARY.fullmatch(line)
        if summary:
            _require(summary.group(1) == summary.group(2), f"failed checks: {line}")
            continue
        _require(line.startswith("PASS "), f"check did not pass: {line}")
        checks += 1
    _require(sum(1 for l in lines if _VERIFY_SUMMARY.fullmatch(l)) == len(files),
             "missing summary line")
    shapes = [_base_shape(f)[1] for f in files]
    return {"instances": len(files), "patients": sum(s["patients"] for s in shapes),
            "seats": sum(s["seats"] for s in shapes), "checks": checks}


CHECKERS = {
    "solve": check_solve,
    "verify": check_verify,
}

# Smallest shape that still exercises the layer a workload is about; a
# seed or program change that drops below it must not pass quietly.
SHAPE_FLOORS = {
    "solve-walk": {"points": 10, "kinks": 3},
    "verify-oracle": {"instances": 10, "checks": 100},
}


def shape_floor_breaches(workload: str, shape: dict) -> list[str]:
    return [
        f"{key}={shape.get(key)} < {floor}"
        for key, floor in SHAPE_FLOORS[workload].items()
        if shape.get(key, 0) < floor
    ]
