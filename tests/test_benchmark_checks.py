"""The benchmark's output checker reads the program through its public API.

perfbench/checks.py re-validates each op's output on the seat-keyed view
of an instance (expand_to_seats, seats, category_of, validate_matching,
match_point).  These tests run it on CLI output for one small file, so a
change to a name it reads fails here and not first in a benchmark run.
The checker is read from its file and executed, never imported, so no
bytecode is written next to it.
"""

from __future__ import annotations

import types
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from reserve_frontier import GenConfig, Problem, compute_frontier, gen_random
from reserve_frontier.cli import main
from reserve_frontier.serialize import instance_to_json

CHECKS = Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"


@pytest.fixture(scope="module")
def checks() -> types.ModuleType:
    module = types.ModuleType("perfbench_checks")
    module.__file__ = str(CHECKS)
    exec(compile(CHECKS.read_text(encoding="utf-8"), str(CHECKS), "exec"), module.__dict__)
    return module


@pytest.fixture
def draw(tmp_path) -> tuple[Path, Problem]:
    """A 6-patient, 4-category draw with a share target, inside the oracle budget."""
    pr = replace(gen_random(GenConfig(6, 4, (1, 1), 0.6, 0.5, seed=4)), beta_star=Fraction(1, 2))
    path = tmp_path / "draw.json"
    path.write_text(instance_to_json(pr))
    return path, pr


def cli_stdout(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_the_checker_accepts_solve_and_refuses_a_wrong_score(checks, draw, capsys):
    path, _ = draw
    out = cli_stdout(capsys, "solve", str(path), "--respect-priority")
    shape = checks.check_solve([path], out)
    e, b = shape["e"], shape["b"]
    assert (shape["patients"], shape["seats"]) == (6, 4) and f"\ne={e} b={b} " in out
    wrong = out.replace(f'"b": {b},', f'"b": {b + 1},').replace(f"e={e} b={b} ", f"e={e} b={b + 1} ")
    with pytest.raises(checks.CheckFailed, match="not the matching's score"):
        checks.check_solve([path], wrong)


def test_the_checker_shapes_the_frontier(checks, draw):
    path, pr = draw
    f = compute_frontier(pr)
    assert checks.frontier_shape([path]) == {"points": len(f.points), "kinks": len(f.kinks)}


def test_the_checker_accepts_verify_and_refuses_a_failed_line(checks, draw, capsys):
    path, _ = draw
    out = cli_stdout(capsys, "verify", str(path))
    shape = checks.check_verify([path], out)
    assert shape == {"instances": 1, "patients": 6, "seats": 4, "checks": len(out.splitlines()) - 1}
    with pytest.raises(checks.CheckFailed, match="check did not pass"):
        checks.check_verify([path], out.replace("PASS ", "FAIL ", 1))
