from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import reserve_frontier
import reserve_frontier.cli as cli_module
import reserve_frontier.core as core_module
import reserve_frontier.mechanism as mechanism_module
import reserve_frontier.verify as verify_module
from conftest import tier_order
from reserve_frontier import (
    NAMED_INSTANCES,
    SUITES,
    Cycle,
    GenConfig,
    MatchPoint,
    Problem,
    gen_named,
    gen_random,
    restrict_patients,
    run_suites,
)
from reserve_frontier.cli import main, parse_subset_tokens
from reserve_frontier.serialize import emit_instance, instance_to_json, parse_instance
from reserve_frontier.verify import random_inputs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_commands_in_one_process_match_separate_processes(capsys):
    calls = [
        ("frontier", "--named", "conflict", "--format", "json"),
        ("solve", "--named", "beta-threshold"),
        ("verify", "--named", "conflict", "--suite", "frontier"),
        ("frontier",),  # no input: exit 2
    ]
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    env = {**os.environ, "PYTHONPATH": str(Path(reserve_frontier.__file__).parents[1])}
    for argv, (code, out) in zip(calls, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "reserve_frontier.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (code, out), argv
    assert [code for code, _ in in_process] == [0, 0, 0, 2]


UNUSED_SCIPY = ("scipy.optimize", "scipy.linalg", "scipy.special")
IMPORT_PROBE = f"""
import sys
from reserve_frontier.cli import main
code = main(sys.argv[1:])
print("imported:", *[m for m in {UNUSED_SCIPY!r} if m in sys.modules], file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize(
    "argv",
    [
        ("frontier", "--named", "conflict"),
        ("solve", "--named", "beta-threshold", "--respect-priority"),
        ("verify", "--named", "conflict"),
        ("audit", "--named", "conflict"),
    ],
    ids=lambda argv: argv[0],
)
def test_no_command_imports_scipy_optimize(argv, capsys):
    # scipy.optimize's package __init__ pulls in scipy.linalg and
    # scipy.special, most of a second of start-up that no command uses
    code, out, _ = run(capsys, *argv)
    env = {**os.environ, "PYTHONPATH": str(Path(reserve_frontier.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert code == 0
    assert (proc.returncode, proc.stdout) == (0, out)
    assert proc.stderr.splitlines()[-1] == "imported:"


def test_a_replaced_command_runs_after_the_parser_is_built(monkeypatch, capsys):
    assert run(capsys, "frontier", "--named", "conflict")[0] == 0
    seen = []
    monkeypatch.setattr(cli_module, "cmd_frontier", lambda args: seen.append(args.named) or 0)
    assert run(capsys, "frontier", "--named", "figure1") == (0, "", "")
    assert seen == ["figure1"]


def test_subset_token_parsing():
    assert parse_subset_tokens("p1..p3,p7", 7) == ["p1", "p2", "p3", "p7"]
    assert parse_subset_tokens("p2..4", 3) == ["p2", "p3", "p4"]
    assert parse_subset_tokens("alice, bob", 2) == ["alice", "bob"]
    assert parse_subset_tokens("p01..p03", 3) == ["p01", "p02", "p03"]  # ends of one width keep it
    assert parse_subset_tokens("p098..p100", 3) == ["p098", "p099", "p100"]
    assert parse_subset_tokens("p9..p11", 3) == ["p9", "p10", "p11"]
    with pytest.raises(ValueError):
        parse_subset_tokens("p5..p2", 7)


def test_subset_range_longer_than_the_instance_is_refused_unexpanded(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "frontier", "--named", "conflict", "--subset", "p1..p1000000000000")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert "'p1..p1000000000000'" in err and "2 patient(s)" in err


def test_frontier_csv_stdout(capsys):
    code, out, _ = run(capsys, "frontier", "--named", "conflict")
    assert code == 0
    assert out == "e,b,beta_num,beta_den,is_kink\n1,1,1,1,1\n2,0,0,1,1\n"


def test_frontier_json_and_byte_stability(capsys):
    code, out1, _ = run(capsys, "frontier", "--named", "path-independence", "--format", "json")
    code2, out2, _ = run(capsys, "frontier", "--named", "path-independence", "--format", "json")
    assert code == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert [(p["e"], p["b"]) for p in doc["points"]] == [(4, 2), (5, 1)]


def test_frontier_subset_restriction(capsys):
    code, out, _ = run(
        capsys, "frontier", "--named", "path-independence", "--subset", "p1..p5"
    )
    assert code == 0
    assert out == "e,b,beta_num,beta_den,is_kink\n4,1,1,4,1\n5,0,0,1,1\n"


def test_solve_subset_keeps_the_share_and_each_priority_order_on_the_kept_patients(tmp_path, capsys):
    draw = gen_random(GenConfig(12, 4, (1, 2), 0.5, 0.5, seed=3))

    def reversed_tiers(c):  # admissible, and not the tier order: each tier in reverse input order
        bene, elig = draw.beneficiary[c], draw.eligible[c]
        return tuple(sorted(draw.patients[::-1], key=lambda p: (p not in bene, p not in elig)))

    pr = replace(draw, beta_star=Fraction(1, 3), priority={c: reversed_tiers(c) for c in draw.categories})
    keep = ("p2", "p3", "p4", "p5", "p6", "p7", "p11")
    sub = restrict_patients(pr, keep)
    assert sub.beta_star == pr.beta_star
    assert sub.priority == {c: tuple(p for p in ps if p in keep) for c, ps in pr.priority.items()}
    assert sub.priority != tier_order(sub)
    whole, restricted = tmp_path / "whole.json", tmp_path / "restricted.json"
    whole.write_text(instance_to_json(pr))
    restricted.write_text(instance_to_json(sub))
    want = run(capsys, "solve", str(restricted), "--respect-priority")
    assert want[0] == 0 and want[2] == ""
    assert run(capsys, "solve", str(whole), "--respect-priority", "--subset", "p2..p7,p11") == want


def test_a_validation_fault_names_the_least_id_under_every_hash_seed(tmp_path):
    unknown, ineligible = tmp_path / "unknown.json", tmp_path / "ineligible.json"
    unknown.write_text(json.dumps(
        {"patients": ["p1"], "categories": [{"id": "c1", "quota": 1, "eligible": ["x1", "y2", "z3", "w4"]}]}
    ))
    ineligible.write_text(json.dumps({
        "patients": ["p1", "x1", "y2", "z3", "w4"],
        "categories": [{"id": "c1", "quota": 1, "eligible": ["p1"], "beneficiary": ["x1", "y2", "z3", "w4"]}],
    }))
    env = {**os.environ, "PYTHONPATH": str(Path(reserve_frontier.__file__).parents[1])}
    for path, message in ((unknown, "eligible patient w4 not in patient set"), (ineligible, "beneficiary w4 not eligible")):
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, "-m", "reserve_frontier.cli", "frontier", str(path)],
                capture_output=True, text=True, env={**env, "PYTHONHASHSEED": seed}, timeout=120,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: category c1: {message}\n"), seed


def test_frontier_file_output_and_witness_sidecar(tmp_path, capsys):
    out_path = tmp_path / "f.csv"
    code, out, _ = run(
        capsys, "frontier", "--named", "conflict", "--witnesses", "-o", str(out_path)
    )
    assert code == 0 and out == ""
    assert out_path.read_text().startswith("e,b,")
    sidecar = json.loads((tmp_path / "f.csv.witnesses.json").read_text())
    assert {w["e"] for w in sidecar["witnesses"]} == {1, 2}


def test_frontier_csv_witnesses_to_stdout_is_an_error(capsys):
    code, _, err = run(capsys, "frontier", "--named", "conflict", "--witnesses")
    assert code == 2
    assert "sidecar" in err


def test_frontier_csv_witnesses_without_output_fail_before_any_work(monkeypatch, capsys):
    import reserve_frontier.cli as cli_module

    def no_work(*args, **kwargs):
        raise AssertionError("the frontier was computed before the arguments were checked")

    monkeypatch.setattr(cli_module, "compute_frontier", no_work)
    code, out, err = run(capsys, "frontier", "--named", "figure1", "--witnesses")
    assert code == 2 and out == ""
    assert "-o" in err


def test_solve_summary_line(capsys):
    code, out, _ = run(capsys, "solve", "--named", "beta-threshold")
    assert code == 0
    doc = json.loads(out[: out.rindex("\n", 0, out.rindex("\n"))])
    assert doc["assignment"] == {"p1": "c1", "p2": "c2"}
    assert out.endswith("e=2 b=1 beta=1/2 target=7/10\n")


def test_solve_on_an_instance_with_no_eligible_pair_exits_2(tmp_path, capsys):
    path = tmp_path / "none.json"
    path.write_text(json.dumps({"beta_star": "1/2", "patients": ["p1"],
                                "categories": [{"id": "c1", "quota": 1, "eligible": [], "beneficiary": []}]}))
    for extra in ((), ("--respect-priority",)):
        assert run(capsys, "solve", str(path), *extra) == (2, "", "error: no non-empty matching exists\n")


def test_solve_requires_a_share_target(capsys):
    code, _, err = run(capsys, "solve", "--named", "conflict")
    assert code == 2
    assert "beta_star" in err


@pytest.mark.parametrize("named", [True, False], ids=["named", "file"])
def test_solve_without_a_share_target_names_its_input(named, tmp_path, capsys):
    path = tmp_path / "no-target.json"
    path.write_text(json.dumps(emit_instance(gen_named("conflict"))))
    source = "--named conflict" if named else str(path)
    code, out, err = run(capsys, "solve", *(["--named", "conflict"] if named else [str(path)]))
    assert code == 2 and out == ""
    assert err == f"error: {source}: solve needs a beta_star, and this input has none\n"


def test_solve_with_priority_repair(tmp_path, capsys):
    out_path = tmp_path / "m.json"
    code, out, _ = run(
        capsys,
        "solve",
        "--named",
        "path-independence",
        "--respect-priority",
        "-o",
        str(out_path),
    )
    assert code == 0
    assert out == "e=5 b=1 beta=1/5 target=1/5\n"
    doc = json.loads(out_path.read_text())
    assert doc["priority_violations"] == 0
    assert doc["e"] == 5 and doc["b"] == 1


def test_solve_repair_builds_no_tier_order(monkeypatch, tmp_path, capsys):
    # the solver seats p2 in c2; the tier order prefers the unmatched p1,
    # and the repair must find that without a full order or its validation
    def forbidden(*args):
        raise AssertionError("a tier order was materialized")

    monkeypatch.setattr(core_module, "_validate_priority", forbidden)
    everyone = ["p1", "p2", "p3", "p4"]
    path = tmp_path / "inst.json"
    path.write_text(
        json.dumps(
            {
                "beta_star": "1/2",
                "patients": everyone,
                "categories": [
                    {"id": c, "quota": 1, "eligible": everyone, "beneficiary": ["p4"]}
                    for c in ("c1", "c2")
                ],
            }
        )
    )
    code, out, err = run(capsys, "solve", str(path), "--respect-priority")
    assert (code, err) == (0, "")
    assert out == (
        "{\n"
        '  "assignment": {\n'
        '    "p1": "c2",\n'
        '    "p4": "c1"\n'
        "  },\n"
        '  "b": 1,\n'
        '  "beta": "1/2",\n'
        '  "e": 2,\n'
        '  "priority_violations": 0,\n'
        '  "target": "1/2"\n'
        "}\n"
        "e=2 b=1 beta=1/2 target=1/2\n"
    )


def count_calls(monkeypatch, name: str) -> list:
    """Records every call of core's function name, under any name the package binds it to."""
    calls = []
    original = getattr(core_module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    for modname, module in list(sys.modules.items()):
        if modname.startswith("reserve_frontier") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.fixture
def expansions(monkeypatch):
    """Records every build of a Problem's indexed form: its pair codes."""
    calls = []
    build = core_module.Problem.pair_codes.func

    def counting(pr):
        calls.append(pr)
        return build(pr)

    counted = functools.cached_property(counting)
    counted.__set_name__(core_module.Problem, "pair_codes")
    monkeypatch.setattr(core_module.Problem, "pair_codes", counted)
    return calls


def test_solve_with_repair_expands_the_instance_once(expansions, capsys):
    code, out, _ = run(capsys, "solve", "--named", "path-independence", "--respect-priority")
    assert code == 0 and '"priority_violations": 0' in out
    assert len(expansions) == 1


def test_audit_expands_the_instance_once_for_every_subset(expansions, capsys):
    code, out, _ = run(capsys, "audit", "--named", "path-independence", "--check", "both")
    assert code == 0 and "substitutability: 3 violation(s)" in out
    assert len(expansions) == 1


def test_run_suites_expands_each_instance_once(expansions):
    empty = Problem(
        categories=("c1",), patients=("p1",), quota={"c1": 1}, eligible={}, beneficiary={}
    )
    prioritized = parse_instance(
        {
            "categories": [{"id": "c1", "quota": 1, "eligible": ["p1", "p2"], "beneficiary": ["p2"]}],
            "patients": ["p1", "p2"],
            "beta_star": "1/3",
            "priority": {"c1": ["p2", "p1"]},
        }
    )
    problems = [gen_named(n) for n in NAMED_INSTANCES] + [empty, prioritized]
    problems += random_inputs({"patients": "6", "categories": "5", "count": "8"})[1]
    for pr in problems:
        expansions.clear()
        results = run_suites(pr, SUITES)
        assert results and all(r.ok for r in results)
        assert len(expansions) == 1


def test_each_input_is_validated_once(monkeypatch, tmp_path, capsys):
    validations = count_calls(monkeypatch, "_validate_instance")
    pr = gen_named("path-independence")
    prioritized = replace(pr, priority=tier_order(pr))
    paths = []
    for name, problem in (("plain", pr), ("prioritized", prioritized)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(emit_instance(problem)))
    for argv in (
        ("solve", str(paths[0]), "--respect-priority"),
        ("solve", str(paths[1]), "--respect-priority"),
        ("verify", str(paths[0]), "--jobs", "1"),
        ("frontier", "--named", "conflict"),
        ("audit", str(paths[0]), "--check", "both"),
        ("audit", "--named", "conflict"),  # no share target
    ):
        validations.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert len(validations) == 1, argv


def test_random_verify_validates_each_draw_once(monkeypatch, capsys):
    validations = count_calls(monkeypatch, "_validate_instance")
    assert run(capsys, "verify", "--random", "count=20", "--jobs", "1")[0] == 0
    assert len(validations) == 20


def test_instance_file_input(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(emit_instance(gen_named("beta-threshold"))))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 0
    assert out.endswith("e=2 b=1 beta=1/2 target=7/10\n")


def test_bad_inputs_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(capsys, "frontier", str(bad))[0] == 2
    assert run(capsys, "frontier")[0] == 2  # neither file nor --named
    code, _, err = run(capsys, "frontier", str(bad), "--named", "conflict")
    assert code == 2 and "give an input file or --named, not both" in err
    missing = tmp_path / "missing.json"
    assert run(capsys, "frontier", str(missing))[0] == 2
    code, _, err = run(capsys, "frontier", "--named", "conflict", "--subset", "p1,p9")
    assert code == 2 and "p9" in err


@pytest.mark.parametrize("spec", ["", ",", " , "])
def test_a_subset_that_names_no_patient_exits_2_on_every_command(spec, capsys):
    for command in ("frontier", "solve", "verify", "audit"):
        code, out, err = run(capsys, command, "--named", "beta-threshold", "--subset", spec)
        assert (code, out) == (2, ""), command
        assert f"--subset {spec!r} names no patient" in err, command


@pytest.mark.parametrize(
    "extra", [("--subset", "p1"), ("--subset", ""), ("--named", "conflict")], ids=["subset", "empty-subset", "named"]
)
def test_verify_random_refuses_an_input_of_its_own(extra, capsys):
    code, out, err = run(capsys, "verify", "--random", "count=1", *extra)
    assert (code, out) == (2, "")
    assert "--random draws its own instances" in err


def schema_case(edit):
    doc = {
        "categories": [{"id": "c1", "quota": 1, "eligible": ["p1", "p2"], "beneficiary": ["p1"]}],
        "patients": ["p1", "p2"],
        "beta_star": "1/2",
    }
    edit(doc)
    return doc


SCHEMA_DEFECTS = {
    "list-category-id": (lambda d: d["categories"][0].update(id=["c1"]), "'id'"),
    "beta-star-zero-denominator": (lambda d: d.update(beta_star="1/0"), "beta_star"),
    "eligible-not-a-list": (lambda d: d["categories"][0].update(eligible="p1"), "'eligible'"),
    "integer-patient-ids": (lambda d: d.update(patients=[1, 2]), "'patients'"),
    "priority-unknown-category": (
        lambda d: d.update(priority={"c1": ["p1", "p2"], "zz": ["p1", "p2"]}),
        "unknown category zz",
    ),
}


@pytest.mark.parametrize("case", sorted(SCHEMA_DEFECTS))
def test_schema_defects_exit_2_naming_the_field(case, tmp_path, capsys):
    edit, field = SCHEMA_DEFECTS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(schema_case(edit)))
    code, out, err = run(capsys, "solve", str(path))
    assert code == 2 and out == ""
    assert field in err


def misspell(doc: dict, key: str, typo: str) -> None:
    doc[typo] = doc.pop(key)


@pytest.mark.parametrize("command", ["frontier", "verify", "audit"])
@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda d: misspell(d["categories"][0], "beneficiary", "benficiary"), "'benficiary'"),
        (lambda d: misspell(d, "beta_star", "betastar"), "'betastar'"),
    ],
    ids=["category-key", "top-level-key"],
)
def test_unknown_keys_exit_2_naming_the_key(command, edit, key, tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(schema_case(edit)))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert key in err


def test_oversized_quota_exits_2_before_building_seats(tmp_path, capsys):
    doc = {
        "categories": [{"id": "c1", "quota": 100_000_000, "eligible": ["p1"], "beneficiary": ["p1"]}],
        "patients": ["p1"],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    for command in ("frontier", "verify", "audit"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert "100000000 seat(s) exceed MAX_SEATS = 208063" in err


COMMANDS = ("frontier", "solve", "verify", "audit")
SEATS_DOC = {"categories": [{"id": "c1", "quota": 300_000}], "patients": ["p1", "p2"], "beta_star": "1/2"}
CELLS_DOC = {"categories": [{"id": "c1", "quota": 30_000}], "patients": [f"p{i}" for i in range(30_000)],
             "beta_star": "1/2"}
CELLS_MESSAGE = "30000 x 30000 = 900000000 cells exceed MAX_CELLS = 189774162"


@pytest.mark.parametrize(
    "subset, codes, messages",
    [
        ((), (2, 2, 2, 3), (CELLS_MESSAGE,) * 3 + ("choice audit over 30000 patients exceeds MAX_AUDIT_PATIENTS = 14",)),
        (("--subset", "p1..p3"), (0, 2, 3, 0),
         ("", "no non-empty matching exists", "instance has 3 patients and 30000 seats", "")),
    ],
    ids=["whole", "subset"],
)
def test_the_memory_limits_meet_only_the_patients_a_subset_keeps(subset, codes, messages, tmp_path, capsys):
    """A document over MAX_CELLS is refused when its pair codes are first
    built, so by every command but audit, whose patient cap comes first;
    restricted to three patients it is never refused for memory."""
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(CELLS_DOC))
    for command, want, message in zip(COMMANDS, codes, messages):
        code, _, err = run(capsys, command, str(path), *subset)
        assert code == want and message in err, (command, code, err)
        assert (err == "") == (code == 0), (command, err)


def tall_conflict_doc(n_fillers: int) -> dict:
    """Two conflict blocks, frontier (2, 2), (3, 1), (4, 0) with (3, 1) not a
    kink, plus patients eligible for nothing; beta_star selects (3, 1)."""
    categories = [
        {"id": "c1", "quota": 1, "eligible": ["p1"]},
        {"id": "c2", "quota": 1, "eligible": ["p1", "p2"], "beneficiary": ["p1"]},
        {"id": "d1", "quota": 1, "eligible": ["q1"]},
        {"id": "d2", "quota": 1, "eligible": ["q1", "q2"], "beneficiary": ["q1"]},
    ]
    patients = ["p1", "p2", "q1", "q2"] + [f"f{i}" for i in range(n_fillers)]
    return {"categories": categories, "patients": patients, "beta_star": "1/3"}


@pytest.mark.parametrize(
    "doc, argv, message",
    [
        (
            {"categories": [{"id": "c1", "quota": 208_064}], "patients": ["p1"]},
            ("frontier",),
            "instance too large for memory: 208064 seat(s) exceed MAX_SEATS = 208063",
        ),
        (
            {"categories": [{"id": "c1", "quota": 2 * 9741}], "patients": [f"p{i}" for i in range(9742)]},
            ("frontier",),
            f"instance (patients x seats) too large for memory: 9742 x 19482 = {9742 * 19482} cells"
            f" exceed MAX_CELLS = {2 * 9741**2}",
        ),
        # witnesses come from the frontier's one cost matrix, so the cell
        # limit is the one that guards them
        (
            {"categories": [{"id": "c1", "quota": 2 * 9741}], "patients": [f"p{i}" for i in range(9742)]},
            ("frontier", "--format", "json", "--witnesses"),
            f"instance (patients x seats) too large for memory: 9742 x 19482 = {9742 * 19482} cells",
        ),
        (
            {
                "categories": [{"id": "c1", "quota": 2 * 9741}],
                "patients": [f"p{i}" for i in range(9742)],
                "beta_star": "1/3",
            },
            ("solve",),
            "9742 x 19482",
        ),
        *[(SEATS_DOC, (command,), "300000 seat(s) exceed MAX_SEATS = 208063") for command in COMMANDS],
        *[(CELLS_DOC, (command,), CELLS_MESSAGE) for command in COMMANDS[:3]],
    ],
    ids=["seats", "patients-x-seats", "witness-frontier", "witness-solve",
         *[f"300k-seats-{command}" for command in COMMANDS], *[f"30k-cells-{command}" for command in COMMANDS[:3]]],
)
def test_memory_limits_exit_2_naming_the_limit_before_allocating(doc, argv, message, tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert message in err
    assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MiB"


def test_a_tall_instance_gets_its_segment_witness_from_frontier_and_solve(tmp_path, capsys):
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(tall_conflict_doc(20_000)))
    outs = []
    for argv in (("frontier", "--format", "json", "--witnesses"), ("solve",)):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and err == ""
        assert peak < 100 * 2**20, f"peak {peak / 2**20:.0f} MiB"
        outs.append(out)
    witness = {w["e"]: w["assignment"] for w in json.loads(outs[0])["witnesses"]}
    solved = json.loads(outs[1][: outs[1].rindex("}") + 1])
    assert sorted(witness) == [2, 3, 4] and solved["e"] == 3
    assert solved["assignment"] == witness[3]


def test_a_tall_instance_within_the_limits_gets_its_frontier(tmp_path, capsys):
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(tall_conflict_doc(20_000)))
    code, out, _ = run(capsys, "frontier", str(path))
    assert code == 0
    assert out.splitlines()[1:] == ["2,2,1,1,1", "3,1,1,3,0", "4,0,0,1,1"]


@pytest.mark.parametrize("value", ["a,7,5", "7,7,-1", "7,7,0", "-1,7,5"])
def test_bad_oracle_budget_exits_2_naming_the_variable(value, monkeypatch, capsys):
    monkeypatch.setenv("RESERVE_FRONTIER_ORACLE_BUDGET", value)
    code, out, err = run(capsys, "verify", "--named", "conflict")
    assert code == 2 and out == ""
    assert "RESERVE_FRONTIER_ORACLE_BUDGET=" in err and "patients,seats,states" in err


@pytest.mark.parametrize("command", ["solve", "frontier"])
@pytest.mark.parametrize("beta", ["1e-300000", "-1e-300000", "1e300000"])
def test_a_long_exponent_beta_star_exits_2_naming_the_field(tmp_path, capsys, command, beta):
    doc = {"categories": [{"id": "c1", "quota": 1, "eligible": ["p1"]}], "patients": ["p1"], "beta_star": beta}
    path = tmp_path / "beta.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command, str(path))
    assert code == 2 and out == ""
    assert f"beta_star '{beta}'" in err


def test_bad_oracle_budget_reads_the_same_serially_and_with_jobs(monkeypatch, capsys):
    monkeypatch.setenv("RESERVE_FRONTIER_ORACLE_BUDGET", "a,7,5")
    args = ("verify", "--random", "patients=3", "categories=2", "count=2")
    errs = []
    for jobs in ("1", "2"):
        code, out, err = run(capsys, *args, "--jobs", jobs)
        assert code == 2 and out == ""
        errs.append(err)
    assert errs[0] == errs[1] == run(capsys, "verify", "--named", "conflict")[2]


def test_verify_single_instance(capsys):
    code, out, _ = run(capsys, "verify", "--named", "conflict")
    assert code == 0
    assert "FAIL" not in out
    assert out.strip().endswith("checks passed on 1 instance(s)")


def test_verify_random_instances(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "frontier",
        "--random",
        "patients=5",
        "categories=4",
        "seed=3",
        "count=4",
    )
    assert code == 0
    assert out.count("-- instance") == 4
    assert "FAIL" not in out


def test_verify_random_rejects_bad_tokens(capsys):
    code, _, err = run(capsys, "verify", "--random", "patients")
    assert code == 2 and "key=value" in err


def test_verify_random_refuses_an_unknown_key_by_name(capsys):
    code, out, err = run(capsys, "verify", "--random", "patient=8")
    assert code == 2 and out == ""
    assert "unknown --random key 'patient'" in err
    assert "patients, categories, seed, count, quota, elig, bene" in err


@pytest.mark.parametrize("token, key", [("count=abc", "count"), ("seed=1.5", "seed"), ("quota=1:x", "quota"),
                                        ("elig=dense", "elig")])
def test_verify_random_names_the_key_of_a_value_that_is_not_a_number(token, key, capsys):
    code, out, err = run(capsys, "verify", "--random", token)
    assert code == 2 and out == ""
    assert f"--random {token}:" in err and f"--random {key}=" in err


@pytest.mark.parametrize(
    "token, message",
    [
        ("elig=0", "eligibility_density must be in (0, 1]"),
        ("elig=nan", "eligibility_density must be in (0, 1]"),
        ("bene=1.5", "beneficiary_density must be in [0, 1]"),
        ("quota=2:1", "bad quota range (2, 1)"),
        ("quota=0", "bad quota range (0, 0)"),
        ("patients=-1", "patients and categories must be non-negative"),
        ("categories=-3", "patients and categories must be non-negative"),
    ],
)
def test_verify_random_names_the_key_of_a_value_out_of_range(token, message, capsys):
    code, out, err = run(capsys, "verify", "--random", "patients=3", token)
    assert code == 2 and out == ""
    assert err == f"error: --random {token}: {message}\n"


def test_verify_random_checks_each_draw_before_the_next(monkeypatch, capsys):
    import reserve_frontier.verify as verify_module

    draws, drawn_when_checked = [], []
    draw, check = verify_module.gen_random, cli_module.run_suites
    monkeypatch.setattr(verify_module, "gen_random", lambda cfg: draws.append(cfg) or draw(cfg))
    monkeypatch.setattr(cli_module, "run_suites",
                        lambda pr, suites: drawn_when_checked.append(len(draws)) or check(pr, suites))
    code, out, _ = run(capsys, "verify", "--random", "count=5", "--jobs", "1")
    assert code == 0 and out.count("-- instance") == 5
    assert drawn_when_checked == [1, 2, 3, 4, 5]


def test_a_pool_draws_at_most_two_inputs_per_worker_ahead():
    count, inputs = random_inputs({"count": "12"})
    drawn = []

    def counted():
        for pr in inputs:
            drawn.append(pr)
            yield pr

    checked = cli_module._checked(counted(), SUITES, 2)
    first = next(checked)
    assert len(drawn) == 4
    assert [first, *checked] == [run_suites(pr, SUITES) for pr in drawn]
    assert count == len(drawn) == 12


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_random_count_below_one_exits_2(count, capsys):
    code, out, err = run(capsys, "verify", "--random", f"count={count}")
    assert code == 2 and out == ""
    assert "count" in err


def test_deeply_nested_json_exits_2_naming_the_nesting(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "frontier", str(path))
    assert code == 2 and out == ""
    assert "nesting" in err


@pytest.mark.parametrize(
    "content",
    [
        b'{"patients": [], "categories": [{"id": "c1", "quota": ' + b"9" * 5000 + b"}]}",
        b'{"patients": [,]}',
        '{"patients": ["caf\xe9"], "categories": []}'.encode("latin-1"),
    ],
    ids=["huge-integer", "bad-json", "bad-utf8"],
)
def test_unreadable_json_exits_2_naming_the_file(content, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_bytes(content)
    code, out, err = run(capsys, "frontier", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {path}: ")


def test_verify_parallel_jobs(capsys):
    code, out, _ = run(
        capsys,
        "verify",
        "--suite",
        "lemmas",
        "--jobs",
        "2",
        "--random",
        "patients=4",
        "categories=3",
        "seed=1",
        "count=2",
    )
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_verify_rejects_jobs_below_one(jobs, capsys):
    code, out, err = run(capsys, "verify", "--named", "conflict", "--jobs", jobs)
    assert code == 2 and out == ""
    assert "--jobs" in err


def test_verify_jobs_capped_by_instances_and_cpus(capsys, monkeypatch):
    import concurrent.futures

    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    args = ("verify", "--suite", "frontier", "--random", "patients=3", "categories=2")
    assert run(capsys, *args, "count=3", "--jobs", "3")[0] == 0
    assert run(capsys, *args, "count=1", "--jobs", "2")[0] == 0
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert run(capsys, *args, "count=3", "--jobs", "2")[0] == 0
    assert pools == [2]  # 3 jobs on 2 CPUs; the other runs had one worker and no pool


def test_verify_reports_injected_corruption(capsys, monkeypatch):
    monkeypatch.setenv("RESERVE_FRONTIER_INJECT_CORRUPTION", "1")
    for named in ("conflict", "figure1"):  # a frontier of two points, and one of one
        code, out, _ = run(capsys, "verify", "--named", named, "--suite", "frontier")
        assert code == 1
        assert "FAIL frontier:mutual-non-domination" in out
        assert "dominates" in out


def _off_after_first(witness_at):
    """witness_at that gives the true row on its first call, then an empty one."""
    calls = []

    def broken(codes, f, pt):
        calls.append(pt)
        return witness_at(codes, f, pt) if len(calls) == 1 else (-1,) * len(codes)
    return broken


def _planted_rival(*args):
    return "exact-share rival undominated: planted"


def _first_point_only(f):
    """The frontier f cut down to its first point."""
    first = f.points[0]
    return replace(f, points=(first,), kinks={first}, witnesses={first: f.witnesses[first]})


def _ineligible_last_witness(compute):
    """compute_frontier whose last witness puts the first patient with an
    ineligible category into that category."""
    def broken(pr):
        f = compute(pr)
        last = f.points[-1]
        i, c = next((i, c) for i, p in enumerate(pr.patients)
                    for c, cat in enumerate(pr.categories) if p not in pr.eligible[cat])
        row = list(f.witnesses[last])
        row[i] = c
        return replace(f, witnesses={**f.witnesses, last: tuple(row)})
    return broken


def _one_entry_too_many(select):
    """_select whose row has an entry past the last patient, so is no matching."""
    def broken(*args):
        row, pt = select(*args)
        return (*row, -1), pt
    return broken


# (check, start of its failure text, the verify names broken, each as a
# function of the original); path-independence has the frontier (4,2), (5,1)
BROKEN_ROUTES = {
    "walk-short": ("cycles:walk-covers-frontier", "walk=",
                   {"frontier_walk": lambda walk: lambda pr, row: walk(pr, row)[:1]}),
    "missed-cycle": ("cycles:minimal-loss-matches-exhaustive", "missed a cycle at",
                     {"cheapest_cycle": lambda _: lambda pr, row: None}),
    "no-cycle-before-max": ("cycles:minimal-loss-matches-exhaustive", "no cycle before the max-size point",
                            {"cheapest_cycle": lambda _: lambda pr, row: None,
                             "oracle_min_cycle_loss": lambda _: lambda pr, row, budget: None}),
    "loss-mismatch": ("cycles:minimal-loss-matches-exhaustive", "loss 1 vs exhaustive 0",
                      {"oracle_min_cycle_loss": lambda _: lambda pr, row, budget: 0}),
    "landed-off": ("cycles:minimal-loss-matches-exhaustive", "cheapest cycle from",
                   {"compute_frontier": lambda compute: lambda pr: _first_point_only(compute(pr))}),
    "kink-sweep": ("lemmas:kinks-surface-at-their-tradeoff-weight", "sweep 0 gave",
                   {"frontier_iteration": lambda _: lambda pr, d: (MatchPoint(0, 0), None)}),
    "joint-application": ("lemmas:gaps-split-into-disjoint-cycles", "first failure: joint application landed on",
                          {"_find_disjoint_family": lambda _: lambda *args: []}),
    "picked-point": ("mechanism:selection-rule-and-exact-share-domination", "picked MatchPoint(e=0, b=0)",
                     {"_select": lambda select: lambda *args: (select(*args)[0], MatchPoint(0, 0))}),
    "selected-row": ("mechanism:selection-rule-and-exact-share-domination", "selected row is not",
                     {"witness_at": lambda _: lambda codes, f, pt: (-1,) * len(codes)}),
    "witness-off": ("mechanism:selection-rule-and-exact-share-domination", "witness off the frontier",
                    {"witness_at": _off_after_first}),
    "exact-share-rival": ("mechanism:selection-rule-and-exact-share-domination", "exact-share rival undominated",
                          {"_exact_share_domination": lambda _: _planted_rival}),
    # a route whose answer the library refuses fails its suite, with exit 1, not 2
    "ineligible-witness": ("frontier:route-raised", "MatchingError: patient p1 not eligible for category c2",
                           {"compute_frontier": _ineligible_last_witness}),
    "inapplicable-cycle": ("cycles:route-raised", "CycleError: cycle not applicable: patient p1 is matched",
                           {"cheapest_cycle": lambda _: lambda pr, row: Cycle((0,), (0,))}),
    "non-matching-select": ("mechanism:route-raised", "MatchingError: a category row has one entry per patient",
                            {"_select": _one_entry_too_many}),
}


@pytest.mark.parametrize("case", [*BROKEN_ROUTES, "empty-instance"])
def test_each_verify_check_fails_when_its_route_is_broken(case, tmp_path, monkeypatch, capsys):
    if case == "empty-instance":  # no eligible pair, so selection must refuse
        path = tmp_path / "no-eligible.json"
        path.write_text(json.dumps({"categories": [{"id": "c1", "quota": 1}], "patients": ["p1"]}))
        check, text = "mechanism:empty-instance-refused", ""
        broken = {"_select": lambda _: lambda *args: ((-1,), MatchPoint(0, 0))}
        argv = ["verify", str(path)]
    else:
        check, text, broken = BROKEN_ROUTES[case]
        argv = ["verify", "--named", "path-independence"]
    for name, breaking in broken.items():
        monkeypatch.setattr(verify_module, name, breaking(getattr(verify_module, name)))
    code, out, _ = run(capsys, *argv)
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith(f"FAIL {check}")]
    assert failed and text in failed[0], out


def test_audit_reports_designed_violations(capsys):
    code, out, _ = run(capsys, "audit", "--named", "path-independence", "--check", "subs")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("substitutability: ")
    assert int(first.split()[1]) > 0


def test_audit_cap_exits_3(tmp_path, monkeypatch, capsys):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("an audit over the patient cap solved a subset")

    patients = [f"p{i}" for i in range(1, 16)]
    doc = {"categories": [{"id": "c1", "quota": 1, "eligible": patients}], "patients": patients}
    path = tmp_path / "fifteen.json"
    path.write_text(json.dumps(doc))
    monkeypatch.setattr(mechanism_module, "_select", no_enumeration)
    code, out, err = run(capsys, "audit", str(path))
    assert code == 3 and out == ""
    assert "15 patients exceeds MAX_AUDIT_PATIENTS = 14" in err


def test_audit_has_no_max_patients_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["audit", "--named", "conflict", "--max-patients", "14"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --max-patients" in capsys.readouterr().err


def test_audit_clean_instance_reports_zero(tmp_path, capsys):
    doc = {
        "categories": [{"id": "c1", "quota": 3, "eligible": ["p1", "p2", "p3"], "beneficiary": ["p1", "p2", "p3"]}],
        "patients": ["p1", "p2", "p3"],
        "beta_star": "1",
    }
    path = tmp_path / "clean.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "audit", str(path), "--check", "both")
    assert code == 0
    assert "path-independence: 0 violation(s)" in out
    assert "substitutability: 0 violation(s)" in out
