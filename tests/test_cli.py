from __future__ import annotations

import json

import pytest

import reserve_frontier.mechanism as mechanism_module
from reserve_frontier import gen_named
from reserve_frontier.cli import main, parse_subset_tokens
from reserve_frontier.serialize import emit_instance


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_subset_token_parsing():
    assert parse_subset_tokens("p1..p3,p7") == ["p1", "p2", "p3", "p7"]
    assert parse_subset_tokens("p2..4") == ["p2", "p3", "p4"]
    assert parse_subset_tokens("alice, bob") == ["alice", "bob"]
    with pytest.raises(ValueError):
        parse_subset_tokens("p5..p2")


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


def test_solve_summary_line(capsys):
    code, out, _ = run(capsys, "solve", "--named", "beta-threshold")
    assert code == 0
    doc = json.loads(out[: out.rindex("\n", 0, out.rindex("\n"))])
    assert doc["assignment"] == {"p1": "c1", "p2": "c2"}
    assert out.endswith("e=2 b=1 beta=1/2 target=7/10\n")


def test_solve_requires_a_share_target(capsys):
    code, _, err = run(capsys, "solve", "--named", "conflict")
    assert code == 2
    assert "beta_star" in err


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
    missing = tmp_path / "missing.json"
    assert run(capsys, "frontier", str(missing))[0] == 2
    code, _, err = run(capsys, "frontier", "--named", "conflict", "--subset", "p1,p9")
    assert code == 2 and "p9" in err


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
        assert "1 patient(s) and 100000000 seat(s) need" in err
        assert "min(patients, seats) < 2^53" in err


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

        def map(self, fn, items):
            return map(fn, items)

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
    code, out, _ = run(capsys, "verify", "--named", "conflict", "--suite", "frontier")
    assert code == 1
    assert "FAIL frontier:mutual-non-domination" in out
    assert "dominates" in out


def test_audit_reports_designed_violations(capsys):
    code, out, _ = run(capsys, "audit", "--named", "path-independence", "--check", "subs")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("substitutability: ")
    assert int(first.split()[1]) > 0


def test_audit_cap_exits_3(capsys):
    code, _, err = run(
        capsys, "audit", "--named", "path-independence", "--max-patients", "4"
    )
    assert code == 3
    assert "exceeds" in err


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


def test_audit_cap_above_the_ceiling_exits_2(monkeypatch, capsys):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("an audit above the ceiling enumerated subsets")

    monkeypatch.setattr(mechanism_module, "induce_choice", no_enumeration)
    code, out, err = run(capsys, "audit", "--named", "conflict", "--max-patients", "1000")
    assert code == 2 and out == ""
    assert "ceiling of 14" in err
