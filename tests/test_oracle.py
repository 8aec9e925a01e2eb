from __future__ import annotations

import json
import re
from random import Random

import pytest

from reserve_frontier import (
    SUITES,
    BudgetExceededError,
    EnumerationBudget,
    GenConfig,
    MatchPoint,
    dominates,
    enumerate_matchings,
    expand_to_seats,
    gen_named,
    gen_random,
    match_point,
    oracle_min_cycle_loss,
    validate_matching,
)
import reserve_frontier.oracle as oracle_module
import reserve_frontier.verify as verify_module
from reserve_frontier.cli import main
from reserve_frontier.oracle import (
    BUDGET_ENV,
    MAX_ORACLE_SIZE,
    Census,
    _find_disjoint_family,
    budget_from_env,
)


def count_matchings(si, budget=EnumerationBudget()) -> int:
    return sum(Census(si, budget).counts.values())


def rows_by_seats(si) -> set:
    # independent route: recurse over seats instead of patients; the
    # seat assignments of one category row collapse to that row
    seats = list(si.seats)
    category = [si.categories.index(si.category_of(s)) for s in seats]
    rows = set()

    def rec(j: int, held: dict) -> None:
        if j == len(seats):
            rows.add(tuple(held.get(i, -1) for i in range(len(si.patients))))
            return
        rec(j + 1, held)
        for p in si.eligible_of(si.category_of(seats[j])):
            i = si.patient_index[p]
            if i not in held:
                rec(j + 1, {**held, i: category[j]})

    rec(0, {})
    return rows


def test_conflict_has_five_matchings():
    si = expand_to_seats(gen_named("conflict"))
    assert count_matchings(si) == 5
    rows = list(enumerate_matchings(si))
    assert len(rows) == 5
    assert len(set(rows)) == 5
    assert (-1, -1) in rows
    for row in rows:
        validate_matching(si, si.name_row(row))


def test_count_agrees_with_seat_axis_recursion():
    rng = Random(23)
    for _ in range(25):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(0, 6),
                categories=rng.randint(1, 4),
                quota_range=(1, 2),
                eligibility_density=rng.choice([0.3, 0.6, 0.9]),
                seed=rng.randint(0, 10_000),
            )
        )
        si = expand_to_seats(inst)
        assert count_matchings(si) == len(rows_by_seats(si))


def test_oracle_frontier_on_named_instances():
    assert list(Census(expand_to_seats(gen_named("conflict"))).frontier().points) == [
        MatchPoint(1, 1),
        MatchPoint(2, 0),
    ]
    assert list(Census(expand_to_seats(gen_named("figure1"))).frontier().points) == [MatchPoint(3, 0)]
    pi = gen_named("path-independence")
    assert list(Census(expand_to_seats(pi)).frontier().points) == [MatchPoint(4, 2), MatchPoint(5, 1)]


def test_oracle_frontier_points_dominate_everything():
    inst = gen_random(GenConfig(patients=5, categories=3, quota_range=(1, 2), seed=99))
    si = expand_to_seats(inst)
    f = Census(si).frontier()
    pts = set(f.points)
    for row in enumerate_matchings(si):
        pt = match_point(si, si.name_row(row))
        assert pt in pts or any(dominates(q, pt) for q in pts)


def test_empty_instance_oracle():
    inst = gen_random(GenConfig(patients=0, categories=2, seed=0))
    si = expand_to_seats(inst)
    f = Census(si).frontier()
    assert list(f.points) == [MatchPoint(0, 0)]
    assert count_matchings(si) == 1


def test_budget_rejects_large_instances():
    inst = gen_random(GenConfig(patients=8, categories=3, seed=1))
    si = expand_to_seats(inst)
    with pytest.raises(BudgetExceededError):
        Census(si)  # default allows at most 7 patients; refused when built
    with pytest.raises(BudgetExceededError):
        list(enumerate_matchings(si))
    small = expand_to_seats(gen_random(GenConfig(patients=5, categories=5, eligibility_density=1.0, seed=1)))
    with pytest.raises(BudgetExceededError):
        count_matchings(small, EnumerationBudget(max_states=10))


def test_budget_env_override(monkeypatch):
    monkeypatch.delenv("RESERVE_FRONTIER_ORACLE_BUDGET", raising=False)
    assert budget_from_env() == EnumerationBudget()
    monkeypatch.setenv("RESERVE_FRONTIER_ORACLE_BUDGET", "3,4,100")
    assert budget_from_env() == EnumerationBudget(3, 4, 100)
    monkeypatch.setenv("RESERVE_FRONTIER_ORACLE_BUDGET", "3,4")
    with pytest.raises(ValueError):
        budget_from_env()


def one_pair_file(tmp_path, n_patients):
    patients = [f"p{i}" for i in range(1, n_patients + 1)]
    doc = {"patients": patients, "categories": [{"id": "c1", "quota": 1, "eligible": ["p1"]}]}
    path = tmp_path / f"one-pair-{n_patients}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_budget_above_the_recursion_ceiling_is_refused(monkeypatch):
    for size in ((MAX_ORACLE_SIZE + 1, 7), (7, MAX_ORACLE_SIZE + 1)):
        with pytest.raises(ValueError, match=f"ceiling of {MAX_ORACLE_SIZE}"):
            EnumerationBudget(*size)
    monkeypatch.setenv("RESERVE_FRONTIER_ORACLE_BUDGET", f"{MAX_ORACLE_SIZE + 1},7,100")
    with pytest.raises(ValueError, match="RESERVE_FRONTIER_ORACLE_BUDGET"):
        budget_from_env()


def test_verify_runs_at_the_ceiling_and_exits_2_above_it(tmp_path, monkeypatch, capsys):
    at = one_pair_file(tmp_path, MAX_ORACLE_SIZE)
    monkeypatch.setenv("RESERVE_FRONTIER_ORACLE_BUDGET", f"{MAX_ORACLE_SIZE},{MAX_ORACLE_SIZE},10000000")
    assert main(["verify", at]) == 0
    assert "FAIL" not in capsys.readouterr().out
    above = one_pair_file(tmp_path, MAX_ORACLE_SIZE + 1)
    monkeypatch.setenv("RESERVE_FRONTIER_ORACLE_BUDGET", f"{MAX_ORACLE_SIZE + 1},{MAX_ORACLE_SIZE + 1},10000000")
    assert main(["verify", above]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "RESERVE_FRONTIER_ORACLE_BUDGET" in captured.err
    assert f"ceiling of {MAX_ORACLE_SIZE}" in captured.err


def test_a_state_budget_error_reads_the_same_from_every_suite(tmp_path, monkeypatch, capsys):
    # no patient of the second document is eligible, so its frontier is
    # (0, 0) alone and the cycles and mechanism suites read nothing of the
    # census: building it raises all the same
    empty = tmp_path / "no-eligible.json"
    empty.write_text(json.dumps({"categories": [{"id": "c1", "quota": 1}], "patients": ["p1", "p2", "p3"]}))
    monkeypatch.setenv(BUDGET_ENV, "7,7,3")
    for source in (["--named", "conflict"], [str(empty)]):
        seen = []
        for suite in SUITES:
            code = main(["verify", *source, "--suite", suite])
            seen.append((code, capsys.readouterr().err))
        assert seen == [seen[0]] * len(SUITES)
        assert seen[0][0] == 3
        assert "state budget 3 exceeded" in seen[0][1]


@pytest.mark.parametrize(
    "budget, argv, names",
    [
        (None, ["patients=8", "categories=8"], "budget allows 7 patients and 7 seats"),
        ("7,7,10", [], "state budget 10 exceeded"),
    ],
    ids=["size", "states"],
)
def test_exit_3_names_the_budget_override(budget, argv, names, monkeypatch, capsys):
    if budget is None:
        monkeypatch.delenv("RESERVE_FRONTIER_ORACLE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RESERVE_FRONTIER_ORACLE_BUDGET", budget)
    assert main(["verify", "--random", *argv, "count=1"]) == 3
    err = capsys.readouterr().err
    assert names in err
    assert "RESERVE_FRONTIER_ORACLE_BUDGET=patients,seats,states" in err


@pytest.mark.parametrize("suite", ["all", "frontier", "cycles", "lemmas", "mechanism"])
def test_verify_refuses_an_oversized_instance_before_solving_it(suite, tmp_path, monkeypatch, capsys):
    def no_solve(si):
        raise AssertionError("solved an instance that the oracle refuses")

    monkeypatch.setattr(verify_module, "compute_frontier", no_solve)
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert main(["verify", one_pair_file(tmp_path, 8), "--suite", suite]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget allows 7 patients and 7 seats" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["patients=6000", "categories=6000", "elig=0.0005"],
        ["patients=8", "categories=3"],
        ["patients=3", "categories=8", "quota=2:2"],
        ["patients=3", "categories=3", "quota=3:3"],  # 9 seats in every draw
    ],
    ids=["both", "patients", "categories", "quotas"],
)
def test_verify_random_refuses_an_oversized_draw_before_drawing(argv, monkeypatch, capsys):
    def no_draw(cfg):
        raise AssertionError("drew an instance that the oracle refuses")

    monkeypatch.setattr(verify_module, "gen_random", no_draw)
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert main(["verify", "--random", *argv, "count=1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget allows 7 patients and 7 seats" in captured.err
    assert f"raise it with {BUDGET_ENV}=patients,seats,states" in captured.err


def test_verify_random_checks_its_tokens_before_the_budget(monkeypatch, capsys):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    assert main(["verify", "--random", "patients=8", "quota=0:1"]) == 2
    assert "bad quota range" in capsys.readouterr().err


def test_disjoint_cycle_check_searches_each_sampled_matching_once(monkeypatch):
    calls = []
    original = oracle_module._applicable_cycles

    def counting(si, row, budget):
        calls.append(row)
        return original(si, row, budget)

    monkeypatch.setattr(verify_module, "_applicable_cycles", counting)
    census = Census(expand_to_seats(gen_random(GenConfig(7, 3, (1, 3), 0.6, 0.4, seed=3))))
    points = census.frontier().points
    samples = census.sample(points).matchings
    assert len(points) >= 3
    row = verify_module._disjoint_cycles(census)
    assert row.ok
    witnesses = int(re.search(r"witnesses=(\d+)", row.detail).group(1))
    # once per sampled matching below the top point, not once per pair and matching
    assert len(calls) == sum(len(samples[p]) for p in points[:-1])
    assert len(calls) < witnesses


def test_lemma_checks_report_their_counts_and_first_failure(monkeypatch):
    census = Census(expand_to_seats(gen_random(GenConfig(7, 3, (1, 3), 0.6, 0.4, seed=3))))
    points = census.frontier().points
    passed = verify_module._disjoint_cycles(census)
    kept = verify_module._matched_preservation(census)
    assert passed.ok and kept.ok
    # no family found: every pair and witness is still counted, one failure is named
    monkeypatch.setattr(verify_module, "_find_disjoint_family", lambda *args: None)
    row = verify_module._disjoint_cycles(census)
    assert not row.ok
    assert row.detail.startswith(passed.detail + f" first failure: no {points[1].e - points[0].e} disjoint cycles")
    assert row.detail.count("no ") == 1
    # no matched set at any point: the first pair fails
    for sets in census.sample(points).matched.values():
        sets.clear()
    row = verify_module._matched_preservation(census)
    assert not row.ok
    first = census.pr.name_row(census.sample(points).matchings[points[0]][0])
    assert row.detail == kept.detail + f" first failure: no matching at {points[1]} keeps matched set " + (
        f"{sorted(p for p, _ in first.pairs)} from {points[0]}"
    )


def test_oversized_budget_on_a_large_file_exits_2_not_with_a_recursion_error(tmp_path, monkeypatch, capsys):
    # this once died in the leaf scan's recursion with a traceback and exit 1
    path = one_pair_file(tmp_path, 1500)
    monkeypatch.setenv("RESERVE_FRONTIER_ORACLE_BUDGET", "2000,2000,10000000")
    assert main(["verify", path]) == 2
    assert f"ceiling of {MAX_ORACLE_SIZE}" in capsys.readouterr().err


def test_disjoint_family_search_loops_over_skipped_cycles():
    # far more candidates than the recursion limit, none of which fits
    cycles = [([], frozenset({i}), 5) for i in range(5000)]
    assert _find_disjoint_family(cycles, 1, 2, EnumerationBudget(max_states=10**6)) is None
    cycles[-1] = ([], frozenset({4999}), 2)
    assert _find_disjoint_family(cycles, 1, 2, EnumerationBudget(max_states=10**6)) == [4999]


def test_matchings_at_point_and_sampling():
    si = expand_to_seats(gen_named("conflict"))
    at_11 = [row for row in enumerate_matchings(si) if match_point(si, si.name_row(row)) == MatchPoint(1, 1)]
    assert [si.name_row(row).pairs for row in at_11] == [(("p1", "c2#0"),)]
    census = Census(si)
    f = census.frontier()
    sample = census.sample(f.points)
    assert sample.mode == "exhaustive"
    for pt, rows in sample.matchings.items():
        assert rows
        for row in rows:
            assert match_point(si, validate_matching(si, si.name_row(row))) == pt


def test_sampling_caps_and_stays_deterministic(monkeypatch):
    monkeypatch.setattr(oracle_module, "SAMPLE_CAP", 3)
    inst = gen_random(GenConfig(patients=6, categories=6, eligibility_density=0.9, seed=4))
    si = expand_to_seats(inst)
    f = Census(si).frontier()
    a = Census(si).sample(f.points)
    b = Census(si).sample(f.points)
    assert a == b
    assert a.mode == "sampled"
    assert all(len(ms) <= 3 for ms in a.matchings.values())


def test_min_cycle_loss_on_conflict():
    si = expand_to_seats(gen_named("conflict"))
    assert si.seats == ("c1#0", "c2#0")
    assert oracle_min_cycle_loss(si, (1, -1)) == 1  # p1 at c2: the (1,1) matching
    assert oracle_min_cycle_loss(si, (0, 1)) is None  # (2,0): nothing larger
