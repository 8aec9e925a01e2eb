from __future__ import annotations

import io
import json
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import tier_order
from reserve_frontier import (
    GenConfig,
    MatchPoint,
    Problem,
    compute_frontier,
    expand_to_seats,
    gen_named,
    gen_random,
    select_approx_on_frontier,
    with_all_witnesses,
)
from reserve_frontier.cli import main
from reserve_frontier.serialize import (
    emit_instance,
    frontier_to_dict,
    frontier_to_json,
    instance_to_json,
    matching_to_dict,
    parse_instance,
    parse_instance_file,
    parse_share,
    share_str,
    write_frontier_csv,
)


def test_parse_share_forms():
    assert parse_share("7/10") == Fraction(7, 10)
    assert parse_share("0.7") == Fraction(7, 10)
    assert parse_share(0.7) == Fraction(7, 10)  # via the decimal literal, not the float bits
    assert parse_share(1) == Fraction(1)
    assert parse_share(" 1/2 ") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_share(True)
    with pytest.raises(ValueError):
        parse_share("seven tenths")
    with pytest.raises(ValueError):
        parse_share(None)
    assert share_str(Fraction(7, 10)) == "7/10"


@pytest.mark.parametrize(
    "text, want",
    [("0.7", Fraction(7, 10)), ("7e-1", Fraction(7, 10)), ("1e-5", Fraction(1, 100_000)),
     ("1e-4299", Fraction(1, 10**4299)), ("1e-300000", None), ("-1e-300000", None),
     ("1e300000", None), ("1e-3000000", None), ("0.1e-4299", None)],
)
def test_parse_share_refuses_an_exponent_too_long_to_print(text, want):
    if want is not None:
        assert parse_share(text) == want
        share_str(want)  # prints within the integer conversion limit
    else:
        with pytest.raises(ValueError, match="beta_star .* digits, over the .*-digit limit of integer conversion"):
            parse_share(text)


def test_parse_minimal_document():
    doc = {
        "categories": [
            {"id": "c1", "quota": 1, "eligible": ["p1"]},
            {"id": "c2", "quota": 2, "eligible": ["p1", "p2"], "beneficiary": ["p1"]},
        ],
        "patients": ["p1", "p2"],
    }
    pr = parse_instance(doc)
    assert pr.beta_star is None and pr.priority is None
    assert pr.quota == {"c1": 1, "c2": 2}
    assert pr.beneficiary["c2"] == frozenset({"p1"})


def test_parse_errors():
    with pytest.raises(ValueError, match="patients"):
        parse_instance({"categories": []})
    with pytest.raises(ValueError, match="quota"):
        parse_instance({"categories": [{"id": "c1"}], "patients": []})
    with pytest.raises(ValueError, match="beta_star"):
        parse_instance({"categories": [], "patients": [], "priority": {}})


@pytest.mark.parametrize("quota", [1e3, True, 1.5])
def test_a_non_integer_quota_is_refused_as_not_a_positive_integer(quota):
    doc = {"categories": [{"id": "c1", "quota": quota, "eligible": ["p1"]}], "patients": ["p1"]}
    with pytest.raises(ValueError, match="category c1: quota must be a positive integer"):
        parse_instance(doc)


@pytest.mark.parametrize("text", ['"inf"', '"nan"', '"-Infinity"', "1e400", "NaN"])
def test_a_non_finite_beta_star_names_the_field(text, tmp_path):
    path = tmp_path / "share.json"
    path.write_text('{"categories": [{"id": "c1", "quota": 1}], "patients": ["p1"], "beta_star": %s}' % text)
    with pytest.raises(ValueError, match="beta_star must be a finite number or fraction string"):
        parse_instance_file(str(path))


def test_a_json_number_beta_star_is_read_from_its_literal(tmp_path):
    # 1e-400 underflows to the float 0.0, which would select e=2 b=0
    doc = ('{"patients": ["p1", "p2"], "beta_star": %s, "categories": [{"id": "c1", "quota": 1, '
           '"eligible": ["p1", "p2"], "beneficiary": ["p1"]}, {"id": "c2", "quota": 1, "eligible": ["p1"]}]}')
    path = tmp_path / "share.json"
    picked = []
    for beta in ("1e-400", '"1e-400"'):
        path.write_text(doc % beta)
        pr = parse_instance_file(str(path))
        assert pr.beta_star == Fraction(1, 10**400)
        picked.append(select_approx_on_frontier(pr)[1])
    assert picked == [MatchPoint(1, 1)] * 2
    path.write_text(doc % "1e-300000")  # the exponent check reads the literal too
    with pytest.raises(ValueError, match="beta_star '1e-300000' makes a fraction of up to 300001 digits"):
        parse_instance_file(str(path))


@pytest.mark.parametrize("entry, message", [('{"id": "c1", "quota": 1.5}', "category c1: quota must be a positive integer"),
                                            ('{"id": 1.5, "quota": 1}', "category 'id' must be a string, got float")])
def test_a_decimal_outside_beta_star_reads_as_a_float(entry, message, tmp_path):
    path = tmp_path / "decimal.json"
    path.write_text('{"patients": ["p1"], "categories": [%s]}' % entry)
    with pytest.raises(ValueError, match=message):
        parse_instance_file(str(path))


@pytest.mark.parametrize("field", ["quota", "beta_star"])
def test_an_integer_too_long_to_convert_names_its_field(field, tmp_path):
    digits = "9" * 5000
    quota, beta = (digits, '"1/2"') if field == "quota" else ("1", digits)
    path = tmp_path / "long.json"
    path.write_text('{"categories": [{"id": "c1", "quota": %s}], "patients": ["p1"], "beta_star": %s}' % (quota, beta))
    with pytest.raises(ValueError) as caught:
        parse_instance_file(str(path))
    assert str(caught.value).startswith(f"{path}: '{field}' holds an integer of 5000 digits, over the")


@pytest.mark.parametrize("doc, key", [
    ('{"categories": [{"id": "c1", "quota": 1, "eligible": ["p1"]}], "patients": ["p1"], "patients": ["p1", "p2"]}',
     "patients"),
    ('{"categories": [{"id": "c1", "quota": 1, "eligible": ["p1"], "eligible": []}], "patients": ["p1"]}',
     "eligible"),
], ids=["top-level", "category-entry"])
def test_a_repeated_key_exits_2_naming_the_key(doc, key, tmp_path, capsys):
    # json.load alone keeps the last value of a repeated key, dropping the first
    path = tmp_path / "repeated.json"
    path.write_text(doc)
    for command in ("frontier", "solve", "verify", "audit"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}: key '{key}' appears more than once in one object" in captured.err


def test_parse_reports_the_first_fault_in_reading_order():
    """Instance, then share, then priority faults, though the Problem is built once."""
    cats = [{"id": "c1", "quota": 1, "eligible": ["p1", "p2"], "beneficiary": ["p1"]}]
    bad_cats = [{"id": "c1", "quota": 1, "eligible": ["p1"], "beneficiary": ["p2"]}]
    cases = [
        (dict(categories=bad_cats, priority={"c1": ["p1", "p2"]}), "not eligible"),
        (dict(categories=bad_cats, beta_star="half"), "not eligible"),
        (dict(categories=bad_cats, beta_star="3/2", priority="nope"), "not eligible"),
        (dict(categories=cats, beta_star="half", priority="nope"), "beta_star must be a finite number"),
        (dict(categories=cats, beta_star="3/2", priority="nope"), "lie in"),
        (dict(categories=cats, beta_star="3/2", priority={"c1": [1]}), "lie in"),
        (dict(categories=cats, beta_star="3/2", priority={"c1": ["p2", "p1"]}), "lie in"),
        (dict(categories=cats, beta_star="1/2", priority={"c1": ["p2", "p1"]}), "tiers"),
    ]
    for fields, message in cases:
        with pytest.raises(ValueError, match=message):
            parse_instance({"patients": ["p1", "p2"], **fields})


def test_round_trip_on_named_inputs():
    for name in ("conflict", "figure1", "beta-threshold", "path-independence"):
        obj = gen_named(name)
        assert parse_instance(emit_instance(obj)) == obj
        # and the JSON text itself survives a parse
        assert parse_instance(json.loads(instance_to_json(obj))) == obj


def test_round_trip_with_priority():
    pr = gen_named("beta-threshold")
    pwo = replace(pr, priority=tier_order(pr))
    again = parse_instance(emit_instance(pwo))
    assert again == pwo


def test_round_trip_on_random_instances():
    rng = Random(5)
    for _ in range(20):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(0, 8),
                categories=rng.randint(1, 5),
                quota_range=(1, 3),
                seed=rng.randint(0, 10_000),
            )
        )
        assert parse_instance(emit_instance(inst)) == inst
        pr = replace(inst, beta_star=Fraction(rng.randint(0, 6), 6))
        assert parse_instance(emit_instance(pr)) == pr


def test_matching_serialization_uses_categories():
    si = expand_to_seats(gen_named("conflict"))
    assert si.seats == ("c1#0", "c2#0")
    d = matching_to_dict(si, (1, -1))  # p1 at c2#0
    assert d == {"assignment": {"p1": "c2"}, "e": 1, "b": 1, "beta": "1/1"}
    assert matching_to_dict(si, (-1, -1)) == {"assignment": {}, "e": 0, "b": 0, "beta": None}


def test_frontier_csv_layout():
    f = compute_frontier(expand_to_seats(gen_named("conflict")))
    buf = io.StringIO()
    write_frontier_csv(f, buf)
    assert buf.getvalue() == "e,b,beta_num,beta_den,is_kink\n1,1,1,1,1\n2,0,0,1,1\n"


def test_frontier_csv_empty_point_row():
    inst = Problem(categories=("c1",), patients=("p1",), quota={"c1": 1}, eligible={}, beneficiary={})
    f = compute_frontier(expand_to_seats(inst))
    buf = io.StringIO()
    write_frontier_csv(f, buf)
    assert buf.getvalue() == "e,b,beta_num,beta_den,is_kink\n0,0,,,1\n"


def test_frontier_json_with_witnesses():
    si = expand_to_seats(gen_named("conflict"))
    f = with_all_witnesses(si, compute_frontier(si))
    doc = frontier_to_dict(f, si, witnesses=True)
    assert [p["e"] for p in doc["points"]] == [1, 2]
    assert len(doc["witnesses"]) == 2
    by_e = {w["e"]: w["assignment"] for w in doc["witnesses"]}
    assert by_e[1] == {"p1": "c2"}
    assert set(by_e[2]) == {"p1", "p2"}
    # repeated rendering is byte-identical
    assert frontier_to_json(f, si, witnesses=True) == frontier_to_json(f, si, witnesses=True)


# JSON-shaped values, biased toward instance-file keys and ids so that
# most documents reach the schema and invariant checks, not just the first
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats()
    | st.sampled_from(["p1", "p2", "c1", "c2", "7/10", "0.5", "1/0", "2", ""])
)
_values = st.recursive(
    _scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "quota", "eligible", "c1", "x"]), kids, max_size=3),
    max_leaves=12,
)


def _mostly(good):
    """Three draws in four from the well-formed strategy, the rest anything."""
    pick = st.sampled_from((True, True, True, False))
    return st.tuples(pick, good, _values).map(lambda t: t[1] if t[0] else t[2])


_ids = _mostly(st.lists(st.sampled_from(["p1", "p2", "p3"]), max_size=3, unique=True))
_category = st.fixed_dictionaries(
    {"id": _mostly(st.sampled_from(["c1", "c2"])), "quota": _mostly(st.integers(0, 2))},
    optional={"eligible": _ids, "beneficiary": _mostly(st.just(["p1"]))},
)
_document = _mostly(
    st.fixed_dictionaries(
        {
            "categories": _mostly(st.lists(_category, max_size=3)),
            "patients": _mostly(st.just(["p1", "p2", "p3"])),
        },
        optional={
            "beta_star": _mostly(st.sampled_from(["7/10", "1/2", "0.5", 0, 1, 0.25, "2"])),
            "priority": _mostly(
                st.dictionaries(st.sampled_from(["c1", "c2", "c3"]), _ids, max_size=3)
            ),
        },
    )
)


@given(_document)
@settings(max_examples=300, deadline=None)
def test_parse_instance_returns_a_problem_or_raises_value_error(doc):
    try:
        pr = parse_instance(doc)
    except ValueError:
        return
    assert isinstance(pr, Problem)
    assert parse_instance(emit_instance(pr)) == pr
