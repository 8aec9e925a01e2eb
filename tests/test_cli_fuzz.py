"""Fuzz of cli.main over documents shaped like the instance schema.

Each document starts as a valid instance (with or without beta_star and
a tier-respecting priority block) and then takes up to two mutations:
a wrong type, NaN or Infinity, "1/0", a duplicate id, an unknown key or a
broken priority block.  Every command must end in exit 0, 2 or 3 without
an exception escaping main; exit 1 would mean a verify check failed on a
valid input.

Every document stays within the oracle's default budget of 7 patients
and 7 seats: at most 6 patients plus one duplicate, and at most 3
categories of quota 2 plus one copied category of quota 1.  A larger
document would make `verify` stop at exit 3 before its checks, and the
fuzz would then miss the checks' own handling of odd inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reserve_frontier.cli import main

PATIENT_IDS = [f"p{i}" for i in range(1, 7)]
CATEGORY_IDS = ["c1", "c2", "c3"]

JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1.0]),
    st.sampled_from(["", "1/0", "p1", "abc", "NaN"]),
    st.lists(st.integers(0, 1), max_size=2),
    st.just({"x": 1}),
)
SHARES = st.sampled_from(["1/2", "0.25", "1/3", "0", "1", 1, 0, 0.5, "1/0", "3/2", -1, math.nan, math.inf])

COMMANDS = (
    ("frontier",),
    ("frontier", "--format", "json", "--witnesses"),
    ("solve",),
    ("solve", "--respect-priority"),
    ("verify",),
    ("audit",),
)


def _tiers(entry: dict, patients: list[str], draw) -> list[str]:
    bene = [p for p in patients if p in entry["beneficiary"]]
    elig = [p for p in patients if p in entry["eligible"] and p not in bene]
    rest = [p for p in patients if p not in entry["eligible"]]
    return [p for tier in (bene, elig, rest) for p in draw(st.permutations(tier))]


def _mutate(doc: dict, draw) -> None:
    # an earlier mutation may have replaced the lists this one edits
    cats = doc["categories"] if isinstance(doc["categories"], list) else []
    cats = [entry for entry in cats if isinstance(entry, dict)]
    patients = doc["patients"] if isinstance(doc["patients"], list) else []
    kind = draw(
        st.sampled_from(
            ["top", "category", "duplicate-patient", "duplicate-category", "unknown-key", "priority"]
        )
    )
    if kind == "top":
        doc[draw(st.sampled_from(["categories", "patients", "beta_star", "priority"]))] = draw(JUNK)
    elif kind == "category" and cats:
        entry = draw(st.sampled_from(cats))
        entry[draw(st.sampled_from(["id", "quota", "eligible", "beneficiary"]))] = draw(JUNK)
    elif kind == "duplicate-patient" and patients:
        doc["patients"] = [*patients, draw(st.sampled_from(patients))]
    elif kind == "duplicate-category" and cats:
        doc["categories"] = [*doc["categories"], {**draw(st.sampled_from(cats)), "quota": 1}]
    elif kind == "unknown-key":
        target = draw(st.sampled_from(cats)) if cats and draw(st.booleans()) else doc
        target["bogus"] = draw(JUNK)
    elif kind == "priority":
        order = doc.get("priority")
        if isinstance(order, dict) and order:
            c = draw(st.sampled_from(sorted(order)))
            reversed_order = st.just(order[c][::-1]) if isinstance(order[c], list) else JUNK
            order[c] = draw(st.one_of(JUNK, st.permutations(PATIENT_IDS), reversed_order))
        else:
            doc["priority"] = draw(st.one_of(JUNK, st.just({"zz": PATIENT_IDS})))


@st.composite
def documents(draw):
    patients = draw(st.lists(st.sampled_from(PATIENT_IDS), unique=True, max_size=6))
    cats = []
    for cid in draw(st.lists(st.sampled_from(CATEGORY_IDS), unique=True, max_size=3)):
        elig = draw(st.lists(st.sampled_from(patients), unique=True)) if patients else []
        bene = draw(st.lists(st.sampled_from(elig), unique=True)) if elig else []
        cats.append({"id": cid, "quota": draw(st.integers(1, 2)), "eligible": elig, "beneficiary": bene})
    doc = {"categories": cats, "patients": patients}
    if draw(st.booleans()):
        doc["beta_star"] = draw(SHARES)
        if draw(st.booleans()):
            doc["priority"] = {e["id"]: _tiers(e, patients, draw) for e in cats}
    for _ in range(draw(st.integers(0, 2))):
        _mutate(doc, draw)
    return doc


@settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(documents())
def test_every_document_exits_0_2_or_3(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "doc.json")
        path.write_text(json.dumps(doc))  # NaN and Infinity go out as JSON's extensions
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], str(path), *command[1:]])
            assert code in (0, 2, 3), (command, code, out.getvalue(), err.getvalue())
