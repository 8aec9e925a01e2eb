"""Input files and frontier reports.

Input schema (JSON):

    {
      "categories": [
        {"id": "c1", "quota": 1, "eligible": ["p1"], "beneficiary": []}
      ],
      "patients": ["p1", "p2"],
      "beta_star": "7/10",                # optional; "0.7" and 0.7 also accepted
      "priority": {"c1": ["p1", "p2"]}    # optional
    }

Every document parses to one Problem, whose beta_star and priority are
None when the file omits them; either may come without the other.  Any other key, at the top level or in a
category entry, is rejected by name, and so is a key repeated in one
object.

Shares stay exact end to end: "num/den" strings are the canonical output
form, decimal inputs are converted through their decimal literal (0.7
becomes 7/10, never the nearest binary float).  Matchings serialize at the
category level (patient -> category), as the library hands them over:
as category rows (row[i] is the index of patient i's category, or -1),
which get their names here.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from fractions import Fraction
from typing import IO, Any, NamedTuple, Sequence

from .core import Problem, beneficiary_share, row_point
from .frontier import Frontier

_TOP_KEYS = ("categories", "patients", "beta_star", "priority")
_CATEGORY_KEYS = ("id", "quota", "eligible", "beneficiary")


def _check_exponent(text: str) -> None:
    """Refuse a decimal whose exponent would make its numerator or
    denominator too long to print, before the fraction is built."""
    mantissa, _, exponent = text.lower().partition("e")
    whole, _, decimals = mantissa.partition(".")
    try:
        shift = int(exponent or 0)
    except ValueError:  # not an exponent, or one too long to convert: Fraction refuses it
        return
    digits = max(len(whole) + len(decimals) + shift, len(decimals) - shift + 1)
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise ValueError(f"beta_star {text!r} makes a fraction of up to {digits} digits, "
                         f"over the {limit}-digit limit of integer conversion")


def parse_share(value: Any) -> Fraction:
    """Exact fraction from "num/den", decimal string, int, or float literal."""
    if isinstance(value, bool):
        raise ValueError("beta_star must be a number or fraction string")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        text = value.strip() if isinstance(value, str) else getattr(value, "literal", str(value))
        _check_exponent(text)
        try:  # a float goes through its decimal literal; inf and nan have none
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"beta_star {value!r} has a zero denominator") from None
        except ValueError:
            raise ValueError(f"beta_star must be a finite number or fraction string, got {value!r}") from None
    raise ValueError(f"cannot parse share from {value!r}")


def share_str(beta: Fraction) -> str:
    return f"{beta.numerator}/{beta.denominator}"


def _reject_unknown_keys(doc: dict, known: tuple[str, ...], where: str) -> None:
    for key in doc:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {where}; expected one of {', '.join(known)}")


def _str_list(value: Any, field: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{field} must be a list of string ids")
    return value


def parse_instance(data: Any) -> Problem:
    """Validated Problem from a JSON document.  The id lists go to Problem
    as they are read; Problem builds the sets.

    Raises ValueError naming the field on any schema or invariant violation.
    """
    if not isinstance(data, dict):
        raise ValueError("an instance file must hold a JSON object")
    _reject_unknown_keys(data, _TOP_KEYS, "the instance file")
    for field in ("categories", "patients"):
        if field not in data:
            raise ValueError(f"instance file is missing the '{field}' field")
    if not isinstance(data["categories"], list):
        raise ValueError("'categories' must be a list of category objects")
    categories = []
    quota: dict[str, int] = {}
    eligible: dict[str, list[str]] = {}
    beneficiary: dict[str, list[str]] = {}
    for entry in data["categories"]:
        if not isinstance(entry, dict) or "id" not in entry or "quota" not in entry:
            raise ValueError("each category needs an 'id' and a 'quota'")
        c = entry["id"]
        if not isinstance(c, str):
            raise ValueError(f"category 'id' must be a string, got {type(c).__name__}")
        _reject_unknown_keys(entry, _CATEGORY_KEYS, f"category {c}")
        categories.append(c)
        quota[c] = entry["quota"]
        eligible[c] = _str_list(entry.get("eligible", []), f"category {c}: 'eligible'")
        beneficiary[c] = _str_list(entry.get("beneficiary", []), f"category {c}: 'beneficiary'")
    fields = dict(
        categories=categories,
        patients=_str_list(data["patients"], "'patients'"),
        quota=quota,
        eligible=eligible,
        beneficiary=beneficiary,
    )
    beta = data.get("beta_star")
    priority = data.get("priority")
    beta_star = order = None
    try:
        if beta is not None:
            beta_star = parse_share(beta)
        if priority is not None:
            if not isinstance(priority, dict):
                raise ValueError("'priority' must map category ids to lists of patient ids")
            order = {c: _str_list(ps, f"priority for {c}") for c, ps in priority.items()}
    except ValueError:
        # report faults in the order a document is read: the instance, then
        # the share's range, then this one
        Problem(**fields, beta_star=beta_star)
        raise
    return Problem(**fields, beta_star=beta_star, priority=order)


class _LongInteger(NamedTuple):
    digits: int  # of an integer literal too long for int() to convert


def _integer(literal: str) -> int | _LongInteger:
    try:
        return int(literal)
    except ValueError:
        return _LongInteger(len(literal.lstrip("-")))


class _Decimal(float):
    """A JSON number with a fraction or an exponent, as the float that json
    reads plus its literal, from which parse_share reads beta_star exactly:
    1e-400 is 10^-400, not the 0.0 it underflows to."""

    __slots__ = ("literal",)


def _decimal(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):  # over the float range: refused as not finite
        return value
    decimal = _Decimal(literal)
    decimal.literal = literal
    return decimal


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object from its key-value pairs; a repeated key, or an integer
    value too long to convert, is refused by its key, and only beta_star
    keeps a decimal's literal."""
    doc: dict[str, Any] = {}
    for key, value in pairs:
        if key in doc or type(value) in (_LongInteger, _Decimal):  # one test for the rare cases
            if key in doc:
                raise ValueError(f"key {key!r} appears more than once in one object")
            if type(value) is _LongInteger:
                raise ValueError(f"{key!r} holds an integer of {value.digits} digits, over the "
                                 f"{sys.get_int_max_str_digits()}-digit limit of integer conversion")
            if key != "beta_star":
                value = float(value)
        doc[key] = value
    return doc


def parse_instance_file(path: str) -> Problem:
    with open(path, "r", encoding="utf-8") as fp:
        try:
            data = json.load(fp, parse_int=_integer, parse_float=_decimal, object_pairs_hook=_object)
        except RecursionError:
            raise ValueError(f"{path}: JSON nesting too deep to parse") from None
        except ValueError as exc:  # bad JSON, bad UTF-8, a repeated key, an integer too long to convert
            raise ValueError(f"{path}: {exc}") from None
    return parse_instance(data)


def emit_instance(pr: Problem) -> dict[str, Any]:
    """JSON-ready document; parse_instance(emit_instance(pr)) == pr."""
    doc: dict[str, Any] = {
        "categories": [
            {
                "id": c,
                "quota": pr.quota[c],
                "eligible": sorted(pr.eligible[c]),
                "beneficiary": sorted(pr.beneficiary[c]),
            }
            for c in pr.categories
        ],
        "patients": list(pr.patients),
    }
    if pr.beta_star is not None:
        doc["beta_star"] = share_str(pr.beta_star)
    if pr.priority is not None:
        doc["priority"] = {c: list(ps) for c, ps in sorted(pr.priority.items())}
    return doc


def instance_to_json(pr: Problem) -> str:
    return json.dumps(emit_instance(pr), indent=2, sort_keys=True) + "\n"


def matching_to_dict(pr: Problem, row: Sequence[int]) -> dict[str, Any]:
    """The matching of a category row, by patient and category id, with its
    score; raises MatchingError for a row that is no matching of pr
    (Problem.check_row)."""
    return _matching_dict(pr, pr.check_row(row))


def _matching_dict(pr: Problem, row: Sequence[int]) -> dict[str, Any]:
    """matching_to_dict of a row known to be a matching of pr, such as a frontier witness."""
    pt, cats = row_point(pr.pair_codes, row), pr.categories
    return {
        "assignment": {p: cats[c] for p, c in zip(pr.patients, row) if c != -1},
        "e": pt.e,
        "b": pt.b,
        "beta": share_str(beneficiary_share(pt)) if pt.e else None,
    }


def write_frontier_csv(f: Frontier, fp: IO[str]) -> None:
    """Rows e,b,beta_num,beta_den,is_kink ascending in e; beta blank at e=0."""
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["e", "b", "beta_num", "beta_den", "is_kink"])
    for pt in f.points:
        if pt.e:
            beta = beneficiary_share(pt)
            num, den = beta.numerator, beta.denominator
        else:
            num = den = ""
        writer.writerow([pt.e, pt.b, num, den, 1 if pt in f.kinks else 0])


def frontier_to_dict(f: Frontier, pr: Problem, witnesses: bool = False) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "points": [
            {
                "e": pt.e,
                "b": pt.b,
                "beta": share_str(beneficiary_share(pt)) if pt.e else None,
                "is_kink": pt in f.kinks,
            }
            for pt in f.points
        ]
    }
    if witnesses:
        doc["witnesses"] = [
            {"e": pt.e, "b": pt.b, **_matching_dict(pr, f.witnesses[pt])}
            for pt in f.points
            if pt in f.witnesses
        ]
    return doc


def frontier_to_json(f: Frontier, pr: Problem, witnesses: bool = False) -> str:
    return json.dumps(frontier_to_dict(f, pr, witnesses), indent=2, sort_keys=True) + "\n"
