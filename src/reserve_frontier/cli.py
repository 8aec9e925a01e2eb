"""Command-line interface.

    reserve-frontier frontier  INPUT.json --format csv -o out.csv
    reserve-frontier solve     INPUT.json --respect-priority
    reserve-frontier verify    --random patients=6 categories=5 seed=42 count=200
    reserve-frontier audit     --named path-independence --check both

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 budget
exceeded.  Output is byte-stable for fixed inputs: keys are sorted,
field order is fixed, and nothing carries a timestamp.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import re
import sys
from collections import deque
from typing import Iterable, Iterator

from .core import BudgetExceededError, PriorityOrder, Problem, beneficiary_share, restrict_patients
from .frontier import compute_frontier, with_all_witnesses
from .generator import NAMED_INSTANCES, gen_named
from .mechanism import (
    AUDIT_SHOWN,
    AuditViolation,
    audit_path_independence,
    audit_substitutability,
    choice_masks,
    repair_priority,
    respects_priority,
    select_approx_on_frontier,
)
from .serialize import (
    frontier_to_json,
    matching_to_dict,
    parse_instance_file,
    share_str,
    write_frontier_csv,
)
from .verify import SUITES, CheckResult, random_inputs, run_suites

RANGE_TOKEN = re.compile(r"([A-Za-z_]*)(\d+)\.\.([A-Za-z_]*)(\d+)")


def parse_subset_tokens(spec: str, n_patients: int) -> list[str]:
    """Comma-separated ids with range shorthand: "p1..p3,p7" -> p1 p2 p3 p7.
    Ends of one width keep it: "p08..p10" -> p08 p09 p10.  A range of more
    than n_patients ids is refused before it is expanded."""
    out: list[str] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        m = RANGE_TOKEN.fullmatch(token)
        if m and m.group(3) in ("", m.group(1)):
            prefix, lo, hi = m.group(1), int(m.group(2)), int(m.group(4))
            if hi < lo:
                raise ValueError(f"empty range in subset token {token!r}")
            if hi - lo >= n_patients:
                raise ValueError(f"subset token {token!r} names more ids than the {n_patients} patient(s)")
            width = len(m.group(2)) if len(m.group(2)) == len(m.group(4)) else 0
            out.extend(f"{prefix}{i:0{width}d}" for i in range(lo, hi + 1))
        else:
            out.append(token)
    return out


def _apply_subset(pr: Problem, spec: str) -> Problem:
    keep = parse_subset_tokens(spec, len(pr.instance.patients))
    if not keep:
        raise ValueError(f"--subset {spec!r} names no patient")
    sub = restrict_patients(pr.instance, keep)
    priority = None
    if pr.priority is not None:
        kept = set(sub.patients)
        priority = PriorityOrder(
            order={c: tuple(p for p in ps if p in kept) for c, ps in pr.priority.order.items()}
        )
    return Problem(instance=sub, beta_star=pr.beta_star, priority=priority)


def load_input(args) -> Problem:
    if args.named and args.input:
        raise ValueError("give an input file or --named, not both")
    if args.named:
        pr = gen_named(args.named)
    elif args.input:
        pr = parse_instance_file(args.input)
    else:
        raise ValueError("an input file or --named is required")
    if args.subset is not None:
        pr = _apply_subset(pr, args.subset)
    return pr


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def cmd_frontier(args) -> int:
    if args.witnesses and args.format == "csv" and not args.output:
        raise ValueError("csv witnesses need -o so the sidecar has a path")
    si = load_input(args).seat_instance
    f = compute_frontier(si)
    if args.witnesses:
        f = with_all_witnesses(si, f)
    if args.format == "json":
        _write_text(frontier_to_json(f, si, witnesses=args.witnesses), args.output)
        return 0
    buf = io.StringIO()
    write_frontier_csv(f, buf)
    _write_text(buf.getvalue(), args.output)
    if args.witnesses:
        _write_text(frontier_to_json(f, si, witnesses=True), args.output + ".witnesses.json")
    return 0


def cmd_solve(args) -> int:
    pr = load_input(args)
    if pr.beta_star is None:
        source = f"--named {args.named}" if args.named else args.input
        raise ValueError(f"{source}: solve needs a beta_star, and this input has none")
    row, pt = select_approx_on_frontier(pr)  # no eligible pair: NoNonEmptyMatchingError
    if args.respect_priority:
        row = repair_priority(pr, row)
    out = matching_to_dict(pr.seat_instance, row)
    out["target"] = share_str(pr.beta_star)
    if args.respect_priority:
        out["priority_violations"] = len(respects_priority(pr, row))
    _write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", args.output)
    print(f"e={pt.e} b={pt.b} beta={share_str(beneficiary_share(pt))} target={share_str(pr.beta_star)}")
    return 0


def _checked(inputs: Iterable[Problem], suites: tuple[str, ...], jobs: int) -> Iterator[list[CheckResult]]:
    """run_suites on each input, in input order, as each is checked.  With
    jobs > 1 a pool checks them, with at most 2 * jobs inputs drawn ahead."""
    if jobs == 1:
        yield from (run_suites(pr, suites) for pr in inputs)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        ahead: deque = deque()
        for pr in inputs:
            ahead.append(pool.submit(run_suites, pr, suites))
            if len(ahead) == 2 * jobs:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.random:
        if args.input or args.named or args.subset is not None:
            raise ValueError("--random draws its own instances; give no input file, --named or --subset with it")
        params = {}
        for token in args.random:
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"--random expects key=value tokens, got {token!r}")
            params[key] = value
        count, inputs = random_inputs(params)
    else:
        count, inputs = 1, [load_input(args)]
    suites = SUITES if args.suite == "all" else (args.suite,)

    failed = 0
    total = 0
    for i, results in enumerate(_checked(inputs, suites, min(args.jobs, count, os.cpu_count() or 1))):
        if count > 1:
            print(f"-- instance {i + 1}/{count} --")
        for r in results:
            total += 1
            failed += 0 if r.ok else 1
            print(r.line())
    print(f"{total - failed}/{total} checks passed on {count} instance(s)")
    return 0 if failed == 0 else 1


def _fmt_set(s: frozenset) -> str:
    return "{" + ",".join(sorted(s)) + "}"


def _print_violations(kind: str, count: int, first: list[AuditViolation]) -> None:
    lhs_name, rhs_name = (
        ("C(X|X')", "C(C(X)|X')") if kind == "path-independence" else ("C(X)&X'", "C(X')")
    )
    print(f"{kind}: {count} violation(s)")
    for v in first:
        print(
            f"  X={_fmt_set(v.x)} X'={_fmt_set(v.x_prime)} "
            f"{lhs_name}={_fmt_set(v.lhs)} {rhs_name}={_fmt_set(v.rhs)}"
        )
    if count > AUDIT_SHOWN:
        print(f"  ... and {count - AUDIT_SHOWN} more")


def cmd_audit(args) -> int:
    patients, masks = choice_masks(load_input(args))
    if args.check in ("pi", "both"):
        _print_violations("path-independence", *audit_path_independence(patients, masks))
    if args.check in ("subs", "both"):
        _print_violations("substitutability", *audit_substitutability(patients, masks))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reserve-frontier",
        description="Size/beneficiary frontiers for reserve allocation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", nargs="?", help="instance JSON file")
        p.add_argument("--named", choices=NAMED_INSTANCES, help="built-in instance")
        p.add_argument("--subset", help="restrict to these patients, e.g. p1..p4,p6")

    p = sub.add_parser("frontier", help="compute the non-domination frontier")
    common(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--witnesses", action="store_true", help="include a witness matching per point")
    p.add_argument("-o", "--output", help="write here instead of stdout")

    p = sub.add_parser("solve", help="select a frontier matching for the share target")
    common(p)
    p.add_argument("--respect-priority", action="store_true", help="repair priority violations")
    p.add_argument("-o", "--output", help="write the matching JSON here")

    p = sub.add_parser("verify", help="cross-check the algorithms against enumeration")
    common(p)
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument(
        "--random",
        nargs="+",
        metavar="KEY=VALUE",
        help="generate inputs: patients= categories= seed= count= quota=LO:HI elig= bene=",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="instances checked in parallel; capped at the instance and CPU counts",
    )

    p = sub.add_parser("audit", help="test the induced choice rule on every subset")
    common(p)
    p.add_argument("--check", choices=("pi", "subs", "both"), default="both")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """One parser per process, built on first use and never changed after."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* (a test double, a tracer) runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
