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

from .core import BudgetExceededError, PriorityOrder, Problem, beneficiary_share, restrict_patients
from .frontier import compute_frontier, with_all_witnesses
from .generator import NAMED_INSTANCES, gen_named
from .mechanism import (
    AUDIT_SHOWN,
    MAX_AUDIT_PATIENTS,
    AuditViolation,
    audit_path_independence,
    audit_substitutability,
    choice_masks,
    repair_priority,
    respects_priority,
    select_approx_on_frontier,
)
from .oracle import budget_from_env
from .serialize import (
    frontier_to_json,
    matching_to_dict,
    parse_instance_file,
    share_str,
    write_frontier_csv,
)
from .verify import SUITES, random_inputs, run_suites

RANGE_TOKEN = re.compile(r"([A-Za-z_]*)(\d+)\.\.([A-Za-z_]*)(\d+)")


def parse_subset_tokens(spec: str, n_patients: int) -> list[str]:
    """Comma-separated ids with range shorthand: "p1..p3,p7" -> p1 p2 p3 p7.
    A range of more than n_patients ids is refused before it is expanded."""
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
            out.extend(f"{prefix}{i}" for i in range(lo, hi + 1))
        else:
            out.append(token)
    return out


def _apply_subset(pr: Problem, spec: str) -> Problem:
    keep = parse_subset_tokens(spec, len(pr.instance.patients))
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
    if args.subset:
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
        raise ValueError("solve needs beta_star in the instance file")
    m, pt = select_approx_on_frontier(pr)
    if args.respect_priority:
        m = repair_priority(pr, m)
    out = matching_to_dict(pr.seat_instance, m)
    out["target"] = share_str(pr.beta_star)
    if args.respect_priority:
        out["priority_violations"] = len(respects_priority(pr, m))
    _write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", args.output)
    beta = share_str(beneficiary_share(pt)) if pt.e else "0/1"
    print(f"e={pt.e} b={pt.b} beta={beta} target={share_str(pr.beta_star)}")
    return 0


def cmd_verify(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    if args.random:
        params = {}
        for token in args.random:
            key, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"--random expects key=value tokens, got {token!r}")
            params[key] = value
        inputs = random_inputs(params)
    else:
        inputs = [load_input(args)]
    suites = SUITES if args.suite == "all" else (args.suite,)
    budget = budget_from_env()

    jobs = min(args.jobs, len(inputs), os.cpu_count() or 1)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        from functools import partial

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            all_results = list(pool.map(partial(run_suites, suites=suites, budget=budget), inputs))
    else:
        all_results = [run_suites(pr, suites, budget) for pr in inputs]

    failed = 0
    total = 0
    for i, results in enumerate(all_results):
        if len(inputs) > 1:
            print(f"-- instance {i + 1}/{len(inputs)} --")
        for r in results:
            total += 1
            failed += 0 if r.ok else 1
            print(r.line())
    print(f"{total - failed}/{total} checks passed on {len(inputs)} instance(s)")
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
    patients, masks = choice_masks(load_input(args), args.max_patients)
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
    p.add_argument(
        "--max-patients",
        type=int,
        default=12,
        help=f"refuse larger audits; at most {MAX_AUDIT_PATIENTS}",
    )

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
