"""Tracing from outside the program: wrap each layer's public functions.

`from .x import y` binds y in the importing module, so a wrapper is
installed under every name in the package that refers to the original
function (and in module-level dicts such as verify.SUITE_FUNCS), not only
as an attribute of the defining module.  The wrappers are in place only
between begin_op and end_op, so untraced ops run the program unwrapped.
Each wrapped call records a span [name, start, end, parent, op, busy].  Spans
stay in memory; the benchmark writes them out at the end of its run.

A generator function is timed over its consumption: its span's busy time
is the sum of the time spent inside next(), and only calls made inside
next() are its children.  Self time is busy time minus the busy time of
direct children.
"""

from __future__ import annotations

import csv
import gzip
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("core", "hungarian", "frontier", "cycles", "mechanism", "oracle", "verify", "serialize", "cli")
PACKAGE = "reserve_frontier"

NAME, START, END, PARENT, OP, BUSY = range(6)


def _cells(args, kwargs, counts):
    weights = args[0] if args else kwargs["weights"]
    counts["hungarian.cells"] += int(weights.size)


def _kinks(result, counts):
    counts["frontier.kinks"] += len(result.kinks)


def _walk_steps(result, counts):
    counts["cycles.walk_steps"] += len(result) - 1


def _checks(result, counts):
    counts["verify.checks"] += len(result)
    counts["verify.checks_failed"] += sum(1 for r in result if not r.ok)


class Tracer:
    """Wraps every public function of every layer for the duration of one op."""

    def __init__(self) -> None:
        self.op = -1
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._eligible: dict[int, frozenset[str]] = {}
        self._before = {
            "hungarian.max_weight_assignment_dense": _cells,
            "cycles.find_minimal_cycle": self._search_starts,
        }
        self._after = {
            "frontier.compute_frontier": _kinks,
            "cycles.frontier_walk": _walk_steps,
            "verify.run_suites": _checks,
        }
        self._wrappers: dict[int, object] = {}  # id(original) -> wrapper
        self._undo: list[tuple[dict, str, object]] = []
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrap = self._wrap_generator if inspect.isgeneratorfunction(fn) else self._wrap
                self._wrappers[id(fn)] = wrap(f"{layer}.{attr}", fn)

    def _search_starts(self, args, kwargs, counts) -> None:
        # unmatched patients eligible somewhere; read from fields, not from
        # the program's lazily cached views, so the search still pays for those
        si, m = args[0], args[1]
        key = id(si)
        if key not in self._eligible:
            self._eligible[key] = frozenset().union(*si.source.eligible.values())
        matched = {p for p, _ in m.pairs}
        counts["cycles.search_starts"] += len(self._eligible[key] - matched)

    def install(self) -> None:
        """Put the wrappers under every name in the package that refers to an original."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            namespace = vars(mod)
            tables = [value for value in namespace.values() if type(value) is dict]
            for table in [namespace, *tables]:
                for key, value in list(table.items()):
                    wrapper = self._wrappers.get(id(value))
                    if wrapper is not None:
                        table[key] = wrapper
                        self._undo.append((table, key, value))

    def uninstall(self) -> None:
        """Put the originals back."""
        for table, key, original in reversed(self._undo):
            table[key] = original
        self._undo.clear()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before, after = self._before.get(name), self._after.get(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs, self.counts)
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(rec)
            stack.append(idx)
            rec[START] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                rec[BUSY] = end - start
                stack.pop()
            if after is not None:
                after(result, self.counts)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _wrap_generator(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        items = f"{name}.items"

        def consume(gen, rec, idx):
            while True:
                stack.append(idx)
                start = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    rec[END] = end = clock()
                    rec[BUSY] += end - start
                    stack.pop()
                self.counts[items] += 1
                yield item

        def wrapper(*args, **kwargs):
            now = clock()
            rec = [name, now, now, stack[-1] if stack else -1, self.op, 0.0]
            spans.append(rec)
            return consume(fn(*args, **kwargs), rec, len(spans) - 1)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def begin_op(self, op: int) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts = Counter()
        self._eligible.clear()
        self.op = op
        self.install()

    def end_op(self) -> None:
        self.uninstall()


def write_spans(path: Path, spans: list[list]) -> None:
    with gzip.open(path, "wt", newline="", encoding="utf-8", compresslevel=1) as fp:
        out = csv.writer(fp)
        out.writerow(["id", "name", "start", "end", "parent", "op", "busy"])
        for i, s in enumerate(spans):
            out.writerow([i, s[NAME], f"{s[START]:.9f}", f"{s[END]:.9f}", s[PARENT], s[OP], f"{s[BUSY]:.9f}"])


def by_function(spans: list[list]) -> dict[str, list[float]]:
    """name -> [calls, busy seconds, self seconds]."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[BUSY]
    out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for i, s in enumerate(spans):
        row = out[s[NAME]]
        row[0] += 1
        row[1] += s[BUSY]
        row[2] += s[BUSY] - child[i]
    return out


def outermost_busy(spans: list[list], names: set[str]) -> float:
    """Busy time of spans named in `names` that have no ancestor named in `names`."""
    inside = [False] * len(spans)
    total = 0.0
    for i, s in enumerate(spans):
        p = s[PARENT]
        inside[i] = p >= 0 and (inside[p] or spans[p][NAME] in names)
        if s[NAME] in names and not inside[i]:
            total += s[BUSY]
    return total


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Per-layer metrics of one op."""
    fn = by_function(spans)

    def calls(*names):
        return sum(fn[n][0] for n in names if n in fn)

    def busy(*names):
        return sum(fn[n][1] for n in names if n in fn)

    def self_s(*names):
        return sum(fn[n][2] for n in names if n in fn)

    def layer(prefix):
        return [n for n in fn if n.startswith(prefix + ".")]

    hungarian = layer("hungarian")
    hungarian_calls = calls(*hungarian)
    sweeps = calls("frontier.frontier_iteration")
    searches_s = busy("cycles.find_minimal_cycle")
    starts = counts["cycles.search_starts"]
    scans = {f"oracle.{n}" for n in ("enumerate_matchings", "count_matchings", "oracle_frontier",
                                     "matchings_at_point", "sample_matchings_at_points")}
    checks = {"oracle.check_disjoint_cycles", "oracle.check_matched_preservation"}
    parse = {"serialize.parse_instance_file", "serialize.parse_instance", "serialize.parse_share"}
    emit = set(layer("serialize")) - parse
    m = {
        "hungarian.calls": hungarian_calls,
        "hungarian.self_s": self_s(*hungarian),
        "hungarian.cells": counts["hungarian.cells"],
        "hungarian.s_per_call": self_s(*hungarian) / hungarian_calls if hungarian_calls else 0.0,
        "frontier.sweeps": sweeps,
        "frontier.sweep_self_s": self_s("frontier.frontier_iteration"),
        "frontier.compute_calls": calls("frontier.compute_frontier"),
        "frontier.compute_s": busy("frontier.compute_frontier"),
        "frontier.kinks": counts["frontier.kinks"],
        "frontier.kink_yield": counts["frontier.kinks"] / sweeps if sweeps else 0.0,
        "frontier.fill_calls": calls("frontier.with_all_witnesses"),
        "frontier.fill_s": busy("frontier.with_all_witnesses"),
        "cycles.searches": calls("cycles.find_minimal_cycle"),
        "cycles.search_s": searches_s,
        "cycles.search_starts": starts,
        "cycles.s_per_start": searches_s / starts if starts else 0.0,
        "cycles.walk_steps": counts["cycles.walk_steps"],
        "cycles.apply_calls": calls("cycles.apply_cycle"),
        "cycles.apply_s": busy("cycles.apply_cycle"),
        "cycles.loss_calls": calls("cycles.beneficiary_loss"),
        "cycles.loss_s": busy("cycles.beneficiary_loss"),
        "mechanism.select_s": busy("mechanism.select_approx_on_frontier"),
        "mechanism.repair_s": busy("mechanism.repair_priority"),
        "mechanism.priority_scans": calls("mechanism.respects_priority"),
        "mechanism.exact_share_calls": calls("mechanism.dominates_exact_share_matchings"),
        "mechanism.exact_share_s": busy("mechanism.dominates_exact_share_matchings"),
        "core.expand_calls": calls("core.expand_to_seats"),
        "core.expand_s": busy("core.expand_to_seats"),
        "core.validate_calls": calls("core.validate_instance", "core.validate_matching"),
        "core.match_point_calls": calls("core.match_point"),
        "core.match_point_s": busy("core.match_point"),
        "oracle.enumerations": calls(*scans),
        "oracle.matchings_materialized": counts["oracle.enumerate_matchings.items"],
        "oracle.enumerate_s": outermost_busy(spans, scans),
        "oracle.check_s": outermost_busy(spans, checks),
        "oracle.min_cycle_calls": calls("oracle.oracle_min_cycle_loss"),
        "oracle.min_cycle_s": busy("oracle.oracle_min_cycle_loss"),
        "verify.checks": counts["verify.checks"],
        "verify.checks_failed": counts["verify.checks_failed"],
        "serialize.parse_s": outermost_busy(spans, parse),
        "serialize.emit_s": outermost_busy(spans, emit),
    }
    for suite in ("frontier", "cycles", "lemmas", "mechanism"):
        m[f"verify.suite_self_s.{suite}"] = self_s(f"verify.verify_{suite}")
    for name in LAYERS:
        m[f"{name}.self_s"] = self_s(*layer(name))
    return m


UNITS = {
    "calls": "count", "cells": "cells", "sweeps": "count", "kinks": "count",
    "kink_yield": "kinks/sweep", "searches": "count", "search_starts": "count",
    "walk_steps": "count",
    "priority_scans": "count", "enumerations": "count", "matchings_materialized": "count",
    "checks": "count", "checks_failed": "count", "s_per_call": "s/call", "s_per_start": "s/start",
    "overhead_frac": "ratio",
}


def unit_of(metric: str) -> str:
    leaf = metric.split(".")[1]
    if leaf in UNITS:
        return UNITS[leaf]
    if leaf.endswith("_calls"):
        return "count"
    return "s"
