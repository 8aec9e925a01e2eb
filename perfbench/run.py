#!/usr/bin/env python3
"""Benchmark for the reserve-frontier CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src, nothing is installed.  One client in one process drives one CLI
subcommand in-process through reserve_frontier.cli.main(argv), one op at
a time (a closed loop), with stdout captured.  BLAS/OpenMP threads are
pinned to 1 and `verify` runs with --jobs 1.

Set-up runs first.  This process imports reserve_frontier.cli, which
fills the bytecode caches; then SETUP_REPEATS fresh interpreters, timed,
each import it and write the workload's instance files (see
workloads.py).  One untimed warm-up op follows, then ops run until the
next one would end after --seconds.

--trace 0 reports the end-to-end metrics:
  op_s         median wall seconds per op
  setup_s      median wall seconds of one set-up (import + inputs)
  peak_rss_mb  peak resident set of this process, which ran the ops
--trace 1 alternates untraced and traced ops on the same copies and
reports the per-layer metrics of spans.py, medians over the traced ops,
plus trace.overhead_frac = traced op_s / untraced op_s - 1.  The tracer's
wrappers are installed only for the traced ops, so the untraced ops run
the program as --trace 0 does; the record gives the number of pairs.

Every op's output is checked (checks.py, and golden.json for the part of
the output that the seed cannot change).  A failed op is
a non-zero exit, an exception, or output that fails a check; `failed`
over `attempted` in the result line is the failed fraction.  The last
stdout line is the JSON result; the line before it carries the
environment record and the input shape, which are also written, with all
samples, to .perfbench/results/.  A seed whose shape falls below the
workload's floor stops the run with exit code 4.

Negative control: RESERVE_FRONTIER_INJECT_CORRUPTION=1 makes `verify`
corrupt its frontier, so verify-oracle must then report failed ops
(see control.py).  Such a run writes its record under a -corrupt name, so
it never replaces a real result.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CORRUPTION_ENV = "RESERVE_FRONTIER_INJECT_CORRUPTION"
SETUP_REPEATS = 6  # set-up varies with the host; the median of 6 is steadier than of 3
CHILD_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


def use_program_source() -> None:
    """Import the program from this checkout's src/, or exit 2 if it is missing."""
    if not (SRC / "reserve_frontier" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'reserve_frontier'}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def work_dir(name: str, seed: int) -> Path:
    return WORK / "inputs" / f"{name}-seed{seed}"


def prepare(name: str, seed: int) -> None:
    """Set-up as a CLI user pays it: import the CLI, then write the inputs."""
    t0 = time.perf_counter()
    import reserve_frontier.cli  # noqa: F401

    t1 = time.perf_counter()
    workloads.write_inputs(workloads.WORKLOADS[name], seed, work_dir(name, seed))
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))


def timed_setup(name: str, seed: int) -> tuple[list[float], list[dict]]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--prepare",
           "--workload", name, "--seed", str(seed)]
    walls, parts = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(f"perfbench: set-up failed:\n{proc.stderr}", file=sys.stderr)
            sys.exit(3)
        walls.append(wall)
        parts.append(json.loads(proc.stdout.splitlines()[-1]))
    return walls, parts


def run_op(cli, argvs: list[list[str]]) -> tuple[float, str, str | None]:
    """One op: seconds, captured stdout, and the first error or None."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        for argv in argvs:
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed op, not a failed benchmark
                rc = f"{type(exc).__name__}: {exc}"
            if rc != 0 and error is None:
                error = f"{' '.join(argv[:1])}: exit {rc}; {err.getvalue().strip()[:200]}"
        seconds = time.perf_counter() - t0
    return seconds, out.getvalue(), error


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            cpu = next((l.split(":", 1)[1].strip() for l in fp if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "platform": platform.platform(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


class Run:
    """One benchmark run: ops, their outputs, and the checks over them."""

    def __init__(self, w: workloads.Workload, seed: int, cli, tracer=None):
        self.w, self.cli, self.tracer = w, cli, tracer
        self.copies = workloads.input_paths(w, work_dir(w.name, seed))
        self.ops: list[dict] = []
        self.first_stdout: dict[int, str] = {}
        self.kept_spans: list[list] = []
        self.layer_samples: list[dict] = []

    def op(self, copy: int, timed: bool, traced: bool = False) -> float:
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.begin_op(len(self.ops))
        try:
            seconds, stdout, error = run_op(self.cli, self.w.argvs(self.copies[copy]))
        finally:
            if tracer is not None:
                tracer.end_op()
        if tracer is not None:
            self.layer_samples.append(spans.layer_metrics(tracer.spans, tracer.counts))
            self.kept_spans = list(tracer.spans)  # the last traced op's, written at the end
        self.first_stdout.setdefault(copy, stdout)
        self.ops.append({"copy": copy, "timed": timed, "traced": traced, "seconds": seconds,
                         "digest": workloads.output_digest(stdout), "error": error})
        return seconds

    def closed_loop(self, seconds: float, traced_pairs: bool) -> None:
        """Ops until the next one would end after `seconds`; at least one."""
        self.op(0, timed=False)  # warm-up
        deadline = time.perf_counter() + seconds
        done: list[float] = []
        i = 0
        while not done or time.perf_counter() + statistics.median(done) <= deadline:
            copy = i % len(self.copies)
            took = self.op(copy, timed=True)
            if traced_pairs:
                took += self.op(copy, timed=True, traced=True)
            done.append(took)
            i += 1

    def check(self, golden: str) -> dict:
        """Mark failed ops; returns the shape of every copy that ran.

        `golden` is the digest of the seed-invariant part of the output.
        """
        import checks

        checker = checks.CHECKERS[self.w.command]
        shapes, verdicts = {}, {}
        for copy, stdout in self.first_stdout.items():
            files = self.copies[copy]
            problems = []
            try:
                shapes[copy] = checker(files, stdout)
                if copy == 0:
                    shapes[copy].update(checks.frontier_shape(files))
            except checks.CheckFailed as exc:
                problems.append(str(exc))
            except Exception as exc:  # output the checker cannot even parse
                problems.append(f"unparsable output: {type(exc).__name__}: {exc}")
            if workloads.output_digest(invariant_part(self.w, stdout)) != golden:
                problems.append("seed-invariant output differs from the golden digest")
            verdicts[copy] = (workloads.output_digest(stdout), problems)
        for op in self.ops:
            digest, problems = verdicts[op["copy"]]
            if op["error"] is None and op["digest"] != digest:
                op["error"] = "stdout differs between ops on the same input"
            if op["error"] is None and problems:
                op["error"] = "; ".join(problems)
        return shapes


def invariant_part(w: workloads.Workload, stdout: str) -> str:
    """The part of an op's stdout that renaming cannot change."""
    if w.command == "solve":
        return stdout.rstrip("\n").rpartition("\n")[2]
    return stdout  # verify lines name no patient or category


def load_golden(name: str) -> str:
    return json.loads((HERE / "golden.json").read_text(encoding="utf-8"))[name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    use_program_source()
    if args.prepare:
        prepare(args.workload, args.seed)
        return 0
    w = workloads.WORKLOADS[args.workload]
    import reserve_frontier.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported the program from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    setup_walls, setup_parts = timed_setup(w.name, args.seed)
    tracer = spans.Tracer() if args.trace else None
    run = Run(w, args.seed, cli, tracer)
    run.closed_loop(args.seconds, traced_pairs=bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    shapes = run.check(load_golden(w.name))
    shape = shapes.get(0, {})
    import checks

    breaches = checks.shape_floor_breaches(w.name, shape) if shape else []
    if breaches:
        print(f"perfbench: seed {args.seed} gives a degenerate {w.name} input: "
              + ", ".join(breaches), file=sys.stderr)
        return 4

    timed = [op for op in run.ops if op["timed"]]
    plain = [op["seconds"] for op in timed if not op["traced"]]
    if args.trace:
        traced = [op["seconds"] for op in timed if op["traced"]]
        metrics = {
            key: statistics.median(sample[key] for sample in run.layer_samples)
            for key in run.layer_samples[0]
        }
        metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        units = {key: spans.unit_of(key) for key in metrics}
    else:
        metrics = {
            "op_s": statistics.median(plain),
            "setup_s": statistics.median(setup_walls),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    failed = sum(1 for op in run.ops if op["error"])
    errors = sorted({op["error"] for op in run.ops if op["error"]})
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": w.why,
        "load": "closed loop, one client, one op at a time, verify --jobs 1",
        "shape": shape,
        "env": environment(),
        "op_samples": len(plain),
        "op_s_min": min(plain),
        "op_s_max": max(plain),
        "setup_walls_s": setup_walls,
        "setup_parts": setup_parts,
        "attempted": len(run.ops),
        "failed": failed,
        "failed_frac": failed / len(run.ops),
        "errors": errors[:10],
        "ops": [{k: op[k] for k in ("copy", "timed", "traced", "seconds", "error")} for op in run.ops],
        "metrics": metrics,
    }
    if args.trace:
        record["layer_self_s"] = {
            layer: metrics[f"{layer}.self_s"] for layer in spans.LAYERS
        }
        record["top_self_layer"] = max(record["layer_self_s"], key=record["layer_self_s"].get)
        record["traced_pairs"] = len(run.layer_samples)  # the base of trace.overhead_frac
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if os.environ.get(CORRUPTION_ENV) == "1":
        stem += "-corrupt"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        spans.write_spans(results / f"{w.name}.spans.csv.gz", run.kept_spans)

    for err in errors[:5]:
        print(f"perfbench: failed op: {err}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "shape", "env", "op_samples",
                                              "failed_frac")}
                     | ({"top_self_layer": record["top_self_layer"]} if args.trace else {})))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
