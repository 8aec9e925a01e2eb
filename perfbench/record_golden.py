#!/usr/bin/env python3
"""Record the golden output digests of the benchmark's output checks.

    python3 perfbench/record_golden.py

For every workload, runs one untraced op on every copy of seeds 0-9,
checks it, and stores in perfbench/golden.json the digest of the part of
the output that renaming cannot change: the solve summary line and the
whole verify output.  It
stops if that part differs between copies, so one digest covers every
seed.  Record only on a commit whose outputs are known good; a change
that alters output on purpose re-records and says so.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

SEEDS = range(10)


def main() -> int:
    run.use_program_source()
    import checks
    import reserve_frontier.cli as cli

    golden = {}
    for name, w in sorted(workloads.WORKLOADS.items()):
        invariants = set()
        for seed in SEEDS:
            out_dir = run.WORK / "golden-inputs" / f"{name}-seed{seed}"
            for files in workloads.write_inputs(w, seed, out_dir):
                _, stdout, error = run.run_op(cli, w.argvs(files))
                if error:
                    sys.exit(f"{name} seed {seed}: {error}")
                checks.CHECKERS[w.command](files, stdout)
                invariants.add(workloads.output_digest(run.invariant_part(w, stdout)))
            print(f"{name} seed {seed}: {workloads.COPIES} copies checked", flush=True)
        if len(invariants) > 1:
            sys.exit(f"{name}: output that should not depend on names does")
        golden[name] = invariants.pop()
    path = run.HERE / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
