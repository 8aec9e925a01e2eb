#!/usr/bin/env python3
"""Negative control: show that the output checks can fail.

    python3 perfbench/control.py

Runs verify-oracle, seed 0, for 5 seconds with
RESERVE_FRONTIER_INJECT_CORRUPTION=1, which makes `verify` corrupt the
frontier it checks.  Exits 0 only if the benchmark then reports failed
ops (failed / attempted > 0) and correct = false.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    env = dict(os.environ, RESERVE_FRONTIER_INJECT_CORRUPTION="1")
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "verify-oracle",
           "--seed", "0", "--seconds", "5", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        print(f"control: the benchmark exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])
    failed_frac = result["failed"] / result["attempted"]
    print(json.dumps({"failed": result["failed"], "attempted": result["attempted"],
                      "failed_frac": failed_frac, "correct": result["correct"]}))
    registered = failed_frac > 0 and not result["correct"]
    print("control: corruption " + ("registered" if registered else "NOT registered"))
    return 0 if registered else 1


if __name__ == "__main__":
    sys.exit(main())
