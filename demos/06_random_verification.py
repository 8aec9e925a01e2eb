#!/usr/bin/env python3
"""Cross-check the fast algorithms against brute force on random inputs.

Every claim the library makes (frontier correctness, cycle minimality,
walk coverage, selection and repair behavior) has an exhaustive-
enumeration counterpart.  This runs all four check suites over a grid
of seeded random instances small enough for the oracle and prints the
aggregate, the same machinery the `verify` CLI subcommand uses.
"""

from collections import Counter

from reserve_frontier import SUITES, GenConfig, gen_random, run_suites

problems = [
    gen_random(GenConfig(patients=p, categories=c, quota_range=(1, 2),
                         eligibility_density=ed, beneficiary_density=bd,
                         seed=seed))
    for seed, (p, c, ed, bd) in enumerate(
        (p, c, ed, bd)
        for p in (3, 5, 7)
        for c in (2, 3)
        for ed in (0.4, 0.8)
        for bd in (0.3, 0.7)
    )
]

totals: Counter[str] = Counter()
failures = []
for i, pr in enumerate(problems):
    for res in run_suites(pr, SUITES):
        totals[res.suite] += 1
        if not res.ok:
            failures.append((i, res))

for suite in SUITES:
    print(f"{suite:>10}: {totals[suite]} checks")
print(f"\n{sum(totals.values())} checks on {len(problems)} instances, "
      f"{len(failures)} failure(s)")

for i, res in failures[:5]:
    print(f"  instance {i}: {res.line()}")
assert not failures
