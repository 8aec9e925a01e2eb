#!/usr/bin/env python3
"""Repair a selected matching so category priorities are respected.

The optimizer only cares about counts, so it may seat a low-priority
patient while a higher-priority one sits unmatched in the same
category.  Repairing swaps matched patients for outranking unmatched
ones of the same kind; the (total, beneficiary) point is provably
unchanged and the rank sum only improves.
"""

from dataclasses import replace
from fractions import Fraction
from random import Random

from reserve_frontier import (
    GenConfig,
    gen_random,
    match_point,
    rank_sum,
    repair_priority,
    respects_priority,
    select_approx_on_frontier,
)

rng = Random(8)
inst = gen_random(GenConfig(patients=8, categories=3, quota_range=(1, 2),
                            eligibility_density=0.6, beneficiary_density=0.4,
                            seed=8))

# admissible order: beneficiaries first, other eligible next, rest last,
# shuffled inside each tier
order = {}
for c in inst.categories:
    bene = sorted(inst.beneficiary[c])
    elig = sorted(p for p in inst.eligible[c] if p not in inst.beneficiary[c])
    rest = sorted(p for p in inst.patients if p not in inst.eligible[c])
    for tier in (bene, elig, rest):
        rng.shuffle(tier)
    order[c] = tuple(bene + elig + rest)

pr = replace(inst, beta_star=Fraction(1, 3), priority=order)

# a matching is a category row: row[i] is patient i's category index, or -1;
# violations are (category, seated patient, unmatched patient) indices
row, pt = select_approx_on_frontier(pr)
before = respects_priority(pr, row)
print(f"selected point {tuple(pt)} with {len(before)} priority violation(s)")
for c, seated, skipped in before:
    print(f"  {inst.categories[c]}: seated {pr.patients[seated]} over unmatched {pr.patients[skipped]}")

fixed = repair_priority(pr, row)
after = respects_priority(pr, fixed)
print(f"\nafter repair: {len(after)} violation(s)")
print("point unchanged:", match_point(pr, pr.name_row(fixed)) == pt)
print(f"rank sum {rank_sum(pr, row)} -> {rank_sum(pr, fixed)}")


def categories(row):
    return {p: inst.categories[c] for p, c in zip(pr.patients, row) if c >= 0}


was, now = categories(row), categories(fixed)
changed = sorted(f"{p}->{c}" for p, c in now.items() if was.get(p) != c)
print("reseated:", ", ".join(changed) or "(nothing)")
