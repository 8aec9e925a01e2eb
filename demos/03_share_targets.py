#!/usr/bin/env python3
"""How the selection rule reacts to different beneficiary-share targets.

The rule picks the largest-total frontier point whose share still meets
the target.  When even the max-beneficiary endpoint falls short, it
falls back to that endpoint: the instance cannot do better, so the rule
returns the best share available rather than failing.
"""

from dataclasses import replace
from fractions import Fraction

from reserve_frontier import (
    Problem,
    beneficiary_share,
    compute_frontier,
    select_approx_on_frontier,
)

pr = Problem(
    categories=("a1", "a2", "b1", "b2", "b3", "b4"),
    patients=("x1", "x2", "y1", "y2", "y3", "y4"),
    quota={c: 1 for c in ("a1", "a2", "b1", "b2", "b3", "b4")},
    eligible={
        "a1": frozenset({"x1"}),
        "a2": frozenset({"x1", "x2"}),
        "b1": frozenset({"y1", "y4"}),
        "b2": frozenset({"y1", "y2"}),
        "b3": frozenset({"y2", "y3"}),
        "b4": frozenset({"y3"}),
    },
    beneficiary={
        "a2": frozenset({"x1"}),
        "b1": frozenset({"y1"}),
        "b2": frozenset({"y2"}),
        "b3": frozenset({"y3"}),
    },
)

f = compute_frontier(pr)
print("frontier:", [tuple(pt) for pt in f.points])
print("shares:  ", [str(beneficiary_share(pt)) for pt in f.points])

best = beneficiary_share(f.points[0])
print(f"\nmax attainable share is {best} at {tuple(f.points[0])}\n")

for num, den in ((0, 1), (1, 10), (1, 2), (3, 5), (7, 10), (9, 10), (1, 1)):
    target = Fraction(num, den)
    _, pt = select_approx_on_frontier(replace(pr, beta_star=target))
    share = beneficiary_share(pt)
    if share == target:
        note = "meets it exactly"
    elif target > best:
        note = f"fallback, best effort {share}"
    else:
        note = f"share {share} >= target"
    print(f"  target {str(target):>4}: selected {tuple(pt)}  [{note}]")

# raising the target never raises the selected total
totals = []
for k in range(0, 11):
    _, pt = select_approx_on_frontier(replace(pr, beta_star=Fraction(k, 10)))
    totals.append(pt.e)
assert totals == sorted(totals, reverse=True)
print("\nselected totals over targets 0/10..10/10:", totals)
