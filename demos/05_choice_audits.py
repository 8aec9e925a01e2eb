#!/usr/bin/env python3
"""The induced choice rule is not substitutable, and no tie-break saves it.

Running the selection rule on a patient subset X defines a choice rule
C(X).  Substitutability demands C(X) keep every patient it chose from a
larger pool; here removing p6 makes the rule drop a previously chosen
patient.  Enumerating every optimal matching on the subset shows the
failure is structural: no admissible tie-breaking avoids it.
"""

from reserve_frontier import (
    Problem,
    audit_path_independence,
    audit_substitutability,
    choice_masks,
    enumerate_matchings,
    expand_to_seats,
    gen_named,
    restrict_patients,
    select_approx_on_frontier,
)
from reserve_frontier.core import row_point

pr = gen_named("path-independence")
full = frozenset(pr.instance.patients)
x = frozenset({"p1", "p2", "p3", "p4", "p5"})

# bit i of a subset mask is patient i; masks[X] is the mask of C(X)
patients, masks = choice_masks(pr)
bit = {p: 1 << i for i, p in enumerate(patients)}


def choose(subset):
    chosen = masks[sum(bit[p] for p in subset)]
    return frozenset(p for p in patients if chosen & bit[p])


cp = choose(full)
cx = choose(x)
print("C(P)          =", sorted(cp))
print("C(X), no p6   =", sorted(cx))
kept = cp & x
print("C(P) cap X    =", sorted(kept), " contained in C(X)?", kept <= cx)

n_subs, subs = audit_substitutability(patients, masks)
n_pi, _ = audit_path_independence(patients, masks)
print(f"\naudits: {n_subs} substitutability and {n_pi} "
      f"path-independence violation(s)")
worst = next(v for v in subs if v.x == full and v.x_prime == x)
print("example: chose", sorted(worst.lhs), "from the full pool but only",
      sorted(worst.rhs), "from the subset")

# every optimal matching on X is an admissible C(X); none keeps all of kept
sub = restrict_patients(pr.instance, x)
_, pt = select_approx_on_frontier(Problem(instance=sub, beta_star=pr.beta_star))
si = expand_to_seats(sub)
# enumerate_matchings yields category rows: row[i] is patient i's category index, or -1
options = {
    frozenset(si.patients[i] for i, c in enumerate(row) if c != -1)
    for row in enumerate_matchings(si)
    if row_point(si.pair_codes, row) == pt
}
print(f"\nadmissible C(X) tie-breaks at {tuple(pt)}:")
for s in sorted(options, key=sorted):
    print("  ", sorted(s), "misses", sorted(kept - s))
assert all(not kept <= s for s in options)
