#!/usr/bin/env python3
"""Compute and read a trade-off frontier on a small reserve system.

The instance glues two independent conflicts together.  In the `a`
block, seating x1 at a2 earns a beneficiary match but blocks x2; in
the `b` block, seating everyone forces a displacement chain that
destroys all three beneficiary matches at once.  The frontier makes
both prices visible: one extra total match costs 1 beneficiary match
at first, then 3.
"""

from reserve_frontier import (
    Problem,
    beneficiary_share,
    compute_frontier,
    expand_to_seats,
    gen_chain_family,
    with_all_witnesses,
)


def two_block_instance() -> Problem:
    return Problem(
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


si = expand_to_seats(two_block_instance())
print("seats:", ", ".join(si.seats))

f = with_all_witnesses(si, compute_frontier(si))
print("\nfrontier, best beneficiary count at each total:")
for pt in f.points:
    share = beneficiary_share(pt) if pt.e else "-"
    tag = "  (kink)" if pt in f.kinks else ""
    print(f"  e={pt.e}  b={pt.b}  share={share}{tag}")

# a witness is a category row: row[i] is patient i's category index, or -1
print("\nwitness assignments:")
cats = si.categories
for pt in f.points:
    row = f.witnesses[pt]
    pairs = ", ".join(f"{p}->{cats[c]}" for p, c in zip(si.patients, row) if c >= 0)
    print(f"  at {tuple(pt)}: {pairs}")

# the chain block alone, scaled up: the endpoint gap grows without bound,
# so no constant share of the beneficiary count is safe from one extra seat
print("\ndisplacement chains of increasing depth:")
for k in (1, 3, 5):
    fk = compute_frontier(gen_chain_family(k))
    a, b = fk.points[0], fk.points[-1]
    print(f"  depth {k}: {tuple(a)} or {tuple(b)}; "
          f"the last seat costs {a.b - b.b} beneficiary matches")
