#!/usr/bin/env python3
"""Walk the frontier one reallocation cycle at a time.

Starting from the max-beneficiary endpoint, each step applies the
cheapest applicable cycle in the associated graph: one more patient
gets seated and the beneficiary count drops by the smallest amount any
cycle allows.  The per-step losses come out weakly increasing, which
is exactly why the frontier is concave.
"""

from reserve_frontier import (
    Instance,
    cheapest_cycle,
    compute_frontier,
    expand_to_seats,
    frontier_walk,
    validate_instance,
)

inst = validate_instance(
    Instance(
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
)

si = expand_to_seats(inst)
f = compute_frontier(si)
start = f.witnesses[f.points[0]]  # a category row: row[i] is patient i's category index, or -1

print("start at the max-beneficiary endpoint:", tuple(f.points[0]))
print(f"{len(si.patients)} patients and {len(si.seats)} unit seats")

walk = frontier_walk(si, start)
prev_pt, row = walk[0]
for pt, nxt in walk[1:]:
    cycle = cheapest_cycle(si, row)  # the cycle the walk applied, as patient and category indices
    moved = " -> ".join(si.patients[i] for i in cycle.patients)
    print(f"  {tuple(prev_pt)} -> {tuple(pt)}  loss {prev_pt.b - pt.b}, reseats {moved}")
    prev_pt, row = pt, nxt

print("reached the max-total endpoint:", tuple(prev_pt))
assert [pt for pt, _ in walk] == list(f.points), "walk must cover the frontier"
print("visited every frontier point in order")
