"""Trade-off cycles between total and beneficiary matches.

For a matching m, the associated graph has an edge p -> s when p is
eligible for s and not already seated there, and an edge s -> p when s is
m's seat for p, or when s and p are both unmatched.  An applicable cycle
(p1, s1, ..., pk, sk) starts at an unmatched patient, ends at an unmatched
seat, and passes only through matched pairs in between; applying it seats
every p_i at s_i, raising the total match count by exactly one at some
beneficiary-match cost.  The cheapest applicable cycle steps from one
frontier point to the next, so walking cheapest cycles from the
max-beneficiary endpoint materializes a witness matching at every frontier
point.  Only verify and the demos walk; production builds a witness
between two kinks from their sweep rows (frontier.witness_at).

Cheapest-cycle search is one Bellman-Ford from every unmatched patient at
once, over (cost, start rank, hops) labels with predecessor links, where an
alternating path's cost is exactly the beneficiary loss of the cycle it
closes.  Costs can be negative on a dominated input; a negative-cost cycle
is reported as such rather than looped over (lexicographic relaxation
converges in V-1 rounds otherwise, since zero-cost loops only add hops).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Matching, MatchPoint, SeatInstance, match_point


class CycleError(ValueError):
    """A cycle is not applicable in the given matching's associated graph."""


class DominatedInputError(ValueError):
    """The input matching is detectably dominated (non-positive-loss cycle)."""


@dataclass(frozen=True)
class Cycle:
    """Alternating sequence (p1, s1, ..., pk, sk) closing back to p1."""

    patients: tuple[str, ...]
    seats: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "patients", tuple(self.patients))
        object.__setattr__(self, "seats", tuple(self.seats))
        if len(self.patients) != len(self.seats) or not self.patients:
            raise CycleError("cycle must alternate equal numbers of patients and seats")
        if len(set(self.patients)) != len(self.patients) or len(set(self.seats)) != len(self.seats):
            raise CycleError("cycle vertices must be distinct")

    def __len__(self) -> int:
        return len(self.patients)


def check_applicable(si: SeatInstance, m: Matching, c: Cycle) -> None:
    """Raise CycleError unless c is an applicable cycle in the graph of m."""
    p1, last_seat = c.patients[0], c.seats[-1]
    if m.seat_of(p1) is not None:
        raise CycleError(f"cycle not applicable: patient {p1} is matched")
    if m.patient_of(last_seat) is not None:
        raise CycleError(f"cycle not applicable: seat {last_seat} is filled")
    for p, s in zip(c.patients, c.seats):
        if s not in si.seat_index:
            raise CycleError(f"cycle not applicable: unknown seat {s}")
        if p not in si.eligible_of(s):
            raise CycleError(f"cycle not applicable: {p} not eligible for {s}")
        if m.seat_of(p) == s:
            raise CycleError(f"cycle not applicable: {p} already seated at {s}")
    for k in range(len(c) - 1):
        holder = m.patient_of(c.seats[k])
        if holder != c.patients[k + 1]:
            raise CycleError(
                f"cycle not applicable: seat {c.seats[k]} does not hold {c.patients[k + 1]}"
            )


def apply_cycle(si: SeatInstance, m: Matching, c: Cycle) -> Matching:
    """Seat every cycle patient at its cycle seat; everyone else stays put."""
    check_applicable(si, m, c)
    assignment = dict(m.by_patient)
    for p, s in zip(c.patients, c.seats):
        assignment[p] = s
    out = Matching.from_assignment(assignment)
    if len(out) != len(m) + 1:
        raise CycleError("cycle application must add exactly one match")
    return out


def find_minimal_cycle(si: SeatInstance, m: Matching) -> Cycle | None:
    """Applicable cycle of minimum beneficiary loss, or None if none exists.

    Ties break by unmatched-patient order, then unmatched-seat order, then
    path length, so the result is deterministic.  Raises DominatedInputError
    when the cheapest loss is not positive or a negative-cost loop exists;
    either certifies the input matching is dominated.

    One Bellman-Ford starts from every unmatched patient at once.  Each
    node carries the least (cost, start rank, hops) label over the
    alternating paths that reach it, where a start's rank is its position
    among the unmatched patients with an eligible seat, and each seat
    records the patient that last strictly improved its label.  This returns the cycle that one
    search per start, compared pair by pair, would return:

    - Same best key.  A start's rank is the same at every node of its
      paths, so a node's label is the least over starts of that start's
      own (cost, hops) label with the rank inserted, and the least
      (cost, start rank, seat rank, hops) over targets is the least over
      (start, target) pairs.
    - Same candidate predecessors.  Every node on the chosen path carries
      the chosen start's own label: a start that labelled such a node
      better would also reach the target better.  So each seat on the
      path has the predecessors a search from that start alone sees.
    - Same predecessor.  Within a round patients relax seats, then seats
      relax their holders, so a label of h hops first appears in round
      ceil(h/2), when every patient that can give the seat its final label
      already holds its own.  Patients are scanned in index order, so the
      first strict improvement comes from the lowest-index predecessor.
    - Starts keep their labels.  An unmatched patient has no incoming
      edge, so every start keeps (0, rank, 0).

    Once the labels settle, a seat's label is its recorded patient's plus
    one hop, and a held seat's holder is the seat's plus one hop, so the
    links lead back to the start in strictly fewer hops.
    """
    n_p, n_s = len(si.patients), len(si.seats)
    seat_of, patient_of = si.index_matching(m)
    elig = si.eligible_seats
    bene = si.beneficiary_seat_sets
    # Cost of moving patient i to seat j: loses their current beneficiary
    # match (if any), gains one if j makes them a beneficiary.
    cur_bene = [
        1 if seat_of[i] != -1 and seat_of[i] in bene[i] else 0 for i in range(n_p)
    ]
    starts = [i for i in range(n_p) if seat_of[i] == -1 and elig[i]]
    targets = [j for j in range(n_s) if patient_of[j] == -1]
    if not starts or not targets:
        return None

    label: list[tuple[int, int, int] | None] = [None] * n_p
    seat_label: list[tuple[int, int, int] | None] = [None] * n_s
    pred = [-1] * n_s  # patient that last strictly improved each seat's label
    for rank, i in enumerate(starts):
        label[i] = (0, rank, 0)
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        if rounds > n_p + n_s:
            raise DominatedInputError(
                "dominated input: negative-loss reassignment loop detected"
            )
        for i in range(n_p):
            if label[i] is None:
                continue
            cost, rank, hops = label[i]
            for j in elig[i]:
                if j == seat_of[i]:
                    continue
                w = cur_bene[i] - (1 if j in bene[i] else 0)
                cand = (cost + w, rank, hops + 1)
                if seat_label[j] is None or cand < seat_label[j]:
                    seat_label[j] = cand
                    pred[j] = i
                    changed = True
        for i in range(n_p):
            j = seat_of[i]
            if j == -1 or seat_label[j] is None:
                continue
            cost, rank, hops = seat_label[j]
            cand = (cost, rank, hops + 1)
            if label[i] is None or cand < label[i]:
                label[i] = cand
                changed = True

    reached = [
        (seat_label[t][0], seat_label[t][1], seat_rank, seat_label[t][2], t)
        for seat_rank, t in enumerate(targets)
        if seat_label[t] is not None
    ]
    if not reached:
        return None
    best_cost, *_, j = min(reached)
    patients: list[str] = []
    seats: list[str] = []
    while j != -1:
        i = pred[j]
        patients.append(si.patients[i])
        seats.append(si.seats[j])
        j = seat_of[i]
    cycle = Cycle(patients=tuple(reversed(patients)), seats=tuple(reversed(seats)))
    # the loss by name, without applying the cycle: only its patients move,
    # since each seat it takes is empty or held by the next of them
    before = [(p, m.seat_of(p)) for p in cycle.patients]
    delta = sum(1 for p, s in before if s is not None and p in si.beneficiary_of(s))
    delta -= sum(1 for p, s in zip(cycle.patients, cycle.seats) if p in si.beneficiary_of(s))
    if delta != best_cost:
        raise RuntimeError("cycle cost disagrees with its beneficiary loss")
    if delta <= 0:
        raise DominatedInputError(
            f"dominated input: applicable cycle with beneficiary loss {delta}"
        )
    return cycle


def frontier_walk(si: SeatInstance, start: Matching) -> list[tuple[MatchPoint, Matching]]:
    """Apply cheapest cycles until none remain, recording every stop.

    Started from a max-beneficiary-then-max-total matching this visits every
    frontier point in order.  Raises DominatedInputError if the walk betrays
    a dominated input (non-positive loss, or losses that shrink along the
    way, which a frontier matching can never produce).
    """
    current, prev_loss = start, 0  # find_minimal_cycle never returns a loss below 1
    stops = [(match_point(si, current), current)]
    while (cycle := find_minimal_cycle(si, current)) is not None:
        current = apply_cycle(si, current, cycle)
        pt = match_point(si, current)
        loss = stops[-1][0].b - pt.b
        if loss < prev_loss:
            raise DominatedInputError("dominated input: beneficiary loss decreased along the walk")
        prev_loss = loss
        stops.append((pt, current))
    return stops
