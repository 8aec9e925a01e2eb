from __future__ import annotations

from random import Random

import pytest

import reserve_frontier.cycles as cycles_module
from reserve_frontier import (
    Cycle,
    CycleError,
    DominatedInputError,
    GenConfig,
    MatchingError,
    MatchPoint,
    Problem,
    apply_cycle,
    cheapest_cycle,
    compute_frontier,
    expand_to_seats,
    frontier_walk,
    gen_chain_family,
    gen_named,
    gen_random,
    match_point,
    oracle_min_cycle_loss,
)
import reserve_frontier.oracle as oracle_module
from reserve_frontier.oracle import Census
from reserve_frontier.serialize import matching_to_dict


def category_row(si, *pairs):
    """The category row of named (patient, category) pairs."""
    row = [-1] * len(si.patients)
    for p, c in pairs:
        row[si.patient_index[p]] = si.categories.index(c)
    return tuple(row)


def named_cycle(si, patients, categories):
    """The Cycle of named patients and categories."""
    return Cycle(tuple(si.patient_index[p] for p in patients), tuple(map(si.categories.index, categories)))


def point(si, row):
    """The point of a category row, scored by name."""
    return match_point(si, si.name_row(row))


def beneficiary_loss(si, row, c):
    """Drop in beneficiary matches caused by applying c to the category row."""
    return point(si, row).b - point(si, apply_cycle(si, row, c)).b


def conflict_si():
    return expand_to_seats(gen_named("conflict"))


def quota_two_si():
    """One category of quota 2, for which all three patients are eligible."""
    return expand_to_seats(Problem(
        categories=("c1",), patients=("p1", "p2", "p3"), quota={"c1": 2},
        eligible={"c1": frozenset({"p1", "p2", "p3"})}, beneficiary={"c1": frozenset({"p1"})},
    ))


def test_cycle_validation():
    with pytest.raises(CycleError):
        Cycle(patients=(0,), categories=())
    with pytest.raises(CycleError):
        Cycle(patients=(0, 0), categories=(0, 1))
    assert len(Cycle(patients=(0,), categories=(0,))) == 1
    # a path may pass two seats of one category, so only patients are distinct
    assert len(Cycle(patients=(0, 1), categories=(0, 0))) == 2
    with pytest.raises(TypeError):  # a Cycle lists indices, not ids
        Cycle(patients=("p1",), categories=("c1",))


def test_applicability_and_application_on_conflict():
    si = conflict_si()
    row = category_row(si, ("p1", "c2"))
    # p2 enters c2, pushing p1 over to c1
    c = named_cycle(si, ("p2", "p1"), ("c2", "c1"))
    out = apply_cycle(si, row, c)
    assert out == category_row(si, ("p1", "c1"), ("p2", "c2"))
    assert point(si, out) == MatchPoint(2, 0)
    assert beneficiary_loss(si, row, c) == 1


def test_applicability_failures():
    si = conflict_si()
    row = category_row(si, ("p1", "c2"))
    with pytest.raises(CycleError, match="patient p1 is matched"):
        apply_cycle(si, row, named_cycle(si, ("p1",), ("c1",)))
    with pytest.raises(CycleError, match="p2 not eligible for c1"):
        apply_cycle(si, row, named_cycle(si, ("p2",), ("c1",)))
    with pytest.raises(CycleError, match="category c2 is full"):
        apply_cycle(si, row, named_cycle(si, ("p2",), ("c2",)))
    with pytest.raises(CycleError, match="outside 2 patients and 2 categories"):
        apply_cycle(si, row, Cycle(patients=(1,), categories=(2,)))
    # chain break: a middle category must hand over the next patient
    full = category_row(si, ("p1", "c1"), ("p2", "c2"))
    with pytest.raises(CycleError):
        apply_cycle(si, full, named_cycle(si, ("p1", "p2"), ("c2", "c1")))


def test_minimal_cycle_on_conflict():
    si = conflict_si()
    row = category_row(si, ("p1", "c2"))
    c = cheapest_cycle(si, row)
    assert c is not None
    assert beneficiary_loss(si, row, c) == 1
    assert c == named_cycle(si, ("p2", "p1"), ("c2", "c1"))
    # nothing larger than the full matching
    assert cheapest_cycle(si, category_row(si, ("p1", "c1"), ("p2", "c2"))) is None


@pytest.mark.parametrize(
    "si_of, row, message",
    [
        (conflict_si, (-1,), "one entry per patient: 1 for 2"),
        (conflict_si, (-1, -1, -1), "one entry per patient: 3 for 2"),
        (conflict_si, (2, -1), "category index 2 outside \\[-1, 2\\)"),
        (conflict_si, (-2, -1), "category index -2 outside \\[-1, 2\\)"),
        (conflict_si, (-1, 0), "patient p2 not eligible for category c1"),
        # two patients on the one seat of c2
        (conflict_si, (1, 1), "more patients in c2 than its quota of 1"),
        (quota_two_si, (0, 0, 0), "more patients in c1 than its quota of 2"),
    ],
    ids=["short", "long", "past-the-seats", "below-minus-one", "ineligible", "seat-twice", "over-quota"],
)
@pytest.mark.parametrize(
    "entry",
    [
        lambda si, row: apply_cycle(si, row, Cycle(patients=(1,), categories=(0,))),
        cheapest_cycle,
        frontier_walk,
        oracle_min_cycle_loss,
        matching_to_dict,
    ],
    ids=["apply_cycle", "cheapest_cycle", "frontier_walk", "oracle_min_cycle_loss", "matching_to_dict"],
)
def test_a_row_that_is_no_matching_of_the_instance_is_refused(entry, si_of, row, message):
    """Every entry of the cycle layer and the oracle, and the serializer's
    matching_to_dict, refuses such a row with MatchingError, rather than
    reading it as a dominated matching (an ineligible pair once scored a
    beneficiary loss of -1), naming it, or failing on an index."""
    with pytest.raises(MatchingError, match=message):
        entry(si_of(), row)


def test_minimal_cycle_is_deterministic():
    inst = gen_random(GenConfig(patients=6, categories=4, quota_range=(1, 2), seed=12))
    si = expand_to_seats(inst)
    f = compute_frontier(si)
    row = f.witnesses[f.points[0]]
    if f.points[0] != f.points[-1]:
        cycles = {cheapest_cycle(si, row) for _ in range(5)}
        assert len(cycles) == 1


def test_dominated_matching_is_rejected():
    si = conflict_si()
    # (1,0): dominated by both frontier points; a free zero-loss move exists
    with pytest.raises(DominatedInputError):
        cheapest_cycle(si, category_row(si, ("p1", "c1")))


def test_beneficiary_gaining_swap_loop_is_rejected():
    # p1 and p2 sit where they help nobody; swapping both would gain two
    # beneficiary matches, so the matching is dominated at equal size
    inst = Problem(
        categories=("c1", "c2", "c3"),
        patients=("p1", "p2", "p3"),
        quota={"c1": 1, "c2": 1, "c3": 1},
        eligible={
            "c1": frozenset({"p1", "p2", "p3"}),
            "c2": frozenset({"p1", "p2"}),
            "c3": frozenset({"p2"}),
        },
        beneficiary={"c1": frozenset({"p2"}), "c2": frozenset({"p1"})},
    )
    si = expand_to_seats(inst)
    with pytest.raises(DominatedInputError):
        cheapest_cycle(si, category_row(si, ("p1", "c1"), ("p2", "c2")))


def test_chain_family_single_cycle_costs_everything():
    for k in (1, 2, 3):
        si = expand_to_seats(gen_chain_family(k))
        f = compute_frontier(si)
        assert list(f.points) == [MatchPoint(k + 1, k + 1), MatchPoint(k + 2, 0)]
        row = f.witnesses[f.points[0]]
        c = cheapest_cycle(si, row)
        assert c is not None
        assert beneficiary_loss(si, row, c) == k + 1
        assert len(c) == k + 2  # the cycle must ripple through every category


def test_walk_visits_the_whole_frontier():
    for name in ("conflict", "figure1", "path-independence"):
        si = expand_to_seats(gen_named(name))
        f = compute_frontier(si)
        walk = frontier_walk(si, f.witnesses[f.points[0]])
        assert [pt for pt, _ in walk] == list(f.points)
        for pt, row in walk:
            assert point(si, row) == pt


def test_each_walk_step_applies_its_cycle_once(monkeypatch):
    applied = []
    original = cycles_module._apply

    def counting(si, row, c):
        applied.append(c)
        return original(si, row, c)

    monkeypatch.setattr(cycles_module, "_apply", counting)
    for name in ("conflict", "figure1", "path-independence"):
        si = expand_to_seats(gen_named(name))
        f = compute_frontier(si)
        applied.clear()
        walk = frontier_walk(si, f.witnesses[f.points[0]])
        assert len(applied) == len(walk) - 1
        assert [pt for pt, _ in walk] == list(f.points)


def test_a_walk_checks_its_start_row_once(monkeypatch):
    si = expand_to_seats(gen_named("path-independence"))
    f = compute_frontier(si)
    checked = []
    original = type(si).check_row
    monkeypatch.setattr(type(si), "check_row", lambda self, row: checked.append(row) or original(self, row))
    walk = frontier_walk(si, f.witnesses[f.points[0]])
    assert len(walk) > 1 and checked == [f.witnesses[f.points[0]]]


def test_walk_with_shrinking_losses_is_rejected(monkeypatch):
    # a conflict pair (loss 1) beside a two-step chain (loss 2); a search
    # that took the chain first would then lose less, which no frontier
    # walk can do
    inst = Problem(
        categories=("a1", "a2", "d1", "d2", "d3"),
        patients=("p1", "p2", "x1", "x2", "x3"),
        quota={c: 1 for c in ("a1", "a2", "d1", "d2", "d3")},
        eligible={
            "a1": frozenset({"p1"}),
            "a2": frozenset({"p1", "p2"}),
            "d1": frozenset({"x1", "x3"}),
            "d2": frozenset({"x1", "x2"}),
            "d3": frozenset({"x2"}),
        },
        beneficiary={"a2": frozenset({"p1"}), "d1": frozenset({"x1"}), "d2": frozenset({"x2"})},
    )
    si = expand_to_seats(inst)
    start = category_row(si, ("p1", "a2"), ("x1", "d1"), ("x2", "d2"))
    assert [pt for pt, _ in frontier_walk(si, start)] == [(3, 3), (4, 2), (5, 0)]
    chain = named_cycle(si, ("x3", "x1", "x2"), ("d1", "d2", "d3"))
    conflict = named_cycle(si, ("p2", "p1"), ("a2", "a1"))
    forced = iter([chain, conflict])
    monkeypatch.setattr(cycles_module, "_cheapest", lambda si, row: next(forced, None))
    with pytest.raises(DominatedInputError, match="decreased"):
        frontier_walk(si, start)


def test_walk_from_dominated_start_is_rejected():
    si = conflict_si()
    with pytest.raises(DominatedInputError):
        frontier_walk(si, category_row(si, ("p1", "c1")))


def test_minimal_loss_matches_exhaustive_search(monkeypatch):
    monkeypatch.setattr(oracle_module, "SAMPLE_CAP", 10)
    rng = Random(31)
    for _ in range(20):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(2, 6),
                categories=rng.randint(1, 4),
                quota_range=(1, 2),
                eligibility_density=rng.choice([0.4, 0.7]),
                beneficiary_density=rng.choice([0.3, 0.8]),
                seed=rng.randint(0, 100_000),
            )
        )
        si = expand_to_seats(inst)
        census = Census(si)
        f = census.frontier()
        if f.points[-1].e == 0:
            continue
        samples = census.sample(f.points).matchings
        for pt, rows in samples.items():
            for row in rows:
                want = oracle_min_cycle_loss(si, row)
                got = cheapest_cycle(si, row)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert beneficiary_loss(si, row, got) == want


# The cheapest-cycle search as it stood before it became one multi-source
# search: one Bellman-Ford per unmatched patient, then a walk back along
# decrementing hop layers.  Kept here only as the reference.  When
# start_costs is given, it receives each start's cheapest target cost.
REF_INF = 10**9


def ref_cheapest_cycle(si, row, start_costs=None):
    n_p, n_c = si.pair_codes.shape
    row = list(row)
    elig = si.eligible_categories
    bene = si.beneficiary_categories
    cur_bene = [1 if row[i] in bene[i] else 0 for i in range(n_p)]
    starts = [i for i in range(n_p) if row[i] == -1 and elig[i]]
    targets = [c for c in range(n_c) if row.count(c) < si.quotas[c]]
    if not starts or not targets:
        return None

    n_nodes = n_p + n_c
    best_key = None
    best_path = None

    for start_rank, start in enumerate(starts):
        cost = [REF_INF] * n_nodes
        hops = [REF_INF] * n_nodes
        cost[start] = 0
        hops[start] = 0
        rounds = 0
        changed = True
        while changed:
            changed = False
            rounds += 1
            if rounds > n_nodes:
                raise DominatedInputError(
                    "dominated input: negative-loss reassignment loop detected"
                )
            for i in range(n_p):
                if cost[i] == REF_INF:
                    continue
                for c in elig[i]:
                    if c == row[i]:
                        continue
                    w = cur_bene[i] - (1 if c in bene[i] else 0)
                    cand = (cost[i] + w, hops[i] + 1)
                    if cand < (cost[n_p + c], hops[n_p + c]):
                        cost[n_p + c], hops[n_p + c] = cand
                        changed = True
            for v in range(n_p):
                if row[v] == -1 or cost[n_p + row[v]] == REF_INF:
                    continue
                u = n_p + row[v]
                cand = (cost[u], hops[u] + 1)
                if cand < (cost[v], hops[v]):
                    cost[v], hops[v] = cand
                    changed = True

        if start_costs is not None:
            start_costs.append(min(cost[n_p + t] for t in targets))
        for category_rank, t in enumerate(targets):
            u = n_p + t
            if cost[u] == REF_INF:
                continue
            key = (cost[u], start_rank, category_rank, hops[u])
            if best_key is None or key < best_key:
                best_key = key
                best_path = ref_trace_back(start, u, cost, hops, n_p, elig, bene, row, cur_bene)

    if best_path is None:
        return None
    cycle = Cycle(patients=tuple(best_path[0::2]), categories=tuple(c - n_p for c in best_path[1::2]))
    # the loss by name
    cats = si.categories
    names = [(si.patients[i], cats[c]) for i, c in zip(cycle.patients, cycle.categories)]
    before = [(si.patients[i], cats[row[i]]) for i in cycle.patients if row[i] != -1]
    delta = sum(1 for p, c in before if p in si.beneficiary_of(c))
    delta -= sum(1 for p, c in names if p in si.beneficiary_of(c))
    if delta != best_key[0]:
        raise RuntimeError("cycle cost disagrees with its beneficiary loss")
    if delta <= 0:
        raise DominatedInputError(
            f"dominated input: applicable cycle with beneficiary loss {delta}"
        )
    return cycle


def ref_trace_back(start, target, cost, hops, n_p, elig, bene, row, cur_bene):
    path = [target]
    node = target
    while node != start:
        if node >= n_p:
            c = node - n_p
            found = None
            for i in range(n_p):
                if cost[i] == REF_INF or c == row[i] or c not in elig[i]:
                    continue
                w = cur_bene[i] - (1 if c in bene[i] else 0)
                if cost[i] + w == cost[node] and hops[i] + 1 == hops[node]:
                    found = i
                    break
            if found is None:
                raise RuntimeError("path reconstruction lost its predecessor")
            node = found
        else:
            c = row[node]
            u = n_p + c
            if c == -1 or not (cost[u] == cost[node] and hops[u] + 1 == hops[node]):
                raise RuntimeError("path reconstruction lost its predecessor")
            node = u
        path.append(node)
    path.reverse()
    return path


def outcome(search, si, row, **kwargs):
    """The cycle's patients and categories, None, or the exception's type and message."""
    try:
        c = search(si, row, **kwargs)
    except (DominatedInputError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)
    return None if c is None else ("cycle", c.patients, c.categories)


def random_eligible_row(si, rng):
    """The category row of a random subset of patients, each at a random
    free eligible seat, drawn seat by seat."""
    category = [si.categories.index(si.category_of(s)) for s in si.seats]
    free = set(range(len(si.seats)))
    row = [-1] * len(si.patients)
    for i in rng.sample(range(len(si.patients)), len(si.patients)):
        open_seats = sorted(j for j in free if si.pair_codes[i, category[j]])
        if open_seats and rng.random() < 0.7:
            j = rng.choice(open_seats)
            free.discard(j)
            row[i] = category[j]
    return tuple(row)


def walk_rows(si, start):
    """Every category row a frontier walk from start searches, up to its first refusal."""
    current = start
    while True:
        yield current
        try:
            c = cheapest_cycle(si, current)
        except DominatedInputError:
            return
        if c is None:
            return
        current = apply_cycle(si, current, c)


def differential_corpus():
    """(seat instance, category row) calls from walks, chains, arbitrary matchings and oracle samples."""
    rng = Random(2024)
    for _ in range(80):  # walk steps on sparse draws shaped like the solve-walk family
        n = rng.randint(10, 60)
        inst = gen_random(
            GenConfig(n, n, (1, 1), rng.randint(2, 5) / n, 0.5, seed=rng.randint(0, 10**6))
        )
        si = expand_to_seats(inst)
        f = compute_frontier(si)
        yield from ((si, row) for row in walk_rows(si, f.witnesses[f.points[0]]))
    for k in range(1, 9):
        si = expand_to_seats(gen_chain_family(k))
        f = compute_frontier(si)
        yield from ((si, row) for row in walk_rows(si, f.witnesses[f.points[0]]))
    for _ in range(300):  # arbitrary eligible matchings, mostly dominated
        n = rng.randint(2, 14)
        inst = gen_random(
            GenConfig(
                n, rng.randint(1, 8), (1, 2), rng.choice([0.3, 0.5, 0.8]),
                rng.choice([0.2, 0.5, 0.9]), seed=rng.randint(0, 10**6),
            )
        )
        si = expand_to_seats(inst)
        for _ in range(4):
            yield si, random_eligible_row(si, rng)
    for _ in range(40):  # oracle samples at frontier points
        inst = gen_random(
            GenConfig(
                rng.randint(2, 7), rng.randint(1, 7), (1, 1), rng.choice([0.4, 0.6]),
                0.5, seed=rng.randint(0, 10**6),
            )
        )
        si = expand_to_seats(inst)
        census = Census(si)
        samples = census.sample(census.frontier().points).matchings
        for rows in samples.values():
            yield from ((si, row) for row in rows)


def test_one_search_returns_the_per_start_searches_outcome(monkeypatch):
    monkeypatch.setattr(oracle_module, "SAMPLE_CAP", 4)
    rank_ties = loops = 0
    for si, row in differential_corpus():
        start_costs: list[int] = []
        want = outcome(ref_cheapest_cycle, si, row, start_costs=start_costs)
        assert outcome(cheapest_cycle, si, row) == want, (si.patients, row)
        if want is None:
            continue
        if want[0] == "cycle":
            rank_ties += start_costs.count(min(start_costs)) > 1
        else:
            loops += "loop detected" in want[1]
    # the corpus has cycles that the start rank picks, and negative loops
    assert rank_ties > 0 and loops > 0, (rank_ties, loops)
