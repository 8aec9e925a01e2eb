"""The assignment solver and the sweeps that are its one caller:
frontier._sweeps gathers, shifts, solves and filters the cost matrix, so
each sweep's assignment is checked here against brute force and against
scipy's int64 maximize=True solve."""

from __future__ import annotations

import importlib.machinery
import itertools
import tracemalloc
import types
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import reserve_frontier.frontier as frontier_module
from reserve_frontier import GenConfig, MatchPoint, expand_to_seats, gen_random, hungarian
from reserve_frontier.core import MAX_CELLS, InstanceError


def sweep_pairs(codes: np.ndarray, d: int) -> dict[int, int]:
    """Sweep d's assignment on a code matrix of unit-quota columns, as {row: column}."""
    _, row = frontier_module._sweeps(codes, (1,) * codes.shape[1])(d)
    return {i: c for i, c in enumerate(row.tolist()) if c >= 0}


def sweep_weights(codes: np.ndarray, d: int) -> dict[tuple[int, int], int]:
    """Sweep d's weight of each eligible pair: 2d + 1, or 2d + 3 at code 2."""
    return {(i, j): 2 * d + 1 + 2 * (c == 2) for (i, j), c in np.ndenumerate(codes) if c}


def reference_assignment(weights: np.ndarray, allowed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int64 maximize=True solve that the code-table entry replaced."""
    rows, cols = linear_sum_assignment(weights, maximize=True)
    keep = allowed[rows, cols]
    return rows[keep], cols[keep]


def brute_force_total(n_left: int, n_right: int, weights: dict) -> int:
    # try every injective partial map left -> right
    best = 0
    rights = list(range(n_right))
    for k in range(0, min(n_left, n_right) + 1):
        for lefts in itertools.combinations(range(n_left), k):
            for perm in itertools.permutations(rights, k):
                total = 0
                ok = True
                for i, j in zip(lefts, perm):
                    if (i, j) not in weights:
                        ok = False
                        break
                    total += weights[(i, j)]
                if ok:
                    best = max(best, total)
    return best


def assert_every_sweep_is_a_max_weight_matching(codes: np.ndarray) -> None:
    n_left, n_right = codes.shape
    for d in range(max(n_left, n_right) + 1):
        assignment, weights = sweep_pairs(codes, d), sweep_weights(codes, d)
        assert all((i, j) in weights for i, j in assignment.items())
        assert len(set(assignment.values())) == len(assignment)
        total = sum(weights[(i, j)] for i, j in assignment.items())
        assert total == brute_force_total(n_left, n_right, weights), (codes, d)


def random_codes(rng: Random, n_left: int, n_right: int, eligible: float) -> np.ndarray:
    """Each pair eligible with probability eligible, then a beneficiary pair half the time."""
    rows = [[(rng.random() < eligible) * rng.choice((1, 2)) for _ in range(n_right)] for _ in range(n_left)]
    return np.array(rows, dtype=np.uint8)


def test_empty_graph():
    for shape in ((0, 3), (3, 0), (2, 3)):
        sweep = frontier_module._sweeps(np.zeros(shape, dtype=np.uint8), (1,) * shape[1])
        for d in range(max(shape) + 1):
            pt, row = sweep(d)
            assert pt == MatchPoint(0, 0) and row.tolist() == [-1] * shape[0]


def test_simple_two_by_two():
    codes = np.array([[1, 2], [1, 0]], dtype=np.uint8)
    for d in range(3):
        assert sweep_pairs(codes, d) == {0: 1, 1: 0}
    assert_every_sweep_is_a_max_weight_matching(codes)


def test_forbidden_pairs_never_assigned():
    # only (0, 1) is eligible; the solver assigns row 1 at a code-0 cell, which is dropped
    codes = np.array([[0, 1], [0, 0]], dtype=np.uint8)
    for d in range(3):
        assert sweep_pairs(codes, d) == {0: 1}


def test_matches_brute_force_on_random_graphs():
    rng = Random(7)
    for trial in range(60):
        assert_every_sweep_is_a_max_weight_matching(random_codes(rng, rng.randint(1, 5), rng.randint(1, 5), 0.6))


def test_dense_agrees_with_brute_force_on_zero_weight_pairs(monkeypatch):
    # sparse codes: most cells are code 0, weight zero, and the solver
    # assigns many of them; each must be dropped and the total stay optimal
    zero_pairs = 0

    def solver(cost):
        nonlocal zero_pairs
        rows, cols = linear_sum_assignment(cost)
        zero_pairs += int(np.count_nonzero(cost[rows, cols] == 0))  # code 0 costs -0.0, the rest at most -1
        return rows, cols

    monkeypatch.setattr(frontier_module, "linear_sum_assignment", solver)
    rng = Random(3)
    for trial in range(30):
        assert_every_sweep_is_a_max_weight_matching(random_codes(rng, rng.randint(1, 6), rng.randint(1, 6), 0.3))
    assert zero_pairs >= 30, zero_pairs


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.integers(0, 2), min_size=16, max_size=16),
    st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_total_is_max_over_all_injections(n_left, n_right, vals, d):
    codes = np.array(vals, dtype=np.uint8).reshape(4, 4)[:n_left, :n_right]
    d = min(d, max(n_left, n_right))
    assignment, weights = sweep_pairs(codes, d), sweep_weights(codes, d)
    total = sum(weights[(i, j)] for i, j in assignment.items())
    assert total == brute_force_total(n_left, n_right, weights)


def assert_same_pairs(got, want):
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_code_table_entry_matches_the_int64_maximize_solve_on_sweeps_and_pads():
    rng = Random(11)
    for _ in range(300):
        inst = gen_random(
            GenConfig(
                patients=rng.randint(1, 12),
                categories=rng.randint(1, 6),
                quota_range=(1, rng.randint(1, 3)),
                eligibility_density=rng.choice([0.05, 0.2, 0.5, 0.8, 1.0]),
                beneficiary_density=rng.choice([0.2, 0.5, 0.9]),
                seed=rng.randint(0, 100_000),
            )
        )
        si = expand_to_seats(inst)
        codes = np.repeat(si.pair_codes, si.quotas, axis=1)  # the unit-seat codes that the sweeps solve on
        category = np.repeat(np.arange(len(si.quotas)), si.quotas)
        n_p, n_s = codes.shape
        # masks from the seats' eligible and beneficiary sets, not from the codes
        elig = np.zeros((n_p, n_s), dtype=bool)
        bene = np.zeros((n_p, n_s), dtype=bool)
        for j, seat in enumerate(si.seats):
            elig[[si.patient_index[p] for p in si.eligible_of(si.category_of(seat))], j] = True
            bene[[si.patient_index[p] for p in si.beneficiary_of(si.category_of(seat))], j] = True
        assert np.array_equal(codes, elig.astype(np.uint8) + bene)
        assert si.pair_codes.flags.c_contiguous  # else scipy copies every cost matrix gathered over it

        n = max(n_p, n_s)
        sweep = frontier_module._sweeps(si.pair_codes, si.quotas)
        for d in sorted({0, n // 3, n}):  # shifted from n down to 0, then up
            weights = np.where(bene, 2 * d + 3, np.where(elig, 2 * d + 1, 0)).astype(np.int64)
            rows, cols = reference_assignment(weights, elig)
            want = np.full(n_p, -1, dtype=np.intp)
            want[rows] = category[cols]
            assert sweep(d)[1].tolist() == want.tolist()


def test_the_cost_matrix_is_the_negated_table_indexed_by_the_codes(monkeypatch):
    # however the sweeps build and shift their cost, the solver must see the
    # bytes, and so the -0.0 of code 0, that indexing the negated table by
    # the codes gives
    costs = []
    monkeypatch.setattr(frontier_module, "linear_sum_assignment", lambda cost: costs.append(cost.copy()) or linear_sum_assignment(cost))
    rng = np.random.default_rng(20)
    for _ in range(200):
        n_p, n_s = (int(v) for v in rng.integers(1, 25, size=2))
        d = int(rng.integers(0, max(n_p, n_s) + 1))
        table = (0, 2 * d + 1, 2 * d + 3)  # the weights of sweep d
        codes = rng.integers(0, len(table), size=(n_p, n_s), dtype=np.uint8)
        costs.clear()
        frontier_module._sweeps(codes, (1,) * n_s)(d)
        want = (-np.array(table, dtype=np.float64))[codes]
        (got,) = costs
        assert got.dtype == np.float64 and got.shape == codes.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.signbit(got[codes == 0]).all()


def test_a_matrix_over_the_cell_limit_is_refused_before_its_cost_matrix_exists():
    # a broadcast view holds one byte whatever its shape, so nothing here
    # allocates unless the sweeps do: the refusal must come before the seat
    # matrix (one category's column repeated side times) and the cost matrix
    side = int(MAX_CELLS**0.5) + 1  # the smallest square over the limit
    assert (side - 1) ** 2 <= MAX_CELLS < side**2
    unit_quotas = (np.broadcast_to(np.uint8(1), (side, side)), (1,) * side)
    one_category = (np.broadcast_to(np.uint8(1), (side, 1)), (side,))
    for codes, quotas in (unit_quotas, one_category):
        tracemalloc.start()
        try:
            with pytest.raises(InstanceError, match=f"assignment too large for memory: {side} x {side}"):
                frontier_module._sweeps(codes, quotas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak  # the seat matrix alone is side**2 bytes, about 190 MB


def test_the_solver_is_scipys_built_in():
    solver = hungarian.linear_sum_assignment
    assert isinstance(solver, types.BuiltinFunctionType)
    assert solver.__name__ == "linear_sum_assignment"


def cost_matrices():
    """About 200 float64 cost matrices: square, tall, wide, empty, and
    small-integer codes full of ties."""
    rng = np.random.default_rng(19)
    shapes = [(0, 0), (0, 3), (4, 0), (1, 1)]
    shapes += [(n, n) for n in range(2, 12)]
    shapes += [(rng.integers(2, 15), rng.integers(1, 15)) for _ in range(60)]
    for n, m in shapes:
        yield rng.random((n, m))
        yield -rng.integers(0, 4, size=(n, m)).astype(np.float64)
        yield rng.integers(-2, 3, size=(n, m)).astype(np.float64) * 1e6


def test_the_loaded_solver_returns_the_public_functions_pairs():
    count = 0
    for cost in cost_matrices():
        got = hungarian.linear_sum_assignment(cost)
        want = linear_sum_assignment(cost)
        assert_same_pairs(got, want)
        assert got[0].dtype == want[0].dtype and got[1].dtype == want[1].dtype
        count += 1
    assert count >= 200


class NoSolverLoader(importlib.machinery.ExtensionFileLoader):
    """An extension loader whose module defines nothing."""

    def create_module(self, spec):
        return types.ModuleType(spec.name)

    def exec_module(self, module):
        pass


@pytest.mark.parametrize(
    "found",
    [
        None,
        importlib.machinery.ModuleSpec("_lsap", importlib.machinery.SourceFileLoader("_lsap", "_lsap.py")),
        importlib.machinery.ModuleSpec("_lsap", NoSolverLoader("_lsap", "_lsap.so")),
    ],
    ids=["no-file", "not-an-extension", "no-attribute"],
)
def test_the_loader_falls_back_to_the_public_import(found, monkeypatch):
    real = importlib.machinery.PathFinder.find_spec
    looked = []

    def find_spec(name, path=None, target=None):
        if name != "_lsap":
            return real(name, path, target)
        looked.append(name)
        return found

    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec", find_spec)
    assert hungarian._load_lsap() is linear_sum_assignment
    assert looked == ["_lsap"]
