from __future__ import annotations

import importlib.machinery
import itertools
import types
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from reserve_frontier import GenConfig, expand_to_seats, gen_random, hungarian
from reserve_frontier.core import MAX_CELLS, InstanceError
from reserve_frontier.hungarian import EXACT_LIMIT, cost_matrix, fits_exactly, min_cost_assignment


def as_codes(dense: np.ndarray, allowed: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """A dense weight matrix as pair codes and a table: one code per allowed
    cell, code 0 for every forbidden one."""
    codes = np.where(allowed, np.arange(1, dense.size + 1).reshape(dense.shape), 0)
    return codes, [0, *dense.ravel().tolist()]


def assign(codes: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """The max-weight assignment where pair (i, j) weighs table[codes[i, j]]."""
    return min_cost_assignment(cost_matrix(codes, table), codes)


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


def solve(n_left: int, n_right: int, weights: dict) -> tuple[dict[int, int], int]:
    """Dense solve of a weight map; absent pairs are forbidden."""
    dense = np.zeros((n_left, n_right), dtype=np.int64)
    allowed = np.zeros((n_left, n_right), dtype=bool)
    for (i, j), w in weights.items():
        dense[i, j] = w
        allowed[i, j] = True
    rows, cols = assign(*as_codes(dense, allowed))
    return dict(zip(rows.tolist(), cols.tolist())), int(dense[rows, cols].sum())


def test_empty_graph():
    assignment, total = solve(0, 3, {})
    assert assignment == {} and total == 0


def test_simple_two_by_two():
    assignment, total = solve(2, 2, {(0, 0): 3, (0, 1): 5, (1, 0): 4})
    assert total == 9
    assert assignment == {0: 1, 1: 0}


def test_forbidden_pairs_never_assigned():
    # only (0,1) carries weight; (1,0) is forbidden entirely
    assignment, total = solve(2, 2, {(0, 1): 7})
    assert assignment == {0: 1}
    assert total == 7


def test_validation():
    # a weight whose product with the smaller side reaches 2^53 is refused
    with pytest.raises(ValueError, match="exact arithmetic headroom"):
        solve(2, 2, {(0, 0): EXACT_LIMIT})


def test_matches_brute_force_on_random_graphs():
    rng = Random(7)
    for trial in range(60):
        n_left = rng.randint(1, 5)
        n_right = rng.randint(1, 5)
        weights = {}
        for i in range(n_left):
            for j in range(n_right):
                if rng.random() < 0.6:
                    weights[(i, j)] = rng.randint(0, 40)
        assignment, total = solve(n_left, n_right, weights)
        assert total == brute_force_total(n_left, n_right, weights)
        assert total == sum(weights[(i, j)] for i, j in assignment.items())
        assert len(set(assignment.values())) == len(assignment)
        assert all((i, j) in weights for i, j in assignment.items())


def test_dense_agrees_with_brute_force_on_zero_weight_pairs():
    rng = Random(3)
    for trial in range(30):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        w = np.zeros((n, m), dtype=np.int64)
        allowed = np.zeros((n, m), dtype=bool)
        weights = {}
        for i in range(n):
            for j in range(m):
                if rng.random() < 0.7:
                    allowed[i, j] = True
                    w[i, j] = rng.randint(0, 30)
                    weights[(i, j)] = int(w[i, j])
        rows, cols = assign(*as_codes(w, allowed))
        dense_total = int(w[rows, cols].sum())
        assert dense_total == brute_force_total(n, m, weights)
        assert allowed[rows, cols].all()


@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.lists(st.integers(0, 9), min_size=16, max_size=16),
    st.lists(st.booleans(), min_size=16, max_size=16),
)
@settings(max_examples=60, deadline=None)
def test_total_is_max_over_all_injections(n_left, n_right, vals, mask):
    weights = {}
    for i in range(n_left):
        for j in range(n_right):
            k = i * 4 + j
            if mask[k]:
                weights[(i, j)] = vals[k]
    _, total = solve(n_left, n_right, weights)
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
        n_p, n_s = codes.shape
        # masks from the seats' eligible and beneficiary sets, not from the codes
        elig = np.zeros((n_p, n_s), dtype=bool)
        bene = np.zeros((n_p, n_s), dtype=bool)
        for j, seat in enumerate(si.seats):
            elig[[si.patient_index[p] for p in si.eligible_of(seat)], j] = True
            bene[[si.patient_index[p] for p in si.beneficiary_of(seat)], j] = True
        assert np.array_equal(codes, elig.astype(np.uint8) + bene)
        assert codes.flags.c_contiguous  # else scipy copies every cost matrix gathered over it

        n = max(n_p, n_s)
        for d in sorted({0, n // 3, n}):
            w_elig, w_bene = 2 * d + 1, 2 * d + 3  # the weights of sweep d
            weights = np.where(bene, w_bene, np.where(elig, w_elig, 0)).astype(np.int64)
            got = assign(codes, (0, w_elig, w_bene))
            assert_same_pairs(got, reference_assignment(weights, elig))


def test_the_cost_matrix_is_the_negated_table_indexed_by_the_codes(monkeypatch):
    # however the wrapper builds its cost, the solver must see the bytes, and
    # so the -0.0 of code 0, that indexing the negated table by the codes gives
    costs = []
    solver = hungarian.linear_sum_assignment
    monkeypatch.setattr(hungarian, "linear_sum_assignment", lambda cost: costs.append(cost) or solver(cost))
    rng = np.random.default_rng(20)
    for _ in range(200):
        n_p, n_s = (int(v) for v in rng.integers(1, 25, size=2))
        d = int(rng.integers(0, max(n_p, n_s) + 1))
        table = (0, 2 * d + 1, 2 * d + 3)  # the weights of sweep d
        codes = rng.integers(0, len(table), size=(n_p, n_s), dtype=np.uint8)
        costs.clear()
        assign(codes, table)
        want = (-np.array(table, dtype=np.float64))[codes]
        (got,) = costs
        assert got.dtype == np.float64 and got.shape == codes.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.signbit(got[codes == 0]).all()


def test_code_table_entry_matches_the_int64_maximize_solve_near_the_headroom():
    rng = Random(5)
    top = (EXACT_LIMIT - 1) // 3
    assert fits_exactly(top, 3, 4) and not fits_exactly(top + 1, 3, 4)
    for _ in range(50):
        allowed = np.array([[rng.random() < 0.7 for _ in range(4)] for _ in range(3)])
        dense = np.array([[rng.randint(top - 1000, top) for _ in range(4)] for _ in range(3)], dtype=np.int64)
        dense[~allowed] = 0
        for w, a in ((dense, allowed), (dense.T.copy(), allowed.T.copy())):
            got = assign(*as_codes(w, a))
            assert_same_pairs(got, reference_assignment(w, a))
    with pytest.raises(ValueError, match="exact arithmetic headroom"):
        assign(np.ones((3, 4), dtype=np.uint8), (0, top + 1))


def test_a_matrix_over_the_cell_limit_is_refused_before_its_cost_matrix_exists():
    # broadcast views hold one byte whatever their shape, so nothing here
    # allocates; the solver would gather a float64 cost matrix over them
    side = int(MAX_CELLS**0.5) + 1  # the smallest square over the limit
    assert (side - 1) ** 2 <= MAX_CELLS < side**2
    over = np.broadcast_to(np.uint8(1), (side, side))
    with pytest.raises(InstanceError, match=f"assignment too large for memory: {side} x {side}"):
        assign(over, (0, 1))


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
