from __future__ import annotations

import itertools
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reserve_frontier.hungarian import EXACT_LIMIT, max_weight_assignment_dense


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
    rows, cols = max_weight_assignment_dense(dense, allowed)
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
        rows, cols = max_weight_assignment_dense(w, allowed)
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
