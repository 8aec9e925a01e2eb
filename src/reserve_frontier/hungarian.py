"""Exact maximum-weight bipartite matching with integer weights.

Thin wrapper over scipy's rectangular assignment solver.  Weights are
non-negative integers and pairs absent from the weight map are forbidden.
We require max_weight * min(n_left, n_right) < 2**53 so that every value
the solver touches is exactly representable in float64; under that bound
the returned optimum is exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np
from scipy.optimize import linear_sum_assignment

EXACT_LIMIT = 2**53


def fits_exactly(max_weight: int, n_left: int, n_right: int) -> bool:
    """Whether weights up to max_weight on an n_left x n_right problem stay exact."""
    return max_weight * min(n_left, n_right) < EXACT_LIMIT


@dataclass(frozen=True)
class WeightedBipartite:
    """Sparse weighted bipartite graph on index sets [0, n_left) x [0, n_right)."""

    n_left: int
    n_right: int
    weights: Mapping[tuple[int, int], int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", dict(self.weights))
        if self.n_left < 0 or self.n_right < 0:
            raise ValueError("side sizes must be non-negative")
        max_w = 0
        for (i, j), w in self.weights.items():
            if not (0 <= i < self.n_left and 0 <= j < self.n_right):
                raise ValueError(f"edge ({i}, {j}) out of range")
            if not isinstance(w, int) or isinstance(w, bool):
                raise ValueError(f"weight at ({i}, {j}) must be an integer")
            if w < 0:
                raise ValueError(f"negative weight at ({i}, {j})")
            max_w = max(max_w, w)
        if not fits_exactly(max_w, self.n_left, self.n_right):
            raise ValueError("weights too large for exact arithmetic headroom")


def max_weight_matching(g: WeightedBipartite) -> tuple[dict[int, int], int]:
    """Maximum-weight matching; returns ({left: right}, total weight).

    Only pairs present in g.weights appear in the result.  Present pairs of
    weight zero may appear; they cost nothing and carry nothing.
    """
    if g.n_left == 0 or g.n_right == 0 or not g.weights:
        return {}, 0
    dense = np.zeros((g.n_left, g.n_right), dtype=np.int64)
    for (i, j), w in g.weights.items():
        dense[i, j] = w
    rows, cols = linear_sum_assignment(dense, maximize=True)
    assignment = {int(i): int(j) for i, j in zip(rows, cols) if (int(i), int(j)) in g.weights}
    total = sum(g.weights[pair] for pair in assignment.items())
    return assignment, total


def max_weight_assignment_dense(
    weights: np.ndarray, allowed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Dense fast path: solve on an int64 matrix, keep only allowed pairs.

    `weights` must be zero wherever `allowed` is False.  Returns the selected
    (row_indices, col_indices) restricted to allowed pairs.
    """
    if weights.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    if not fits_exactly(int(weights.max()), *weights.shape):
        raise ValueError("weights too large for exact arithmetic headroom")
    rows, cols = linear_sum_assignment(weights, maximize=True)
    keep = allowed[rows, cols]
    return rows[keep], cols[keep]
