"""Exact maximum-weight bipartite matching with integer weights.

Thin wrapper over scipy's rectangular assignment solver.  Weights are
non-negative integers and pairs outside the allowed mask are forbidden.
We require max_weight * min(n_left, n_right) < 2**53 so that every value
the solver touches is exactly representable in float64; under that bound
the returned optimum is exact, not approximate.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

EXACT_LIMIT = 2**53


def fits_exactly(max_weight: int, n_left: int, n_right: int) -> bool:
    """Whether weights up to max_weight on an n_left x n_right problem stay exact."""
    return max_weight * min(n_left, n_right) < EXACT_LIMIT


def max_weight_assignment_dense(
    weights: np.ndarray, allowed: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve on a dense int64 matrix, keep only allowed pairs.

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
