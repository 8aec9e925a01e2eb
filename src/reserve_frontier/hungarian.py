"""Exact maximum-weight bipartite matching with integer weights.

Thin wrapper over scipy's rectangular assignment solver.  The input is a
matrix of small integer pair codes and a table of one non-negative
integer weight per code; code 0 marks a forbidden pair, whose weight
must be 0.  We require max_weight * min(n_left, n_right) < 2**53 so that
every value the solver touches is exactly representable in float64;
under that bound the returned optimum is exact, not approximate.

The solver minimizes, so the cost matrix is the negated table gathered
over the codes: one float64 allocation, which scipy reads in place,
with no int64-to-float64 copy and no negated copy.  Its doubles equal
the ones scipy's maximize=True path builds from the int64 weight
matrix: each weight is an integer below 2**53, so converting it to
float64 is exact and so is negating it.  The solver therefore sees the
same input and returns the same pairs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

EXACT_LIMIT = 2**53


def fits_exactly(max_weight: int, n_left: int, n_right: int) -> bool:
    """Whether weights up to max_weight on an n_left x n_right problem stay exact."""
    return max_weight * min(n_left, n_right) < EXACT_LIMIT


def max_weight_assignment_dense(
    codes: np.ndarray, table: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Max-weight assignment where pair (i, j) weighs table[codes[i, j]].

    Returns the selected (row_indices, col_indices) without code-0 pairs.
    """
    if codes.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    if not fits_exactly(max(table), *codes.shape):
        raise ValueError("weights too large for exact arithmetic headroom")
    # negate the small table, not the gathered matrix: one full-size allocation
    cost = (-np.array(table, dtype=np.float64))[codes]
    rows, cols = linear_sum_assignment(cost)
    keep = codes[rows, cols] != 0
    return rows[keep], cols[keep]
