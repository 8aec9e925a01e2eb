"""Exact maximum-weight bipartite matching with integer weights.

Thin wrapper over scipy's rectangular assignment solver.  The input is a
matrix of small integer pair codes and a table of one non-negative
integer weight per code; code 0 marks a forbidden pair, whose weight
must be 0.  We require max_weight * min(n_left, n_right) < 2**53 so that
every value the solver touches is exactly representable in float64;
under that bound the returned optimum is exact, not approximate.  The
frontier's weights are O(n), so the bound is far from binding within
the memory limit: a matrix over core.MAX_CELLS cells is refused before
the cost matrix is allocated.

The solver minimizes, so the cost matrix is the negated table gathered
over the codes: one float64 allocation, which scipy reads in place,
with no int64-to-float64 copy and no negated copy.  Its doubles equal
the ones scipy's maximize=True path builds from the int64 weight
matrix: each weight is an integer below 2**53, so converting it to
float64 is exact and so is negating it.  The solver therefore sees the
same input and returns the same pairs.  `table.take(codes)` gives the
same bytes and is faster alone, but it first copies the uint8 codes to
intp: inside `solve` on a 320 x 320 instance it took 0.78-0.89 ms a
call against 0.36 ms for the gather, on 2 shared vCPUs.

`cost_matrix` makes that matrix and `min_cost_assignment` solves on it;
`max_weight_assignment_dense` is the two in one call.  A caller that
solves several tables over one code matrix gathers once and edits the
matrix between solves: the frontier's sweeps shift its eligible cells
in place (see frontier).

The solver is scipy's compiled `scipy/optimize/_lsap` extension, loaded
from its file.  `from scipy.optimize import linear_sum_assignment`
returns the same built-in function, but it first runs the package
`__init__` of `scipy.optimize`, which imports scipy.linalg, scipy.special,
scipy.fft and numpy.f2py: about 0.65 s and 48 MB on 2 shared vCPUs,
three quarters of the CLI's start-up, for modules nothing here uses.
The load registers nothing in `sys.modules`, so a later
`import scipy.optimize` is unaffected.  Where the file cannot be found
or is not an extension (another scipy layout), the public import is
used instead.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
from typing import Sequence

import numpy as np

from .core import check_cells

EXACT_LIMIT = 2**53


def _load_lsap():
    """scipy's `linear_sum_assignment`, loaded without importing `scipy.optimize`."""
    scipy_spec = importlib.util.find_spec("scipy")
    roots = (scipy_spec.submodule_search_locations or []) if scipy_spec is not None else []
    spec = importlib.machinery.PathFinder.find_spec("_lsap", [os.path.join(d, "optimize") for d in roots])
    if spec is not None and isinstance(spec.loader, importlib.machinery.ExtensionFileLoader):
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        solver = getattr(module, "linear_sum_assignment", None)
        if solver is not None:
            return solver
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


linear_sum_assignment = _load_lsap()


def fits_exactly(max_weight: int, n_left: int, n_right: int) -> bool:
    """Whether weights up to max_weight on an n_left x n_right problem stay exact."""
    return max_weight * min(n_left, n_right) < EXACT_LIMIT


def cost_matrix(codes: np.ndarray, table: Sequence[int]) -> np.ndarray:
    """The solver's cost matrix for pair weights table[codes[i, j]]: the
    negated table gathered over the codes, code-0 cells at -0.0.

    Refuses a matrix over MAX_CELLS, or weights without exact headroom,
    before it is allocated.
    """
    check_cells(*codes.shape, "assignment")
    if not fits_exactly(max(table), *codes.shape):
        raise ValueError("weights too large for exact arithmetic headroom")
    # negate the small table, not the gathered matrix: one full-size allocation
    return (-np.array(table, dtype=np.float64))[codes]


def min_cost_assignment(cost: np.ndarray, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The solver's min-cost assignment on cost, a matrix over codes whose
    code-0 cells cost -0.0; returns (row_indices, col_indices) without
    code-0 pairs."""
    rows, cols = linear_sum_assignment(cost)
    keep = codes[rows, cols] != 0
    return rows[keep], cols[keep]


def max_weight_assignment_dense(
    codes: np.ndarray, table: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Max-weight assignment where pair (i, j) weighs table[codes[i, j]].

    Returns the selected (row_indices, col_indices) without code-0 pairs.
    """
    if codes.size == 0:
        empty = np.empty(0, dtype=np.intp)
        return empty, empty
    return min_cost_assignment(cost_matrix(codes, table), codes)
