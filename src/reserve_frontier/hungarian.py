"""The exact assignment solver and its exactness bound.

`linear_sum_assignment` is scipy's rectangular min-cost assignment
solver.  Its one caller, frontier._sweeps, builds the cost matrix, shifts
it between sweeps and drops the forbidden pairs; that matrix's layout is
described there.  Its weights are integers, and fits_exactly bounds them:
max_weight * min(n_left, n_right) < 2**53 keeps every value the solver
touches exactly representable in float64, so the returned optimum is
exact, not approximate.  The sweeps' weights are O(n), so within
core.MAX_CELLS the bound never binds.

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

