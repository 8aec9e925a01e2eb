"""Size/beneficiary trade-off frontiers for reserve allocation.

A matching of patients to category seats scores a point (e, b): e
eligible matches in total, b of them beneficiaries.  No matching can push
both numbers to their individual maxima at once; the attainable maxima
form a frontier.  This package computes that frontier exactly, selects a
frontier matching for an exact share target, repairs it to respect
per-category priorities, audits the induced choice rule, and cross-checks
all of it against brute-force enumeration at small scale.
"""

from .core import (
    BudgetExceededError,
    InstanceError,
    Matching,
    MatchingError,
    MatchPoint,
    Problem,
    beneficiary_share,
    dominates,
    expand_to_seats,
    match_point,
    restrict_patients,
    validate_matching,
)
from .cycles import (
    Cycle,
    CycleError,
    DominatedInputError,
    apply_cycle,
    cheapest_cycle,
    frontier_walk,
)
from .frontier import (
    Frontier,
    FrontierInvariantError,
    check_frontier_invariants,
    compute_frontier,
    frontier_iteration,
    half_bound_ratio,
    kinks_of,
    with_all_witnesses,
)
from .generator import (
    NAMED_INSTANCES,
    GenConfig,
    gen_chain_family,
    gen_named,
    gen_random,
)
from .mechanism import (
    AuditViolation,
    NoNonEmptyMatchingError,
    audit_path_independence,
    audit_substitutability,
    choice_masks,
    rank_sum,
    repair_priority,
    respects_priority,
    select_approx_on_frontier,
)
from .oracle import EnumerationBudget, enumerate_matchings, oracle_min_cycle_loss
from .verify import SUITES, CheckResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "AuditViolation",
    "BudgetExceededError",
    "CheckResult",
    "Cycle",
    "CycleError",
    "DominatedInputError",
    "EnumerationBudget",
    "Frontier",
    "FrontierInvariantError",
    "GenConfig",
    "InstanceError",
    "MatchPoint",
    "Matching",
    "MatchingError",
    "NAMED_INSTANCES",
    "NoNonEmptyMatchingError",
    "Problem",
    "SUITES",
    "apply_cycle",
    "audit_path_independence",
    "audit_substitutability",
    "beneficiary_share",
    "cheapest_cycle",
    "check_frontier_invariants",
    "choice_masks",
    "compute_frontier",
    "dominates",
    "enumerate_matchings",
    "expand_to_seats",
    "frontier_iteration",
    "frontier_walk",
    "gen_chain_family",
    "gen_named",
    "gen_random",
    "half_bound_ratio",
    "kinks_of",
    "match_point",
    "oracle_min_cycle_loss",
    "rank_sum",
    "repair_priority",
    "respects_priority",
    "restrict_patients",
    "run_suites",
    "select_approx_on_frontier",
    "validate_matching",
    "with_all_witnesses",
]
