"""Optimal approval mechanisms when scores can be falsified at a cost.

Exact LP solving for finite type spaces (direct recommendation mechanisms
with truth-telling and ex-post participation), closed-form continuous
solvers for binary approval under linear and quadratic falsification costs,
plus canonicalization and incentive-compatibility audit tools.
"""

from .model import (
    AgentPayoff,
    AgentType,
    CostModel,
    DesignerPayoff,
    FiniteMechanism,
    FiniteTypeSpace,
    Instance,
    ModelError,
    ScoreBasedRule,
    college_instance,
    college_menu_mechanism,
    validate,
)
from .lpcore import LinearProgram, LpSolution, solve_lp
from .finite import (
    SolveError,
    build_drm_lp,
    derandomize_decision_rules,
    derive_drm,
    evaluate_mechanism,
    extract_mechanism,
    monotone_rebalance,
    reduce_to_score_based,
    solve_drm,
)
from .continuous import (
    ContinuousSolution,
    Distribution,
    Tabulated,
    Triangular,
    TruncatedExponential,
    Uniform,
    check_mhr,
    compute_t0,
    discretize,
    solve_continuous,
    solve_first_best,
    solve_linear,
    solve_quadratic,
)
from .audit import (
    AuditReport,
    audit_ic,
    best_response_continuous,
    best_response_finite,
    best_response_score_rule,
    brute_force_optimum,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
