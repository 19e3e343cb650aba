"""Finite-type mechanism design as a linear program, plus canonicalizations.

The designer's problem over direct recommendation mechanisms is bilinear in
the decomposition (q, rho).  The solver therefore works in joint variables

    z(x, a | t) = rho(a | t) * q(x | a, t)

under which the per-type normalization, ex-post participation, truth-telling
and the objective are all linear.  Truth-telling carries a positive part
(the deviator may quit after each recommendation), encoded with one
auxiliary variable w(a; t, t') per deviation pair and score:

    U(t) >= sum_a w(a; t, t')
    w(a; t, t') >= sum_x z(x, a | t') v(x, t) - c(a, t) sum_x z(x, a | t')
    w(a; t, t') >= outside(t) * sum_x z(x, a | t')

Minimal feasible w reproduces the sum of positive parts exactly, so the
projection of the feasible set onto z is precisely the set of incentive
compatible mechanisms.

LPs over float data settle about half of the (pair, score) cells in
advance.  With gain = v(x, t) - c(a, t) and part the participation
coefficients of (t', a), a cell with outside(t) <= 0 is dead if gain <= 0
for every x (w = 0 is optimal: its column and rows go) and, failing that,
is substituted if gain >= part for every x: participation of t' then
makes the deviation payoff nonnegative, so w is the gain term itself,
which the truth-telling row takes in its place.  Both tests compare stored
floats, so the projection onto z is unchanged.  The rule follows the
data's dtype, not the solve mode: float data get the smaller LP in exact
mode too, while Fraction and all-int data keep every cell (the smaller LP
makes Bland's rule pivot more).

Only a few deviation pairs (t, t') bind at an optimum, so ``solve_drm``
never builds all of them: it solves a restricted LP holding the pairs
found violated so far (truth-telling row generation).  Every omitted row
has rhs 0 and every omitted w column has cost 0, so the restricted LP's
dual certificate, padded with zeros, certifies the full LP too;
``build_drm_lp`` builds the full LP.  In every DRM LP, z is the first
n_t * n_a * n_x columns in (type, score, outcome) order, and only that
block of a solution is meaningful to callers.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .lpcore import EQUAL, GREATER, LinearProgram, LpSolution, solve_lp
from .model import (
    SUPPORT_TOL,
    _NORM_TOL,
    _non_finite,
    AgentPayoff,
    AgentType,
    CostModel,
    DesignerPayoff,
    FiniteMechanism,
    FiniteTypeSpace,
    Instance,
    ModelError,
    ScoreBasedRule,
    format_number,
    on_support,
    parse_number,
    require_valid,
    validate,
)

__all__ = [
    "build_drm_lp",
    "extract_mechanism",
    "evaluate_mechanism",
    "solve_drm",
    "SolveError",
    "derandomize_decision_rules",
    "derive_drm",
    "reduce_to_score_based",
    "monotone_rebalance",
    "rebalance_mechanism",
    "joint_law_drm",
    "joint_law_indirect",
    "write_mechanism_table",
    "read_mechanism_table",
    "write_mixture_table",
    "read_mixture_table",
    "write_score_rule_table",
    "write_falsification_table",
]


class SolveError(ModelError):
    """The DRM LP has no certified optimum; ``status`` is the LP status."""

    def __init__(self, message: str, status: str):
        super().__init__(message)
        self.status = status


def build_drm_lp(space: FiniteTypeSpace, costs: CostModel,
                 agent: AgentPayoff, designer: DesignerPayoff,
                 outside_option: Mapping[AgentType, object] | None = None
                 ) -> LinearProgram:
    """LP over z(x,a|t) >= 0 whose optimum is the designer's best DRM value.

    Rows: unit mass per t; participation per (t, a); per pair (t, t') the
    truth-telling row, then per score the w row and, if outside(t) != 0,
    the outside-option row.  Float data drop the dead and substituted
    scores' w columns and rows (module docstring).  Coefficients are
    computed per (t, a, x) in the caller's numbers (Fractions stay exact)
    and gathered over pairs.
    """
    return _drm_lp(_drm_tables(space, costs, agent, designer, outside_option))


def _entry_dtype(*values) -> type:
    """float64 when every number is a float or an int, one at least a
    float; object otherwise, so Fractions and all-int data stay exact."""
    kinds = {type(v) for vs in values for v in vs}
    if all(issubclass(k, (int, float)) for k in kinds) and any(
            issubclass(k, float) for k in kinds):
        return np.float64
    return object


def _drm_tables(space, costs, agent, designer, outside_option):
    """Per-(t, a, x) objective, participation and deviation-gain tables and
    the outside option per t, in one dtype (see ``_entry_dtype``)."""
    if costs.kind != "tabulated":
        raise ModelError("the DRM solver needs a finite (tabulated) cost model")
    outside = outside_option or {}

    def table(f):  # f(t, a, x) for every type, score and outcome
        return np.array([[f(t, a, x) for a in space.scores
                          for x in space.outcomes] for t in space.types],
                        dtype=object).reshape(len(space.types),
                                              len(space.scores), -1)

    numbers = (
        table(lambda t, a, x: space.mass(t) * (
            designer.dv(x, t) - designer.loss(costs.cost(a, t)))),
        table(lambda t, a, x: agent.v(x, t) - (
            costs.cost(a, t) + outside.get(t, 0))),
        table(lambda t, a, x: agent.v(x, t) - costs.cost(a, t)),
        np.array([outside.get(t, 0) for t in space.types], dtype=object))
    dtype = _entry_dtype(*(a.ravel() for a in numbers))
    return tuple(a.astype(dtype) for a in numbers)


def _pairs(n_t: int):
    """Type indices (t, t') of the deviation pairs t' != t, row-major."""
    return np.nonzero(~np.eye(n_t, dtype=bool))


def _drm_lp(tables, keep=None) -> LinearProgram:
    """The DRM LP from the tables or, with ``keep`` (a boolean mask over
    ``_pairs``), the restricted LP of ``solve_drm``: only the kept pairs'
    rows.  Float tables drop the dead (pair, score) cells and substitute
    the settled ones (module docstring).  The z columns come first in the
    tables' (t, a, x) order; the other cells' w columns follow, numbered
    contiguously."""
    objective, participation, gain, ubar = tables
    n_t, n_a, n_x = gain.shape
    zcol = np.arange(gain.size).reshape(gain.shape)
    pt, ptp = _pairs(n_t)
    if keep is not None:
        pt, ptp = pt[keep], ptp[keep]
    dtype = gain.dtype
    one = np.ones((), dtype)

    g, zp = gain[pt], zcol[ptp]  # per (pair, score) cell: t's gain, z[t']
    with_w = np.ones(g.shape[:2], bool)  # the cells that keep a w column
    subst = ~with_w
    if dtype != object:  # Fraction and all-int data keep every cell
        quiet = (ubar <= 0)[pt, None]
        dead = quiet & (g <= 0).all(axis=2)
        subst = quiet & ~dead & (g >= participation[ptp]).all(axis=2)
        with_w = ~dead & ~subst
    with_o = with_w & (ubar != 0)[pt, None]  # outside-option row
    size = with_w + with_o.astype(int)  # rows per cell
    per_pair = 1 + size.sum(axis=1)  # the truth-telling row first
    first = n_t * (1 + n_a) + np.cumsum(per_pair) - per_pair
    w_row = first[:, None] + 1 + np.cumsum(size, axis=1) - size
    wcol = gain.size - 1 + np.cumsum(with_w).reshape(with_w.shape)
    tt_row = np.broadcast_to(first[:, None], with_w.shape)
    u = np.broadcast_to(ubar[pt, None], with_w.shape)
    families = [  # (row, column, coefficient), broadcast per family
        (np.arange(n_t)[:, None], zcol.reshape(n_t, -1), one),
        (n_t + np.arange(n_t * n_a)[:, None], zcol.reshape(-1, n_x),
         participation.reshape(-1, n_x)),
        (first[:, None], zcol.reshape(n_t, -1)[pt],
         gain.reshape(n_t, -1)[pt]),
        (tt_row[with_w], wcol[with_w], -one),
        (tt_row[subst][:, None], zp[subst], -g[subst]),
        (w_row[with_w][:, None], zp[with_w], -g[with_w]),
        (w_row[with_w], wcol[with_w], one),
        (w_row[with_o][:, None] + 1, zp[with_o], -u[with_o][:, None]),
        (w_row[with_o] + 1, wcol[with_o], one)]
    row, col, val = (np.concatenate(parts) for parts in zip(*(
        [a.ravel() for a in np.broadcast_arrays(*f)] for f in families)))

    relations = np.full(n_t * (1 + n_a) + per_pair.sum(), GREATER)
    relations[:n_t] = EQUAL
    rhs = np.zeros(len(relations), dtype)
    rhs[:n_t] = 1
    obj = np.concatenate((objective.ravel(), np.zeros(with_w.sum(), dtype)))
    return LinearProgram(obj, row, col, val, relations, rhs)


def extract_mechanism(space: FiniteTypeSpace,
                      solution: LpSolution) -> FiniteMechanism:
    """Recover (q, rho) from an optimal joint-variable assignment."""
    if not solution.optimal:
        raise ModelError(f"cannot extract from a {solution.status} solution")
    shape = len(space.types), len(space.scores), len(space.outcomes)
    z = np.array(solution.assignment[:np.prod(shape)],
                 dtype=object).reshape(shape)
    decision = {}
    recommendation = {}
    for t, zt in zip(space.types, z):
        mass = [sum(za) for za in zt]
        total = sum(mass)  # exactly 1 but for float round-off
        if not on_support(total):
            raise ModelError(f"degenerate all-zero joint row for {t}")
        for a, m, za in zip(space.scores, mass, zt):
            recommendation[(a, t)] = r = m / total
            if on_support(r):
                for x, v in zip(space.outcomes, za):
                    decision[(x, a, t)] = v / m
    return FiniteMechanism(decision=decision, recommendation=recommendation)


def evaluate_mechanism(space: FiniteTypeSpace, costs: CostModel,
                       agent: AgentPayoff, designer: DesignerPayoff,
                       mech: FiniteMechanism):
    """Exact expectations under the prior.

    Returns (designer value, {t: U(t)}, {t: expected falsification cost}).
    """
    value = 0
    utilities = {}
    exp_costs = {}
    for t in space.types:
        u = 0
        ec = 0
        contrib = 0
        for a in space.scores:
            r = mech.rho(a, t)
            if not on_support(r):
                continue
            c = costs.cost(a, t)
            ev_agent = sum(mech.q(x, a, t) * agent.v(x, t)
                           for x in space.outcomes)
            ev_designer = sum(mech.q(x, a, t) * designer.dv(x, t)
                              for x in space.outcomes)
            u += r * (ev_agent - c)
            ec += r * c
            contrib += r * (ev_designer - designer.loss(c))
        utilities[t] = u
        exp_costs[t] = ec
        value += space.mass(t) * contrib
    return value, utilities, exp_costs


# Float-mode separation: an omitted truth-telling row counts as violated
# when the deviation payoff exceeds truth-telling by more than this.
FLOAT_TT_TOL = 1e-9


def solve_drm(inst: Instance, mode: str = "exact"):
    """Validate, solve by truth-telling row generation, certify, extract.

    The restricted LP keeps the truth-telling pairs (t, t') found so far:
    the adjacent ones (|i - j| = 1 in ``space.types`` order) to start.
    After each solve, every omitted pair whose constraint the z block
    violates joins, and the restricted LP is solved again; each round adds
    a pair, so the loop ends.  A pair is violated when

        sum_a max(sum_x gain[t,a,x] z[t',a,x], outside(t) r[a|t'], 0)

    exceeds sum_{a,x} gain[t,a,x] z[t,a,x], with gain = v(x, t) - c(a, t)
    and r[a|t'] = sum_x z[t',a,x]: exactly in exact mode, by more than
    ``FLOAT_TT_TOL`` = 1e-9 (absolute) in float mode.

    The restricted LP's certificate proves the full LP's optimum.  Every
    omitted row has rhs 0, and every omitted w column has cost 0 and
    enters omitted rows only; so the restricted dual, padded with zeros,
    prices every z column and the bound y . b as before, and prices each
    omitted w column at 0 = its cost: it is a dual certificate of the full
    LP.  When no omitted pair is violated, the z block with minimal w is
    feasible in the full LP (in float mode, to within the tolerance) with
    the same value, so both are optimal.  A restricted LP that is
    infeasible makes the full LP infeasible.

    Returns (lp solution, mechanism), the solution a certified optimum of
    the final restricted LP, with ``iterations`` summed over rounds.  Only
    its value and z block are meaningful to callers: z is the first
    n_t * n_a * n_x entries of ``assignment`` in (type, score, outcome)
    order, and the rest of it and all of ``dual`` index the restricted LP,
    whose kept pairs are not returned.  Raises ModelError for an invalid
    instance (a non-finite outside option included), and SolveError,
    carrying the LP status, when the LP has no certified optimum.
    """
    require_valid("instance", validate(
        inst.space, inst.costs, inst.designer, inst.agent)
        + _non_finite("outside option", inst.outside_option))
    tables = _drm_tables(inst.space, inst.costs, inst.agent, inst.designer,
                         inst.outside_option)
    pt, ptp = _pairs(len(inst.space.types))
    keep = abs(pt - ptp) == 1
    _, _, gain, ubar = tables
    if mode == "exact":  # floats as their exact binary Fractions
        gain, ubar = (np.frompyfunc(Fraction, 1, 1)(a) for a in (gain, ubar))
        tol = 0
    else:
        gain, ubar = gain.astype(float), ubar.astype(float)
        tol = FLOAT_TT_TOL
    spent = 0
    while True:
        sol = solve_lp(_drm_lp(tables, keep), mode=mode)
        if not sol.certified:
            break
        z = np.array(sol.assignment[:gain.size],
                     gain.dtype).reshape(gain.shape)
        own = (gain * z).sum(axis=(1, 2))
        dev = np.maximum(np.maximum((gain[:, None] * z).sum(axis=3),
                                    ubar[:, None, None] * z.sum(axis=2)),
                         0).sum(axis=2)
        new = (dev - own[:, None] > tol)[pt, ptp] & ~keep
        if not new.any():
            break
        keep = keep | new
        spent += sol.iterations
    if sol.iterations is not None:
        sol.iterations += spent
    if sol.status in ("infeasible", "unbounded"):
        message = f"LP is {sol.status}"
    elif sol.status == "iteration_limit":
        message = "LP hit the iteration limit"
    elif sol.status == "numerical":
        message = ("LP solver reported numerical difficulties (HiGHS "
                   f"status {sol.solver_code})")
    elif not sol.certified:
        message = "dual certificate failed verification"
    else:
        return sol, extract_mechanism(inst.space, sol)
    raise SolveError(message, sol.status)


# ---------------------------------------------------------------------------
# canonicalization constructions
# ---------------------------------------------------------------------------

def derandomize_decision_rules(
        randomized: Mapping[AgentType, Sequence[tuple]]) -> FiniteMechanism:
    """Collapse a randomization over (score-based rule, score) pairs.

    ``randomized`` maps each type to a finite mixture given as
    (weight, ScoreBasedRule, score) triples.  The collapsed mechanism keeps
    the score marginal as its recommendation and averages the rules'
    decisions at each recommended score; it is payoff-equivalent to the
    input type by type.  A zero-mass score contributes no decision entry
    (its rules' rows are dropped).
    """
    decision = {}
    recommendation = {}
    for t, mixture in randomized.items():
        t = AgentType(*t)
        total = sum(w for w, _, _ in mixture)
        if abs(float(total) - 1.0) > _NORM_TOL:
            raise ModelError(f"mixture for {t} has total mass {total}")
        by_score: dict[str, list[tuple]] = {}
        for w, rule, a in mixture:
            if not any(aa == a for _, aa in rule.decision):
                raise ModelError(
                    f"rule recommended at {a!r} defines no decision there")
            by_score.setdefault(a, []).append((w, rule))
        for a, parts in by_score.items():
            mass = sum(w for w, _ in parts)
            recommendation[(a, t)] = mass
            if not on_support(mass):
                continue
            outcomes = {x for _, rule in parts for (x, aa) in rule.decision}
            for x in outcomes:
                decision[(x, a, t)] = sum(
                    w * rule.decision.get((x, a), 0)
                    for w, rule in parts) / mass
    return FiniteMechanism(decision=decision, recommendation=recommendation)


def derive_drm(indirect: Mapping[object, Sequence[tuple]],
               reporting: Mapping[AgentType, Mapping[object, object]],
               action: Mapping[object, Mapping[str, object]]
               ) -> FiniteMechanism:
    """Compose reporting, indirect mechanism and action rule into a DRM.

    ``indirect`` maps an input report to a mixture of (weight,
    ScoreBasedRule, output message); ``reporting`` maps types to
    distributions over reports; ``action`` maps output messages to
    distributions over submitted scores.  The returned direct mechanism
    induces exactly the same joint law over outcomes, types and scores.
    """
    for mixture in indirect.values():
        for _, _, msg in mixture:
            if msg not in action:
                raise ModelError(f"message {msg!r} has no action rule")
    randomized: dict[AgentType, list[tuple]] = {}
    for t, reports in reporting.items():
        t = AgentType(*t)
        mixture = []
        for r, pr in reports.items():
            if pr == 0:
                continue
            if r not in indirect:
                raise ModelError(f"report {r!r} not handled by the mechanism")
            for w, rule, msg in indirect[r]:
                for a, pa in action[msg].items():
                    if w * pr * pa != 0:
                        mixture.append((pr * w * pa, rule, a))
        randomized[t] = mixture
    return derandomize_decision_rules(randomized)


def joint_law_drm(space: FiniteTypeSpace, mech: FiniteMechanism) -> dict:
    """Per-type law over (outcome, score): P(x, a | t) = rho * q."""
    law = {}
    for t in space.types:
        for a in space.scores:
            r = mech.rho(a, t)
            if not on_support(r):
                continue
            for x in space.outcomes:
                if (x, a, t) in mech.decision:
                    p = r * mech.q(x, a, t)
                    if p != 0:
                        law[(x, a, t)] = law.get((x, a, t), 0) + p
    return law


def joint_law_indirect(types: Sequence[AgentType],
                       indirect: Mapping[object, Sequence[tuple]],
                       reporting: Mapping[AgentType, Mapping[object, object]],
                       action: Mapping[object, Mapping[str, object]]) -> dict:
    """Per-type law over (outcome, score) induced by (pi, sigma, delta)."""
    law = {}
    for t in types:
        t = AgentType(*t)
        for r, pr in reporting[t].items():
            if pr == 0:
                continue
            for w, rule, msg in indirect[r]:
                for a, pa in action[msg].items():
                    mass = pr * w * pa
                    if mass == 0:
                        continue
                    for (x, aa), q in rule.decision.items():
                        if aa == a and q != 0:
                            key = (x, a, t)
                            law[key] = law.get(key, 0) + mass * q
    return law


def _binary_outcomes(space: FiniteTypeSpace, agent: AgentPayoff,
                     operation: str) -> tuple[str, str]:
    """(agent-worst, agent-preferred) outcome by prior-average agent value;
    raises ModelError unless there are two outcomes and they do not tie."""
    if len(space.outcomes) != 2:
        raise ModelError(f"{operation} requires binary outcomes")

    def avg(x):
        return sum(space.mass(t) * agent.v(x, t) for t in space.types)

    worst, best = sorted(space.outcomes, key=avg)
    if avg(worst) == avg(best):
        raise ModelError(f"{operation} needs an agent-preferred outcome, but "
                         f"{worst!r} and {best!r} tie on prior average")
    return worst, best


def reduce_to_score_based(space: FiniteTypeSpace, costs: CostModel,
                          agent: AgentPayoff, designer: DesignerPayoff,
                          mech: FiniteMechanism, tol: float = 1e-9):
    """Collapse an IC mechanism with deterministic recommendations.

    Binary outcomes only.  Types sharing a recommended score are forced
    indifferent by truth-telling, so their on-path lotteries coincide (up
    to ``tol``); the returned rule keeps, per score, the candidate lottery
    the designer prefers.  Scores nobody is sent to get the deterrent null
    row (all mass on the agent-worst outcome), which preserves incentive
    compatibility.  Returns (rule, {type: submitted score}).
    """
    require_valid("instance", validate(space, costs, designer, agent))
    null_outcome, top_outcome = _binary_outcomes(space, agent,
                                                 "score-based reduction")
    assignment: dict[AgentType, str] = {}
    for t in space.types:
        target = next((a for a in space.scores
                       if mech.rho(a, t) >= 1 - SUPPORT_TOL), None)
        if target is None:
            raise ModelError(f"recommendation for {t} is not deterministic")
        assignment[t] = target

    for t in space.types:
        if not agent.v(top_outcome, t) > agent.v(null_outcome, t):
            raise ModelError(
                f"{t} does not strictly prefer {top_outcome!r}; the binary "
                "reduction needs a common preferred outcome")

    decision = {}
    for a in space.scores:
        users = [t for t in space.types if assignment[t] == a]
        if not users:
            decision[(null_outcome, a)] = 1
            decision[(top_outcome, a)] = 0
            continue
        approvals = [mech.q(top_outcome, a, t) for t in users]
        spread = max(approvals) - min(approvals)
        if float(spread) > tol:
            raise ModelError(
                f"input not IC: types sharing score {a!r} are not "
                f"indifferent (approval spread {float(spread)})")
        best = max(users, key=lambda t: float(
            sum(mech.q(x, a, t) * designer.dv(x, t) for x in space.outcomes)))
        for x in space.outcomes:
            decision[(x, a)] = mech.q(x, a, best)
    return ScoreBasedRule(decision=decision), assignment


def monotone_rebalance(scores: Sequence[float], rho: Sequence,
                       alpha: Sequence, cost: Sequence) -> list:
    """Payoff-equivalent nondecreasing approval probabilities.

    For one type: ``scores`` ascending with recommendation weights ``rho``
    (positive, summing to 1), current approval probabilities ``alpha`` and
    per-score costs ``cost`` (nondecreasing, with obedience alpha_i >=
    cost_i).  Already-nondecreasing inputs are returned unchanged;
    otherwise interior levels drop to cost, the freed mass moves to the top
    score, and any overflow past probability 1 cascades back down with
    d_i * rho_i mass conservation.  The rho-weighted approval total is
    preserved exactly.
    """
    n = len(scores)
    if not (len(rho) == len(alpha) == len(cost) == n):
        raise ModelError("scores, rho, alpha, cost must share a length")
    if n == 0:
        return []
    if any(scores[i] >= scores[i + 1] for i in range(n - 1)):
        raise ModelError("scores must be strictly increasing")
    if any(r <= 0 for r in rho):
        raise ModelError("support weights must be positive")
    if abs(float(sum(rho)) - 1.0) > _NORM_TOL:
        raise ModelError("support weights must sum to 1")
    if any(cost[i] > cost[i + 1] for i in range(n - 1)):
        raise ModelError("costs must be nondecreasing in score")
    for i in range(n):
        if alpha[i] < cost[i]:
            raise ModelError(
                f"obedience violated at score {scores[i]}: "
                f"alpha={alpha[i]} < cost={cost[i]}")
        if alpha[i] < 0 or alpha[i] > 1:
            raise ModelError("approval probabilities must lie in [0, 1]")

    if all(alpha[i] <= alpha[i + 1] for i in range(n - 1)):
        return list(alpha)

    levels = list(cost[:-1])
    slack = sum(rho[i] * (alpha[i] - cost[i]) for i in range(n - 1))
    levels.append(alpha[-1] + slack / rho[-1])
    one = 1.0 if isinstance(levels[-1], float) else Fraction(1)
    i = n - 1
    while levels[i] > 1:
        overflow = (levels[i] - 1) * rho[i]
        levels[i] = one
        i -= 1
        if i < 0:
            raise ModelError("rebalance overflow: total mass exceeds 1")
        levels[i] = cost[i] + overflow / rho[i]
    return levels


def rebalance_mechanism(inst: Instance,
                        mech: FiniteMechanism) -> FiniteMechanism:
    """Monotone-rebalance every type's approval schedule.

    Needs numeric score values and binary outcomes; approval is the
    prior-preferred outcome of the agent payoff.
    """
    space = inst.space
    require_valid("instance", validate(space, inst.costs, inst.designer,
                                       inst.agent))
    x0, x1 = _binary_outcomes(space, inst.agent, "rebalance")
    decision = dict(mech.decision)
    for t in space.types:
        support = sorted(mech.support(t, space.scores),
                         key=space.score_value)
        if len(support) < 2:
            continue
        schedule = ([space.score_value(a) for a in support],
                    [mech.rho(a, t) for a in support],
                    [mech.q(x1, a, t) for a in support],
                    [inst.costs.cost(a, t) for a in support])
        try:
            new_alpha = monotone_rebalance(*schedule)
        except ModelError as exc:
            raise ModelError(f"rebalance precondition failed for {t}: {exc}")
        for a, na in zip(support, new_alpha):
            decision[(x1, a, t)] = na
            decision[(x0, a, t)] = 1 - na
    return FiniteMechanism(decision=decision,
                           recommendation=mech.recommendation)


# ---------------------------------------------------------------------------
# tables (flat tab-separated export; numbers through format_number)
# ---------------------------------------------------------------------------

_HEADER = "type_label\ttype_score\tscore\toutcome\tz\trho\tq"
MIXTURE_HEADER = ("type_label\ttype_score\tcomponent\tweight\trec_score"
                  "\tscore\toutcome\tq")


def _write_table(path, header: str, rows) -> None:
    lines = [header] + ["\t".join(row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _read_table(path, header: str, what: str) -> list[list[str]]:
    with open(path) as fh:
        found = fh.readline().strip()
        if found != header:
            raise ModelError(f"unexpected {what} table header: {found!r}")
        return [line.split("\t") for line in map(str.strip, fh) if line]


def write_mechanism_table(space: FiniteTypeSpace, mech: FiniteMechanism,
                          path) -> None:
    rows = []
    for t in space.types:
        for a in space.scores:
            r = mech.rho(a, t)
            for x in space.outcomes:
                if (x, a, t) not in mech.decision:
                    if on_support(r):
                        raise ModelError(
                            f"q undefined on support at ({a}, {t})")
                    continue
                q = mech.decision[(x, a, t)]
                rows.append([t.label, t.score, a, x] + [
                    format_number(v) for v in (r * q, r, q)])
    _write_table(path, _HEADER, rows)


def read_mechanism_table(path) -> FiniteMechanism:
    decision = {}
    recommendation = {}
    for label, tscore, a, x, _z, r, q in _read_table(path, _HEADER,
                                                     "mechanism"):
        t = AgentType(label, tscore)
        recommendation[(a, t)] = parse_number(r)
        decision[(x, a, t)] = parse_number(q)
    return FiniteMechanism(decision=decision, recommendation=recommendation)


def write_mixture_table(randomized, path) -> None:
    """Flatten {type: [(weight, rule, score), ...]} to one table, the
    input format of ``read_mixture_table``."""
    rows = []
    for t, mixture in randomized.items():
        t = AgentType(*t)
        for ci, (w, rule, rec) in enumerate(mixture):
            for (x, a), q in sorted(rule.decision.items(),
                                    key=lambda kv: (kv[0][1], kv[0][0])):
                rows.append([t.label, t.score, str(ci), format_number(w),
                             rec, a, x, format_number(q)])
    _write_table(path, MIXTURE_HEADER, rows)


def read_mixture_table(path):
    """{type: [(weight, ScoreBasedRule, score), ...]}, the input of
    ``derandomize_decision_rules``."""
    grouped: dict = {}
    for label, tscore, comp, w, rec, a, x, q in _read_table(
            path, MIXTURE_HEADER, "mixture"):
        _, _, decision = grouped.setdefault(
            (AgentType(label, tscore), int(comp)), (parse_number(w), rec, {}))
        decision[(x, a)] = parse_number(q)
    randomized: dict = {}
    for (t, _), (w, rec, decision) in sorted(
            grouped.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        randomized.setdefault(t, []).append(
            (w, ScoreBasedRule(decision=decision), rec))
    return randomized


def write_score_rule_table(space: FiniteTypeSpace, rule: ScoreBasedRule,
                           path) -> None:
    _write_table(path, "score\toutcome\tq", (
        [a, x, format_number(rule.q(x, a))]
        for a in space.scores for x in space.outcomes))


def write_falsification_table(space: FiniteTypeSpace,
                              assignment: Mapping[AgentType, str],
                              path) -> None:
    """The submitted score per type, as returned by
    ``reduce_to_score_based``."""
    _write_table(path, "type_label\ttype_score\tscore",
                 ([t.label, t.score, assignment[t]] for t in space.types))
