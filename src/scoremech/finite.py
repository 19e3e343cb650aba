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
floats, so the projection onto z is unchanged.  The rule runs once per
instance, on the tables, and follows their dtype, not the solve mode:
float data get the smaller LP in exact mode too, while Fraction and
all-int data keep every cell (the smaller LP makes Bland's rule pivot more).

Only a few deviation pairs (t, t') bind at an optimum, so ``solve_drm``
solves a restricted LP holding the pairs found violated so far
(truth-telling row generation), yet answers in the vectors of the full LP
that ``build_drm_lp`` builds: the restricted dual padded with zeros, and z
with every w at its least value.  It reads the tables once, before the
first round, in the numbers of its mode: binary Fractions in exact mode,
float64 in float mode.  In every DRM LP, z is the first n_t * n_a * n_x
columns in (type, score, outcome) order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .lpcore import EQUAL, GREATER, LinearProgram, LpSolution, solve_lp
from .model import (
    SUPPORT_TOL,
    AgentPayoff,
    AgentType,
    CostModel,
    DesignerPayoff,
    FiniteMechanism,
    FiniteTypeSpace,
    Instance,
    ModelError,
    ScoreBasedRule,
    as_float,
    entry_dtype,
    finite_mask,
    misses_one,
    number_array,
    number_sum,
    on_support,
    parse_number,
    read_table,
    require_valid,
    support_mask,
    validate,
    validate_mechanism,
    write_table,
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
    and gathered over pairs.  The full LP, every pair's rows, which
    ``solve_drm``'s answers index.  Validates its inputs as ``solve_drm``.
    """
    tables = _drm_tables(space, costs, agent, designer, outside_option)
    return _drm_lp(tables)[0]


def _pairs(n_t: int):
    """Type indices (t, t') of the deviation pairs t' != t, row-major."""
    return np.nonzero(~np.eye(n_t, dtype=bool))


def _drm_tables(space, costs, agent, designer, outside_option, mode=None):
    """Per-(t, a, x) objective, participation and deviation-gain tables and
    the outside option per t, in the numbers of ``mode`` (binary Fractions,
    float64, or for None the data's ``entry_dtype``), and the masks of the
    (pair, score) cells that own a w column and that are substituted,
    settled once per instance on the data.  ModelError for an invalid
    instance, a non-finite outside option or table entry included."""
    outside = outside_option or {}
    require_valid("instance", validate(space, costs, designer, agent, outside))
    types, scores, outcomes = space.types, space.scores, space.outcomes
    lam = designer.loss_coefficient
    numbers = ([costs.cost(a, t) for t in types for a in scores],
               [agent.v(x, t) for t in types for x in outcomes],
               [designer.dv(x, t) for t in types for x in outcomes],
               [space.mass(t) for t in types],
               [outside.get(t, 0) for t in types])
    dtype = entry_dtype(*numbers, [] if lam is None else [lam])
    c, v, dv, mass, ubar = (number_array(vs, dtype).reshape(len(types), 1, -1)
                            for vs in numbers)
    c = c.transpose(0, 2, 1)  # (t, a, 1) against v's (t, 1, x)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        gain = v - c
        tables = (np.broadcast_to(mass * (dv - designer.loss(c)), gain.shape),
                  v - (c + ubar), gain, ubar.ravel())
    if dtype == object:  # mixed data may give float entries
        dtype = entry_dtype(*(a.ravel() for a in tables))
    objective, part, gain, ubar = (
        number_array(a, np.float64 if mode == "float" else dtype)
        for a in tables)
    for name, table in (("objective", objective), ("participation", part),
                        ("deviation gain", gain)):
        finite = finite_mask(table)
        if not finite.all():
            i, j, k = np.argwhere(~finite)[0]
            raise ModelError(f"invalid instance: {name} at ({types[i]}, "
                             f"{scores[j]}, {outcomes[k]}) is "
                             f"{table[i, j, k]}")
    pt, ptp = _pairs(len(types))
    dead = subst = np.zeros((len(pt), len(scores)), bool)
    if dtype != object:  # Fraction and all-int data keep every cell
        quiet = (ubar <= 0)[pt, None]
        dead = quiet & (gain <= 0).all(axis=2)[pt]
        subst = quiet & ~dead & (gain[:, None] >= part).all(axis=3)[pt, ptp]
    if mode == "exact":  # floats as their exact binary Fractions
        objective, part, gain, ubar = map(np.frompyfunc(Fraction, 1, 1),
                                          (objective, part, gain, ubar))
    return objective, part, gain, ubar, ~dead & ~subst, subst


def _drm_lp(tables, keep=None):
    """(lp, rows): the DRM LP or, with ``keep`` (a boolean mask over
    ``_pairs``), the restricted LP of ``solve_drm``, which keeps the full
    LP's rows that ``rows`` marks: the kept pairs'.  It lays out the tables
    and masks of ``_drm_tables`` as they come, settled once per instance
    and, in exact ``solve_drm``, read as Fractions once.  The z columns come
    first in the tables' (t, a, x) order; the cells' w columns follow,
    numbered contiguously.  The LP carries the column bounds its rows
    imply, for the float certificate only: z <= 1 by the unit-mass row, and
    w(a; t, t') <= max(0, max gain[t]) by the truth-telling row, whose
    substituted terms are >= 0 by participation."""
    objective, part, gain, ubar, cells, subst = tables  # part: participation
    n_t, n_a, n_x = gain.shape
    zcol = np.arange(gain.size).reshape(gain.shape)
    pt, ptp = _pairs(n_t)
    keep = np.ones(len(pt), bool) if keep is None else keep
    dtype = gain.dtype
    one = np.ones((), dtype)

    with_o = cells & (ubar != 0)[pt, None]  # outside-option row
    rows = np.repeat(np.append(True, keep), np.append(
        n_t * (1 + n_a), 1 + cells.sum(axis=1) + with_o.sum(axis=1)))
    pt, ptp, with_w, subst, with_o = (
        a[keep] for a in (pt, ptp, cells, subst, with_o))
    g, zp = gain[pt], zcol[ptp]  # per kept cell: t's gain, z[t']
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
         part.reshape(-1, n_x)),
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

    sense = np.full(n_t * (1 + n_a) + per_pair.sum(), GREATER)
    sense[:n_t] = EQUAL
    rhs = np.zeros(len(sense), dtype)
    rhs[:n_t] = 1
    obj = np.concatenate((objective.ravel(), np.zeros(with_w.sum(), dtype)))
    top = gain.reshape(n_t, -1).max(axis=1, initial=0)[pt, None]  # w <= top
    upper = np.concatenate((np.ones(gain.size, dtype),
                            np.broadcast_to(top, with_w.shape)[with_w]))
    return LinearProgram(obj, row, col, val, sense, rhs, upper), rows


def extract_mechanism(space: FiniteTypeSpace,
                      solution: LpSolution) -> FiniteMechanism:
    """Recover (q, rho) from an optimal assignment; rho keeps no exact 0."""
    if not solution.optimal:
        raise ModelError(f"cannot extract from a {solution.status} solution")
    types, scores, outcomes = space.types, space.scores, space.outcomes
    z = solution.assignment[:len(types) * len(scores) * len(outcomes)]
    z = z.reshape(len(types), len(scores), -1)
    mass = sum(z.transpose(2, 0, 1))  # in order from 0, not pairwise
    total = sum(mass.T)  # exactly 1 but for float round-off
    empty = ~support_mask(total)
    if empty.any():
        raise ModelError(
            f"degenerate all-zero joint row for {types[empty.argmax()]}")
    rho = mass / total[:, None]
    on = support_mask(rho)
    recommendation = {(scores[j], types[i]): r for i, j, r in zip(
        *np.nonzero(rho != 0), rho[rho != 0].tolist())}
    decision = dict(zip(((x, scores[j], types[i])
                         for i, j in zip(*np.nonzero(on)) for x in outcomes),
                        (z[on] / mass[on][:, None]).ravel().tolist()))
    return FiniteMechanism(decision=decision, recommendation=recommendation)


def evaluate_mechanism(space: FiniteTypeSpace, costs: CostModel,
                       agent: AgentPayoff, designer: DesignerPayoff,
                       mech: FiniteMechanism):
    """Exact expectations under the prior.

    Returns (designer value, {t: U(t)}, {t: expected falsification cost}).
    """
    value, utilities, exp_costs = 0, {}, {}
    for t in space.types:
        u = ec = contrib = 0
        for a in mech.support(t, space.scores):
            r, c = mech.rho(a, t), costs.cost(a, t)
            ev_agent = sum(mech.q(x, a, t) * agent.v(x, t)
                           for x in space.outcomes)
            ev_designer = sum(mech.q(x, a, t) * designer.dv(x, t)
                              for x in space.outcomes)
            u += r * (ev_agent - c)
            ec += r * c
            contrib += r * (ev_designer - designer.loss(c))
        utilities[t], exp_costs[t] = u, ec
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
    ``FLOAT_TT_TOL`` = 1e-9 (absolute) in float mode.  Every round reads
    the tables settled, and read in the solve's numbers, once.

    Returns (lp solution, mechanism).  The solution is a certified optimum
    of the full LP of ``build_drm_lp``, and its vectors index that LP;
    ``iterations`` is summed over rounds.  ``dual`` is the restricted dual
    padded with zeros: every omitted row has rhs 0, and every omitted w
    column has cost 0 and enters omitted rows only, so it still prices
    every column and bounds the value.  ``assignment`` is the z block, then
    each w at its least value, the summand above: with no omitted pair
    violated it is feasible in the full LP (in float mode, to within the
    tolerance) and attains the same value.  A restricted LP that is
    infeasible makes the full LP infeasible.  Raises ModelError for an
    invalid instance (a non-finite outside option or table entry
    included), and SolveError, carrying the LP status, when the LP has no
    certified optimum.
    """
    tables = _drm_tables(inst.space, inst.costs, inst.agent, inst.designer,
                         inst.outside_option, mode)
    pt, ptp = _pairs(len(inst.space.types))
    keep = abs(pt - ptp) == 1
    tol, zero = (Fraction(0),) * 2 if mode == "exact" else (FLOAT_TT_TOL, 0.0)
    _, _, gain, ubar, cells, _ = tables
    spent = 0
    while True:
        lp, rows = _drm_lp(tables, keep)
        sol = solve_lp(lp, mode=mode)
        if not sol.certified:
            break
        z = sol.assignment[:gain.size].reshape(gain.shape)
        own = (gain * z).sum(axis=(1, 2))
        w = np.maximum(np.maximum((gain[:, None] * z).sum(axis=3),
                                  ubar[:, None, None] * z.sum(axis=2)),
                       zero)  # per (t, t', a): the least w(a; t, t')
        new = (w.sum(axis=2) - own[:, None] > tol)[pt, ptp] & ~keep
        if not new.any():  # answer in the full LP's vectors
            dual = np.full(len(rows), zero, sol.dual.dtype)
            dual[rows] = sol.dual
            sol.dual, sol.assignment = dual, np.append(z, w[pt, ptp][cells])
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
        total = number_sum(w for w, _, _ in mixture)
        if misses_one(total) or total != total:  # a NaN weight too
            raise ModelError(f"mixture for {t} has total mass {total}")
        negative = [w for w, _, _ in mixture if not w >= 0]
        if negative:
            raise ModelError(f"mixture for {t} has weight {negative[0]} < 0")
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
        for a in mech.support(t, space.scores):
            r = mech.rho(a, t)
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


def reduce_to_score_based(inst: Instance, mech: FiniteMechanism,
                          tol: float = 1e-9):
    """Collapse an IC mechanism with deterministic recommendations.

    Binary outcomes only.  Types sharing a recommended score are forced
    indifferent by truth-telling, so their on-path lotteries coincide (up
    to ``tol``); the returned rule keeps, per score, the candidate lottery
    the designer prefers.  Scores nobody is sent to get the deterrent null
    row (all mass on the agent-worst outcome), which preserves incentive
    compatibility.  Returns (rule, {type: submitted score}).
    """
    space, agent, designer = inst.space, inst.agent, inst.designer
    require_valid("instance", validate(space, inst.costs, designer, agent,
                                       inst.outside_option))
    require_valid("mechanism", validate_mechanism(space, mech))
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
        if spread > tol:
            raise ModelError(
                f"input not IC: types sharing score {a!r} are not "
                f"indifferent (approval spread {as_float(spread)})")
        best = max(users, key=lambda t: sum(
            mech.q(x, a, t) * designer.dv(x, t) for x in space.outcomes))
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
    # each rule written as not (what must hold), so a NaN fails it
    if not all(scores[i] < scores[i + 1] for i in range(n - 1)):
        raise ModelError("scores must be strictly increasing")
    if not all(r > 0 for r in rho):
        raise ModelError("support weights must be positive")
    if misses_one(number_sum(rho)):
        raise ModelError("support weights must sum to 1")
    if not all(cost[i] <= cost[i + 1] for i in range(n - 1)):
        raise ModelError("costs must be nondecreasing in score")
    for i in range(n):
        if not alpha[i] >= cost[i]:
            raise ModelError(
                f"obedience violated at score {scores[i]}: "
                f"alpha={alpha[i]} < cost={cost[i]}")
        if not 0 <= alpha[i] <= 1:
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
                                       inst.agent, inst.outside_option))
    require_valid("mechanism", validate_mechanism(space, mech))
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
# tables (``model.write_table``; numbers through format_number)
# ---------------------------------------------------------------------------

_HEADER = "type_label\ttype_score\tscore\toutcome\tz\trho\tq"
MIXTURE_HEADER = ("type_label\ttype_score\tcomponent\tweight\trec_score"
                  "\tscore\toutcome\tq")


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
                rows.append([t.label, t.score, a, x, r * q, r, q])
    write_table(path, _HEADER, rows)


def _read_once(table: dict, key: tuple, text: str, what: str) -> None:
    """``table[key] = parse_number(text)``, refusing rows that give ``key``
    two values (compared by text, so a NaN matches a NaN)."""
    value = parse_number(text)
    old = table.setdefault(key, value)
    if str(old) != str(value):
        raise ModelError(f"the rows of ({', '.join(map(str, key))}) give "
                         f"{what} {old} and {text}")


def read_mechanism_table(path) -> FiniteMechanism:
    """The table ``write_mechanism_table`` writes.  rho repeats on each
    outcome row of a (type, score); rows that disagree on a rho, or give
    one (type, score, outcome) two q, are refused."""
    decision = {}
    recommendation = {}
    for label, tscore, a, x, _z, r, q in read_table(path, _HEADER,
                                                    "mechanism"):
        t = AgentType(label, tscore)
        _read_once(recommendation, (a, t), r, "rho")
        _read_once(decision, (x, a, t), q, "q")
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
                rows.append([t.label, t.score, ci, w, rec, a, x, q])
    write_table(path, MIXTURE_HEADER, rows)


def read_mixture_table(path):
    """{type: [(weight, ScoreBasedRule, score), ...]}, the input of
    ``derandomize_decision_rules``."""
    grouped: dict = {}
    for label, tscore, comp, w, rec, a, x, q in read_table(
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
    write_table(path, "score\toutcome\tq", (
        [a, x, rule.q(x, a)]
        for a in space.scores for x in space.outcomes))


def write_falsification_table(space: FiniteTypeSpace,
                              assignment: Mapping[AgentType, str],
                              path) -> None:
    """The submitted score per type, as returned by
    ``reduce_to_score_based``."""
    write_table(path, "type_label\ttype_score\tscore",
                ([t.label, t.score, assignment[t]] for t in space.types))
