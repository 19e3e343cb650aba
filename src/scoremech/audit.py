"""Independent incentive verification and brute-force oracles.

Best responses are computed by direct maximization, never through the LP,
so they can certify solver output: one array pass over the mechanism's
support prices every report for every type.  The deviator may quit after
each score recommendation (taking the outside option), matching the
positive part in the truth-telling constraint; disobedience maps to the
null outcome, so richer off-path behavior never pays.  The grid brute
force decides participation in the data's exact numbers, searches over
float64 menu values, and re-evaluates its winner exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from math import prod
from typing import Mapping, Sequence

import numpy as np

from .continuous import ContinuousSolution
from .model import (
    AgentPayoff,
    AgentType,
    CostModel,
    DesignerPayoff,
    FiniteMechanism,
    FiniteTypeSpace,
    ModelError,
    ScoreBasedRule,
    as_float,
    beyond_float,
    entry_dtype,
    require_valid,
    support_mask,
    validate,
    validate_mechanism,
    write_json,
)
from .finite import evaluate_mechanism

__all__ = [
    "AuditReport",
    "best_response_finite",
    "best_response_score_rule",
    "best_response_continuous",
    "audit_ic",
    "brute_force_optimum",
]

MAX_GRID_MENUS = 10**5  # per type; a menu costs the brute force a tuple


@dataclass
class AuditReport:
    max_tt_violation: float
    max_pc_violation: float
    tolerance: float
    best_responses: dict = field(default_factory=dict)
    # per type: {"report": t', "plan": {score: obey|quit}, "value": v,
    #            "gain": v - U(t)}

    @property
    def passes(self) -> bool:
        return (self.max_tt_violation <= self.tolerance
                and self.max_pc_violation <= self.tolerance)

    def to_config(self) -> dict:
        return {
            "passes": self.passes,
            "tolerance": self.tolerance,
            "max_tt_violation": as_float(self.max_tt_violation),
            "max_pc_violation": as_float(self.max_pc_violation),
            "best_responses": {
                str(t): {
                    "report": str(info["report"]),
                    "plan": dict(info["plan"]),
                    "value": as_float(info["value"]),
                    "gain": as_float(info["gain"]),
                }
                for t, info in self.best_responses.items()
            },
        }

    def save(self, path) -> None:
        write_json(path, self.to_config())


def _deviation_table(space: FiniteTypeSpace, costs: CostModel,
                     agent: AgentPayoff, mech: FiniteMechanism, outside):
    """Every type's payoff from every report, in one array pass over the
    support entries j = (r, a), report by report, in the data's dtype
    (``model.entry_dtype``).  Reads rho, q, v, c and the outside option
    ubar from the mechanism and the instance alone.  t obeying a after
    reporting r gets cont[t, j] = sum_x q(x|a,r) v(x,t) - c(a,t).  Returns
    (dev, own, gaps, best): dev[t, r] sums rho(a|r) times cont, or ubar(t)
    where t quits because cont < ubar(t), over r's support; own[t] sums
    rho(a|t) cont over t's support; gaps are ubar(t) - cont there; best is
    per type (report, plan, value), the first maximum of dev[t], the truth
    first.  Sums add left to right from 0, as scalar loops do.  Among
    floats, an exact number beyond float range is a ModelError naming it.
    """
    types, scores, outcomes = space.types, space.scores, space.outcomes
    n_t = len(types)
    rho = [mech.recommendation.get((a, r), 0) for r in types for a in scores]
    on = support_mask(np.array(rho, entry_dtype(rho))).reshape(n_t, -1)
    r_on, a_on = np.nonzero(on)
    support = list(zip(r_on.tolist(), a_on.tolist()))
    q = [mech.q(x, scores[a], types[r]) for r, a in support for x in outcomes]
    v = [agent.v(x, t) for x in outcomes for t in types]
    c = [costs.cost(a, t) for t in types for a in scores]
    ubar = [outside.get(t, 0) for t in types]
    if any(isinstance(n, float) for vs in (rho, q, v, c, ubar) for n in vs):
        require_valid("instance", beyond_float("cost", costs.table)
                      + beyond_float("agent value", agent.value)
                      + beyond_float("outside option", outside))
    dtype = entry_dtype(rho, q, v, c, ubar)
    rho, q, v, c, ubar = (np.array(vs, dtype) for vs in (rho, q, v, c, ubar))
    rho, ubar = rho[on.ravel()], ubar[:, None]
    cont = sum(qx * vx for qx, vx in zip(q.reshape(-1, len(outcomes)).T,
                                         v.reshape(-1, n_t, 1)))
    cont = cont - c.reshape(n_t, -1)[:, a_on]
    obey = cont >= ubar
    dev, own = np.zeros((n_t, n_t), dtype), np.zeros(n_t, dtype)
    np.add.at(dev, (slice(None), r_on), rho * np.where(obey, cont, ubar))
    truth = cont[r_on, np.arange(len(rho))]
    np.add.at(own, r_on, rho * truth)
    i = np.arange(n_t)
    top = dev.argmax(axis=1)
    choice = np.where(dev[i, i] >= dev[i, top], i, top).tolist()
    best = [(types[r], {scores[a]: "obey" if ok[j] else "quit"
                        for j, (rj, a) in enumerate(support) if rj == r}, value)
            for r, ok, value in zip(choice, obey.tolist(),
                                    dev[i, choice].tolist())]
    return dev, own, ubar[r_on, 0] - truth, best


def best_response_finite(space: FiniteTypeSpace, costs: CostModel,
                         agent: AgentPayoff, mech: FiniteMechanism,
                         t: AgentType,
                         outside_option: Mapping | None = None):
    """Exact best deviation (report, plan, value) of type t of the space,
    over every report (truth included) with per-recommendation quitting;
    ties break toward the truth, then declaration order."""
    _, _, _, best = _deviation_table(space, costs, agent, mech,
                                     outside_option or {})
    return best[space.types.index(AgentType(*t))]


def best_response_score_rule(scores: Sequence, costs: CostModel,
                             rule, t, approve: str | None = None):
    """Best score against a score-based rule.

    ``rule`` may be a mapping score -> approval probability or a
    ScoreBasedRule (then ``approve`` names the approval outcome).  The
    payoff of score a is approval(a) - cost(a, t).  Ties break toward the
    natural score, then the earlier (lower) score in ``scores``.
    """
    if isinstance(rule, ScoreBasedRule):
        if approve is None:
            raise ModelError(
                "pass approve=<outcome> when auditing a ScoreBasedRule")
        rule = {a: rule.q(approve, a) for a in scores}

    natural = t.score if isinstance(t, AgentType) else t
    best_a, best_u = None, None
    for a in scores:
        u = rule[a] - costs.cost(a, t)
        better = best_u is None or u > best_u
        tie = best_u is not None and u == best_u
        if better or (tie and a == natural and best_a != natural):
            best_a, best_u = a, u
    return best_a, best_u


def best_response_continuous(solution: ContinuousSolution,
                             types: Sequence[float],
                             reports: Sequence[float]):
    """Largest (report, obey) deviation gain over a grid of types.

    The deviator of type t mimicking report t' obeys the recommendation
    a*(t'), receiving Q(t') at cost c(a*(t'), t).  Returns
    (max gain, (type, report)), the first maximum with types outer and
    reports inner; incentive compatibility means the gain stays within
    quadrature tolerance of zero.
    """
    types, reports = list(types), list(reports)
    ts = np.array(types, dtype=float)[:, None]
    u_of = np.array([solution.U(t) for t in types], dtype=float)[:, None]
    q_of = np.array([solution.Q(r) for r in reports], dtype=float)
    a_of = np.array([solution.a_star(r) for r in reports], dtype=float)
    gain = q_of - solution.deviation_cost(a_of, ts) - u_of  # types x reports
    gain[np.isnan(gain)] = -np.inf  # NaN never beats the best so far
    if gain.size == 0 or gain.max() == -np.inf:
        return -float("inf"), (None, None)
    i, j = np.unravel_index(np.argmax(gain), gain.shape)
    return float(gain[i, j]), (types[i], reports[j])


def audit_ic(space: FiniteTypeSpace, costs: CostModel, agent: AgentPayoff,
             mech: FiniteMechanism,
             outside_option: Mapping | None = None,
             tolerance: float = 1e-9) -> AuditReport:
    """Certify truth-telling and ex-post participation of a mechanism;
    raises ModelError if the space, costs, agent, outside option or
    mechanism is invalid."""
    outside = outside_option or {}
    require_valid("instance", validate(space, costs, None, agent, outside))
    require_valid("mechanism", validate_mechanism(space, mech))
    dev, own, gaps, best = _deviation_table(space, costs, agent, mech,
                                            outside)
    max_tt = max([0] + (dev - own[:, None])[~np.eye(len(own), dtype=bool)]
                 .tolist())
    best_responses = {t: {"report": r, "plan": plan, "value": value,
                          "gain": value - u}
                      for t, (r, plan, value), u in zip(space.types, best,
                                                        own.tolist())}
    return AuditReport(max_tt_violation=as_float(max_tt),
                       max_pc_violation=as_float(max([0] + gaps.tolist())),
                       tolerance=tolerance,
                       best_responses=best_responses)


# ---------------------------------------------------------------------------
# grid brute force
# ---------------------------------------------------------------------------

def _grid_menus(space, costs, agent, designer, t, grid, outside, tol):
    """All PC-feasible grid menus for one type, decided exactly.

    A menu is a tuple of (score, rho, approval) rows; rows exist only on
    the recommendation's support, so menus differing off-support are not
    enumerated twice.  Returns (menus, val, own U, dev) with float64 sums
    over tables per (type, score, level): dev[k] is type k's payoff from
    deviating to each menu, 0 for t itself.
    """
    x0, x1 = space.outcomes
    types, scores = space.types, space.scores
    u0, u1, ubar = agent.v(x0, t), agent.v(x1, t), outside.get(t, 0)
    levels = [[q for q, q1 in enumerate(grid)
               if q1 * u1 + (1 - q1) * u0 - costs.cost(a, t) >= ubar - tol]
              for a in scores]

    supports = [(comp, [i for i, k in enumerate(comp) if k])
                for comp in _compositions(len(grid) - 1, len(scores))]
    count = sum(prod(len(levels[i]) for i in s) for _, s in supports)
    if count > MAX_GRID_MENUS:
        raise ModelError(f"{count} grid menus for {t}, over {MAX_GRID_MENUS}")
    menus, rows = [], []  # rows: (menu, score index, level, rho level)
    for comp, support in supports:
        for qs in product(*(levels[i] for i in support)):
            rows += [(len(menus), i, q, comp[i]) for i, q in zip(support, qs)]
            menus.append(tuple((scores[i], grid[comp[i]], grid[q])
                               for i, q in zip(support, qs)))

    # Tables per (score, level): each type's continuation value, a
    # deviator's payoff (it quits below its outside option), t's own
    # continuation and the designer's value of the row in t's menu.
    g, own = np.array(grid, float), types.index(t)
    v0, v1, ub = np.array([[float(agent.v(x0, tp)), float(agent.v(x1, tp)),
                            float(outside.get(tp, 0))] for tp in types]
                          ).T[:, :, None, None]
    c = np.array([[float(costs.cost(a, tp)) for a in scores]
                  for tp in types])[:, :, None]
    cont = g * v1 + (1 - g) * v0 - c
    loss = [float(designer.loss(costs.cost(a, t))) for a in scores]
    dval = (g * float(designer.dv(x1, t)) + (1 - g) * float(designer.dv(x0, t))
            - np.array(loss)[:, None])
    table = np.concatenate([np.maximum(cont, ub), cont[own:own + 1],
                            dval[None]])
    table[own] = 0  # t's own menu is no deviation

    m, i, q, r = np.array(rows, int).reshape(-1, 4).T
    n = len(menus)
    sums = np.bincount((m + n * np.arange(len(table))[:, None]).ravel(),
                       (g[r] * table[:, i, q]).ravel(),
                       n * len(table)).reshape(len(table), n)
    return menus, sums[-1], sums[-2], sums[:-2]


def _compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(head,) + rest for head in range(total + 1)
            for rest in _compositions(total - head, parts - 1)]


def brute_force_optimum(space: FiniteTypeSpace, costs: CostModel,
                        agent: AgentPayoff, designer: DesignerPayoff,
                        probability_grid_step, outside_option=None,
                        tolerance: float = 1e-9):
    """Exhaustive grid search over mechanisms; lower-bounds the LP optimum.

    q and rho entries range over multiples of the step; only mechanisms
    passing the incentive audit (at ``tolerance``) count.  Branch and bound
    over per-type menus with pairwise truth-telling feasibility masks.
    Raises ModelError for an invalid instance or outside option, one
    holding an exact number that the float64 search would read as an
    infinity (a designer loss lam c^2 too), or one beyond the size limits.
    """
    outside = outside_option or {}
    require_valid("instance", validate(space, costs, designer, agent, outside))
    require_valid("instance", beyond_float("cost", costs.table)
                  + beyond_float("decision value", designer.decision_value)
                  + beyond_float("agent value", agent.value)
                  + beyond_float("outside option", outside))
    # after the tables: a float lam times a cost beyond float range raises
    require_valid("instance", beyond_float("designer loss", {
        (a, t): designer.loss(costs.cost(a, t))
        for t in space.types for a in space.scores}))
    if len(space.types) > 4 or len(space.scores) > 3:
        raise ModelError("brute force is limited to <=4 types, <=3 scores")
    if len(space.outcomes) != 2:
        raise ModelError("brute force requires binary outcomes")
    step = Fraction(probability_grid_step)
    if step < Fraction(1, 16):
        raise ModelError("grid step below 1/16 is not supported")
    denom = int(1 / step)
    if step * denom != 1:
        raise ModelError("grid step must divide 1")
    grid = [Fraction(i, denom) for i in range(denom + 1)]

    types = list(space.types)
    menus, vals, owns, devs = zip(*(
        _grid_menus(space, costs, agent, designer, t, grid, outside,
                    tolerance)
        for t in types))
    vals = [float(space.mass(t)) * v for t, v in zip(types, vals)]
    orders = [np.argsort(-v) for v in vals]

    k = len(types)
    tol = float(tolerance)
    # optimistic per-depth remainder bounds
    tops = [v.max(initial=-np.inf) for v in vals]
    bound_rest = [sum(reversed(tops[i:])) for i in range(k + 1)]
    best_value = -float("inf")
    best_choice = None

    def dfs(depth, chosen, value, masks):
        nonlocal best_value, best_choice
        if depth == k:
            if value > best_value:
                best_value, best_choice = value, chosen
            return
        for j in orders[depth][masks[depth][orders[depth]]]:
            v = value + vals[depth][j]
            if v + bound_rest[depth + 1] <= best_value + 1e-15:
                break  # candidates sorted by value; nothing better remains
            new_masks = list(masks)
            for later in range(depth + 1, k):
                # the later type's menu must leave it no profitable deviation
                # to menu j, and must not tempt the current type past U(j)
                m2 = masks[later] & (owns[later]
                                     >= devs[depth][later][j] - tol)
                m2 = m2 & (devs[later][depth] <= owns[depth][j] + tol)
                if not m2.any():
                    break
                new_masks[later] = m2
            else:
                dfs(depth + 1, chosen + [j], v, new_masks)

    dfs(0, [], 0, [np.ones(len(v), dtype=bool) for v in vals])

    if best_choice is None:
        raise ModelError("no grid-feasible IC mechanism found")

    # exact re-evaluation of the winner
    decision, recommendation = {}, {}
    x0, x1 = space.outcomes
    for t, menu_list, j in zip(types, menus, best_choice):
        for a, r, q1 in menu_list[j]:  # rho(a|t) = 0 off the menu
            recommendation[(a, t)] = r
            decision[(x1, a, t)] = q1
            decision[(x0, a, t)] = 1 - q1
    mech = FiniteMechanism(decision=decision, recommendation=recommendation)
    value, _, _ = evaluate_mechanism(space, costs, agent, designer, mech)
    return value
