"""Independent incentive verification and brute-force oracles.

Best responses are computed by direct maximization, never through the LP,
so they can certify solver output.  The deviator may quit after each score
recommendation (taking the outside option), matching the positive part in
the truth-telling constraint; disobedience maps to the null outcome, so
richer off-path behavior never pays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
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
    _non_finite,
    on_support,
    require_valid,
    validate,
    validate_mechanism,
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
            "max_tt_violation": float(self.max_tt_violation),
            "max_pc_violation": float(self.max_pc_violation),
            "best_responses": {
                str(t): {
                    "report": str(info["report"]),
                    "plan": dict(info["plan"]),
                    "value": float(info["value"]),
                    "gain": float(info["gain"]),
                }
                for t, info in self.best_responses.items()
            },
        }

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_config(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _deviation_value(space: FiniteTypeSpace, costs: CostModel,
                     agent: AgentPayoff, mech: FiniteMechanism,
                     t: AgentType, report: AgentType, outside):
    """Value and per-recommendation plan for type t reporting ``report``."""
    value = 0
    plan = {}
    for a in space.scores:
        r = mech.rho(a, report)
        if not on_support(r):
            continue
        cont = sum(mech.q(x, a, report) * agent.v(x, t)
                   for x in space.outcomes) - costs.cost(a, t)
        if cont >= outside:
            plan[a] = "obey"
            value += r * cont
        else:
            plan[a] = "quit"
            value += r * outside
    return value, plan


def _deviations(space: FiniteTypeSpace, costs: CostModel,
                agent: AgentPayoff, mech: FiniteMechanism, t: AgentType,
                outside) -> list[tuple]:
    """(report, plan, value) per report: truth first, then the other
    types in declaration order."""
    reports = [t] + [tp for tp in space.types if tp != t]
    devs = [_deviation_value(space, costs, agent, mech, t, r, outside)
            for r in reports]
    return [(r, plan, value) for r, (value, plan) in zip(reports, devs)]


def best_response_finite(space: FiniteTypeSpace, costs: CostModel,
                         agent: AgentPayoff, mech: FiniteMechanism,
                         t: AgentType,
                         outside_option: Mapping | None = None):
    """Exact best deviation for one type.

    Maximizes over all reports (truth included) with per-recommendation
    quitting.  Ties break toward the truthful report, then declaration
    order (max keeps the first of equal values).  Returns (best report,
    plan, value).
    """
    t = AgentType(*t)
    outside = (outside_option or {}).get(t, 0)
    return max(_deviations(space, costs, agent, mech, t, outside),
               key=lambda dev: dev[2])


def best_response_score_rule(scores: Sequence, costs: CostModel,
                             rule, t, value=1, approve: str | None = None):
    """Best score against a score-based rule.

    ``rule`` may be a mapping score -> approval probability, a callable, or
    a ScoreBasedRule (then ``approve`` names the approval outcome).  The
    payoff of score a is approval(a) * value - cost(a, t).  Ties break
    toward the natural score, then the earlier (lower) score in ``scores``.
    """
    if isinstance(rule, ScoreBasedRule):
        if approve is None:
            raise ModelError(
                "pass approve=<outcome> when auditing a ScoreBasedRule")
        approval = {a: rule.q(approve, a) for a in scores}.__getitem__
    elif callable(rule):
        approval = rule
    else:
        approval = rule.__getitem__

    natural = t.score if isinstance(t, AgentType) else t
    best_a, best_u = None, None
    for a in scores:
        u = approval(a) * value - costs.cost(a, t)
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
    require_valid("instance", validate(space, costs, None, agent)
                  + _non_finite("outside option", outside))
    require_valid("mechanism", validate_mechanism(space, mech))
    max_tt = 0
    max_pc = 0
    best_responses = {}
    for t in space.types:
        ubar = outside.get(t, 0)
        # truthful payoff without the quit option
        u_t = 0
        for a in space.scores:
            r = mech.rho(a, t)
            if not on_support(r):
                continue
            cont = sum(mech.q(x, a, t) * agent.v(x, t)
                       for x in space.outcomes) - costs.cost(a, t)
            u_t += r * cont
            gap = ubar - cont
            if gap > max_pc:
                max_pc = gap
        devs = _deviations(space, costs, agent, mech, t, ubar)
        report, plan, value = max(devs, key=lambda dev: dev[2])
        best_responses[t] = {"report": report, "plan": plan,
                             "value": value, "gain": value - u_t}
        max_tt = max([max_tt] + [dev - u_t for _, _, dev in devs[1:]])
    return AuditReport(max_tt_violation=float(max_tt),
                       max_pc_violation=float(max_pc),
                       tolerance=tolerance,
                       best_responses=best_responses)


# ---------------------------------------------------------------------------
# grid brute force
# ---------------------------------------------------------------------------

def _grid_menus(space, costs, agent, designer, t, grid, outside, tol):
    """All PC-feasible grid menus for one type.

    A menu is a tuple of (score, rho, approval) rows; rows exist only on
    the recommendation's support, so menus differing off-support are not
    enumerated twice.  Returns parallel lists (menus, val, own U,
    deviation value per evaluating type).
    """
    x0, x1 = space.outcomes
    scores = space.scores
    # Per row (score index i, approval level q): each type's continuation
    # value, a deviator's payoff (it quits below its outside option), and
    # the designer's value of the row in t's menu.
    cont, dev, dval = {}, {}, {}
    for tp, i, (q, q1) in product(space.types, range(len(scores)),
                                  enumerate(grid)):
        c = costs.cost(scores[i], tp)
        cont[tp, i, q] = q1 * agent.v(x1, tp) + (1 - q1) * agent.v(x0, tp) - c
        dev[tp, i, q] = max(cont[tp, i, q], outside.get(tp, 0))
        if tp == t:
            dval[i, q] = (q1 * designer.dv(x1, t)
                          + (1 - q1) * designer.dv(x0, t) - designer.loss(c))
    # t's participation-feasible approval levels per score
    ubar = outside.get(t, 0)
    levels = [[q for q in range(len(grid)) if cont[t, i, q] >= ubar - tol]
              for i in range(len(scores))]

    menus, vals, owns, devs = [], [], [], {tp: [] for tp in space.types}
    for comp in _compositions(len(grid) - 1, len(scores)):
        support = [i for i, k in enumerate(comp) if k]
        for qs in product(*(levels[i] for i in support)):
            rows = [(i, q, grid[comp[i]]) for i, q in zip(support, qs)]
            menus.append(tuple((scores[i], r, grid[q]) for i, q, r in rows))
            owns.append(sum(r * cont[t, i, q] for i, q, r in rows))
            vals.append(sum(r * dval[i, q] for i, q, r in rows))
            for tp in space.types:
                devs[tp].append(0 if tp == t else
                                sum(r * dev[tp, i, q] for i, q, r in rows))
    return menus, vals, owns, devs


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def brute_force_optimum(space: FiniteTypeSpace, costs: CostModel,
                        agent: AgentPayoff, designer: DesignerPayoff,
                        probability_grid_step, outside_option=None,
                        tolerance: float = 1e-9):
    """Exhaustive grid search over mechanisms; lower-bounds the LP optimum.

    q and rho entries range over multiples of the step; only mechanisms
    passing the incentive audit (at ``tolerance``) count.  Branch and bound
    over per-type menus with pairwise truth-telling feasibility masks.
    Raises ModelError for an invalid instance or outside option, or one
    beyond the size limits.
    """
    outside = outside_option or {}
    require_valid("instance", validate(space, costs, designer, agent)
                  + _non_finite("outside option", outside))
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
    per_type = [
        _grid_menus(space, costs, agent, designer, t, grid, outside,
                    tolerance)
        for t in types]

    # float views for the search; prior-weighted values
    vals = [np.array([float(space.mass(t)) * float(v) for v in vs])
            for t, (_, vs, _, _) in zip(types, per_type)]
    owns = [np.array([float(u) for u in us])
            for (_, _, us, _) in per_type]
    devs = [{tp: np.array([float(d) for d in dv[tp]]) for tp in dv}
            for (_, _, _, dv) in per_type]
    orders = [np.argsort(-v) for v in vals]

    k = len(types)
    tol = float(tolerance)
    best_value = -float("inf")
    best_choice = None

    def dfs(depth, chosen, masks, bound_rest):
        nonlocal best_value, best_choice
        if depth == k:
            total = sum(vals[i][j] for i, j in enumerate(chosen))
            if total > best_value:
                best_value = total
                best_choice = list(chosen)
            return
        t = types[depth]
        cand = orders[depth][masks[depth][orders[depth]]]
        rest = bound_rest[depth + 1] if depth + 1 <= k else 0.0
        for j in cand:
            v = vals[depth][j]
            if sum(vals[i][c] for i, c in enumerate(chosen)) + v + rest \
                    <= best_value + 1e-15:
                break  # candidates sorted by value; nothing better remains
            new_masks = list(masks)
            ok = True
            for later in range(depth + 1, k):
                tp = types[later]
                # tp's future menu must leave tp no profitable deviation to
                # menu j, and must not tempt the current type past U(j)
                m2 = masks[later] & (owns[later] >= devs[depth][tp][j] - tol)
                m2 = m2 & (devs[later][t] <= owns[depth][j] + tol)
                if not m2.any():
                    ok = False
                    break
                new_masks[later] = m2
            if not ok:
                continue
            chosen.append(j)
            dfs(depth + 1, chosen, new_masks, bound_rest)
            chosen.pop()

    masks = [np.ones(len(vals[i]), dtype=bool) for i in range(k)]
    # optimistic per-depth remainder bounds
    bound_rest = [0.0] * (k + 1)
    for i in range(k - 1, -1, -1):
        bound_rest[i] = bound_rest[i + 1] + float(vals[i].max())
    dfs(0, [], masks, bound_rest)

    if best_choice is None:
        raise ModelError("no grid-feasible IC mechanism found")

    # exact re-evaluation of the winner
    decision = {}
    recommendation = {}
    x0, x1 = space.outcomes
    for t, (menus, _, _, _), j in zip(types, per_type, best_choice):
        for a in space.scores:
            recommendation[(a, t)] = Fraction(0)
        for a, r, q1 in menus[j]:
            recommendation[(a, t)] = r
            decision[(x1, a, t)] = q1
            decision[(x0, a, t)] = 1 - q1
    mech = FiniteMechanism(decision=decision, recommendation=recommendation)
    value, _, _ = evaluate_mechanism(space, costs, agent, designer, mech)
    return value
