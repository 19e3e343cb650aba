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
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .lpcore import (EQUAL, GREATER, LinearProgram, LpSolution, entry_dtype,
                     solve_lp)
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
    format_number,
    on_support,
    parse_number,
    validate,
)

__all__ = [
    "JointVariableIndex",
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


class JointVariableIndex:
    """Bijection between LP columns and the z / w variable blocks."""

    def __init__(self, space: FiniteTypeSpace):
        self.space = space
        self._ti = {t: i for i, t in enumerate(space.types)}
        self._ai = {a: i for i, a in enumerate(space.scores)}
        self._xi = {x: i for i, x in enumerate(space.outcomes)}
        self.pairs = [(t, tp) for t in space.types
                      for tp in space.types if tp != t]
        self._pi = {p: i for i, p in enumerate(self.pairs)}
        self.n_z = len(space.types) * len(space.scores) * len(space.outcomes)
        self.n_vars = self.n_z + len(self.pairs) * len(space.scores)

    def z(self, x: str, a: str, t: AgentType) -> int:
        s = self.space
        return ((self._ti[t] * len(s.scores) + self._ai[a])
                * len(s.outcomes) + self._xi[x])

    def w(self, a: str, t: AgentType, tp: AgentType) -> int:
        return (self.n_z + self._pi[(t, tp)] * len(self.space.scores)
                + self._ai[a])

    def blocks(self):
        """Column arrays z[t, a, x] and w[pair, a], then the positions of
        each pair's t and t' (np.nonzero is row-major, like ``pairs``)."""
        n_t, n_a = len(self.space.types), len(self.space.scores)
        z = np.arange(self.n_z).reshape(n_t, n_a, -1)
        w = np.arange(self.n_z, self.n_vars).reshape(-1, n_a)
        return (z, w) + np.nonzero(~np.eye(n_t, dtype=bool))


def build_drm_lp(space: FiniteTypeSpace, costs: CostModel,
                 agent: AgentPayoff, designer: DesignerPayoff,
                 outside_option: Mapping[AgentType, object] | None = None
                 ) -> LinearProgram:
    """LP over z(x,a|t) >= 0 whose optimum is the designer's best DRM value.

    Rows: unit mass per t; participation per (t, a); per pair (t, t') the
    truth-telling row, then per score the w row and, if outside(t) != 0,
    the outside-option row.  Coefficients are computed per (t, a, x) in
    the caller's numbers (Fractions stay exact) and gathered over pairs.
    """
    if costs.kind != "tabulated":
        raise ModelError("the DRM solver needs a finite (tabulated) cost model")
    zcol, wcol, pt, ptp = JointVariableIndex(space).blocks()
    n_t, n_a, n_x = zcol.shape
    outside = outside_option or {}

    def table(f):  # f(t, a, x) for every type, score and outcome
        return np.array([[f(t, a, x) for a in space.scores
                          for x in space.outcomes] for t in space.types],
                        dtype=object).reshape(zcol.shape)

    numbers = (
        table(lambda t, a, x: space.mass(t) * (
            designer.dv(x, t) - designer.loss(costs.cost(a, t)))),
        table(lambda t, a, x: agent.v(x, t) - (
            costs.cost(a, t) + outside.get(t, 0))),
        table(lambda t, a, x: agent.v(x, t) - costs.cost(a, t)),
        np.array([outside.get(t, 0) for t in space.types], dtype=object))
    dtype = entry_dtype(*(a.ravel() for a in numbers))
    objective, participation, gain, ubar = (a.astype(dtype) for a in numbers)
    one = np.ones((), dtype)

    has = (ubar != 0)[pt]
    per_pair = 1 + n_a * (1 + has)  # truth-telling row, 1 or 2 per score
    first = n_t * (1 + n_a) + np.cumsum(per_pair) - per_pair
    w_row = first[:, None] + 1 + (1 + has)[:, None] * np.arange(n_a)
    o_row = w_row[has] + 1
    families = [  # (row, column, coefficient), broadcast per family
        (np.arange(n_t)[:, None], zcol.reshape(n_t, -1), one),
        (n_t + np.arange(n_t * n_a)[:, None], zcol.reshape(-1, n_x),
         participation.reshape(-1, n_x)),
        (first[:, None], zcol.reshape(n_t, -1)[pt],
         gain.reshape(n_t, -1)[pt]),
        (first[:, None], wcol, -one),
        (w_row[:, :, None], zcol[ptp], -gain[pt]),
        (w_row, wcol, one),
        (o_row[:, :, None], zcol[ptp[has]], -ubar[pt[has], None, None]),
        (o_row, wcol[has], one)]
    row, col, val = (np.concatenate(parts) for parts in zip(*(
        [a.ravel() for a in np.broadcast_arrays(*f)] for f in families)))

    relations = np.full(n_t * (1 + n_a) + per_pair.sum(), GREATER)
    relations[:n_t] = EQUAL
    rhs = np.zeros(len(relations), dtype)
    rhs[:n_t] = 1
    obj = np.concatenate((objective.ravel(), np.zeros(wcol.size, dtype)))
    return LinearProgram.from_coo(obj, row, col, val, relations, rhs)


def extract_mechanism(space: FiniteTypeSpace,
                      solution: LpSolution) -> FiniteMechanism:
    """Recover (q, rho) from an optimal joint-variable assignment."""
    if not solution.optimal:
        raise ModelError(f"cannot extract from a {solution.status} solution")
    idx = JointVariableIndex(space)
    z = solution.assignment
    decision = {}
    recommendation = {}
    for t in space.types:
        total = 0
        for a in space.scores:
            r = sum(z[idx.z(x, a, t)] for x in space.outcomes)
            recommendation[(a, t)] = r
            total += r
            if on_support(r):
                for x in space.outcomes:
                    decision[(x, a, t)] = z[idx.z(x, a, t)] / r
        if not on_support(total):
            raise ModelError(f"degenerate all-zero joint row for {t}")
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


def solve_drm(inst: Instance, mode: str = "exact"):
    """Validate, build, solve, certify and extract in one call.

    Returns (lp solution, mechanism), the solution a certified optimum.
    Raises ModelError for an invalid instance, and SolveError, carrying
    the LP status, when the LP has no certified optimum.
    """
    problems = validate(inst.space, inst.costs, inst.designer, inst.agent)
    if problems:
        raise ModelError("invalid instance: " + "; ".join(problems))
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer,
                      inst.outside_option)
    sol = solve_lp(lp, mode=mode)
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
        if abs(float(total) - 1.0) > 1e-12:
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
    if abs(float(sum(rho)) - 1.0) > 1e-12:
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
