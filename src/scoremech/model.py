"""Domain types shared by the solvers.

Numbers throughout may be ints, ``fractions.Fraction`` or floats; the
solvers never force a conversion, so an instance built from Fractions stays
exact end to end.  Score and outcome identifiers are opaque strings ordered
by declaration; scores may optionally carry a numeric value, which the
monotone/continuous operations require.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import inf, isfinite
from typing import Mapping, NamedTuple, Sequence

__all__ = [
    "AgentType",
    "FiniteTypeSpace",
    "CostModel",
    "AgentPayoff",
    "DesignerPayoff",
    "FiniteMechanism",
    "ScoreBasedRule",
    "Instance",
    "ModelError",
    "SUPPORT_TOL",
    "on_support",
    "require_gamma",
    "validate",
    "college_instance",
    "instance_to_config",
    "instance_from_config",
    "load_instance",
    "save_instance",
    "format_number",
    "parse_number",
]

SUPPORT_TOL = 1e-12  # a float rho(a|t) above this is "a in supp rho(.|t)"
_NORM_TOL = 1e-12


class ModelError(ValueError):
    """Structural error in a model object (bad key, broken invariant)."""


def on_support(r) -> bool:
    """Exact probabilities count when above 0, floats above SUPPORT_TOL."""
    return r > (0 if isinstance(r, (int, Fraction)) else SUPPORT_TOL)


class AgentType(NamedTuple):
    """A type (soft label, natural score).  Hashable; used as a dict key."""

    label: str
    score: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.label}:{self.score}"


@dataclass(frozen=True)
class FiniteTypeSpace:
    """Finite sets of types, scores, outcomes, plus the prior over types.

    ``scores`` is the action set available for submission (a superset of
    the natural scores).  ``score_values`` optionally assigns a numeric
    value to each score identifier.
    """

    types: tuple[AgentType, ...]
    scores: tuple[str, ...]
    outcomes: tuple[str, ...]
    prior: Mapping[AgentType, object]
    score_values: Mapping[str, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(
            AgentType(*t) for t in self.types))
        object.__setattr__(self, "scores", tuple(self.scores))
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "prior", dict(self.prior))
        if self.score_values is not None:
            object.__setattr__(self, "score_values", dict(self.score_values))

    def score_value(self, a: str) -> float:
        if self.score_values is None or a not in self.score_values:
            raise ModelError(f"score {a!r} carries no numeric value")
        return self.score_values[a]

    def mass(self, t: AgentType):
        return self.prior[t]


@dataclass(frozen=True)
class CostModel:
    """Falsification cost c(a, t) >= 0 with c(natural score, t) = 0.

    ``tabulated`` costs are keyed on (score identifier, type); the
    parametric kinds are |a-t|/gamma and (a-t)^2/gamma on a numeric domain
    [s_min, s_max] with s_min < 0 < s_max.
    """

    kind: str  # tabulated | linear | quadratic
    table: Mapping[tuple[str, AgentType], object] | None = None
    gamma: object | None = None
    domain: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in ("tabulated", "linear", "quadratic"):
            raise ModelError(f"unknown cost kind {self.kind!r}")
        if self.table is not None:
            object.__setattr__(self, "table", {
                (a, AgentType(*t)): c for (a, t), c in self.table.items()})

    @classmethod
    def tabulated(cls, table) -> "CostModel":
        return cls(kind="tabulated", table=table)

    @classmethod
    def linear(cls, gamma, domain) -> "CostModel":
        return cls(kind="linear", gamma=gamma, domain=tuple(domain))

    @classmethod
    def quadratic(cls, gamma, domain) -> "CostModel":
        return cls(kind="quadratic", gamma=gamma, domain=tuple(domain))

    @property
    def parametric(self) -> bool:
        return self.kind in ("linear", "quadratic")

    def cost(self, a, t):
        """Cost for type ``t`` to submit score ``a``.

        Tabulated models take identifier keys; parametric models take the
        numeric score ``a`` and numeric natural score ``t``.
        """
        if self.kind == "tabulated":
            key = (a, t)
            if key not in self.table:
                raise ModelError(f"no tabulated cost for {key}")
            return self.table[key]
        return self.raw_cost(a, t) / self.gamma

    def raw_cost(self, a, t):
        """Unscaled parametric cost (before dividing by gamma)."""
        if self.kind == "linear":
            return abs(a - t)
        if self.kind == "quadratic":
            return (a - t) ** 2
        raise ModelError("raw_cost is only defined for parametric kinds")


def require_gamma(costs: CostModel) -> float:
    """Gamma of a parametric cost as a float, or ModelError.  The rule is
    ``gamma > 0``: NaN fails it, +inf passes (the limit p* = 0)."""
    if not costs.parametric:
        raise ModelError(
            f"need a linear or quadratic cost model, got {costs.kind!r}")
    if costs.gamma is None or not costs.gamma > 0:
        raise ModelError("parametric cost model requires gamma > 0")
    return float(costs.gamma)


@dataclass(frozen=True)
class AgentPayoff:
    """Agent's outcome utility v(x, t)."""

    value: Mapping[tuple[str, AgentType], object]

    def __post_init__(self):
        object.__setattr__(self, "value", {
            (x, AgentType(*t)): v for (x, t), v in self.value.items()})

    @classmethod
    def unit_approval(cls, space: FiniteTypeSpace,
                      approve: str) -> "AgentPayoff":
        """v = 1 for the approval outcome and 0 otherwise, for every type."""
        return cls({(x, t): (1 if x == approve else 0)
                    for x in space.outcomes for t in space.types})

    def v(self, x, t):
        return self.value[(x, t)]


@dataclass(frozen=True)
class DesignerPayoff:
    """Designer's decision values plus an optional falsification loss.

    When ``loss_coefficient`` is lam, the designer's payoff from a realized
    action with falsification cost c is decision_value - lam * c**2; None
    means falsification costs are not internalized.
    """

    decision_value: Mapping[tuple[str, AgentType], object]
    loss_coefficient: object | None = None

    def __post_init__(self):
        object.__setattr__(self, "decision_value", {
            (x, AgentType(*t)): v
            for (x, t), v in self.decision_value.items()})

    def dv(self, x, t):
        return self.decision_value[(x, t)]

    def loss(self, cost):
        if self.loss_coefficient is None:
            return 0
        return self.loss_coefficient * cost * cost


@dataclass(frozen=True)
class FiniteMechanism:
    """A decomposed direct recommendation mechanism (q, rho).

    ``decision`` maps (outcome, score, type) to q(x|a,t); ``recommendation``
    maps (score, type) to rho(a|t).  q(.|a,t) must be defined wherever
    rho(a|t) is ``on_support``; off-support entries are allowed
    but ignored by evaluation (the null-outcome convention makes them
    payoff-irrelevant).
    """

    decision: Mapping[tuple[str, str, AgentType], object]
    recommendation: Mapping[tuple[str, AgentType], object]

    def __post_init__(self):
        object.__setattr__(self, "decision", {
            (x, a, AgentType(*t)): v
            for (x, a, t), v in self.decision.items()})
        object.__setattr__(self, "recommendation", {
            (a, AgentType(*t)): v
            for (a, t), v in self.recommendation.items()})

    def rho(self, a, t):
        return self.recommendation.get((a, t), 0)

    def q(self, x, a, t):
        key = (x, a, t)
        if key not in self.decision:
            raise ModelError(f"decision undefined at {key}")
        return self.decision[key]

    @cached_property
    def _decided(self) -> frozenset:
        return frozenset((a, t) for _, a, t in self.decision)

    def has_decision(self, a, t) -> bool:
        return (a, t) in self._decided

    def support(self, t, scores: Sequence[str]):
        return [a for a in scores if on_support(self.rho(a, t))]


@dataclass(frozen=True)
class ScoreBasedRule:
    """Decision rule depending only on the submitted score."""

    decision: Mapping[tuple[str, str], object]  # (outcome, score) -> prob

    def __post_init__(self):
        object.__setattr__(self, "decision", dict(self.decision))

    def q(self, x, a):
        key = (x, a)
        if key not in self.decision:
            raise ModelError(f"score rule undefined at {key}")
        return self.decision[key]


@dataclass(frozen=True)
class Instance:
    """A complete finite problem: type space, costs, payoffs, outside option."""

    space: FiniteTypeSpace
    costs: CostModel
    agent: AgentPayoff
    designer: DesignerPayoff
    outside_option: Mapping[AgentType, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def require_valid(what: str, problems: list[str]) -> None:
    """Raise ``ModelError("invalid <what>: p1; p2")`` if there are problems."""
    if problems:
        raise ModelError(f"invalid {what}: " + "; ".join(problems))


def _non_finite(what: str, numbers: Mapping) -> list[str]:
    """A problem per float NaN or infinity among ``numbers``' values, keyed
    by a type or an (outcome or score, type) pair.  Only floats can be
    either; no Fraction goes through float(), where a large one overflows."""
    return [f"{what} at {k if isinstance(k, AgentType) else '(%s, %s)' % k}"
            f" is {v}" for k, v in numbers.items()
            if isinstance(v, float) and not isfinite(v)]


def validate(space: FiniteTypeSpace, costs: CostModel,
             payoff: DesignerPayoff | None,
             agent: AgentPayoff | None = None) -> list[str]:
    """Check every type invariant; returns a list of violations (empty =
    valid).  A payoff passed as None is not checked.  A float NaN or
    infinity in the prior, the cost table or a payoff is a violation."""
    problems = (_non_finite("prior mass", space.prior)
                + _non_finite("cost", costs.table or {})
                + _non_finite("decision value",
                              payoff.decision_value if payoff else {})
                + _non_finite("agent value", agent.value if agent else {}))

    if len(set(space.types)) != len(space.types):
        problems.append("duplicate types")
    if len(set(space.scores)) != len(space.scores):
        problems.append("duplicate scores")
    if len(set(space.outcomes)) != len(space.outcomes):
        problems.append("duplicate outcomes")

    for t in space.types:
        if t.score not in space.scores:
            problems.append(
                f"natural score {t.score!r} of {t} missing from scores")
        if t not in space.prior:
            problems.append(f"prior missing for {t}")

    total = sum(space.prior.get(t, 0) for t in space.types)
    if abs(float(total) - 1.0) > _NORM_TOL:
        problems.append(f"prior not normalized (sums to {float(total)})")
    for t, p in space.prior.items():
        if p < 0:
            problems.append(f"negative prior mass at {t}")

    if costs.kind == "tabulated":
        if costs.table is None:
            problems.append("tabulated cost model without a table")
        else:
            for (a, t), c in costs.table.items():
                if c < 0:
                    problems.append(f"negative cost at ({a}, {t})")
            for t in space.types:
                own = costs.table.get((t.score, t))
                if own is None:
                    problems.append(f"missing own-score cost for {t}")
                elif own != 0:
                    problems.append(
                        f"own-score cost nonzero for {t}: c({t.score})={own}")
                for a in space.scores:
                    if (a, t) not in costs.table:
                        problems.append(f"missing cost entry ({a}, {t})")
    else:
        try:
            require_gamma(costs)
        except ModelError as exc:
            problems.append(str(exc))
        if costs.domain is None:
            problems.append("parametric cost model requires a domain")
        else:
            s_min, s_max = costs.domain
            if not (s_min < 0 < s_max):
                problems.append(
                    f"domain [{s_min}, {s_max}] must straddle 0")

    if payoff is not None:
        for t in space.types:
            for x in space.outcomes:
                if (x, t) not in payoff.decision_value:
                    problems.append(f"missing decision value ({x}, {t})")
        lam = payoff.loss_coefficient or 0  # None: not internalized
        if not 0 <= lam < inf:  # NaN fails too
            problems.append(f"loss coefficient {lam} must be in [0, inf)")

    if agent is not None:
        for t in space.types:
            for x in space.outcomes:
                if (x, t) not in agent.value:
                    problems.append(f"missing agent value ({x}, {t})")

    return problems


def _outside_unit(v) -> bool:
    """v is NaN or lies outside [0, 1]: by more than ``_NORM_TOL`` for a
    float (solver round-off), by anything for an exact number."""
    tol = _NORM_TOL if isinstance(v, float) else 0
    return not -tol <= v <= 1 + tol


def validate_mechanism(space: FiniteTypeSpace,
                       mech: FiniteMechanism) -> list[str]:
    problems: list[str] = []
    for t in space.types:
        total = sum(mech.rho(a, t) for a in space.scores)
        if abs(float(total) - 1.0) > _NORM_TOL:
            problems.append(
                f"recommendation for {t} sums to {float(total)}")
        for a in space.scores:
            r = mech.rho(a, t)
            if _outside_unit(r):
                problems.append(f"rho({a}|{t}) = {r} outside [0, 1]")
            if on_support(r):
                if not mech.has_decision(a, t):
                    problems.append(f"q undefined on support at ({a}, {t})")
                    continue
                qsum = sum(mech.q(x, a, t) for x in space.outcomes
                           if (x, a, t) in mech.decision)
                if abs(float(qsum) - 1.0) > _NORM_TOL:
                    problems.append(
                        f"q(.|{a},{t}) sums to {float(qsum)}")
        for (x, a, tt), v in mech.decision.items():
            if tt == t and _outside_unit(v):
                problems.append(f"q({x}|{a},{t}) = {v} outside [0, 1]")
    return problems


# ---------------------------------------------------------------------------
# built-in example: the four-type college admission instance
# ---------------------------------------------------------------------------

def college_instance(internalize_costs: bool) -> Instance:
    """The four-type college admission instance, in exact rationals.

    Types are (football taste, natural score); every type values admission
    at 1 and falsifying to the other score costs 1.  With
    ``internalize_costs`` the designer additionally suffers a quadratic loss
    c^2/6 per realized falsification.
    """
    types = [AgentType("F", "sL"), AgentType("NF", "sL"),
             AgentType("NF", "sH"), AgentType("F", "sH")]
    space = FiniteTypeSpace(
        types=tuple(types),
        scores=("sL", "sH"),
        outcomes=("reject", "admit"),
        prior={t: Fraction(1, 4) for t in types},
    )
    table = {(a, t): (Fraction(0) if a == t.score else Fraction(1))
             for a in space.scores for t in types}
    costs = CostModel.tabulated(table)
    agent = AgentPayoff.unit_approval(space, approve="admit")
    dv = {("admit", types[0]): Fraction(3),
          ("admit", types[1]): Fraction(-1),
          ("admit", types[2]): Fraction(2),
          ("admit", types[3]): Fraction(4)}
    dv.update({("reject", t): Fraction(0) for t in types})
    designer = DesignerPayoff(
        decision_value=dv,
        loss_coefficient=Fraction(1, 6) if internalize_costs else None)
    return Instance(space=space, costs=costs, agent=agent, designer=designer)


def college_menu_mechanism() -> FiniteMechanism:
    """The illustrative menu mechanism for the college instance.

    t1 is pooled at approval with a 1/4-1/4 randomized score request, t2
    faces the partially separating rule at its natural score, t3/t4 the
    separating rule.  Evaluates to 69/32 under the cost-internalizing
    designer payoff.  It is feasible but not optimal there: requesting sH
    from t1 with probability 1 instead of 3/4 (and approving nobody at sL)
    dominates it, and the optimum is 53/24.
    """
    types = [AgentType("F", "sL"), AgentType("NF", "sL"),
             AgentType("NF", "sH"), AgentType("F", "sH")]
    t1, t2, t3, t4 = types
    one, zero = Fraction(1), Fraction(0)
    decision = {}

    def set_rule(t, q_low, q_high):
        decision[("admit", "sL", t)] = q_low
        decision[("reject", "sL", t)] = one - q_low
        decision[("admit", "sH", t)] = q_high
        decision[("reject", "sH", t)] = one - q_high

    set_rule(t1, one, one)                 # pooling at admission
    set_rule(t2, Fraction(1, 4), one)      # partially separating
    set_rule(t3, zero, one)                # separating
    set_rule(t4, zero, one)
    recommendation = {
        ("sL", t1): Fraction(1, 4), ("sH", t1): Fraction(3, 4),
        ("sL", t2): one, ("sH", t2): zero,
        ("sL", t3): zero, ("sH", t3): one,
        ("sL", t4): zero, ("sH", t4): one,
    }
    return FiniteMechanism(decision=decision, recommendation=recommendation)


# ---------------------------------------------------------------------------
# number codec and config serialization (JSON tree; rationals as "p/q")
# ---------------------------------------------------------------------------

def format_number(v) -> str:
    """Fractions as "p/q", ints as digits, reals at 12 significant digits."""
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, int):
        return str(v)
    return format(float(v), ".12g")


def parse_number(s: str):
    """Inverse of ``format_number``: "p/q" and integers exact, else float."""
    if "/" in s or s.lstrip("-").isdigit():
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ModelError(f"zero denominator in {s!r}") from None
    return float(s)


def _to_json(v):
    if isinstance(v, bool):
        raise ModelError("booleans are not model numbers")
    return format_number(v) if isinstance(v, Fraction) else v


def _from_json(v):
    return parse_number(v) if isinstance(v, str) else v


def _type_key(t: AgentType) -> str:
    return f"{t.label}|{t.score}"


def _type_from_key(s: str) -> AgentType:
    label, _, score = s.partition("|")
    return AgentType(label, score)


def _pair_key(pair) -> str:  # (outcome or score, type) -> "x|label|score"
    return f"{pair[0]}|{_type_key(pair[1])}"


def _pair_from_key(s: str):
    x, _, tk = s.partition("|")
    return x, _type_from_key(tk)


def instance_to_config(inst: Instance) -> dict:
    space, costs = inst.space, inst.costs

    def numbers(items, key):
        return {key(k): _to_json(v) for k, v in items}

    cfg = {
        "types": [[t.label, t.score] for t in space.types],
        "scores": list(space.scores),
        "outcomes": list(space.outcomes),
        "prior": numbers(((t, space.prior[t]) for t in space.types),
                         _type_key),
        "cost": {"kind": costs.kind},
        "agent_value": numbers(inst.agent.value.items(), _pair_key),
        "decision_value": numbers(inst.designer.decision_value.items(),
                                  _pair_key),
        "outside_option": numbers(inst.outside_option.items(), _type_key),
    }
    if space.score_values is not None:
        cfg["score_values"] = numbers(space.score_values.items(), str)
    if costs.kind == "tabulated":
        cfg["cost"]["table"] = numbers(costs.table.items(), _pair_key)
    else:
        cfg["cost"]["gamma"] = _to_json(costs.gamma)
        cfg["cost"]["domain"] = [_to_json(v) for v in costs.domain]
    if inst.designer.loss_coefficient is not None:
        cfg["loss_coefficient"] = _to_json(inst.designer.loss_coefficient)
    return cfg


def instance_from_config(cfg: dict) -> Instance:
    """Build an instance from its JSON tree.

    Numbers are JSON numbers or strings read by ``parse_number`` ("p/q"
    and integers exact, decimals as floats).  Keys:

      types           [[label, natural_score], ...]
      scores          [score, ...]           declaration order is the order
      outcomes        [outcome, ...]
      prior           {"label|score": mass}
      score_values    {score: number}        optional numeric score values
      cost            {"kind": "tabulated", "table": {"score|label|tscore": c}}
                      or {"kind": "linear"|"quadratic", "gamma": g,
                          "domain": [s_min, s_max]}
      agent_value     {"outcome|label|score": v}
      decision_value  {"outcome|label|score": v}
      loss_coefficient  lam                  optional; loss is lam * c^2
      outside_option  {"label|score": u}     optional, defaults to 0
    """
    def numbers(table, key):
        return {key(k): _from_json(v) for k, v in table.items()}

    space = FiniteTypeSpace(
        types=tuple(AgentType(label, score) for label, score in cfg["types"]),
        scores=tuple(cfg["scores"]),
        outcomes=tuple(cfg["outcomes"]),
        prior=numbers(cfg["prior"], _type_from_key),
        score_values=(numbers(cfg["score_values"], str)
                      if "score_values" in cfg else None),
    )
    ck = cfg["cost"]
    if ck["kind"] == "tabulated":
        costs = CostModel.tabulated(numbers(ck["table"], _pair_from_key))
    else:
        costs = CostModel(ck["kind"], gamma=_from_json(ck["gamma"]),
                          domain=tuple(map(_from_json, ck["domain"])))
    designer = DesignerPayoff(
        decision_value=numbers(cfg["decision_value"], _pair_from_key),
        loss_coefficient=_from_json(cfg["loss_coefficient"])
        if "loss_coefficient" in cfg else None)
    return Instance(
        space=space, costs=costs,
        agent=AgentPayoff(numbers(cfg["agent_value"], _pair_from_key)),
        designer=designer,
        outside_option=numbers(cfg.get("outside_option", {}),
                               _type_from_key))


def save_instance(inst: Instance, path) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_config(inst), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_config(json.load(fh))
