"""Domain types shared by the solvers, and the rule for their numbers.

Numbers throughout may be ints, ``fractions.Fraction`` or floats; the
solvers never force a conversion, so an instance built from Fractions stays
exact end to end.  Only floats carry tolerances or can be NaN or infinite,
and no exact number goes through float() to be compared, where a large one
overflows: ``on_support``, ``finite_mask``, ``misses_one`` and their kin
here are the one copy of that rule, and the artifact codec (tables, JSON,
summaries) shows an exact number by ``as_float``.  Score and outcome
identifiers are opaque strings ordered by declaration; scores may
optionally carry a numeric value, which the monotone/continuous operations
require.

All types are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, isfinite
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

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
_EXACT_NORM_TOL = Fraction(_NORM_TOL)  # converted once, not per comparison


class ModelError(ValueError):
    """Structural error in a model object (bad key, broken invariant)."""


def on_support(r) -> bool:
    """Exact probabilities count when above 0, floats above SUPPORT_TOL."""
    return r > (SUPPORT_TOL if isinstance(r, float) else 0)


def support_mask(r: np.ndarray) -> np.ndarray:
    """``on_support`` per entry: float64 in one pass, objects one by one."""
    if r.dtype == object:
        return np.frompyfunc(on_support, 1, 1)(r).astype(bool)
    return r > SUPPORT_TOL


def entry_dtype(*values) -> type:
    """float64 when every number is a float or an int, one at least a
    float; object otherwise, so Fractions and all-int data stay exact."""
    kinds = {type(v) for vs in values for v in vs}
    if all(issubclass(k, (int, float)) for k in kinds) and any(
            issubclass(k, float) for k in kinds):
        return np.float64
    return object


def _finite(v) -> bool:
    """Only a float can be NaN or infinite."""
    return not isinstance(v, float) or isfinite(v)


def finite_mask(table: np.ndarray) -> np.ndarray:
    """``_finite`` of each entry: float64 in one pass, objects one by one."""
    if table.dtype == object:
        return np.frompyfunc(_finite, 1, 1)(table).astype(bool)
    return np.isfinite(table)


def as_float(v) -> float:
    """float(v), rounded to an infinity where an exact v is beyond float
    range, as float arithmetic rounds an overflow."""
    try:
        return float(v)
    except OverflowError:
        return inf if v > 0 else -inf


def number_array(values, dtype) -> np.ndarray:
    """A new C-ordered array of ``dtype``, float64 (by ``as_float``, so
    ``finite_mask`` refuses an exact number beyond float range) or object."""
    try:
        return np.array(values, dtype, order="C")
    except OverflowError:
        return np.frompyfunc(as_float, 1, 1)(np.array(values, object)
                                             ).astype(dtype)


def number_sum(values):
    """sum(values), by ``as_float`` where a float meets an exact summand
    beyond float range."""
    values = list(values)
    try:
        return sum(values)
    except OverflowError:
        return sum(map(as_float, values))


def misses_one(total) -> bool:
    """The unit-sum test; NaN misses nothing.  A float total may miss 1 by
    ``_NORM_TOL`` and so may an exact one, compared exactly with that
    tolerance as a Fraction: an exact total of 1 + 10^-13 passes."""
    if isinstance(total, float):
        return abs(total - 1.0) > _NORM_TOL
    return total != 1 and abs(total - 1) > _EXACT_NORM_TOL


def _outside_unit(v) -> bool:
    """v is NaN or lies outside [0, 1]: by more than ``_NORM_TOL`` for a
    float (solver round-off), by anything for an exact number."""
    tol = _NORM_TOL if isinstance(v, float) else 0
    return not -tol <= v <= 1 + tol


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

    A finite instance's cost is ``tabulated``, keyed on (score identifier,
    type).  The continuum solvers take the parametric kinds |a-t|/gamma
    and (a-t)^2/gamma; their ``domain`` is accepted but no solver reads it.
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
    """A problem per NaN or infinity (``_finite``) among ``numbers``'
    values, keyed by a type or an (outcome or score, type) pair."""
    return [f"{what} at {k if isinstance(k, AgentType) else '(%s, %s)' % k}"
            f" is {v}" for k, v in numbers.items() if not _finite(v)]


def beyond_float(what: str, numbers: Mapping) -> list[str]:
    """``_non_finite`` of the exact numbers among ``numbers``' values as
    ``as_float`` rounds them: those that float arithmetic overflows on."""
    return _non_finite(what, {k: as_float(v) for k, v in numbers.items()
                              if not isinstance(v, float)})


def validate(space: FiniteTypeSpace, costs: CostModel,
             payoff: DesignerPayoff | None,
             agent: AgentPayoff | None = None,
             outside_option: Mapping[AgentType, object] | None = None
             ) -> list[str]:
    """Check every type invariant; returns a list of violations (empty =
    valid).  The cost must be a table; a payoff or outside option passed
    as None is not checked.  A float NaN or infinity in the prior, the
    cost table, a payoff or the outside option is a violation; the outside
    option's are listed last."""
    problems = (_non_finite("prior mass", space.prior)
                + _non_finite("cost", costs.table or {})
                + _non_finite("decision value",
                              payoff.decision_value if payoff else {})
                + _non_finite("agent value", agent.value if agent else {}))

    for name in ("types", "scores", "outcomes"):
        items = getattr(space, name)
        if not items:
            problems.append(f"no {name}")
        elif len(set(items)) != len(items):
            problems.append(f"duplicate {name}")

    for t in space.types:
        if t.score not in space.scores:
            problems.append(
                f"natural score {t.score!r} of {t} missing from scores")
        if t not in space.prior:
            problems.append(f"prior missing for {t}")

    total = number_sum(space.prior.get(t, 0) for t in space.types)
    if misses_one(total):
        problems.append(f"prior not normalized (sums to {as_float(total)})")
    for t, p in space.prior.items():
        if p < 0:
            problems.append(f"negative prior mass at {t}")

    if costs.kind != "tabulated" or costs.table is None:
        problems.append("a finite instance needs a cost table")
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

    return problems + _non_finite("outside option", outside_option or {})


def validate_mechanism(space: FiniteTypeSpace,
                       mech: FiniteMechanism) -> list[str]:
    """Violations of a mechanism on a type space (empty = valid), per type
    in order: rho(.|t) sums to 1 (``misses_one``); each rho(a|t) lies in
    [0, 1] (``_outside_unit``, which NaN fails); q(.|a,t) is defined where
    rho(a|t) is ``on_support`` and sums to 1 there; then each of t's
    decision entries, on support or not, lies in [0, 1]."""
    problems: list[str] = []
    outside = {}  # per type, its decision entries outside [0, 1]
    decided = set()  # the (score, type) pairs with a decision entry
    for (x, a, t), v in mech.decision.items():
        decided.add((a, t))
        if _outside_unit(v):
            outside.setdefault(t, []).append(
                f"q({x}|{a},{t}) = {v} outside [0, 1]")
    for t in space.types:
        total = number_sum(mech.rho(a, t) for a in space.scores)
        if misses_one(total):
            problems.append(
                f"recommendation for {t} sums to {as_float(total)}")
        for a in space.scores:
            r = mech.rho(a, t)
            if _outside_unit(r):
                problems.append(f"rho({a}|{t}) = {r} outside [0, 1]")
            if on_support(r):
                if (a, t) not in decided:
                    problems.append(f"q undefined on support at ({a}, {t})")
                    continue
                qsum = number_sum(mech.q(x, a, t) for x in space.outcomes
                                  if (x, a, t) in mech.decision)
                if misses_one(qsum):
                    problems.append(f"q(.|{a},{t}) sums to {as_float(qsum)}")
        problems += outside.get(t, [])
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
# number codec and artifacts: tables, JSON trees, summaries ("p/q")
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
    if "/" in s or s.lstrip("+-").isdigit():
        try:
            return Fraction(s)
        except ZeroDivisionError:
            raise ModelError(f"zero denominator in {s!r}") from None
    return float(s)


def _show_number(v) -> str:
    """Summary display: a rational as "<its ``as_float``> = p/q"."""
    if isinstance(v, Fraction):
        return f"{format_number(as_float(v))} = {format_number(v)}"
    if isinstance(v, float):
        return format_number(v)
    return "none" if v is None else str(v)


def summary_text(entries) -> str:
    """One "key = value" line per (key, value), by ``_show_number``."""
    return "".join(f"{k} = {_show_number(v)}\n" for k, v in entries)


def write_table(path, header: str, rows) -> None:
    """``header``, then one tab-separated line per row of cells: strings
    as they are, numbers through ``format_number``."""
    lines = [header] + ["\t".join(c if isinstance(c, str) else format_number(c)
                                  for c in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path, header: str, what: str) -> list[list[str]]:
    """The cells of a ``write_table`` table whose header is ``header``."""
    with open(path) as fh:
        found = fh.readline().strip()
        if found != header:
            raise ModelError(f"unexpected {what} table header: {found!r}")
        return [line.split("\t") for line in map(str.strip, fh) if line]


def write_json(path, tree) -> None:
    """Indented JSON with sorted keys, built before the file is opened."""
    Path(path).write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n")


def _to_json(v):
    if isinstance(v, bool):
        raise ModelError("booleans are not model numbers")
    return format_number(v) if isinstance(v, Fraction) else v


def _from_json(v, key, where):
    """A config number: a JSON number, or a string ``parse_number`` reads;
    anything else is a ModelError naming ``key``."""
    if isinstance(v, str):
        try:
            return parse_number(v)
        except ModelError as exc:
            raise ModelError(f"key {key!r} {where}: {exc}") from None
        except ValueError:
            pass
    elif isinstance(v, (int, float)) and not isinstance(v, bool):
        return v
    raise ModelError(f"key {key!r} {where} is not a number: {json.dumps(v)}")


def _need(table, key, where="at the top level", kind=object):
    if key not in table:
        raise ModelError(f"missing key {key!r} {where}")
    if not isinstance(table[key], kind):
        raise ModelError(f"key {key!r} {where} is not a JSON "
                         + ("array" if kind is list else "object"))
    return table[key]


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
    if costs.kind != "tabulated":
        raise ModelError(
            f"a finite instance needs a cost table, not a {costs.kind!r} cost")

    def numbers(items, key):
        return {key(k): _to_json(v) for k, v in items}

    cfg = {
        "types": [[t.label, t.score] for t in space.types],
        "scores": list(space.scores),
        "outcomes": list(space.outcomes),
        "prior": numbers(((t, space.prior[t]) for t in space.types),
                         _type_key),
        "cost": {"kind": "tabulated",
                 "table": numbers(costs.table.items(), _pair_key)},
        "agent_value": numbers(inst.agent.value.items(), _pair_key),
        "decision_value": numbers(inst.designer.decision_value.items(),
                                  _pair_key),
        "outside_option": numbers(inst.outside_option.items(), _type_key),
    }
    if space.score_values is not None:
        cfg["score_values"] = numbers(space.score_values.items(), str)
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
                      a table is the only finite cost; another kind is a
                      ModelError
      agent_value     {"outcome|label|score": v}
      decision_value  {"outcome|label|score": v}
      loss_coefficient  lam                  optional; loss is lam * c^2
      outside_option  {"label|score": u}     optional, defaults to 0

    The config is a JSON object.  A missing key that is not optional, one
    of the wrong JSON type, a number that is neither a JSON number nor a
    string ``parse_number`` reads, a score or outcome that is not a string
    and a type that is not a [label, score] pair of strings are each a
    ModelError naming it.
    """
    def numbers(parent, name, key, where="at the top level"):
        inner = f'in "{name}"' + ("" if parent is cfg else f" {where}")
        return {key(k): _from_json(v, k, inner)
                for k, v in _need(parent, name, where, dict).items()}

    def names(name):
        items = _need(cfg, name, kind=list)
        for v in items:
            if not isinstance(v, str):
                raise ModelError(f"an entry of {name!r} is not a string: "
                                 f"{json.dumps(v)}")
        return tuple(items)

    if not isinstance(cfg, dict):
        raise ModelError("the config is not a JSON object")
    types = _need(cfg, "types", kind=list)
    for t in types:
        if not (isinstance(t, list) and len(t) == 2
                and all(isinstance(v, str) for v in t)):
            raise ModelError("an entry of 'types' is not a [label, score] "
                             f"pair of strings: {json.dumps(t)}")
    space = FiniteTypeSpace(
        types=tuple(AgentType(label, score) for label, score in types),
        scores=names("scores"),
        outcomes=names("outcomes"),
        prior=numbers(cfg, "prior", _type_from_key),
        score_values=(numbers(cfg, "score_values", str)
                      if "score_values" in cfg else None),
    )
    ck = _need(cfg, "cost", kind=dict)
    kind = _need(ck, "kind", 'in "cost"')
    if kind != "tabulated":
        raise ModelError(
            f"a finite instance needs a cost table, not a {kind!r} cost")
    costs = CostModel.tabulated(numbers(ck, "table", _pair_from_key,
                                        'in "cost"'))
    designer = DesignerPayoff(
        decision_value=numbers(cfg, "decision_value", _pair_from_key),
        loss_coefficient=_from_json(cfg["loss_coefficient"],
                                    "loss_coefficient", "at the top level")
        if "loss_coefficient" in cfg else None)
    return Instance(
        space=space, costs=costs,
        agent=AgentPayoff(numbers(cfg, "agent_value", _pair_from_key)),
        designer=designer,
        outside_option=(numbers(cfg, "outside_option", _type_from_key)
                        if "outside_option" in cfg else {}))


def save_instance(inst: Instance, path) -> None:
    write_json(path, instance_to_config(inst))


def load_instance(path) -> Instance:
    with open(path) as fh:
        return instance_from_config(json.load(fh))
