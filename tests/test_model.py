import json
import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoremech.model import (
    AgentPayoff,
    AgentType,
    CostModel,
    DesignerPayoff,
    FiniteTypeSpace,
    Instance,
    ModelError,
    ScoreBasedRule,
    college_instance,
    format_number,
    instance_from_config,
    instance_to_config,
    parse_number,
    require_gamma,
    validate,
    validate_mechanism,
)

from conftest import random_instance


def test_college_instance_is_valid(college2):
    assert validate(college2.space, college2.costs, college2.designer,
                    college2.agent) == []


def test_prior_not_normalized(college2):
    space = college2.space
    bad_prior = dict(space.prior)
    bad_prior[space.types[0]] = F(3, 20)  # total 0.9
    bad = FiniteTypeSpace(types=space.types, scores=space.scores,
                          outcomes=space.outcomes, prior=bad_prior)
    problems = validate(bad, college2.costs, college2.designer)
    assert any("prior not normalized" in p for p in problems)


def test_own_score_cost_nonzero(college2):
    t1 = AgentType("F", "sL")
    table = dict(college2.costs.table)
    table[("sL", t1)] = F(3, 10)
    problems = validate(college2.space, CostModel.tabulated(table),
                        college2.designer)
    assert any("own-score cost nonzero" in p for p in problems)


def test_negative_cost_and_missing_entry(college2):
    t1 = AgentType("F", "sL")
    table = dict(college2.costs.table)
    table[("sH", t1)] = F(-1)
    problems = validate(college2.space, CostModel.tabulated(table),
                        college2.designer)
    assert any("negative cost" in p for p in problems)
    del table[("sH", t1)]
    problems = validate(college2.space, CostModel.tabulated(table),
                        college2.designer)
    assert any("missing cost entry" in p for p in problems)


@pytest.mark.parametrize("field,value,problem", [
    ("prior", float("nan"), "prior mass at F:sL is nan"),
    ("cost", float("inf"), "cost at (sH, F:sL) is inf"),
    ("agent", float("-inf"), "agent value at (admit, F:sL) is -inf"),
    ("designer", float("nan"), "decision value at (admit, F:sL) is nan"),
    ("loss", float("inf"), "loss coefficient inf must be in [0, inf)"),
    ("loss", float("nan"), "loss coefficient nan must be in [0, inf)")],
    ids=["prior-nan", "cost-inf", "agent-minus-inf", "designer-nan",
         "loss-inf", "loss-nan"])
def test_non_finite_numbers_are_listed(college2, field, value, problem):
    """Each comparison the other checks make is False for NaN, so NaN and
    the infinities are listed on their own."""
    t1 = AgentType("F", "sL")
    space, costs = college2.space, college2.costs
    agent, designer = college2.agent, college2.designer
    if field == "prior":
        space = FiniteTypeSpace(space.types, space.scores, space.outcomes,
                                {**space.prior, t1: value})
    elif field == "cost":
        costs = CostModel.tabulated({**costs.table, ("sH", t1): value})
    elif field == "agent":
        agent = AgentPayoff({**agent.value, ("admit", t1): value})
    elif field == "designer":
        designer = DesignerPayoff({**designer.decision_value,
                                   ("admit", t1): value},
                                  designer.loss_coefficient)
    else:
        designer = DesignerPayoff(designer.decision_value, value)
    assert validate(space, costs, designer, agent) == [problem]


@pytest.mark.parametrize("costs", [
    CostModel.linear(2.0, (-2.0, 1.0)), CostModel.quadratic(2.0, (1.0, 3.0)),
    CostModel(kind="tabulated")], ids=["linear", "quadratic", "no-table"])
def test_finite_instance_needs_a_cost_table(college2, costs):
    assert validate(college2.space, costs, college2.designer) == [
        "a finite instance needs a cost table"]


def test_config_with_a_parametric_cost_is_refused(college2):
    message = "a finite instance needs a cost table, not a 'linear' cost"
    cfg = instance_to_config(college2)
    cfg["cost"] = {"kind": "linear", "gamma": 4, "domain": [-2, 1]}
    with pytest.raises(ModelError, match=message):
        instance_from_config(cfg)
    parametric = Instance(college2.space, CostModel.linear(4.0, (-2.0, 1.0)),
                          college2.agent, college2.designer)
    with pytest.raises(ModelError, match=message):
        instance_to_config(parametric)


def test_config_roundtrip_exact(college2):
    cfg = instance_to_config(college2)
    back = instance_from_config(json.loads(json.dumps(cfg)))
    assert back.space == college2.space
    assert back.costs == college2.costs
    assert back.agent == college2.agent
    assert back.designer == college2.designer


def test_config_roundtrip_floats():
    rng = random.Random(5)
    t = AgentType("x", "a0")
    space = FiniteTypeSpace(types=(t,), scores=("a0", "a1"),
                            outcomes=("no", "yes"), prior={t: 1.0},
                            score_values={"a0": -0.25, "a1": 1.75})
    costs = CostModel.tabulated({("a0", t): 0.0,
                                 ("a1", t): rng.random() * 3})
    agent = AgentPayoff.unit_approval(space, "yes")
    designer = DesignerPayoff(
        decision_value={("yes", t): rng.random(), ("no", t): 0.0},
        loss_coefficient=0.125)
    inst = Instance(space=space, costs=costs, agent=agent, designer=designer,
                    outside_option={t: 0.0})
    back = instance_from_config(
        json.loads(json.dumps(instance_to_config(inst))))
    assert back.space == inst.space
    assert back.costs.table == inst.costs.table
    assert back.designer.decision_value == inst.designer.decision_value
    assert back.outside_option == inst.outside_option


@settings(max_examples=60, deadline=None)
@given(num=st.integers(-10**9, 10**9), den=st.integers(1, 10**6),
       x=st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_number_serialization_is_lossless(num, den, x):
    q = F(num, den)
    # text codec: exact for Fractions and ints, 12 digits for reals
    for exact in (q, num):
        back = parse_number(format_number(exact))
        assert back == exact and isinstance(back, F)
    g = gcd(num, den)
    assert format_number(q) == f"{num // g}/{den // g}"
    assert format_number(x) == format(x, ".12g")
    assert parse_number(format_number(x)) == float(format(x, ".12g"))
    # JSON config: Fractions as "p/q" strings, floats as full-precision
    # JSON numbers
    inst = college_instance(internalize_costs=True)
    t = inst.space.types[0]
    inst = Instance(inst.space, inst.costs, inst.agent, DesignerPayoff(
        inst.designer.decision_value, loss_coefficient=q),
        outside_option={t: x})
    cfg = json.loads(json.dumps(instance_to_config(inst)))
    assert isinstance(cfg["loss_coefficient"], str)
    back = instance_from_config(cfg)
    assert back.designer.loss_coefficient == q
    assert isinstance(back.designer.loss_coefficient, F)
    assert back.outside_option[t] == x
    assert isinstance(back.outside_option[t], float)


@pytest.mark.parametrize("text, exact", [
    ("3", F(3)), ("-3", F(-3)), ("+3", F(3)), ("+1/2", F(1, 2)),
    ("-1/2", F(-1, 2))])
def test_parse_number_reads_signed_integers_and_ratios_exactly(text, exact):
    back = parse_number(text)
    assert back == exact and isinstance(back, F)


@pytest.mark.parametrize("text", ["1/0", "-3/0", "0/0"])
def test_parse_number_rejects_zero_denominator(text):
    with pytest.raises(ModelError, match="zero denominator"):
        parse_number(text)


def test_config_reads_decimal_strings_as_floats(college2):
    cfg = instance_to_config(college2)
    cfg["loss_coefficient"] = "0.5"
    cfg["prior"] = {k: "1/4" for k in cfg["prior"]}
    back = instance_from_config(cfg)
    assert back.designer.loss_coefficient == 0.5
    assert isinstance(back.designer.loss_coefficient, float)
    assert set(back.space.prior.values()) == {F(1, 4)}


def _perturb(rng, inst: Instance):
    """Break exactly one invariant; returns the damaged pieces."""
    space, costs, designer = inst.space, inst.costs, inst.designer
    kind = rng.choice(["prior_mass", "prior_negative", "own_cost",
                       "negative_cost", "missing_cost", "missing_value"])
    t = rng.choice(space.types)
    if kind == "prior_mass":
        prior = dict(space.prior)
        prior[t] = prior[t] + F(1, 8)
        space = FiniteTypeSpace(space.types, space.scores, space.outcomes,
                                prior)
    elif kind == "prior_negative":
        prior = dict(space.prior)
        other = space.types[0]
        prior[other] = F(-1, 8)
        space = FiniteTypeSpace(space.types, space.scores, space.outcomes,
                                prior)
    elif kind == "own_cost":
        table = dict(costs.table)
        table[(t.score, t)] = F(1, 3)
        costs = CostModel.tabulated(table)
    elif kind == "negative_cost":
        a = rng.choice([a for a in space.scores if a != t.score])
        table = dict(costs.table)
        table[(a, t)] = F(-1, 2)
        costs = CostModel.tabulated(table)
    elif kind == "missing_cost":
        a = rng.choice(space.scores)
        table = dict(costs.table)
        del table[(a, t)]
        costs = CostModel.tabulated(table)
    else:
        dv = dict(designer.decision_value)
        del dv[(space.outcomes[0], t)]
        designer = DesignerPayoff(decision_value=dv,
                                  loss_coefficient=designer.loss_coefficient)
    return space, costs, designer


def test_random_invariant_breaks_are_always_caught():
    rng = random.Random(31415)
    for _ in range(120):
        inst = random_instance(rng)
        assert validate(inst.space, inst.costs, inst.designer,
                        inst.agent) == []
        space, costs, designer = _perturb(rng, inst)
        assert validate(space, costs, designer) != []


@pytest.mark.parametrize("gamma", [0, -1.0, float("nan"), None])
def test_parametric_gamma_must_be_positive(gamma):
    costs = CostModel(kind="linear", gamma=gamma, domain=(-2.0, 1.0))
    with pytest.raises(ModelError,
                       match=r"parametric cost model requires gamma > 0"):
        require_gamma(costs)


def test_tabulated_cost_has_no_gamma_and_no_raw_cost(college2):
    with pytest.raises(ModelError) as caught:
        require_gamma(college2.costs)
    assert str(caught.value) == ("need a linear or quadratic cost model, "
                                 "got 'tabulated'")
    with pytest.raises(ModelError) as caught:
        college2.costs.raw_cost("sH", AgentType("F", "sL"))
    assert str(caught.value) == ("raw_cost is only defined for parametric "
                                 "kinds")


def test_score_rule_refuses_a_score_off_its_table():
    rule = ScoreBasedRule({("admit", "sL"): F(1), ("reject", "sL"): F(0)})
    with pytest.raises(ModelError) as caught:
        rule.q("admit", "sH")
    assert str(caught.value) == "score rule undefined at ('admit', 'sH')"


def test_validate_names_duplicate_types_scores_and_outcomes(college2):
    space = college2.space
    twice = FiniteTypeSpace(space.types + space.types[:1],
                            space.scores + space.scores[:1],
                            space.outcomes + space.outcomes[:1], space.prior)
    assert validate(twice, college2.costs, college2.designer,
                    college2.agent)[:3] == [
        "duplicate types", "duplicate scores", "duplicate outcomes"]


def test_infinite_gamma_is_a_valid_parametric_cost():
    costs = CostModel.quadratic(float("inf"), (-2.0, 1.0))
    assert require_gamma(costs) == float("inf")


@pytest.mark.parametrize("tiny,flagged", [(F(1, 10**13), True),
                                          (1e-13, False)])
def test_validate_mechanism_support_rule(college2, menu_mechanism, tiny,
                                         flagged):
    """An exact rho counts on support when above 0, a float one above
    SUPPORT_TOL; a q undefined there is flagged in the first case only."""
    from scoremech.model import FiniteMechanism
    t3 = AgentType("NF", "sH")
    rec = dict(menu_mechanism.recommendation)
    rec[("sL", t3)], rec[("sH", t3)] = tiny, 1 - tiny
    dec = {k: v for k, v in menu_mechanism.decision.items()
           if k[1:] != ("sL", t3)}
    expected = [f"q undefined on support at (sL, {t3})"] if flagged else []
    assert validate_mechanism(college2.space,
                              FiniteMechanism(dec, rec)) == expected


@pytest.mark.parametrize("eps,flagged", [(2.0**-52, False), (1e-9, True),
                                         (F(1, 10**13), True),
                                         (float("nan"), True)])
def test_validate_mechanism_unit_range(college2, menu_mechanism, eps,
                                       flagged):
    """A float rho or q may leave [0, 1] by solver round-off (up to the
    normalization tolerance); an exact one may not leave it at all."""
    from scoremech.model import FiniteMechanism
    t3 = AgentType("NF", "sH")
    one = 1.0 if isinstance(eps, float) else F(1)
    rec = dict(menu_mechanism.recommendation)
    rec[("sL", t3)], rec[("sH", t3)] = -eps, one + eps
    dec = dict(menu_mechanism.decision)
    dec[("admit", "sH", t3)], dec[("reject", "sH", t3)] = one + eps, -eps
    expected = [f"rho(sL|{t3}) = {-eps} outside [0, 1]",
                f"rho(sH|{t3}) = {one + eps} outside [0, 1]",
                f"q(admit|sH,{t3}) = {one + eps} outside [0, 1]",
                f"q(reject|sH,{t3}) = {-eps} outside [0, 1]"]
    assert sorted(validate_mechanism(college2.space, FiniteMechanism(
        dec, rec))) == (sorted(expected) if flagged else [])


def test_validate_mechanism_flags_bad_rows(college2, menu_mechanism):
    assert validate_mechanism(college2.space, menu_mechanism) == []
    t1 = AgentType("F", "sL")
    rec = dict(menu_mechanism.recommendation)
    rec[("sL", t1)] = F(1, 2)  # sums to 5/4 now
    from scoremech.model import FiniteMechanism
    bad = FiniteMechanism(decision=menu_mechanism.decision,
                          recommendation=rec)
    assert any("sums to" in p for p in validate_mechanism(college2.space, bad))

    rec2 = {k: v for k, v in menu_mechanism.recommendation.items()}
    dec2 = {k: v for k, v in menu_mechanism.decision.items()
            if not (k[1] == "sL" and k[2] == t1)}
    undefined = FiniteMechanism(decision=dec2, recommendation=rec2)
    assert any("undefined on support" in p
               for p in validate_mechanism(college2.space, undefined))


def test_cost_model_dispatch():
    lin = CostModel.linear(4.0, (-2.0, 1.0))
    assert lin.cost(1.0, -0.5) == pytest.approx(1.5 / 4.0)
    quad = CostModel.quadratic(4.0, (-2.0, 1.0))
    assert quad.cost(1.0, -0.5) == pytest.approx(2.25 / 4.0)
    with pytest.raises(ModelError):
        CostModel(kind="cubic")
    t = AgentType("F", "sL")
    tab = CostModel.tabulated({("sL", t): 0})
    with pytest.raises(ModelError):
        tab.cost("sH", t)


def test_score_value_requires_numeric_metadata(college2):
    with pytest.raises(ModelError):
        college2.space.score_value("sL")
