import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from scoremech.audit import (
    _grid_menus,
    audit_ic,
    best_response_continuous,
    best_response_finite,
    best_response_score_rule,
    brute_force_optimum,
)
from scoremech.continuous import (
    Triangular,
    TruncatedExponential,
    Uniform,
    solve_continuous,
)
from scoremech.finite import solve_drm
from scoremech.model import (
    AgentPayoff,
    AgentType,
    CostModel,
    DesignerPayoff,
    FiniteMechanism,
    FiniteTypeSpace,
    Instance,
    ModelError,
    ScoreBasedRule,
)

from conftest import random_instance

T1, T2, T3, T4 = (AgentType("F", "sL"), AgentType("NF", "sL"),
                  AgentType("NF", "sH"), AgentType("F", "sH"))


# ---------------------------------------------------------------------------
# best responses
# ---------------------------------------------------------------------------

def test_best_response_t1_is_quarter(college2, menu_mechanism):
    """t1 and t2 are mutually indifferent at value 1/4."""
    report, plan, value = best_response_finite(
        college2.space, college2.costs, college2.agent, menu_mechanism, T1)
    assert value == F(1, 4)
    assert report == T1  # ties break toward the truth
    # mimicking t2 achieves the same value
    from scoremech.audit import _deviation_value
    dev, _ = _deviation_value(college2.space, college2.costs, college2.agent,
                              menu_mechanism, T1, T2, 0)
    assert dev == F(1, 4)


def test_best_response_t3_truthful_maximum(college2, menu_mechanism):
    report, plan, value = best_response_finite(
        college2.space, college2.costs, college2.agent, menu_mechanism, T3)
    assert report == T3
    assert value == F(1)
    assert plan == {"sH": "obey"}


def test_best_response_with_universal_approval(college2):
    decision = {}
    recommendation = {}
    for t in college2.space.types:
        for a in college2.space.scores:
            decision[("admit", a, t)] = F(1)
            decision[("reject", a, t)] = F(0)
        recommendation[(t.score, t)] = F(1)
        for a in college2.space.scores:
            recommendation.setdefault((a, t), F(0))
    mech = FiniteMechanism(decision=decision, recommendation=recommendation)
    for t in college2.space.types:
        report, plan, value = best_response_finite(
            college2.space, college2.costs, college2.agent, mech, t)
        assert value == F(1)
        assert report == t  # zero-cost natural score already optimal


def test_score_rule_tie_breaks_to_natural():
    """The separating test leaves a low type exactly indifferent."""
    costs = CostModel.tabulated({
        ("sL", T1): F(0), ("sH", T1): F(1),
        ("sL", T2): F(0), ("sH", T2): F(1),
        ("sL", T3): F(1), ("sH", T3): F(0),
        ("sL", T4): F(1), ("sH", T4): F(0)})
    approval = {"sL": F(0), "sH": F(1)}
    best, value = best_response_score_rule(["sL", "sH"], costs, approval, T1)
    assert (best, value) == ("sL", F(0))


def test_score_rule_all_reject_keeps_natural():
    costs = CostModel.tabulated({("sL", T1): F(0), ("sH", T1): F(1)})
    best, value = best_response_score_rule(
        ["sL", "sH"], costs, {"sL": F(0), "sH": F(0)}, T1)
    assert (best, value) == ("sL", F(0))


def test_score_rule_against_continuous_solution():
    """Sampling the linear solution to a 200-point rule reproduces U(t).

    The score-based allocation pays p* at the top score, the interim
    probability of the self-submitting negative type below zero, and zero
    on the unused scores in [0, s_max)."""
    dist = Uniform(-2.0, 1.0)
    sol = solve_continuous(dist, CostModel.linear(4.0, (-2.0, 1.0)))
    grid = list(np.linspace(-2.0, 1.0, 200))

    def alloc(a):
        if a == grid[-1]:
            return sol.p_star
        if a < 0.0:
            return max(sol.p_star - (1.0 - a) / 4.0, 0.0)
        return 0.0

    approval = {a: alloc(a) for a in grid}
    costs = CostModel.linear(4.0, (-2.0, 1.0))
    for t in (0.0, 0.25, 0.6, 1.0):
        best, value = best_response_score_rule(grid, costs, approval, t)
        assert best == grid[-1]  # the top score
        assert value == pytest.approx(sol.p_star - (1.0 - t) / 4.0,
                                      abs=1e-9)
        assert value == pytest.approx(sol.U(t), abs=1e-9)
    # a negative type keeps its natural score and its interim probability
    t_neg = grid[66]
    assert t_neg < 0
    best, value = best_response_score_rule(grid, costs, approval, t_neg)
    assert best == t_neg
    assert value == pytest.approx(sol.U(t_neg), abs=1e-9)


def test_score_rule_accepts_rule_objects():
    rule = ScoreBasedRule(decision={("admit", "sL"): F(1, 2),
                                    ("reject", "sL"): F(1, 2)})
    costs = CostModel.tabulated({("sL", T1): F(0)})
    with pytest.raises(ModelError):
        best_response_score_rule(["sL"], costs, rule, T1)
    best, value = best_response_score_rule(["sL"], costs, rule, T1,
                                           approve="admit")
    assert (best, value) == ("sL", F(1, 2))


# ---------------------------------------------------------------------------
# audit_ic
# ---------------------------------------------------------------------------

def test_menu_mechanism_audits_clean(college2, menu_mechanism):
    report = audit_ic(college2.space, college2.costs, college2.agent,
                      menu_mechanism)
    assert report.passes
    assert report.max_tt_violation == 0
    assert report.max_pc_violation == 0


def test_audit_detects_constructed_violation(college2, menu_mechanism):
    """Granting approval at the low score in t2's rule tempts t1."""
    decision = dict(menu_mechanism.decision)
    decision[("admit", "sL", T2)] = F(1)
    decision[("reject", "sL", T2)] = F(0)
    tempted = FiniteMechanism(decision=decision,
                              recommendation=menu_mechanism.recommendation)
    report = audit_ic(college2.space, college2.costs, college2.agent,
                      tempted)
    assert not report.passes
    assert report.max_tt_violation == pytest.approx(0.75)  # 1 vs U(t1)=1/4


def test_audit_detects_pc_violation(college2, menu_mechanism):
    report = audit_ic(college2.space, college2.costs, college2.agent,
                      menu_mechanism,
                      outside_option={T2: F(1, 2)})
    assert report.max_pc_violation == pytest.approx(0.25)  # cont 1/4 < 1/2


def test_lp_output_always_audits_clean(college2):
    sol, mech = solve_drm(college2, mode="exact")
    report = audit_ic(college2.space, college2.costs, college2.agent, mech)
    assert report.passes and report.max_tt_violation == 0


def test_float_lp_output_audits_within_1e9(college2):
    """Extracted float-mode optima stay inside the audit tolerance."""
    from scoremech.continuous import Uniform, discretize
    from scoremech.finite import build_drm_lp, extract_mechanism
    from scoremech.lpcore import solve_lp
    from scoremech.model import validate_mechanism

    _, mech = solve_drm(college2, mode="float")
    assert validate_mechanism(college2.space, mech) == []
    assert audit_ic(college2.space, college2.costs, college2.agent,
                    mech).passes

    inst = discretize(Uniform(-2.0, 1.0),
                      CostModel.linear(4.0, (-2.0, 1.0)), 13)
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
    mech = extract_mechanism(inst.space, solve_lp(lp, mode="float"))
    assert validate_mechanism(inst.space, mech) == []
    report = audit_ic(inst.space, inst.costs, inst.agent, mech)
    assert report.passes and report.max_tt_violation <= 1e-9


def test_audit_report_serialization(tmp_path, college2, menu_mechanism):
    report = audit_ic(college2.space, college2.costs, college2.agent,
                      menu_mechanism)
    cfg = report.to_config()
    assert cfg["passes"] is True
    assert set(cfg["best_responses"]) == {str(t)
                                          for t in college2.space.types}
    report.save(tmp_path / "audit.json")
    assert (tmp_path / "audit.json").read_text().startswith("{")


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def test_brute_force_matches_lp_on_college(college2):
    """Grid search with step 1/16 attains the LP optimum exactly.

    The optimum uses only 0/1 probabilities, and the illustrative menu
    mechanism's probabilities {0, 1/4, 3/4, 1} are also on the grid, so the
    brute-force value is sandwiched: 69/32 <= value = LP optimum."""
    value = brute_force_optimum(college2.space, college2.costs,
                                college2.agent, college2.designer, F(1, 16))
    sol, _ = solve_drm(college2, mode="exact")
    assert value == sol.value == F(53, 24)
    assert value >= F(69, 32)  # the menu mechanism is grid-feasible


@pytest.mark.parametrize("scenario,value", [("college1", F(9, 4)),
                                            ("college2", F(53, 24))])
def test_brute_force_pins_menus_and_optimum_at_step_one_eighth(
        request, scenario, value):
    """At step 1/8 every college type has 73 PC-feasible menus, and the
    search attains the LP optimum.  A menu dropped or enumerated twice
    changes a count; a row left out of a menu's values moves the optimum."""
    inst = request.getfixturevalue(scenario)
    grid = [F(i, 8) for i in range(9)]
    counts = [len(_grid_menus(inst.space, inst.costs, inst.agent,
                              inst.designer, t, grid, {}, 1e-9)[0])
              for t in inst.space.types]
    assert counts == [73] * 4
    assert brute_force_optimum(inst.space, inst.costs, inst.agent,
                               inst.designer, F(1, 8)) == value


def test_brute_force_single_type_matches_lp():
    t = AgentType("only", "a0")
    space = FiniteTypeSpace(types=(t,), scores=("a0", "a1"),
                            outcomes=("no", "yes"), prior={t: F(1)})
    costs = CostModel.tabulated({("a0", t): F(0), ("a1", t): F(1, 2)})
    agent = AgentPayoff.unit_approval(space, "yes")
    designer = DesignerPayoff(decision_value={("yes", t): F(3),
                                              ("no", t): F(0)})
    inst = Instance(space=space, costs=costs, agent=agent, designer=designer)
    sol, _ = solve_drm(inst, mode="exact")
    value = brute_force_optimum(space, costs, agent, designer, F(1, 8))
    assert value == sol.value == F(3)


def test_brute_force_prohibitive_costs_fully_separate():
    """With falsification priced out, the designer approves positives only."""
    ta, tb = AgentType("lo", "a0"), AgentType("hi", "a1")
    space = FiniteTypeSpace(types=(ta, tb), scores=("a0", "a1"),
                            outcomes=("no", "yes"),
                            prior={ta: F(1, 2), tb: F(1, 2)})
    costs = CostModel.tabulated({("a0", ta): F(0), ("a1", ta): F(10),
                                 ("a1", tb): F(0), ("a0", tb): F(10)})
    agent = AgentPayoff.unit_approval(space, "yes")
    designer = DesignerPayoff(decision_value={
        ("yes", ta): F(-1), ("yes", tb): F(2),
        ("no", ta): F(0), ("no", tb): F(0)})
    value = brute_force_optimum(space, costs, agent, designer, F(1, 8))
    assert value == F(1)  # (0 + 2)/2: approve tb at its natural score


def test_brute_force_never_exceeds_lp_on_random_instances():
    rng = random.Random(60901)
    checked = 0
    for _ in range(50):
        inst = random_instance(rng, max_types=3, n_scores=2)
        sol, _ = solve_drm(inst, mode="exact")
        value = brute_force_optimum(inst.space, inst.costs, inst.agent,
                                    inst.designer, F(1, 4))
        assert value <= sol.value
        checked += 1
    assert checked == 50


def test_brute_force_guards_instance_size(college2):
    big = FiniteTypeSpace(
        types=tuple(AgentType(f"t{i}", "a0") for i in range(5)),
        scores=("a0",), outcomes=("no", "yes"),
        prior={AgentType(f"t{i}", "a0"): F(1, 5) for i in range(5)})
    with pytest.raises(ModelError):
        brute_force_optimum(big, college2.costs, college2.agent,
                            college2.designer, F(1, 4))
    with pytest.raises(ModelError):
        brute_force_optimum(college2.space, college2.costs, college2.agent,
                            college2.designer, F(1, 32))


def test_brute_force_refuses_an_unnormalized_prior(college2):
    """Every type at 1/2 would double the optimum to 53/12."""
    space = college2.space
    doubled = FiniteTypeSpace(types=space.types, scores=space.scores,
                              outcomes=space.outcomes,
                              prior={t: F(1, 2) for t in space.types})
    with pytest.raises(ModelError, match=r"invalid instance: prior not "
                                         r"normalized \(sums to 2\.0\)"):
        brute_force_optimum(doubled, college2.costs, college2.agent,
                            college2.designer, F(1, 2))


def test_best_response_is_monotone_in_the_mechanism():
    """Pointwise raising approval never lowers any type's best response."""
    rng = random.Random(777)
    for _ in range(40):
        inst = random_instance(rng, max_types=3, n_scores=2)
        space = inst.space
        decision = {}
        recommendation = {}
        for t in space.types:
            weights = [F(rng.randint(0, 3)) for _ in space.scores]
            if sum(weights) == 0:
                weights[0] = F(1)
            total = sum(weights)
            for a, w in zip(space.scores, weights):
                recommendation[(a, t)] = w / total
                q = F(rng.randint(0, 4), 4)
                decision[("yes", a, t)] = q
                decision[("no", a, t)] = 1 - q
        mech = FiniteMechanism(decision=decision,
                               recommendation=recommendation)
        raised = dict(decision)
        for t in space.types:
            for a in space.scores:
                bump = F(rng.randint(0, 2), 8)
                q = min(F(1), decision[("yes", a, t)] + bump)
                raised[("yes", a, t)] = q
                raised[("no", a, t)] = 1 - q
        mech_up = FiniteMechanism(decision=raised,
                                  recommendation=recommendation)
        for t in space.types:
            _, _, v = best_response_finite(space, inst.costs, inst.agent,
                                           mech, t)
            _, _, v_up = best_response_finite(space, inst.costs, inst.agent,
                                              mech_up, t)
            assert v_up >= v


def test_best_response_continuous_flags_planted_violation():
    sol = solve_continuous(Uniform(-2.0, 1.0),
                           CostModel.linear(4.0, (-2.0, 1.0)))
    # lie about U: pretend the agent gets nothing, deviations must show up
    broken = type(sol)(
        regime=sol.regime, cost_kind=sol.cost_kind, gamma=sol.gamma,
        dist=sol.dist, t0=sol.t0, t_star=sol.t_star, t_dagger=sol.t_dagger,
        p_star=sol.p_star, a_star=sol.a_star, C=sol.C,
        U=lambda t: 0.0, Q=sol.Q, C_ic=sol.C_ic)
    gain, _ = best_response_continuous(
        broken, np.linspace(-2, 1, 50), np.linspace(-2, 1, 50))
    assert gain > 0.1


def _best_response_loop(solution, types, reports):
    """Reference: the double loop, first strict improvement wins."""
    worst = (-float("inf"), (None, None))
    for t in types:
        u_truth = solution.U(t)
        for rp in reports:
            a = solution.a_star(rp)
            if solution.cost_kind == "linear":
                c = abs(a - t) / solution.gamma
            else:
                c = (a - t) ** 2 / solution.gamma
            gain = solution.Q(rp) - c - u_truth
            if gain > worst[0]:
                worst = (gain, (t, rp))
    return worst


@pytest.mark.parametrize("kind, gamma", [
    ("linear", 4.0), ("quadratic", 4.0), ("linear", 0.5),
    ("quadratic", 0.5)],
    ids=["linear", "quadratic", "linear-first-best",
         "quadratic-first-best"])
def test_best_response_continuous_matches_double_loop(kind, gamma):
    make = CostModel.linear if kind == "linear" else CostModel.quadratic
    for dist in (Uniform(-2.0, 1.0), TruncatedExponential(-2.0, 1.0),
                 Triangular(-2.0, 1.0, -0.5)):
        sol = solve_continuous(dist, make(gamma, (dist.s_min, dist.s_max)))
        assert sol.regime == ("interior" if gamma > 1.0 else "first_best")
        types = np.linspace(dist.s_min, dist.s_max, 37)
        reports = np.linspace(dist.s_min, dist.s_max, 29)
        assert (best_response_continuous(sol, types, reports)
                == _best_response_loop(sol, types, reports))


def _flat_solution(q_of, cost_kind="linear"):
    """A solution with U = 0, a*(t) = t and the given Q, for planting
    exact ties and NaNs in the gain table."""
    sol = solve_continuous(Uniform(-2.0, 1.0),
                           CostModel.linear(4.0, (-2.0, 1.0)))
    return type(sol)(
        regime=sol.regime, cost_kind=cost_kind, gamma=1.0, dist=sol.dist,
        t0=sol.t0, t_star=sol.t_star, t_dagger=sol.t_dagger,
        p_star=sol.p_star, a_star=lambda t: t, C=sol.C, U=lambda t: 0.0,
        Q=q_of, C_ic=sol.C_ic)


@pytest.mark.parametrize("cost_kind", ["linear", "quadratic"])
def test_best_response_continuous_tie_goes_to_first_pair(cost_kind):
    # gain(t, r) = Q(r) - c(r, t); Q is 1 at r = 0 and r = 1 only, so the
    # pairs (0, 0) and (1, 1) tie at gain 1 and (0, 0) comes first
    sol = _flat_solution(lambda r: 1.0 if r in (0.0, 1.0) else 0.0,
                         cost_kind)
    grid = [-1.0, 0.0, 1.0]
    expected = (1.0, (0.0, 0.0))
    assert _best_response_loop(sol, grid, grid) == expected
    assert best_response_continuous(sol, grid, grid) == expected
    # the same tie seen with the types in the other order
    assert best_response_continuous(sol, grid[::-1], grid) == (1.0, (1.0, 1.0))


def test_best_response_continuous_empty_and_nan_grids():
    sol = solve_continuous(Uniform(-2.0, 1.0),
                           CostModel.quadratic(4.0, (-2.0, 1.0)))
    nothing = (-float("inf"), (None, None))
    assert best_response_continuous(sol, [], []) == nothing
    assert best_response_continuous(sol, [], [0.5]) == nothing
    assert best_response_continuous(sol, np.linspace(-2, 1, 5), []) == nothing
    assert _best_response_loop(sol, [], [0.5]) == nothing
    nan = _flat_solution(lambda r: math.nan)
    assert best_response_continuous(nan, [0.0, 1.0], [0.0, 1.0]) == nothing
    # a NaN gain never wins, even ahead of the best finite one
    some_nan = _flat_solution(lambda r: math.nan if r == 0.0 else 0.5)
    grid = [0.0, 1.0]
    assert best_response_continuous(some_nan, grid, grid) == (0.5, (1.0, 1.0))
    assert _best_response_loop(some_nan, grid, grid) == (0.5, (1.0, 1.0))
