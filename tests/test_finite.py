import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from scoremech import finite, lpcore
from scoremech.finite import (
    FLOAT_TT_TOL,
    SolveError,
    build_drm_lp,
    derandomize_decision_rules,
    derive_drm,
    evaluate_mechanism,
    extract_mechanism,
    joint_law_drm,
    joint_law_indirect,
    monotone_rebalance,
    read_mechanism_table,
    rebalance_mechanism,
    reduce_to_score_based,
    solve_drm,
    write_mechanism_table,
)
from scoremech.lpcore import LpSolution, dual_bound, solve_lp
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
    validate_mechanism,
)
from scoremech.audit import (
    audit_ic,
    best_response_score_rule,
    brute_force_optimum,
)

from conftest import random_instance, random_rational

T1, T2, T3, T4 = (AgentType("F", "sL"), AgentType("NF", "sL"),
                  AgentType("NF", "sH"), AgentType("F", "sH"))


def always_falsify_mechanism() -> FiniteMechanism:
    """t1 pools at the top score and burns all utility; t2 is rejected.

    This is the no-loss optimum of scenario 1 and, by direct expectation,
    evaluates to 53/24 under the scenario-2 objective.
    """
    one, zero = F(1), F(0)
    decision = {}
    for t, a, approve in ((T1, "sH", one), (T2, "sL", zero),
                          (T3, "sH", one), (T4, "sH", one)):
        decision[("admit", a, t)] = approve
        decision[("reject", a, t)] = one - approve
    recommendation = {("sH", T1): one, ("sL", T1): zero,
                      ("sL", T2): one, ("sH", T2): zero,
                      ("sH", T3): one, ("sL", T3): zero,
                      ("sH", T4): one, ("sL", T4): zero}
    return FiniteMechanism(decision=decision, recommendation=recommendation)


def _layout(space):
    """The exact full DRM LP's columns, spelled out here as a reference:
    (pairs, z, w), z[x, a, t] numbering (t, a, x) row-major, then
    w[a, t, t'] = n_z + pair * n_a + a over the pairs (t, t' != t)."""
    types, scores, outcomes = space.types, space.scores, space.outcomes
    pairs = [(t, tp) for t in types for tp in types if tp != t]
    z = {(x, a, t): (i * len(scores) + j) * len(outcomes) + k
         for i, t in enumerate(types) for j, a in enumerate(scores)
         for k, x in enumerate(outcomes)}
    w = {(a, t, tp): len(z) + p * len(scores) + j
         for p, (t, tp) in enumerate(pairs) for j, a in enumerate(scores)}
    return pairs, z, w


# ---------------------------------------------------------------------------
# the college instance: golden values
# ---------------------------------------------------------------------------

def test_scenario1_lp_value_is_first_best(college1):
    sol, mech = solve_drm(college1, mode="exact")
    assert sol.value == F(9, 4)
    assert sol.certified
    value, utilities, _ = evaluate_mechanism(
        college1.space, college1.costs, college1.agent, college1.designer,
        mech)
    assert value == F(9, 4)


def test_menu_mechanism_evaluates_to_69_32(college2, menu_mechanism):
    """Direct expectation of the illustrative menu mechanism."""
    value, utilities, costs = evaluate_mechanism(
        college2.space, college2.costs, college2.agent, college2.designer,
        menu_mechanism)
    assert value == F(69, 32)
    assert utilities == {T1: F(1, 4), T2: F(1, 4), T3: F(1), T4: F(1)}
    assert costs == {T1: F(3, 4), T2: F(0), T3: F(0), T4: F(0)}


def test_menu_mechanism_is_feasible_so_lp_dominates(college2,
                                                    menu_mechanism):
    """Substituting the menu mechanism into the LP certifies optimum >= 69/32."""
    lp = build_drm_lp(college2.space, college2.costs, college2.agent,
                      college2.designer)
    pairs, z, w = _layout(college2.space)
    x = [F(0)] * (len(z) + len(w))
    for t in college2.space.types:
        for a in college2.space.scores:
            r = menu_mechanism.rho(a, t)
            for xo in college2.space.outcomes:
                if (xo, a, t) in menu_mechanism.decision:
                    x[z[xo, a, t]] = r * menu_mechanism.q(xo, a, t)
    for (t, tp) in pairs:
        for a in college2.space.scores:
            mass = sum(x[z[xo, a, tp]]
                       for xo in college2.space.outcomes)
            gain = sum(x[z[xo, a, tp]] * college2.agent.v(xo, t)
                       for xo in college2.space.outcomes)
            x[w[a, t, tp]] = max(gain - college2.costs.cost(a, t) * mass,
                                 F(0))
    lhs = [0] * lp.n_rows
    for i, j, a in zip(lp.row.tolist(), lp.col.tolist(), lp.val.tolist()):
        lhs[i] += a * x[j]
    for total, rel, rhs in zip(lhs, lp.relations.tolist(), lp.rhs.tolist()):
        assert (total == rhs) if rel == "=" else (total >= rhs)
    feasible_value = sum(lp.objective[j] * x[j] for j in range(len(x)))
    assert feasible_value == F(69, 32)

    sol = solve_lp(lp, mode="exact")
    assert sol.value >= F(69, 32)


def test_scenario2_lp_optimum_is_53_24(college2):
    """The true optimum: the always-falsify mechanism dominates the menu.

    Oracle: direct expectation of `always_falsify_mechanism` equals
    (3 - 1/6 + 0 + 2 + 4)/4 = 53/24, it passes the incentive audit at zero
    tolerance, and the LP (independently certified by weak duality and by
    the grid brute force elsewhere) attains exactly that value.
    """
    mech = always_falsify_mechanism()
    value, utilities, _ = evaluate_mechanism(
        college2.space, college2.costs, college2.agent, college2.designer,
        mech)
    assert value == F(53, 24)
    assert utilities == {T1: F(0), T2: F(0), T3: F(1), T4: F(1)}
    report = audit_ic(college2.space, college2.costs, college2.agent, mech)
    assert report.passes and report.max_tt_violation == 0

    sol, opt = solve_drm(college2, mode="exact")
    assert sol.value == F(53, 24)
    assert sol.certified
    re_value, _, _ = evaluate_mechanism(
        college2.space, college2.costs, college2.agent, college2.designer,
        opt)
    assert re_value == sol.value
    assert audit_ic(college2.space, college2.costs, college2.agent,
                    opt).passes


def test_float_mode_matches_exact_on_college(college2):
    lp = build_drm_lp(college2.space, college2.costs, college2.agent,
                      college2.designer)
    assert abs(solve_lp(lp, "float").value - 53 / 24) < 1e-9


def _scaled_college(college2, k, m):
    """Scenario 2 with agent values and costs times k, decision values
    times m and the loss coefficient times m / k^2: every designer payoff,
    the optimum included, is m times the original, in exact Fractions."""
    def times(table, factor):
        return {key: v * factor for key, v in table.items()}

    return Instance(
        space=college2.space,
        costs=CostModel.tabulated(times(college2.costs.table, k)),
        agent=AgentPayoff(times(college2.agent.value, k)),
        designer=DesignerPayoff(
            times(college2.designer.decision_value, m),
            college2.designer.loss_coefficient * m / k**2))


@pytest.mark.parametrize("k, m, number", [(F(1000), F(1, 1000), float),
                                          (F(1, 1000), F(10**4), float),
                                          (F(10**5), F(1), float),
                                          (F(1), F(1, 10**8), float),
                                          (F(10**4), F(1, 10**4), float),
                                          (F(10**8), F(1), float),
                                          (F(1, 10**7), F(1), F),
                                          (F(1, 10**8), F(1), F)],
                         ids=["k1e3-m1e-3", "k1e-3-m1e4", "k1e5-m1",
                              "k1-m1e-8", "k1e4-m1e-4", "k1e8-m1",
                              "k1e-7-m1-fraction", "k1e-8-m1-fraction"])
def test_float_solve_is_invariant_to_payoff_scale(college2, k, m, number):
    """The payoff-scaling relation (ROADMAP 8(b)): the optimum becomes
    53/24 * m, exactly in exact mode.  In floats, badly scaled data still
    give certified optima of that value, through row generation and through
    the full LP, and an audited mechanism.  The unscaled HiGHS solve loses
    its certificate on the first case, so float mode must solve it again
    with HiGHS's scaling.  With Fraction data and tiny agent payoffs, the
    first solve's x misses rows by about 1e-8, which only the certificate's
    row residual check sees."""
    scaled = _scaled_college(college2, k, m)
    assert solve_drm(scaled, mode="exact")[0].value == F(53, 24) * m
    inst = _to_fractions(scaled, number)
    full = solve_lp(build_drm_lp(inst.space, inst.costs, inst.agent,
                                 inst.designer), "float")
    sol, mech = solve_drm(inst, mode="float")
    target = 53 / 24 * float(m)
    for s in (full, sol):
        assert s.certified
        assert abs(s.value - target) <= 1e-9 * target
    assert audit_ic(inst.space, inst.costs, inst.agent, mech).passes


def test_float_mode_rescales_only_uncertified_optima(college2, monkeypatch):
    """Float mode solves with Dantzig pricing, without presolve or HiGHS's
    scaling, and again with HiGHS's defaults only when that optimum fails
    its certificate, as with agent payoffs times 1e7."""
    seen = []
    solve = lpcore._solve_float

    def spy(lp, options):
        seen.append(options)
        return solve(lp, options)

    monkeypatch.setattr(lpcore, "_solve_float", spy)
    tuned = lpcore.HIGHS_OPTIONS
    for inst, expected in [(college2, [tuned]),
                           (_scaled_college(college2, F(10**7), F(1)),
                            [tuned, {}])]:
        seen.clear()
        lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
        sol = solve_lp(lp, "float")
        assert sol.certified
        assert abs(sol.value - 53 / 24) <= 1e-9 * 53 / 24
        assert seen == expected


@pytest.mark.parametrize("case", ["college2", "float-n4"])
def test_drm_lp_column_bounds_hold_on_the_feasible_set(college2, case):
    """Every column's ``upper`` is at least the column's exact maximum over
    the LP's rows, so the float certificate's bound is sound.  The float
    LP has dead and substituted cells, and most of its w bounds are
    attained."""
    from scoremech.continuous import Uniform, discretize

    inst = college2 if case == "college2" else discretize(
        Uniform(-2.0, 1.0), CostModel.linear(4.0, (-2.0, 1.0)), 4)
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
    assert len(lp.upper) == lp.n_vars
    for j in range(lp.n_vars):
        unit = np.zeros(lp.n_vars, object)
        unit[j] = 1
        probe = lpcore.LinearProgram(unit, lp.row, lp.col, lp.val,
                                     lp.relations, lp.rhs)
        assert solve_lp(probe, "exact").value <= lp.upper[j]


def test_safe_bound_holds_for_float_duals(college1, college2):
    """The float certificate's bound, on a float solve's dual and on that
    dual moved by 1e-6 (signs kept; y . b falls, so reduced costs turn
    positive), is at least the exact optimum of the same float LP: both
    colleges and random small instances."""
    rng = random.Random(11)
    for inst in [college1, college2] + [
            random_instance(rng, max_types=4, n_scores=3) for _ in range(12)]:
        inst = _to_fractions(inst, float)
        lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
        exact = solve_lp(lp, "exact").value
        y = solve_lp(lp, "float").dual
        moved = y + 1e-6 * np.where(lp.relations == lpcore.LESS, 1, -1)
        for dual in (y, moved):
            assert lpcore._safe_bound(lp, dual) >= exact


def test_float_solves_leak_no_warning(college2):
    """No float solve warns, whichever HiGHS options it passes."""
    inst = _to_fractions(college2, float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_lp(build_drm_lp(inst.space, inst.costs, inst.agent,
                                    inst.designer), "float")
        assert sol.certified
        assert solve_drm(inst, mode="float")[0].certified


def test_float_lp_leaves_no_mass_on_unaffordable_scores():
    """Solved by HiGHS without presolve and unscaled, this LP's optimum has
    a 2.9e-12 round-off mass on a reject-only lottery for t002 at s004, a
    score t002 could afford if approved (it costs 0.0068).  Were it kept,
    the audit would read that lottery's payoff -c as a 6.7e-3 ex-post
    participation violation; the float solve sets every column value below
    1e-9 to 0."""
    from scoremech.continuous import TruncatedExponential, discretize

    dist = TruncatedExponential(-1.9263909385713407, 1.00231812103833,
                                1.048250371240298)
    inst = discretize(dist, CostModel.quadratic(
        3.102846885221756, (dist.s_min, dist.s_max)), 16)
    sol = solve_lp(build_drm_lp(inst.space, inst.costs, inst.agent,
                                inst.designer), "float")
    mech = extract_mechanism(inst.space, sol)
    value, _, _ = evaluate_mechanism(inst.space, inst.costs, inst.agent,
                                     inst.designer, mech)
    assert sol.certified and abs(value - sol.value) <= 1e-7
    assert audit_ic(inst.space, inst.costs, inst.agent, mech).passes


def test_float_lp_snaps_round_off_mass():
    """perfbench finite_float seed 5, job float6-n24-uniform-quadratic.
    Without presolve, on the scaled rows, HiGHS leaves a 2.2e-12 mass on an
    approve-only lottery for t019 at s000, which costs t019 2.16; kept, the
    audit would read its payoff 1 - 2.16 as a 1.16 ex-post participation
    violation."""
    from scoremech.continuous import Uniform, discretize

    dist = Uniform(-2.0680791575283926, 1.0297146991431205)
    inst = discretize(dist, CostModel.quadratic(
        2.7832604510393417, (dist.s_min, dist.s_max)), 24)
    sol = solve_lp(build_drm_lp(inst.space, inst.costs, inst.agent,
                                inst.designer), "float")
    mech = extract_mechanism(inst.space, sol)
    value, _, _ = evaluate_mechanism(inst.space, inst.costs, inst.agent,
                                     inst.designer, mech)
    assert sol.certified and abs(value - sol.value) <= 1e-9
    assert audit_ic(inst.space, inst.costs, inst.agent, mech).passes


def test_positive_outside_option_respected(college2):
    """A reservation payoff for t2 forces U(t2) up and is audit-verified."""
    outside = {T2: F(1, 2)}
    inst = Instance(space=college2.space, costs=college2.costs,
                    agent=college2.agent, designer=college2.designer,
                    outside_option=outside)
    sol, mech = solve_drm(inst, mode="exact")
    _, utilities, _ = evaluate_mechanism(
        college2.space, college2.costs, college2.agent, college2.designer,
        mech)
    assert utilities[T2] >= F(1, 2)
    assert utilities[T1] >= F(1, 2)  # same natural score, mutual mimicry
    assert sol.value < F(53, 24)  # the reservation payoff costs the designer
    report = audit_ic(college2.space, college2.costs, college2.agent, mech,
                      outside_option=outside)
    assert report.passes


def test_single_type_no_binding_constraints():
    t = AgentType("only", "a0")
    space = FiniteTypeSpace(types=(t,), scores=("a0", "a1"),
                            outcomes=("no", "yes"), prior={t: F(1)})
    costs = CostModel.tabulated({("a0", t): F(0), ("a1", t): F(2)})
    agent = AgentPayoff.unit_approval(space, "yes")
    designer = DesignerPayoff(decision_value={("yes", t): F(5),
                                              ("no", t): F(0)})
    inst = Instance(space=space, costs=costs, agent=agent, designer=designer)
    sol, mech = solve_drm(inst, mode="exact")
    assert sol.value == F(5)
    assert mech.rho("a0", t) == F(1)  # mass on the natural score


# ---------------------------------------------------------------------------
# the array builder against the constraint families written out row by row
# ---------------------------------------------------------------------------

def _cell_class(inst, t, tp, a, presolve):
    """How the DRM LP treats deviation pair (t, tp) at score a: "dead"
    (gain <= 0 and outside(t) <= 0: w = 0, dropped), "substituted" (else
    when also gain >= tp's participation coefficient everywhere: w is the
    gain term itself) or "kept".  Only float LPs (``presolve``) drop or
    substitute; exact LPs keep every cell."""
    space, costs, agent = inst.space, inst.costs, inst.agent
    ubar = inst.outside_option.get(t, 0)
    gains = [agent.v(x, t) - costs.cost(a, t) for x in space.outcomes]
    gate = costs.cost(a, tp) + inst.outside_option.get(tp, 0)
    parts = [agent.v(x, tp) - gate for x in space.outcomes]
    if not presolve or ubar > 0:
        return "kept"
    if all(g <= 0 for g in gains):
        return "dead"
    if all(g >= p for g, p in zip(gains, parts)):
        return "substituted"
    return "kept"


def _reference_lp(inst, presolve=False):
    """Objective and rows of the DRM LP from a plain loop over the three
    constraint families of the finite module docstring (zeros dropped),
    with the float LP's cell classes when ``presolve``."""
    space, costs, agent, designer = (inst.space, inst.costs, inst.agent,
                                     inst.designer)
    pairs, z, _ = _layout(space)
    ubar = {t: inst.outside_option.get(t, 0) for t in space.types}
    cls = {(t, tp, a): _cell_class(inst, t, tp, a, presolve)
           for t, tp in pairs for a in space.scores}
    w = {}  # kept cells' w columns, in order after the z block
    for cell, c in cls.items():
        if c == "kept":
            w[cell] = len(z) + len(w)
    objective = [0] * (len(z) + len(w))
    rows = []
    for t in space.types:
        for a in space.scores:
            loss = designer.loss(costs.cost(a, t))
            for x in space.outcomes:
                objective[z[x, a, t]] = space.mass(t) * (
                    designer.dv(x, t) - loss)
    for t in space.types:
        rows.append(({z[x, a, t]: 1 for a in space.scores
                      for x in space.outcomes}, "=", 1))
    for t in space.types:
        for a in space.scores:
            gate = costs.cost(a, t) + ubar[t]
            rows.append(({z[x, a, t]: agent.v(x, t) - gate
                          for x in space.outcomes}, ">=", 0))
    for t, tp in pairs:
        row = {}
        for a in space.scores:
            c = costs.cost(a, t)
            for x in space.outcomes:
                row[z[x, a, t]] = agent.v(x, t) - c
            if cls[t, tp, a] == "kept":
                row[w[t, tp, a]] = -1
            elif cls[t, tp, a] == "substituted":
                for x in space.outcomes:
                    row[z[x, a, tp]] = -(agent.v(x, t) - c)
        rows.append((row, ">=", 0))
        for a in space.scores:
            if cls[t, tp, a] != "kept":
                continue
            c = costs.cost(a, t)
            row = {w[t, tp, a]: 1}
            for x in space.outcomes:
                row[z[x, a, tp]] = -(agent.v(x, t) - c)
            rows.append((row, ">=", 0))
            if ubar[t] != 0:
                row = {w[t, tp, a]: 1}
                for x in space.outcomes:
                    row[z[x, a, tp]] = -ubar[t]
                rows.append((row, ">=", 0))
    return objective, [({j: v for j, v in row.items() if v != 0}, rel, rhs)
                       for row, rel, rhs in rows]


def _to_fractions(inst, number=F):
    """The same instance with every number converted by ``number``:
    exact Fractions by default."""
    def conv(table):
        return {k: number(v) for k, v in table.items()}

    s = inst.space
    lam = inst.designer.loss_coefficient
    space = FiniteTypeSpace(types=s.types, scores=s.scores,
                            outcomes=s.outcomes, prior=conv(s.prior))
    return Instance(space=space, costs=CostModel.tabulated(
                        conv(inst.costs.table)),
                    agent=AgentPayoff(conv(inst.agent.value)),
                    designer=DesignerPayoff(
                        conv(inst.designer.decision_value),
                        None if lam is None else number(lam)),
                    outside_option=conv(inst.outside_option))


def _with_outside(inst, outside):
    return Instance(space=inst.space, costs=inst.costs, agent=inst.agent,
                    designer=inst.designer, outside_option=outside)


def _builder_instances():
    from scoremech.continuous import Uniform, discretize
    from scoremech.model import college_instance

    c2 = college_instance(internalize_costs=True)
    dist = Uniform(-2.0, 1.0)
    d3 = discretize(dist, CostModel.linear(4.0, (-2.0, 1.0)), 3)
    d4 = discretize(dist, CostModel.quadratic(3.0, (-2.0, 1.0)), 4)
    # 0.1: v - (c + 0.1) and v - c - 0.1 differ in the last bit somewhere
    d4_out = Instance(space=d4.space, costs=d4.costs, agent=d4.agent,
                      designer=d4.designer,
                      outside_option={d4.space.types[1]: 0.1})
    # a negative outside option keeps the substitution, a positive one not
    t0, _, t2, t3 = d4.space.types
    d4_mixed = Instance(space=d4.space, costs=d4.costs, agent=d4.agent,
                        designer=d4.designer,
                        outside_option={t0: -0.3, t2: 0.1, t3: -0.1})
    return {
        "college1": college_instance(internalize_costs=False),
        "college2": c2,
        "college2-outside": Instance(
            space=c2.space, costs=c2.costs, agent=c2.agent,
            designer=c2.designer, outside_option={T2: F(1, 2), T3: F(1, 3)}),
        "n3-float": d3, "n3-fraction": _to_fractions(d3),
        "n4-float": d4, "n4-fraction": _to_fractions(d4),
        "n4-float-outside": d4_out,
        "n4-fraction-outside": _to_fractions(d4_out),
        "n4-float-mixed-outside": d4_mixed,
        "n4-fraction-mixed-outside": _to_fractions(d4_mixed),
    }


@pytest.mark.parametrize("name", sorted(_builder_instances()))
def test_array_builder_matches_row_by_row_families(name):
    inst = _builder_instances()[name]
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer,
                      inst.outside_option)
    exact = "float" not in name
    objective, rows = _reference_lp(inst, presolve=not exact)
    built = lp.constraints
    assert len(built) == len(rows) == lp.n_rows
    assert len(objective) == lp.n_vars

    def same(got, want):
        # exact instances keep the caller's number types (Fractions stay
        # Fractions, ints stay ints); float instances hold floats
        assert got == want
        assert type(got) is (type(want) if exact else float), (got, want)

    for got, want in zip(lp.objective.tolist(), objective):
        same(got, want)
    for i, ((row, rel, rhs), (ref, ref_rel, ref_rhs)) in enumerate(
            zip(built, rows)):
        assert (rel, sorted(row)) == (ref_rel, sorted(ref)), f"row {i}"
        same(rhs, ref_rhs)
        for j in ref:
            same(row[j], ref[j])
    if "outside" in name:  # one w >= outside * sum z row per pair, score
        bare = build_drm_lp(inst.space, inst.costs, inst.agent,
                            inst.designer)
        n_out = sum(u != 0 for u in inst.outside_option.values())
        if exact:
            assert lp.n_rows - bare.n_rows == (n_out * (
                len(inst.space.types) - 1) * len(inst.space.scores))
        else:  # one per kept cell; the option also moves cells' classes
            bare_inst = _with_outside(inst, {})
            assert lp.n_rows - bare.n_rows == len(rows) - len(
                _reference_lp(bare_inst, presolve=True)[1])


# ---------------------------------------------------------------------------
# the float LP's cell classes: the same optimum as the exact full LP
# ---------------------------------------------------------------------------

def _equivalence_instances():
    """The float builder instances and a seeded random set with outside
    options of both signs, all data in floats."""
    cases = {name: inst for name, inst in _builder_instances().items()
             if "float" in name}
    rng = random.Random(140101)
    for i in range(30):
        inst = random_instance(rng, max_types=5, n_scores=3)
        cases[f"random{i}"] = _to_fractions(_with_outside(inst, {
            t: random_rational(rng, -1, 1, 8) for t in inst.space.types}),
            number=float)
    return cases


def _check_float_optimum(inst, exact_value):
    """The float LP and float solve_drm reach the exact optimum within
    1e-9, certified, with mechanisms that pass the audit."""
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer,
                      inst.outside_option)
    sol = solve_lp(lp, mode="float")
    drm, mech = solve_drm(inst, mode="float")
    for s, m in ((sol, extract_mechanism(inst.space, sol)), (drm, mech)):
        assert s.certified and abs(s.value - exact_value) <= 1e-9
        assert audit_ic(inst.space, inst.costs, inst.agent, m,
                        outside_option=inst.outside_option).passes


@pytest.mark.parametrize("name", sorted(_equivalence_instances()))
def test_float_lp_matches_the_exact_optimum(name):
    inst = _equivalence_instances()[name]
    exact, _ = solve_drm(_to_fractions(inst), mode="exact")
    _check_float_optimum(inst, exact.value)


@pytest.mark.parametrize("cost,value", [
    ("linear", F(4545, 65536)),
    ("quadratic", F(176193, 2097152)),
])
def test_float_lp_matches_the_exact_optimum_at_n16(cost, value):
    """The exact optimum of the Fraction-converted instance, from exact
    solve_drm with every cell kept, pinned: that solve takes about 5 s
    (quadratic) and 10 min (linear)."""
    from scoremech.continuous import Uniform, discretize

    _check_float_optimum(discretize(
        Uniform(-2.0, 1.0), CostModel(cost, gamma=4.0, domain=(-2.0, 1.0)),
        16), value)


@pytest.mark.parametrize("cost,counts,both", [
    ("linear", {"dead": 0, "substituted": 2096, "kept": 1984}, 0),
    ("quadratic", {"dead": 525, "substituted": 2046, "kept": 1509}, 50),
])
def test_float_lp_cell_classes_at_n16(cost, counts, both):
    """Counts per class; ``both`` cells are dead and substitutable, and
    count as dead.  Each kept cell has one w column and one w row."""
    from scoremech.continuous import Uniform, discretize

    inst = discretize(Uniform(-2.0, 1.0),
                      CostModel(cost, gamma=4.0, domain=(-2.0, 1.0)), 16)
    space = inst.space
    pairs, z, _ = _layout(space)
    cells = [(t, tp, a) for t, tp in pairs for a in space.scores]
    classes = [_cell_class(inst, *cell, presolve=True) for cell in cells]
    assert {c: classes.count(c) for c in counts} == counts

    def substitutable(t, tp, a):  # no outside options here
        v, c = inst.agent.v, inst.costs.cost
        return all(v(x, t) - c(a, t) >= v(x, tp) - c(a, tp)
                   for x in space.outcomes)

    assert sum(c == "dead" and substitutable(*cell)
               for c, cell in zip(classes, cells)) == both
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
    assert lp.n_vars == len(z) + counts["kept"]
    assert lp.n_rows == (len(space.types) * (1 + len(space.scores))
                         + len(pairs) + counts["kept"])


# ---------------------------------------------------------------------------
# extract / evaluate
# ---------------------------------------------------------------------------

def _one_type_space():
    t = AgentType("x", "sH")
    return t, FiniteTypeSpace(types=(t,), scores=("sL", "sH"),
                              outcomes=("reject", "admit"), prior={t: F(1)})


def _simple_assignment(tail=()):
    t, space = _one_type_space()
    _, z, _ = _layout(space)
    x = [F(0)] * len(z) + list(tail)
    x[z["admit", "sH", t]] = F(3, 4)
    x[z["admit", "sL", t]] = F(1, 4)
    return LpSolution(status="optimal", value=F(0),
                      assignment=np.array(x, object))


def test_extract_simple_arithmetic():
    t, space = _one_type_space()
    mech = extract_mechanism(space, _simple_assignment())
    assert mech.rho("sH", t) == F(3, 4)
    assert mech.q("admit", "sH", t) == F(1)
    assert mech.q("admit", "sL", t) == F(1)


def test_extract_reads_only_the_z_block():
    """A restricted solve_drm solution carries w values after z."""
    _, space = _one_type_space()
    padded = _simple_assignment([F(5), F(-2), 0.5])
    assert (extract_mechanism(space, padded)
            == extract_mechanism(space, _simple_assignment()))


def test_extract_uniform_assignment():
    t, space = _one_type_space()
    mech = extract_mechanism(space, LpSolution(
        status="optimal", value=F(0),
        assignment=np.array([F(1, 4)] * 4, object)))
    for a in space.scores:
        for x in space.outcomes:
            assert mech.q(x, a, t) == F(1, 2)  # 1/|X|


def test_exact_row_generation_reads_float_data_as_fractions_once(
        monkeypatch):
    """Exact ``solve_drm`` reads float tables as binary Fractions before
    its first round: every round's LP reaches ``solve_lp`` in ints and
    Fractions, so ``_exact_view`` hands each one back unchanged."""
    from scoremech.continuous import Uniform, discretize
    inst = discretize(Uniform(-2, 1), CostModel.linear(4, (-2, 1)), 6)
    views, real = [], lpcore._exact_view

    def spy(lp):
        views.append((lp, real(lp)))
        return views[-1][1]

    monkeypatch.setattr(lpcore, "_exact_view", spy)
    sol, _ = solve_drm(inst, "exact")
    assert len(views) >= 2  # more than one round
    assert all(lp is view for lp, view in views)
    assert sol.value == F(156124787082177193, 2305843009213693952)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_drm_answer_is_in_its_gain_dtype(college2, mode):
    """solve_drm compares the z block against its gain table and extracts
    from it as it arrives: Fractions in object arrays in exact mode, float64
    in float mode, from Fraction data and from float data alike."""
    dtype = np.dtype(object if mode == "exact" else float)
    for inst in (college2, _to_fractions(college2, float)):
        sol, _ = solve_drm(inst, mode)
        assert sol.assignment.dtype == sol.dual.dtype == dtype
        if mode == "exact":
            assert all(type(v) is F for v in sol.assignment)


def test_extract_degenerate_row_raises():
    t, space = _one_type_space()
    with pytest.raises(ModelError):
        extract_mechanism(space, LpSolution(
            status="optimal", value=F(0),
            assignment=np.array([F(0)] * 4, object)))
    with pytest.raises(ModelError):
        extract_mechanism(space, LpSolution(status="infeasible"))


def test_evaluate_scenario1_first_best_burns_t1_utility(college1):
    mech = always_falsify_mechanism()
    value, utilities, costs = evaluate_mechanism(
        college1.space, college1.costs, college1.agent, college1.designer,
        mech)
    assert value == F(9, 4)
    assert utilities[T1] == F(0)  # admitted but burns all utility
    assert costs[T1] == F(1)


def test_evaluate_all_reject_is_zero(college2):
    decision = {}
    recommendation = {}
    for t in college2.space.types:
        recommendation[(t.score, t)] = F(1)
        for a in college2.space.scores:
            recommendation.setdefault((a, t), F(0))
        decision[("reject", t.score, t)] = F(1)
        decision[("admit", t.score, t)] = F(0)
    mech = FiniteMechanism(decision=decision, recommendation=recommendation)
    value, utilities, _ = evaluate_mechanism(
        college2.space, college2.costs, college2.agent, college2.designer,
        mech)
    assert value == 0
    assert all(u == 0 for u in utilities.values())


def test_evaluate_undefined_support_decision_raises(college2,
                                                    menu_mechanism):
    broken = FiniteMechanism(
        decision={k: v for k, v in menu_mechanism.decision.items()
                  if not (k[1] == "sL" and k[2] == T2)},
        recommendation=menu_mechanism.recommendation)
    with pytest.raises(ModelError):
        evaluate_mechanism(college2.space, college2.costs, college2.agent,
                           college2.designer, broken)


# ---------------------------------------------------------------------------
# derandomization and revelation composition
# ---------------------------------------------------------------------------

def _rule(q_low, q_high) -> ScoreBasedRule:
    return ScoreBasedRule(decision={
        ("admit", "sL"): q_low, ("reject", "sL"): 1 - q_low,
        ("admit", "sH"): q_high, ("reject", "sH"): 1 - q_high})


def test_derandomize_mixes_rules_at_shared_score():
    t = AgentType("x", "sL")
    mixture = {t: [(F(1, 2), _rule(F(1, 5), F(1)), "sL"),
                   (F(1, 2), _rule(F(3, 5), F(0)), "sL")]}
    mech = derandomize_decision_rules(mixture)
    assert mech.rho("sL", t) == F(1)
    assert mech.q("admit", "sL", t) == F(2, 5)  # mean of 0.2 and 0.6


def test_derandomize_degenerate_is_identity():
    t = AgentType("x", "sL")
    rule = _rule(F(1, 4), F(1))
    mech = derandomize_decision_rules({t: [(F(1), rule, "sL")]})
    assert mech.rho("sL", t) == F(1)
    assert mech.q("admit", "sL", t) == F(1, 4)


def test_derandomize_drops_zero_mass_scores():
    t = AgentType("x", "sL")
    mech = derandomize_decision_rules(
        {t: [(F(1), _rule(F(1, 4), F(1)), "sL"),
             (F(0), _rule(F(1), F(1)), "sH")]})
    assert mech.rho("sH", t) == 0
    assert all(a != "sH" for _, a, _ in mech.decision)


@pytest.mark.parametrize("weights, message", [
    ((float("nan"), F(1)), "total mass nan"),
    ((F(3, 2), F(-1, 2)), "weight -1/2 < 0")],
    ids=["nan-weight", "negative-weight"])
def test_derandomize_refuses_a_nan_or_negative_weight(weights, message):
    """A NaN weight used to give a NaN recommendation, and weights 3/2 and
    -1/2 a recommendation of -1/2."""
    t = AgentType("x", "sL")
    mixture = {t: [(weights[0], _rule(F(1, 4), F(1)), "sL"),
                   (weights[1], _rule(F(1), F(1)), "sH")]}
    with pytest.raises(ModelError, match=message):
        derandomize_decision_rules(mixture)


def test_derandomize_preserves_college_payoff(college2, menu_mechanism):
    """Mixing t2's menu rule with t1's at t2's report collapses payoff-free."""
    rules = {t: _rule(menu_mechanism.q("admit", "sL", t),
                      menu_mechanism.q("admit", "sH", t))
             for t in college2.space.types}
    mixture = {
        T2: [(F(1, 3), rules[T2], "sL"), (F(2, 3), rules[T1], "sL")],
    }
    for t in (T1, T3, T4):
        mixture[t] = [(menu_mechanism.rho(a, t), rules[t], a)
                      for a in college2.space.scores
                      if menu_mechanism.rho(a, t) > 0]
    collapsed = derandomize_decision_rules(mixture)

    # oracle: evaluate the uncollapsed randomization directly
    def direct_u(t, parts):
        total = F(0)
        for w, rule, a in parts:
            cont = sum(rule.q(x, a) * college2.agent.v(x, t)
                       for x in college2.space.outcomes)
            total += w * (cont - college2.costs.cost(a, t))
        return total

    _, utilities, _ = evaluate_mechanism(
        college2.space, college2.costs, college2.agent, college2.designer,
        collapsed)
    for t in college2.space.types:
        assert utilities[t] == direct_u(t, mixture[t])


def _random_rule(rng, scores, outcomes) -> ScoreBasedRule:
    decision = {}
    for a in scores:
        weights = [F(rng.randint(0, 4)) for _ in outcomes]
        total = sum(weights) or F(1)
        if total == 0:
            weights[0] = F(1)
            total = F(1)
        for x, w in zip(outcomes, weights):
            decision[(x, a)] = w / total
    return ScoreBasedRule(decision=decision)


def test_derive_drm_identity_relabels():
    t = AgentType("x", "sL")
    rule = _rule(F(1, 3), F(2, 3))
    indirect = {"r0": [(F(1), rule, "m0")]}
    reporting = {t: {"r0": F(1)}}
    action = {"m0": {"sH": F(1)}}
    mech = derive_drm(indirect, reporting, action)
    assert mech.rho("sH", t) == F(1)
    assert mech.q("admit", "sH", t) == F(2, 3)


def test_derive_drm_collapsed_reports_preserve_law():
    t = AgentType("x", "sL")
    rule_a, rule_b = _rule(F(1), F(0)), _rule(F(0), F(1))
    indirect = {"r0": [(F(1), rule_a, "m0")],
                "r1": [(F(1), rule_b, "m1")]}
    reporting = {t: {"r0": F(1, 2), "r1": F(1, 2)}}
    action = {"m0": {"sL": F(1)}, "m1": {"sL": F(1)}}
    mech = derive_drm(indirect, reporting, action)
    law = joint_law_drm(
        FiniteTypeSpace(types=(t,), scores=("sL", "sH"),
                        outcomes=("reject", "admit"), prior={t: F(1)}),
        mech)
    oracle = joint_law_indirect([t], indirect, reporting, action)
    oracle = {k: v for k, v in oracle.items() if v != 0}
    law = {k: v for k, v in law.items() if v != 0}
    assert law == oracle


def test_derive_drm_dangling_message_raises():
    t = AgentType("x", "sL")
    indirect = {"r0": [(F(1), _rule(F(1), F(1)), "m-missing")]}
    with pytest.raises(ModelError):
        derive_drm(indirect, {t: {"r0": F(1)}}, {"m0": {"sL": F(1)}})


def _random_composition(rng):
    scores = ("sL", "sM", "sH")
    outcomes = ("reject", "admit")
    types = tuple(AgentType(f"t{i}", rng.choice(scores)) for i in range(3))
    reports = [f"r{i}" for i in range(rng.randint(1, 3))]
    messages = [f"m{i}" for i in range(rng.randint(1, 3))]

    def distribution(keys):
        weights = [F(rng.randint(0, 3)) for _ in keys]
        if sum(weights) == 0:
            weights[rng.randrange(len(keys))] = F(1)
        total = sum(weights)
        return {k: w / total for k, w in zip(keys, weights) if w != 0}

    indirect = {r: [(w, _random_rule(rng, scores, outcomes), m)
                    for m, w in distribution(messages).items()]
                for r in reports}
    reporting = {t: distribution(reports) for t in types}
    action = {m: distribution(scores) for m in messages}
    return types, scores, outcomes, indirect, reporting, action


def test_derive_drm_joint_law_equality_on_random_instances():
    """Brute-force enumeration of both joint laws, exact rationals."""
    rng = random.Random(271828)
    for _ in range(100):
        types, scores, outcomes, indirect, reporting, action = \
            _random_composition(rng)
        space = FiniteTypeSpace(
            types=types, scores=scores, outcomes=outcomes,
            prior={t: F(1, len(types)) for t in types})
        mech = derive_drm(indirect, reporting, action)
        law = {k: v for k, v in joint_law_drm(space, mech).items() if v != 0}
        oracle = {k: v for k, v in joint_law_indirect(
            list(types), indirect, reporting, action).items() if v != 0}
        assert law == oracle


# ---------------------------------------------------------------------------
# score-based reduction
# ---------------------------------------------------------------------------

def _two_types_shared_score(q_shared, off_a, off_b, q_b=None):
    """Types a and b both sent to sH, approved there with ``q_shared``
    (``q_b`` for b when given); the off-path sL rows are ``off_a`` and
    ``off_b``.  The designer values an approval of b twice as much."""
    q_b = q_shared if q_b is None else q_b
    ta, tb = AgentType("a", "sL"), AgentType("b", "sH")
    space = FiniteTypeSpace(types=(ta, tb), scores=("sL", "sH"),
                            outcomes=("reject", "admit"),
                            prior={ta: F(1, 2), tb: F(1, 2)})
    costs = CostModel.tabulated({
        ("sL", ta): F(0), ("sH", ta): F(1, 10),
        ("sH", tb): F(0), ("sL", tb): F(1, 10)})
    agent = AgentPayoff.unit_approval(space, "admit")
    designer = DesignerPayoff(decision_value={
        ("admit", ta): F(1), ("admit", tb): F(2),
        ("reject", ta): F(0), ("reject", tb): F(0)})
    decision = {
        ("admit", "sH", ta): q_shared, ("reject", "sH", ta): 1 - q_shared,
        ("admit", "sH", tb): q_b, ("reject", "sH", tb): 1 - q_b,
        ("admit", "sL", ta): off_a, ("reject", "sL", ta): 1 - off_a,
        ("admit", "sL", tb): off_b, ("reject", "sL", tb): 1 - off_b,
    }
    recommendation = {("sH", ta): F(1), ("sL", ta): F(0),
                      ("sH", tb): F(1), ("sL", tb): F(0)}
    mech = FiniteMechanism(decision=decision, recommendation=recommendation)
    return Instance(space, costs, agent, designer), mech


def test_reduction_keeps_shared_score_lottery():
    inst, mech = _two_types_shared_score(F(7, 10), F(0), F(0))
    rule, falsification = reduce_to_score_based(inst, mech)
    assert rule.q("admit", "sH") == F(7, 10)
    assert falsification == {t: "sH" for t in inst.space.types}


def test_reduction_keeps_the_lottery_the_designer_prefers():
    """a's and b's lotteries at sH differ within ``tol``; the designer
    values b's at 2 * 7/10 = 7/5 and a's at 3/5, so b's is kept."""
    inst, mech = _two_types_shared_score(F(3, 5), F(0), F(0), q_b=F(7, 10))
    rule, _ = reduce_to_score_based(inst, mech, tol=F(1, 5))
    assert rule.q("admit", "sH") == F(7, 10)


def test_reduction_replaces_off_path_rows():
    inst, mech = _two_types_shared_score(
        F(3, 5), F(1, 2), F(9, 10))  # junk off-path rows differ
    rule, _ = reduce_to_score_based(inst, mech)
    assert rule.q("admit", "sH") == F(3, 5)
    assert rule.q("admit", "sL") == 0  # deterrent null row


def test_reduction_rejects_non_indifferent_inputs():
    inst, mech = _two_types_shared_score(F(3, 5), F(0), F(0))
    broken = dict(mech.decision)
    broken[("admit", "sH", AgentType("a", "sL"))] = F(2, 5)
    broken[("reject", "sH", AgentType("a", "sL"))] = F(3, 5)
    with pytest.raises(ModelError, match="not IC"):
        reduce_to_score_based(
            inst, FiniteMechanism(decision=broken,
                                  recommendation=mech.recommendation))


def test_reduction_rejects_random_recommendations(college2, menu_mechanism):
    with pytest.raises(ModelError, match="deterministic"):
        reduce_to_score_based(college2, menu_mechanism)


def _random_ic_deterministic_instance(rng):
    """Score-based rule + best-response assignment, then junk off-path rows.

    Best-responding to a fixed score rule is incentive compatible by
    construction, so the reduction must reproduce every payoff exactly.
    """
    inst = random_instance(rng, max_types=3, n_scores=2)
    space = inst.space
    rule = _random_rule(rng, space.scores, space.outcomes)
    x1 = "yes"
    decision = {}
    recommendation = {}
    for t in space.types:
        best_a, _ = best_response_score_rule(
            space.scores, inst.costs,
            {a: rule.q(x1, a) for a in space.scores}, t)
        recommendation[(best_a, t)] = F(1)
        for a in space.scores:
            recommendation.setdefault((a, t), F(0))
            if a == best_a:
                for x in space.outcomes:
                    decision[(x, a, t)] = rule.q(x, a)
            else:
                junk = F(rng.randint(0, 4), 4)
                decision[(x1, a, t)] = junk
                decision[("no", a, t)] = 1 - junk
    mech = FiniteMechanism(decision=decision, recommendation=recommendation)
    return inst, mech


def test_reduction_preserves_payoffs_on_random_ic_instances():
    rng = random.Random(1618)
    kept = 0
    for _ in range(60):
        inst, mech = _random_ic_deterministic_instance(rng)
        before_value, before_u, before_costs = evaluate_mechanism(
            inst.space, inst.costs, inst.agent, inst.designer, mech)
        try:
            rule, falsification = reduce_to_score_based(inst, mech)
        except ModelError:
            continue  # two types share a score with distinct lotteries
        kept += 1
        after_decision = {}
        after_rec = {}
        for t in inst.space.types:
            a = falsification[t]
            after_rec[(a, t)] = F(1)
            for x in inst.space.outcomes:
                after_decision[(x, a, t)] = rule.q(x, a)
        after = FiniteMechanism(decision=after_decision,
                                recommendation=after_rec)
        after_value, after_u, after_costs = evaluate_mechanism(
            inst.space, inst.costs, inst.agent, inst.designer, after)
        assert after_u == before_u
        assert after_costs == before_costs
        assert after_value >= before_value
        # the score-based rule must itself be incentive compatible
        for t in inst.space.types:
            _, best = best_response_score_rule(
                inst.space.scores, inst.costs,
                {a: rule.q("yes", a) for a in inst.space.scores}, t)
            assert best <= before_u[t]
    assert kept >= 30  # the generator mostly yields reducible instances


@pytest.mark.parametrize("mode,n", [("exact", n) for n in range(3, 7)]
                         + [("float", 16), ("float", 32)])
@pytest.mark.parametrize("cost", ["linear", "quadratic"])
def test_optimal_drm_is_score_based(cost, mode, n):
    """The paper's structural result on discretize(Uniform(-2, 1)): each
    type is recommended one score, under linear cost its natural score or
    the top score (costly screening), and the score-based rule that
    collapses the optimum attains the LP value and is incentive
    compatible."""
    from scoremech.continuous import Uniform, discretize

    inst = discretize(Uniform(-2.0, 1.0),
                      CostModel(cost, gamma=4.0, domain=(-2.0, 1.0)), n)
    if mode == "exact":
        inst = _to_fractions(inst)
    space = inst.space
    sol, mech = solve_drm(inst, mode=mode)
    for t in space.types:
        support = mech.support(t, space.scores)
        assert len(support) == 1, (t, support)
        if cost == "linear":
            assert support[0] in (t.score, space.scores[-1]), (t, support)
    rule, assignment = reduce_to_score_based(inst, mech)
    collapsed = FiniteMechanism(
        decision={(x, a, t): rule.q(x, a) for t in space.types
                  for a in space.scores for x in space.outcomes},
        recommendation={(a, t): int(a == assignment[t])
                        for t in space.types for a in space.scores})
    value, _, _ = evaluate_mechanism(space, inst.costs, inst.agent,
                                     inst.designer, collapsed)
    if mode == "exact":
        assert value == sol.value
    else:
        assert abs(value - sol.value) <= 1e-9
    assert audit_ic(space, inst.costs, inst.agent, collapsed,
                    tolerance=0 if mode == "exact" else 1e-9).passes


# ---------------------------------------------------------------------------
# monotone rebalancing
# ---------------------------------------------------------------------------

def test_rebalance_cascade_worked_example():
    """Hand-executed cascade: top level 0.4+0.35/0.5 = 1.1 caps at 1 and
    spills 0.05 mass onto the low score."""
    out = monotone_rebalance([0.0, 1.0], [F(1, 2), F(1, 2)],
                             [F(4, 5), F(2, 5)], [F(1, 10), F(3, 10)])
    assert out == [F(1, 5), F(1)]
    assert F(1, 2) * out[0] + F(1, 2) * out[1] == F(3, 5)  # Q preserved


def test_rebalance_keeps_nondecreasing_input():
    alpha = [F(1, 5), F(9, 10)]
    out = monotone_rebalance([0.0, 1.0], [F(1, 2), F(1, 2)], alpha,
                             [F(0), F(1, 10)])
    assert out == alpha


def test_rebalance_all_ones_unchanged():
    out = monotone_rebalance([0.0, 0.5, 1.0], [F(1, 3)] * 3, [F(1)] * 3,
                             [F(0), F(1, 4), F(1, 2)])
    assert out == [F(1), F(1), F(1)]


def test_rebalance_rejects_disobedient_input():
    with pytest.raises(ModelError, match="obedience"):
        monotone_rebalance([0.0, 1.0], [F(1, 2), F(1, 2)],
                           [F(1, 5), F(1, 5)], [F(0), F(1, 2)])


def test_rebalance_rejects_decreasing_costs():
    with pytest.raises(ModelError, match="costs"):
        monotone_rebalance([0.0, 1.0], [F(1, 2), F(1, 2)],
                           [F(1, 2), F(1, 2)], [F(1, 4), F(0)])


@pytest.mark.parametrize("rho, alpha, message", [
    ([float("nan"), 0.5], [0.5, 0.2], "support weights must be positive"),
    ([0.5, 0.5], [float("nan"), 0.2], "obedience violated")],
    ids=["nan-rho", "nan-alpha"])
def test_rebalance_refuses_nan_inputs(rho, alpha, message):
    """Either NaN used to pass every check and return a NaN level."""
    with pytest.raises(ModelError, match=message):
        monotone_rebalance([0, 1], rho, alpha, [0, 0.1])


def test_rebalance_random_instances_preserve_mass_exactly():
    rng = random.Random(424242)
    for _ in range(200):
        n = rng.randint(2, 5)
        scores = sorted(rng.sample(range(-4, 9), n))
        raw = [F(rng.randint(1, 6)) for _ in range(n)]
        rho = [w / sum(raw) for w in raw]
        cost = []
        level = F(0)
        for _ in range(n):
            level += F(rng.randint(0, 2), 8)
            cost.append(min(level, F(1)))
        alpha = [c + (1 - c) * F(rng.randint(0, 8), 8)
                 for c in cost]
        out = monotone_rebalance(scores, rho, alpha, cost)
        assert all(out[i] <= out[i + 1] for i in range(n - 1))
        assert all(c <= o <= 1 for c, o in zip(cost, out))
        assert sum(r * o for r, o in zip(rho, out)) \
            == sum(r * a for r, a in zip(rho, alpha))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rebalance_float_inputs(data):
    n = data.draw(st.integers(2, 4))
    rho_raw = data.draw(st.lists(
        st.floats(0.05, 1.0), min_size=n, max_size=n))
    total = sum(rho_raw)
    rho = [r / total for r in rho_raw]
    cost_steps = data.draw(st.lists(
        st.floats(0.0, 0.3), min_size=n, max_size=n))
    cost = []
    level = 0.0
    for s in cost_steps:
        level = min(1.0, level + s)
        cost.append(level)
    alpha_frac = data.draw(st.lists(
        st.floats(0.0, 1.0), min_size=n, max_size=n))
    alpha = [c + (1 - c) * f for c, f in zip(cost, alpha_frac)]
    out = monotone_rebalance(list(range(n)), rho, alpha, cost)
    assert all(out[i] <= out[i + 1] + 1e-12 for i in range(n - 1))
    assert all(o >= c - 1e-12 for o, c in zip(out, cost))
    q_in = sum(r * a for r, a in zip(rho, alpha))
    q_out = sum(r * o for r, o in zip(rho, out))
    assert abs(q_in - q_out) <= 1e-12


def _rebalance_instance(v_no=F(0), outcomes=("no", "yes")):
    """One type at s0 with scores s0 < s1; approving ("yes") is worth 1."""
    t = AgentType("x", "s0")
    space = FiniteTypeSpace(types=(t,), scores=("s0", "s1"),
                            outcomes=outcomes, prior={t: F(1)},
                            score_values={"s0": 0.0, "s1": 1.0})
    agent = AgentPayoff({("yes", t): F(1), ("no", t): v_no})
    designer = DesignerPayoff({("yes", t): F(1), ("no", t): F(0)})
    inst = Instance(space=space, costs=CostModel.tabulated(
        {("s0", t): F(0), ("s1", t): F(3, 10)}), agent=agent,
        designer=designer)
    mech = FiniteMechanism(
        decision={("yes", "s0", t): F(4, 5), ("no", "s0", t): F(1, 5),
                  ("yes", "s1", t): F(2, 5), ("no", "s1", t): F(3, 5)},
        recommendation={("s0", t): F(1, 2), ("s1", t): F(1, 2)})
    return inst, mech, t


@pytest.mark.parametrize("outcomes", [("no", "yes"), ("yes", "no")])
def test_rebalance_mechanism_raises_the_agent_preferred_outcome(outcomes):
    inst, mech, t = _rebalance_instance(outcomes=outcomes)
    out = rebalance_mechanism(inst, mech)
    # top level 2/5 + (4/5 * 1/2) / (1/2) = 6/5 caps at 1; 1/10 spills
    assert (out.q("yes", "s0", t), out.q("yes", "s1", t)) == (F(1, 5), 1)
    assert (out.q("no", "s0", t), out.q("no", "s1", t)) == (F(4, 5), 0)
    assert out.recommendation == mech.recommendation


def test_rebalance_mechanism_rejects_tied_outcomes():
    """Equal prior-average agent values leave no approval outcome to
    raise, so the rebalance refuses instead of picking one by order."""
    inst, mech, _ = _rebalance_instance(v_no=F(1))
    with pytest.raises(ModelError, match="tie"):
        rebalance_mechanism(inst, mech)


def test_rebalance_mechanism_names_the_failing_type():
    inst, mech, t = _rebalance_instance()
    costly = CostModel.tabulated({("s0", t): F(0), ("s1", t): F(1, 2)})
    with pytest.raises(ModelError, match=r"precondition failed for .*obed"):
        rebalance_mechanism(Instance(inst.space, costly, inst.agent,
                                     inst.designer), mech)


def test_reduction_rejects_tied_outcomes():
    inst, mech, t = _rebalance_instance(v_no=F(1))
    deterministic = FiniteMechanism(
        decision=mech.decision, recommendation={("s0", t): F(1)})
    with pytest.raises(ModelError, match="tie"):
        reduce_to_score_based(inst, deterministic)


def test_solve_drm_validates_the_instance(college2):
    agent = dict(college2.agent.value)
    del agent[("admit", T3)]
    broken = Instance(college2.space, college2.costs, AgentPayoff(agent),
                      college2.designer)
    with pytest.raises(ModelError,
                       match=r"invalid instance: missing agent value "
                             r"\(admit, NF:sH\)"):
        solve_drm(broken)


@pytest.mark.parametrize("call", [
    lambda inst, mech: audit_ic(inst.space, inst.costs, inst.agent, mech),
    lambda inst, mech: reduce_to_score_based(inst, mech),
    lambda inst, mech: rebalance_mechanism(inst, mech),
], ids=["audit_ic", "reduce_to_score_based", "rebalance_mechanism"])
def test_library_entry_points_validate_the_instance(college2,
                                                    menu_mechanism, call):
    agent = dict(college2.agent.value)
    del agent[("admit", T3)]
    broken = Instance(college2.space, college2.costs, AgentPayoff(agent),
                      college2.designer)
    with pytest.raises(ModelError,
                       match=r"invalid instance: missing agent value "
                             r"\(admit, NF:sH\)"):
        call(broken, menu_mechanism)


@pytest.mark.parametrize("call", [
    lambda inst, mech: solve_drm(inst),
    lambda inst, mech: audit_ic(inst.space, inst.costs, inst.agent, mech),
    lambda inst, mech: brute_force_optimum(
        inst.space, inst.costs, inst.agent, inst.designer, F(1, 2)),
    lambda inst, mech: reduce_to_score_based(inst, mech),
    lambda inst, mech: rebalance_mechanism(inst, mech),
    lambda inst, mech: build_drm_lp(inst.space, inst.costs, inst.agent,
                                    inst.designer),
], ids=["solve_drm", "audit_ic", "brute_force_optimum",
        "reduce_to_score_based", "rebalance_mechanism", "build_drm_lp"])
def test_finite_entry_points_refuse_a_parametric_cost(college2,
                                                      menu_mechanism, call):
    parametric = Instance(college2.space, CostModel.linear(4.0, (-2.0, 1.0)),
                          college2.agent, college2.designer)
    with pytest.raises(ModelError,
                       match="a finite instance needs a cost table$"):
        call(parametric, menu_mechanism)


def test_audit_ic_validates_the_mechanism(college2, menu_mechanism):
    half = FiniteMechanism(decision=menu_mechanism.decision,
                           recommendation={**menu_mechanism.recommendation,
                                           ("sH", T3): F(1, 2)})
    with pytest.raises(ModelError, match=r"invalid mechanism: recommendation "
                                         r"for NF:sH sums to 0\.5"):
        audit_ic(college2.space, college2.costs, college2.agent, half)


@pytest.mark.parametrize("call, problem", [
    (lambda inst, mech: audit_ic(
        inst.space, inst.costs, inst.agent, FiniteMechanism(
            {**mech.decision, ("admit", "sH", T3): float("nan")},
            mech.recommendation)),
     r"invalid mechanism: q\(admit\|sH,NF:sH\) = nan outside \[0, 1\]"),
    (lambda inst, mech: audit_ic(inst.space, inst.costs, inst.agent, mech,
                                 {T3: float("nan")}),
     "invalid instance: outside option at NF:sH is nan"),
    (lambda inst, mech: solve_drm(_with_outside(inst, {T3: float("inf")}),
                                  "exact"),
     "invalid instance: outside option at NF:sH is inf"),
    (lambda inst, mech: solve_drm(_with_outside(inst, {T3: float("nan")}),
                                  "float"),
     "invalid instance: outside option at NF:sH is nan"),
    (lambda inst, mech: brute_force_optimum(
        inst.space, inst.costs, inst.agent, inst.designer, F(1, 2),
        {T3: float("nan")}),
     "invalid instance: outside option at NF:sH is nan"),
], ids=["audit_ic-mechanism", "audit_ic-outside", "solve_drm-exact",
        "solve_drm-float", "brute_force_optimum-outside"])
def test_non_finite_input_is_refused(college2, menu_mechanism, call,
                                     problem):
    with pytest.raises(ModelError, match=problem):
        call(college2, menu_mechanism)


@pytest.mark.parametrize("value, problem", [
    (float("nan"), r"invalid instance: agent value at \(admit, NF:sH\) "
                   "is nan"),
    (None, r"invalid instance: missing agent value \(admit, NF:sH\)"),
], ids=["nan", "missing"])
def test_build_drm_lp_validates_like_solve_drm(college2, value, problem):
    """The full LP's builder refuses what ``solve_drm`` refuses, with the
    same message, before it computes a coefficient."""
    agent = {k: v for k, v in college2.agent.value.items()
             if k != ("admit", T3)}
    if value is not None:
        agent[("admit", T3)] = value
    inst = Instance(college2.space, college2.costs, AgentPayoff(agent),
                    college2.designer)
    with pytest.raises(ModelError, match=problem):
        build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
    for mode in ("exact", "float"):
        with pytest.raises(ModelError, match=problem):
            solve_drm(inst, mode)


def _overflowing_cost(inst):
    table = dict(inst.costs.table)
    table[("sH", T1)] = 1e308  # lam * c^2 overflows
    return Instance(inst.space, CostModel.tabulated(table), inst.agent,
                    inst.designer)


def _overflowing_participation(inst):
    agent = dict(inst.agent.value)
    agent[("admit", T1)] = 1e308  # v - (c + outside) overflows
    return Instance(inst.space, inst.costs, AgentPayoff(agent),
                    inst.designer, {T1: -1e308})


@pytest.mark.parametrize("number", [F, float],
                         ids=["fraction-data", "float-data"])
@pytest.mark.parametrize("edit, problem", [
    (_overflowing_cost, r"objective at \(F:sL, sH, reject\) is -inf"),
    (_overflowing_participation,
     r"participation at \(F:sL, sL, admit\) is inf")],
    ids=["cost", "participation"])
def test_non_finite_table_entry_is_refused(college2, number, edit, problem):
    """Finite inputs that overflow a table: the builder and both solve
    modes refuse the instance, naming the table and its (type, score,
    outcome) entry, whether the tables hold floats or objects."""
    inst = edit(_to_fractions(college2, number))
    with pytest.raises(ModelError, match="invalid instance: " + problem):
        build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer,
                     inst.outside_option)
    for mode in ("exact", "float"):
        with pytest.raises(ModelError, match="invalid instance: " + problem):
            solve_drm(inst, mode)


def test_float_extraction_drops_solver_round_off():
    """HiGHS leaves z slightly below 0 on this LP (perfbench finite_float
    seed 4); the extracted mechanism stays inside [0, 1] and normalized."""
    from scoremech.continuous import Uniform, discretize
    dist = Uniform(-1.974604879517374, 1.0231894708878717)
    inst = discretize(dist, CostModel.quadratic(
        3.2127890147948084, (dist.s_min, dist.s_max)), 24)
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
    sol = solve_lp(lp, "float")
    mech = extract_mechanism(inst.space, sol)
    assert validate_mechanism(inst.space, mech) == []
    assert audit_ic(inst.space, inst.costs, inst.agent, mech).passes
    value, _, _ = evaluate_mechanism(inst.space, inst.costs, inst.agent,
                                     inst.designer, mech)
    assert abs(value - sol.value) <= 1e-9


def test_solve_drm_reports_an_infeasible_lp(college2):
    infeasible = Instance(
        college2.space, college2.costs, college2.agent, college2.designer,
        outside_option={t: F(2) for t in college2.space.types})
    with pytest.raises(SolveError, match="LP is infeasible") as err:
        solve_drm(infeasible)
    assert err.value.status == "infeasible"


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_drm_never_returns_an_uncertified_optimum(college2,
                                                        monkeypatch, mode):
    monkeypatch.setattr(lpcore, "_certify", lambda *args, **kw: False)
    with pytest.raises(SolveError,
                       match="dual certificate failed verification") as err:
        solve_drm(college2, mode=mode)
    assert err.value.status == "optimal"


# ---------------------------------------------------------------------------
# truth-telling row generation: the answer certifies the full LP
# ---------------------------------------------------------------------------

def _row_generation(monkeypatch, inst, mode):
    """solve_drm, recording each round's pair mask."""
    masks = []
    build = finite._drm_lp

    def spy(tables, keep=None):
        masks.append(keep)
        return build(tables, keep)

    monkeypatch.setattr(finite, "_drm_lp", spy)
    sol, _ = solve_drm(inst, mode=mode)
    monkeypatch.setattr(finite, "_drm_lp", build)
    return sol, masks


def _check_row_generation(monkeypatch, inst, mode="exact"):
    """solve_drm answers in the full LP's vectors: its dual certifies the
    value, and its assignment holds every row and attains the value;
    exactly in exact mode, to the float tolerances in float mode."""
    sol, masks = _row_generation(monkeypatch, inst, mode)
    full = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer,
                        inst.outside_option)
    assert sol.certified
    assert (len(sol.assignment), len(sol.dual)) == (full.n_vars, full.n_rows)
    for before, after in zip(masks, masks[1:]):  # each round adds pairs
        assert (after >= before).all() and after.sum() > before.sum()
    x = sol.assignment
    lhs = np.zeros(full.n_rows, dtype=x.dtype)
    np.add.at(lhs, full.row, full.val * x[full.col])
    slack = np.where(full.relations == "=", -abs(lhs - full.rhs),
                     lhs - full.rhs)
    value = (full.objective * x).sum()
    if mode == "exact":
        assert sol.value == solve_lp(full, mode="exact").value
        assert dual_bound(full, sol.dual) == sol.value
        assert (slack >= 0).all()
        assert value == sol.value
    else:
        assert abs(sol.value - solve_lp(full, mode="float").value) <= 1e-9
        bound = dual_bound(full, sol.dual, tol=1e-7)
        assert abs(bound - sol.value) <= 1e-8 * abs(sol.value)
        assert slack.min() >= -FLOAT_TT_TOL
        assert abs(value - sol.value) <= 1e-12 * abs(sol.value)


@pytest.mark.parametrize("name", ["college1", "college2", "outside+1/2 on T2",
                                  "outside-1/2 on T1"])
def test_row_generation_certifies_the_college_optimum(monkeypatch, college1,
                                                      college2, name):
    inst = {"college1": college1, "college2": college2,
            "outside+1/2 on T2": _with_outside(college2,
                                                       {T2: F(1, 2)}),
            "outside-1/2 on T1": _with_outside(college2,
                                                       {T1: F(-1, 2)})}[name]
    _check_row_generation(monkeypatch, inst)
    if name == "outside-1/2 on T1":  # a negative outside option never binds
        assert solve_drm(inst)[0].value == F(53, 24)


def test_row_generation_keeps_the_zero_floor_on_negative_outside_options(
        monkeypatch):
    """w >= 0 holds in the LP, so a pair's deviation term per score is
    max(gain, outside * r, 0) even when outside < 0.  Here the restricted
    optimum leaves (t0, t2) violated only through that floor: without it
    separation stops early at 65/54, above the full optimum 605/504."""
    t0, t1, t2 = (AgentType("t0", "a2"), AgentType("t1", "a1"),
                  AgentType("t2", "a1"))
    space = FiniteTypeSpace(types=(t0, t1, t2), scores=("a0", "a1", "a2"),
                            outcomes=("no", "yes"),
                            prior={t: F(1, 3) for t in (t0, t1, t2)})
    costs = CostModel.tabulated({
        ("a0", t0): F(3, 2), ("a1", t0): F(1, 4), ("a2", t0): F(0),
        ("a0", t1): F(3, 2), ("a1", t1): F(0), ("a2", t1): F(0),
        ("a0", t2): F(5, 4), ("a1", t2): F(0), ("a2", t2): F(1)})
    designer = DesignerPayoff(decision_value={
        ("yes", t0): F(5, 2), ("yes", t1): F(-1, 4), ("yes", t2): F(5, 4),
        ("no", t0): F(0), ("no", t1): F(0), ("no", t2): F(0)})
    inst = Instance(space=space, costs=costs,
                    agent=AgentPayoff.unit_approval(space, "yes"),
                    designer=designer,
                    outside_option={t0: F(-1), t2: F(-1, 4)})
    _check_row_generation(monkeypatch, inst)
    assert solve_drm(inst)[0].value == F(605, 504)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("cost", ["linear", "quadratic"])
@pytest.mark.parametrize("prior", ["uniform", "texp"])
def test_row_generation_certifies_the_ladder_optimum(monkeypatch, prior,
                                                     cost, n):
    """The instances of ``test_exact_ladder_pins_the_optimum...``."""
    from scoremech.continuous import TruncatedExponential, Uniform, discretize

    dist = {"uniform": Uniform(-2.0, 1.0),
            "texp": TruncatedExponential(-2.0, 1.0, 1.0)}[prior]
    costs = CostModel(cost, gamma=4.0, domain=(-2.0, 1.0))
    _check_row_generation(monkeypatch,
                          _to_fractions(discretize(dist, costs, n)))


def test_row_generation_certifies_random_optima(monkeypatch):
    rng = random.Random(60901)
    for _ in range(50):
        _check_row_generation(monkeypatch, random_instance(rng, max_types=3,
                                                           n_scores=2))


def test_row_generation_certifies_random_optima_with_outside_options(
        monkeypatch):
    """Five types and three scores leave non-adjacent pairs to separate;
    outside options in [-1, 1] exercise both the quit term and the zero
    floor."""
    rng = random.Random(20020801)
    for _ in range(60):
        inst = random_instance(rng, max_types=5, n_scores=3)
        _check_row_generation(monkeypatch, _with_outside(inst, {
            t: random_rational(rng, -1, 1, 8) for t in inst.space.types}))


@pytest.mark.parametrize("cost", ["linear", "quadratic"])
def test_float_row_generation_matches_the_full_lp(monkeypatch, cost):
    from scoremech.continuous import Uniform, discretize

    _check_row_generation(monkeypatch, discretize(
        Uniform(-2.0, 1.0), CostModel(cost, gamma=4.0, domain=(-2.0, 1.0)),
        16), "float")


def test_row_generation_solves_only_lps_smaller_than_the_full_lp(
        monkeypatch):
    """Exact n=6: every LP solve_drm hands to the solver is restricted,
    and the reported iterations are summed over the rounds."""
    from scoremech.continuous import Uniform, discretize

    inst = _to_fractions(discretize(
        Uniform(-2.0, 1.0), CostModel.linear(4.0, (-2.0, 1.0)), 6))
    full = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
    solved = []

    def recording_solve_lp(lp, mode="exact", **kw):
        sol = solve_lp(lp, mode=mode, **kw)
        solved.append((lp.n_rows, sol.iterations))
        return sol

    monkeypatch.setattr(finite, "solve_lp", recording_solve_lp)
    sol, _ = solve_drm(inst, mode="exact")
    assert sol.value == F(13, 192)
    assert solved and all(rows < full.n_rows for rows, _ in solved)
    assert sol.iterations == sum(it for _, it in solved)


# ---------------------------------------------------------------------------
# mechanism table round trip
# ---------------------------------------------------------------------------

def test_mechanism_table_roundtrip_exact(tmp_path, college2,
                                         menu_mechanism):
    path = tmp_path / "mech.tsv"
    write_mechanism_table(college2.space, menu_mechanism, path)
    back = read_mechanism_table(path)
    for key, value in menu_mechanism.recommendation.items():
        assert back.recommendation[key] == value
    for key, value in menu_mechanism.decision.items():
        assert back.decision[key] == value


def test_exact_n5_solve_pins_the_optimum_and_simplex_steps():
    """Fraction-discretized n=5, Uniform(-2, 1), linear cost, gamma 4.

    The step count pins the pivot sequence of the exact simplex (Bland's
    rule and its tie-breaks), which a faster pivot must not change.
    """
    from scoremech.continuous import Uniform, discretize

    inst = _to_fractions(discretize(
        Uniform(-2.0, 1.0), CostModel.linear(4.0, (-2.0, 1.0)), 5))
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer,
                      inst.outside_option)
    sol = solve_lp(lp, mode="exact")
    assert sol.optimal and sol.certified
    assert sol.value == F(3498715656629912269928973509591,
                          50706024009129176059868128215040)
    assert sol.iterations == 115


@pytest.mark.parametrize("prior,cost,n,value,iterations", [
    ("uniform", "linear", 3, F(1, 16), 22),
    ("uniform", "quadratic", 3, F(3, 32), 21),
    ("texp", "linear", 3, 0, 15),
    ("texp", "quadratic", 3, 0, 15),
    ("uniform", "linear", 4, F(69, 1024), 48),
    ("uniform", "quadratic", 4, F(225, 2048), 42),
    ("texp", "linear", 4, 0, 27),
    ("texp", "quadratic", 4, 0, 27),
    ("texp", "linear", 5, 0, 43),
    ("texp", "quadratic", 5, 0, 43),
    ("uniform", "quadratic", 5,
     F(39429004269498837450277471813371,
       405648192073033408478945025720320), 120),
    ("uniform", "linear", 6, F(13, 192), 189),
    ("uniform", "quadratic", 6, F(49, 512), 197),
])
def test_exact_ladder_pins_the_optimum_and_simplex_steps(prior, cost, n,
                                                         value, iterations):
    """Fraction-discretized instances on (-2, 1), gamma 4: like the n=5
    pin above, the step count pins the exact simplex's pivot sequence."""
    from scoremech.continuous import TruncatedExponential, Uniform, discretize

    dist = {"uniform": Uniform(-2.0, 1.0),
            "texp": TruncatedExponential(-2.0, 1.0, 1.0)}[prior]
    costs = CostModel(cost, gamma=4.0, domain=(-2.0, 1.0))
    inst = _to_fractions(discretize(dist, costs, n))
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer,
                      inst.outside_option)
    sol = solve_lp(lp, mode="exact")
    assert sol.optimal and sol.certified
    assert (sol.value, sol.iterations) == (value, iterations)
