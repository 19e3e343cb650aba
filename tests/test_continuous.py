import math
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad

from scoremech.continuous import (
    ContinuousError,
    MonotonicityError,
    Tabulated,
    Triangular,
    TruncatedExponential,
    Uniform,
    check_mhr,
    compute_t0,
    discretize,
    read_solution_table,
    solve_continuous,
    write_solution_table,
)
from scoremech import continuous
from scoremech._numerics import simpson
from scoremech.model import CostModel, ModelError
from scoremech.finite import build_drm_lp
from scoremech.lpcore import solve_lp

UNIFORM = Uniform(-2.0, 1.0)
TEXP = TruncatedExponential(-2.0, 1.0, rate=1.0)
TRIANGULAR = Triangular(-2.0, 1.0, mode=-0.5)
ALL_DISTS = [UNIFORM, TEXP, TRIANGULAR]

# analytic cap for uniform[-2, 1], quadratic, gamma = 4:
# (1/2) * (-2/9 + ln(3)/2 + 8/9) = 1/3 + ln(3)/4
P_STAR_UNIFORM_QUAD_4 = 1.0 / 3.0 + math.log(3.0) / 4.0


def _solve(dist, gamma, kind):
    make = CostModel.linear if kind == "linear" else CostModel.quadratic
    return solve_continuous(dist, make(gamma, (dist.s_min, dist.s_max)))


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
def test_distribution_self_consistency(dist):
    assert dist.cdf(dist.s_max) == pytest.approx(1.0, abs=1e-12)
    # cdf matches quadrature of the density
    for t in np.linspace(dist.s_min, dist.s_max, 7):
        ref, _ = quad(dist.pdf, dist.s_min, float(t))
        assert dist.cdf(float(t)) == pytest.approx(ref, abs=1e-9)
    # tail expectations match quadrature of z f(z)
    for t in np.linspace(dist.s_min, dist.s_max, 7):
        ref, _ = quad(lambda z: z * dist.pdf(z), float(t), dist.s_max)
        assert dist.tail_expectation(float(t)) == pytest.approx(ref,
                                                                abs=1e-9)
    # quantile inverts the cdf
    for p in (0.05, 0.25, 0.5, 0.75, 0.95):
        assert dist.cdf(dist.quantile(p)) == pytest.approx(p, abs=1e-10)


@pytest.mark.parametrize("make", [
    lambda: Uniform(1.0, 2.0),
    lambda: Uniform(-2.0, 0.0),
    lambda: Uniform(-math.inf, 1.0),
    lambda: Uniform(-2.0, math.nan),
    lambda: TruncatedExponential(-2.0, 1.0, 0.0),
    lambda: TruncatedExponential(-2.0, 1.0, math.inf),
    lambda: TruncatedExponential(1.0, 2.0),
    lambda: Triangular(1.0, 3.0, 2.0),
    lambda: Tabulated([1.0, 1.5, 2.0], [1.0, 1.0, 1.0]),
    lambda: Tabulated([-2.0, 0.0, 1.0], [1.0, math.nan, 1.0]),
    lambda: Tabulated([-2.0, 0.0, 1.0], [1.0, math.inf, 1.0]),
    lambda: Tabulated([-2.0, math.nan, 1.0], [1.0, 1.0, 1.0]),
], ids=["uniform-positive", "uniform-zero-top", "uniform-infinite",
        "uniform-nan", "texp-rate-0", "texp-rate-inf", "texp-positive",
        "triangular-positive", "tabulated-positive", "tabulated-nan",
        "tabulated-inf", "tabulated-nan-grid"])
def test_invalid_distributions_fail_at_construction(make):
    with pytest.raises(ContinuousError):
        make()


@pytest.mark.parametrize("make, message", [
    (lambda: Triangular(-2.0, 1.0, 1.0),
     "mode must lie strictly inside the support"),
    (lambda: Tabulated([-2.0, 0.0, 1.0], [1.0, 1.0]),
     "grid and density must be 1-d, same length"),
    (lambda: Tabulated([-2.0], [1.0]),
     "grid and density must be 1-d, same length"),
    (lambda: Tabulated([-2.0, 1.0, 0.0], [1.0, 1.0, 1.0]),
     "grid must be strictly increasing"),
    (lambda: Tabulated([-2.0, 0.0, 1.0], [1.0, 0.0, 1.0]),
     "tabulated density must be positive"),
], ids=["triangular-mode-at-top", "tabulated-shape", "tabulated-one-point",
        "tabulated-order", "tabulated-zero-density"])
def test_distribution_refusals_name_the_rule(make, message):
    with pytest.raises(ContinuousError) as caught:
        make()
    assert str(caught.value) == message


def test_tabulated_matches_quadrature():
    xs = np.linspace(-2.0, 1.0, 25)
    dist = Tabulated(xs, 1.0 + 0.5 * np.sin(xs))
    for t in (-1.7, -0.4, 0.3, 0.9):
        ref, _ = quad(dist.pdf, t, 1.0, points=list(xs), limit=200)
        assert 1.0 - dist.cdf(t) == pytest.approx(ref, abs=1e-9)
        ref, _ = quad(lambda z: z * dist.pdf(z), t, 1.0, points=list(xs),
                      limit=200)
        assert dist.tail_expectation(t) == pytest.approx(ref, abs=1e-9)


def test_tabulated_solve_does_not_depend_on_the_grid_size():
    """A linear density on 101 and on 10,001 grid points is one
    distribution: the solves agree to 1e-12, and the fine grid, whose
    queries read node tables, solves in well under 2 s."""
    costs = CostModel.quadratic(4.0, (-2.0, 1.0))
    ts = np.linspace(-2.0, 1.0, 401)
    answers = []
    for n in (101, 10_001):
        xs = np.linspace(-2.0, 1.0, n)
        start = time.perf_counter()
        sol = solve_continuous(Tabulated(xs, 1.2 - 0.3 * xs), costs)
        answers.append(([sol.t0, sol.t_star, sol.p_star,
                         sol.designer_value()], sol.sample(ts)))
        elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    (coarse, coarse_table), (fine, fine_table) = answers
    np.testing.assert_allclose(fine, coarse, rtol=0, atol=1e-12)
    for key, column in coarse_table.items():
        np.testing.assert_allclose(fine_table[key], column, rtol=0,
                                   atol=1e-12)


# ---------------------------------------------------------------------------
# t0
# ---------------------------------------------------------------------------

def test_t0_uniform():
    # integral_t0^1 z dz = (1 - t0^2)/2 = 0  =>  t0 = -1
    assert compute_t0(UNIFORM) == pytest.approx(-1.0, abs=1e-10)


def test_t0_independent_of_lower_endpoint():
    assert compute_t0(Uniform(-3.0, 1.0)) == pytest.approx(-1.0, abs=1e-10)


def test_t0_symmetric_tabulated():
    # symmetric about 0 on [-1, 1]; the extra mass below -1 cannot matter
    dist = Tabulated([-2.0, -1.0, 0.0, 1.0], [0.4, 0.3, 0.5, 0.3])
    assert compute_t0(dist) == pytest.approx(-1.0, abs=1e-9)


def test_t0_requires_negative_mean():
    with pytest.raises(ContinuousError):
        compute_t0(Uniform(-1.0, 2.0))


# ---------------------------------------------------------------------------
# regime detection / first best
# ---------------------------------------------------------------------------

def test_first_best_quadratic_matches_left_panel():
    sol = solve_continuous(UNIFORM, CostModel.quadratic(1.0, (-2.0, 1.0)))
    assert sol is not None and sol.regime == "first_best"
    assert sol.a_star(0.0) == pytest.approx(1.0)  # falsify to sqrt(gamma)
    for t in np.linspace(-2.0, 1.0, 301):
        expected_q = 1.0 if t >= 0 else 0.0
        assert sol.Q(t) == pytest.approx(expected_q, abs=1e-10)
        if t >= 0:
            assert sol.cost(t) == pytest.approx((1.0 - t) ** 2, abs=1e-10)


def test_first_best_linear_below_threshold():
    sol = solve_continuous(UNIFORM, CostModel.linear(0.9, (-2.0, 1.0)))
    assert sol is not None and sol.regime == "first_best"
    assert sol.a_star(0.5) == pytest.approx(0.9)
    assert sol.U(0.0) == pytest.approx(0.0, abs=1e-12)
    # C is 1/gamma on the types that falsify up to the prize score
    ts = [-0.5, 0.0, 0.5, 0.9, 1.0]
    assert [sol.C(t) for t in ts] == [0.0, 1 / 0.9, 1 / 0.9, 0.0, 0.0]
    assert [sol.C_ic(t) for t in ts] == [sol.C(t) for t in ts]


def test_first_best_none_when_gaming_is_cheap():
    assert _solve(UNIFORM, 4.0, "linear").regime == "interior"
    assert _solve(UNIFORM, 4.0, "quadratic").regime == "interior"


def test_boundary_gamma_counts_as_first_best():
    for dist in (UNIFORM, Uniform(-3.0, 2.0)):
        s_max = dist.s_max
        assert _solve(dist, s_max, "linear").regime == "first_best"
        assert _solve(dist, s_max ** 2, "quadratic").regime == "first_best"
    # s_max = 2: the linear threshold is s_max, not s_max^2
    assert _solve(Uniform(-3.0, 2.0), 4.0, "linear").regime == "interior"


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
@pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan])
def test_solve_continuous_rejects_nonpositive_gamma(kind, gamma):
    with pytest.raises(ModelError, match="requires gamma > 0"):
        _solve(UNIFORM, gamma, kind)


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_infinite_gamma_approves_nobody(kind):
    sol = _solve(UNIFORM, math.inf, kind)
    assert sol.regime == "interior" and sol.p_star == 0.0


def test_solve_continuous_dispatch():
    assert solve_continuous(
        UNIFORM, CostModel.quadratic(0.8, (-2, 1))).regime == "first_best"
    assert solve_continuous(
        UNIFORM, CostModel.quadratic(4.0, (-2, 1))).regime == "interior"


# ---------------------------------------------------------------------------
# linear solver
# ---------------------------------------------------------------------------

def test_linear_uniform_gamma4():
    sol = _solve(UNIFORM, 4.0, "linear")
    assert sol.p_star == pytest.approx(0.5, abs=1e-12)
    assert sol.t_star == pytest.approx(-1.0, abs=1e-10)
    assert sol.Q(-0.5) == pytest.approx(0.125, abs=1e-12)


def test_linear_uniform_gamma15():
    sol = _solve(UNIFORM, 1.5, "linear")
    assert sol.p_star == pytest.approx(1.0)
    assert sol.t_star == pytest.approx(-0.5, abs=1e-12)
    assert sol.Q(-0.25) == pytest.approx(1.0 - 1.25 / 1.5, abs=1e-12)


@pytest.mark.parametrize("dist", ALL_DISTS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("gamma", [1.5, 4.0, 8.0])
def test_linear_top_type_pays_nothing(dist, gamma):
    sol = _solve(dist, gamma, "linear")
    assert sol.a_star(dist.s_max) == dist.s_max
    assert sol.cost(dist.s_max) == 0.0
    assert sol.Q(dist.s_max) == pytest.approx(sol.p_star)
    assert sol.U(dist.s_max) == pytest.approx(sol.p_star)


# ---------------------------------------------------------------------------
# quadratic solver
# ---------------------------------------------------------------------------

def test_quadratic_uniform_gamma4_closed_forms():
    sol = _solve(UNIFORM, 4.0, "quadratic")
    assert sol.t0 == pytest.approx(-1.0, abs=1e-10)
    assert sol.t_star == pytest.approx(-1.0, abs=1e-10)
    assert sol.t_dagger == pytest.approx(-1.0 / 3.0, abs=1e-8)
    for t in np.linspace(-1.0, -1.0 / 3.0, 100):
        assert sol.a_star(t) == pytest.approx(1.5 * t - 0.5 / t, abs=1e-10)
    assert sol.p_star == pytest.approx(P_STAR_UNIFORM_QUAD_4, abs=1e-4)
    # consistent with the worked figure's constant level 2.43 / gamma
    assert sol.p_star == pytest.approx(2.43 / 4.0, abs=1e-3)


def test_quadratic_plateau_above_t_dagger():
    sol = _solve(UNIFORM, 4.0, "quadratic")
    for t in np.linspace(sol.t_dagger, 1.0, 50):
        assert sol.Q(t) == pytest.approx(sol.p_star, abs=1e-10)
        assert sol.a_star(t) == 1.0


def test_quadratic_clamps_cap_at_one():
    sol = _solve(UNIFORM, 1.5, "quadratic")
    assert sol.p_star == 1.0
    # U(t*) = 0 pins (s_max - t*)^2 = gamma here
    assert sol.t_star == pytest.approx(1.0 - math.sqrt(1.5), abs=1e-10)
    assert sol.U(sol.t_star) == pytest.approx(0.0, abs=1e-10)
    assert sol.t_star <= sol.t_dagger


def test_quadratic_refuses_non_mhr_distribution():
    xs = np.linspace(-2.0, 1.0, 31)
    bimodal = Tabulated(xs, 0.5 + 0.45 * np.cos(4.0 * xs))
    assert not check_mhr(bimodal).passes
    with pytest.raises(MonotonicityError, match="monotonicity unverified"):
        _solve(bimodal, 4.0, "quadratic")


@pytest.mark.parametrize("make_dist", [
    lambda: Uniform(-2.0, 1.0),
    lambda: TruncatedExponential(-2.0, 1.0, rate=1.0),
    lambda: Triangular(-2.0, 1.0, mode=-0.5),
    # not a dataclass: the verdict is stored on a plain instance too
    lambda: Tabulated(np.linspace(-2.0, 1.0, 31),
                      1.2 - 0.3 * np.linspace(-2.0, 1.0, 31)),
], ids=["Uniform", "TruncatedExponential", "Triangular", "Tabulated"])
def test_gamma_sweep_checks_the_hazard_rate_once(monkeypatch, make_dist):
    calls = []

    def counting_check_mhr(dist):
        calls.append(dist)
        return check_mhr(dist)

    monkeypatch.setattr(continuous, "check_mhr", counting_check_mhr)
    dist = make_dist()
    gammas = np.geomspace(1.1, 8.0, 23)
    sweep = [_solve(dist, float(g), "quadratic") for g in gammas]
    assert {sol.regime for sol in sweep} == {"interior"}
    assert calls == [dist]
    # the public check keeps no cache of its own
    assert check_mhr(dist) is not check_mhr(dist)
    # a fresh, equal distribution checks again
    _solve(make_dist(), 4.0, "quadratic")
    assert len(calls) == 2


def test_non_mhr_distribution_is_refused_on_every_solve():
    xs = np.linspace(-2.0, 1.0, 31)
    bimodal = Tabulated(xs, 0.5 + 0.45 * np.cos(4.0 * xs))
    slope = check_mhr(bimodal).min_hazard_slope
    message = (f"monotonicity unverified: hazard rate decreases "
               f"(min slope {slope:.3g}); solution refused")
    for gamma in (2.0, 4.0, 4.0, 8.0):
        with pytest.raises(MonotonicityError) as err:
            _solve(bimodal, gamma, "quadratic")
        assert str(err.value) == message
    assert check_mhr(bimodal) is not check_mhr(bimodal)


# U and Q are read off one quadrature table per solve: a partial panel is
# closed by integrating the quartic through its five stored points, with no
# prior evaluation, which these closed-form and high-precision references
# hold to 1e-11.

@pytest.mark.parametrize("gamma", [4.0, 8.0])
def test_quadratic_uniform_envelope_matches_closed_form(gamma):
    """Uniform(-2, 1): gap(t) = -(1 - t^2)/(2t), t_dagger = -1/3 and, for
    t0 <= t < t_dagger, integral_t^1 C = (ln 3 + ln|t| + 1/18 - t^2/2
    + 16/9)/gamma, so p* = (ln 3 + 4/3)/gamma."""
    sol = _solve(UNIFORM, gamma, "quadratic")
    assert sol.p_star == pytest.approx((math.log(3.0) + 4.0 / 3.0) / gamma,
                                       abs=1e-11)
    t_dag = -1.0 / 3.0

    def integral_C(t):
        if t >= t_dag:
            return (1.0 - t) ** 2 / gamma
        return (math.log(3.0) + math.log(abs(t)) + 1.0 / 18.0 - t * t / 2.0
                + 16.0 / 9.0) / gamma

    def gap(t):
        return 1.0 - t if t >= t_dag else -(1.0 - t * t) / (2.0 * t)

    for t in np.linspace(sol.t_star, 1.0, 401):
        u = sol.p_star - integral_C(t)
        assert sol.U(t) == pytest.approx(u, abs=1e-11)
        assert sol.Q(t) == pytest.approx(u + gap(t) ** 2 / gamma, abs=1e-11)


@pytest.mark.parametrize("gamma", [4.0, 8.0])
@pytest.mark.parametrize("dist", [
    TruncatedExponential(-2.0, 1.0, rate=1.0),
    Triangular(-2.0, 1.0, mode=-0.3),
], ids=lambda d: type(d).__name__)
def test_quadratic_envelope_matches_fine_quadrature(dist, gamma):
    """Non-polynomial priors; the triangular density's kink at its mode
    lies inside (t0, t_dagger), so inside the quadrature table."""
    sol = _solve(dist, gamma, "quadratic")
    t_dag = sol.t_dagger
    assert sol.t_star < t_dag
    if isinstance(dist, Triangular):
        assert sol.t0 < dist.mode < t_dag

    def c(z):
        return -2.0 * dist.tail_expectation(z) / (z * dist.pdf(z) * gamma)

    ts = np.linspace(sol.t_star, t_dag, 201)
    # integral of C from ts[i] to t_dagger, piece by piece from the right
    pieces = [simpson(c, lo, hi, tol=1e-14) for lo, hi in zip(ts, ts[1:])]
    head = np.cumsum(pieces[::-1])[::-1]
    tail = (dist.s_max - t_dag) ** 2 / gamma
    for t, integral in zip(ts[:-1], head):
        assert sol.U(t) == pytest.approx(sol.p_star - integral - tail,
                                         abs=1e-11)


def test_quadratic_solution_integrates_the_envelope_once():
    """Work guard: a U query costs no prior evaluation and a Q query one,
    its gap below t_dagger.  A fresh adaptive quadrature per query would
    cost about 10,800 calls each."""
    calls = []

    @dataclass(frozen=True)
    class CountingUniform(Uniform):
        def tail_expectation(self, t):
            calls.append(t)
            return super().tail_expectation(t)

    sol = _solve(CountingUniform(-2.0, 1.0), 4.0, "quadratic")
    ts = np.linspace(-2.0, 1.0, 401)
    calls.clear()
    [sol.U(t) for t in ts]
    assert calls == []
    for t in ts:
        calls.clear()
        sol.Q(t)
        assert len(calls) == (sol.t_star <= t < sol.t_dagger)
    calls.clear()
    sol.sample(ts)
    assert len(calls) <= 2000
    calls.clear()
    sol.designer_value()
    assert len(calls) <= 2000


def test_sample_reads_the_cost_column_off_the_a_star_column():
    """The cost column costs no prior evaluation of its own: a per-point
    ``cost(t)`` would repeat the a*(t) of every interior point."""
    calls = []

    @dataclass(frozen=True)
    class CountingUniform(Uniform):
        def tail_expectation(self, t):
            calls.append(t)
            return super().tail_expectation(t)

    sol = _solve(CountingUniform(-2.0, 1.0), 4.0, "quadratic")
    ts = np.linspace(-2.0, 1.0, 401)

    def count(fn):
        calls.clear()
        fn()
        return len(calls)

    interior = sum(sol.t_star <= t < sol.t_dagger for t in ts)
    assert interior > 50
    assert count(lambda: [sol.cost(t) for t in ts]) == interior
    columns = sum(count(lambda f=f: [f(t) for t in ts])
                  for f in (sol.a_star, sol.U, sol.C))
    assert count(lambda: sol.sample(ts)) == columns
    table = sol.sample(ts)
    assert np.array_equal(table["cost"], [sol.cost(t) for t in ts])
    assert np.array_equal(table["a_star"], [sol.a_star(t) for t in ts])


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_deviation_cost_on_arrays_matches_the_scalar_formula(kind):
    """Bit for bit: an array's ``** 2`` multiplies, while the scalar
    ``**`` calls C pow, and on some platforms the two round apart."""
    sol = _solve(UNIFORM, 4.0, kind)
    rng = np.random.default_rng(7)
    a, t = rng.uniform(-2.0, 1.0, (2, 20000))
    if kind == "linear":
        scalar = [abs(x - y) / 4.0 for x, y in zip(a.tolist(), t.tolist())]
    else:
        scalar = [(x - y) ** 2 / 4.0 for x, y in zip(a.tolist(), t.tolist())]
    assert np.array_equal(sol.deviation_cost(a, t), scalar)
    assert sol.deviation_cost(a[0], t[0]) == scalar[0]


# ---------------------------------------------------------------------------
# hazard-rate check
# ---------------------------------------------------------------------------

def test_mhr_uniform_passes():
    report = check_mhr(UNIFORM)
    assert report.passes
    # hazard of the uniform is 1/(1-t): spot check
    i = len(report.grid) // 2
    t = report.grid[i]
    assert report.hazard[i] == pytest.approx(1.0 / (1.0 - t), rel=1e-9)


def test_mhr_truncated_exponential_passes():
    assert check_mhr(TEXP).passes


@pytest.mark.parametrize("rate", [12.0, 20.0, 200.0])
def test_mhr_steep_truncated_exponential_passes(rate):
    """The hazard rate rate / (1 - exp(-rate (s_max - t))) rises on the
    whole support.  Near the 1e-12 survival cut-off, 1 - cdf keeps about
    4 digits, which read as slopes of about -0.1 rate; ``sf`` does not
    cancel."""
    report = check_mhr(TruncatedExponential(-2.0, 1.0, rate))
    assert report.passes
    assert report.min_hazard_slope > -1e-9


@pytest.mark.parametrize("cost", ["linear", "quadratic"])
@pytest.mark.parametrize("rate", [12.0, 20.0])
def test_steep_truncated_exponential_solves_in_the_interior(rate, cost):
    sol = solve_continuous(TruncatedExponential(-2.0, 1.0, rate),
                           CostModel(cost, gamma=4.0, domain=(-2.0, 1.0)))
    assert sol.regime == "interior"
    assert sol.t0 == pytest.approx(-1.0 / rate, rel=1e-4)


def test_truncated_exponential_survival_matches_one_minus_cdf():
    dist = TruncatedExponential(-2.0, 1.0, 3.0)
    for t in (-3.0, -2.0, -0.5, 0.9, 1.0, 2.0):
        assert dist.sf(t) == pytest.approx(1.0 - dist.cdf(t), abs=1e-15)


def test_mhr_grid_does_not_grow_with_the_support():
    report = check_mhr(Uniform(-20.0, 10.0))
    assert report.passes
    assert len(report.grid) <= 3001


def test_mhr_bimodal_valley_fails():
    xs = np.linspace(-2.0, 1.0, 31)
    report = check_mhr(Tabulated(xs, 0.5 + 0.45 * np.cos(4.0 * xs)))
    assert not report.passes
    assert report.min_hazard_slope < -1e-8


# ---------------------------------------------------------------------------
# discretization
# ---------------------------------------------------------------------------

def test_discretize_uniform_quantiles():
    inst = discretize(UNIFORM, CostModel.linear(4.0, (-2.0, 1.0)), 3)
    values = [inst.space.score_value(t.score) for t in inst.space.types]
    assert values == pytest.approx([-1.5, -0.5, 0.5])
    assert all(inst.space.mass(t) == pytest.approx(1 / 3)
               for t in inst.space.types)
    top = inst.space.scores[-1]
    assert inst.space.score_value(top) == pytest.approx(1.0)
    # tabulated costs reproduce |a - t| / gamma
    t0 = inst.space.types[0]
    assert inst.costs.cost(top, t0) == pytest.approx(2.5 / 4.0)


def test_discretize_median_split():
    inst = discretize(TEXP, CostModel.linear(4.0, (-2.0, 1.0)), 2)
    values = [inst.space.score_value(t.score) for t in inst.space.types]
    assert values == pytest.approx([TEXP.quantile(0.25),
                                    TEXP.quantile(0.75)])


def test_discretize_tabulated_reads_quantiles_off_the_cdf():
    """Tabulated has no closed-form quantile; discretize bisects its cdf."""
    xs = np.linspace(-2.0, 1.0, 31)
    dist = Tabulated(xs, 1.2 - 0.3 * xs)
    inst = discretize(dist, CostModel.linear(4.0, (-2.0, 1.0)), 4)
    values = [inst.space.score_value(t.score) for t in inst.space.types]
    assert [dist.cdf(v) for v in values] == pytest.approx(
        [1 / 8, 3 / 8, 5 / 8, 7 / 8], abs=1e-12)


def test_discretize_lp_tracks_continuous_value():
    """13-type grid lands within 0.05 of the quadrature value; the gap
    shrinks monotonically along 7 -> 13 -> 25."""
    costs = CostModel.linear(4.0, (-2.0, 1.0))
    continuous_value = _solve(UNIFORM, 4.0, "linear").designer_value()
    # analytic check of the oracle itself: 5/72
    assert continuous_value == pytest.approx(5.0 / 72.0, abs=1e-10)
    gaps = []
    for n in (7, 13, 25):
        inst = discretize(UNIFORM, costs, n)
        lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
        sol = solve_lp(lp, mode="float")
        assert sol.status == "optimal" and sol.certified
        gaps.append(abs(sol.value - continuous_value))
    assert gaps[1] < 0.05
    assert gaps[0] > gaps[1] > gaps[2]


def test_discretize_rejects_tiny_grids():
    with pytest.raises(ContinuousError):
        discretize(UNIFORM, CostModel.linear(4.0, (-2.0, 1.0)), 1)


def test_discretize_rejects_zero_gamma():
    with pytest.raises(ModelError, match="requires gamma > 0"):
        discretize(UNIFORM, CostModel.linear(0.0, (-2.0, 1.0)), 5)


# ---------------------------------------------------------------------------
# solution export
# ---------------------------------------------------------------------------

def test_solution_table_roundtrip(tmp_path):
    sol = _solve(UNIFORM, 4.0, "quadratic")
    ts = np.linspace(-2.0, 1.0, 37)
    path = tmp_path / "solution.tsv"
    write_solution_table(sol, ts, path)
    data = read_solution_table(path)
    assert set(data) == {"t", "a_star", "Q_star", "C", "U", "cost"}
    np.testing.assert_allclose(data["t"], ts, atol=1e-10)
    np.testing.assert_allclose(data["Q_star"],
                               [sol.Q(t) for t in ts], atol=1e-10)


def test_solution_table_reader_checks_the_header(tmp_path):
    """The reader used to take its column names from whatever header the
    file had; it now refuses any header but ``SOLUTION_HEADER``."""
    path = tmp_path / "solution.tsv"
    write_solution_table(_solve(UNIFORM, 4.0, "linear"), [0.0, 0.5], path)
    header, *rows = path.read_text().splitlines()
    assert header == continuous.SOLUTION_HEADER
    path.write_text("\n".join([header.replace("U", "V")] + rows) + "\n")
    with pytest.raises(ModelError, match="unexpected solution table header"):
        read_solution_table(path)
