"""Structural invariants of the continuous solutions.

Envelope identities are verified against an independent integrator
(scipy's Gauss-Kronrod rule, segmented at the solution's breakpoints)
rather than the solver's own adaptive Simpson; incentive compatibility is
verified by direct grid search over deviations.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from scoremech.audit import best_response_continuous
from scoremech.continuous import (
    Triangular,
    TruncatedExponential,
    Uniform,
    check_mhr,
    solve_continuous,
)
from scoremech.model import CostModel

DISTS = [Uniform(-2.0, 1.0),
         TruncatedExponential(-2.0, 1.0, rate=1.0),
         Triangular(-2.0, 1.0, mode=-0.5)]
GAMMAS = [1.5, 4.0, 8.0]

ENVELOPE_TOL = 1e-8
SLOPE_TOL = -1e-8
DEVIATION_TOL = 1e-6


def _interior(dist, gamma, kind):
    make = CostModel.linear if kind == "linear" else CostModel.quadratic
    return solve_continuous(dist, make(gamma, (dist.s_min, dist.s_max)))


def _suffix_integrals(sol, ts):
    """integral of C from each grid point to the top, via scipy quad.

    Accumulates segment integrals right to left, splitting segments at the
    solution's breakpoints so the integrand is smooth inside each call.
    """
    breaks = {sol.t_star, 0.0}
    if sol.t_dagger is not None:
        breaks.add(sol.t_dagger)
    out = np.zeros(len(ts))
    acc = 0.0
    for i in range(len(ts) - 2, -1, -1):
        lo, hi = ts[i], ts[i + 1]
        cuts = sorted({lo, hi} | {b for b in breaks if lo < b < hi})
        for a, b in zip(cuts, cuts[1:]):
            seg, _ = quad(sol.C, a, b, epsabs=1e-13, limit=100)
            acc += seg
        out[i] = acc
    return out


def _cases():
    for dist in DISTS:
        for gamma in GAMMAS:
            for kind in ("linear", "quadratic"):
                yield pytest.param(
                    dist, gamma, kind,
                    id=f"{type(dist).__name__}-{kind}-g{gamma}")


@pytest.mark.parametrize("dist,gamma,kind", list(_cases()))
def test_envelope_identity(dist, gamma, kind):
    """U(t) = U(s_max) - int_t^s_max C and Q = U + cost, on a 1000-grid."""
    sol = _interior(dist, gamma, kind)
    ts = np.linspace(dist.s_min, dist.s_max, 1000)
    cols = sol.sample(ts)
    suffix = _suffix_integrals(sol, ts)
    u_top = sol.U(dist.s_max)
    assert u_top == pytest.approx(sol.p_star, abs=1e-12)
    expected_u = np.where(ts < sol.t_star, 0.0, u_top - suffix)
    np.testing.assert_allclose(cols["U"], expected_u, atol=ENVELOPE_TOL)
    q_direct = np.array([sol.Q(t) for t in ts])
    np.testing.assert_allclose(q_direct, cols["U"] + cols["cost"],
                               atol=ENVELOPE_TOL)


@pytest.mark.parametrize("dist,gamma,kind", list(_cases()))
def test_monotonicity_invariants(dist, gamma, kind):
    sol = _interior(dist, gamma, kind)
    ts = np.linspace(dist.s_min, dist.s_max, 1000)
    dt = ts[1] - ts[0]
    c_ic = np.array([sol.C_ic(t) for t in ts])
    assert np.all(np.diff(c_ic) / dt >= SLOPE_TOL), \
        "IC envelope derivative must be nondecreasing"
    if kind == "quadratic":
        assert check_mhr(dist).passes
    a = np.array([sol.a_star(t) for t in ts])
    assert np.all(np.diff(a) / dt >= SLOPE_TOL)
    q = np.array([sol.Q(t) for t in ts])
    assert np.all(np.diff(q) / dt >= SLOPE_TOL)
    assert np.all((q >= -1e-12) & (q <= 1.0 + 1e-12))


@pytest.mark.parametrize("dist,gamma,kind", list(_cases()))
def test_solution_shape(dist, gamma, kind):
    sol = _interior(dist, gamma, kind)
    assert dist.s_min <= sol.t0 <= sol.t_star
    assert 0.0 <= sol.p_star <= 1.0
    assert sol.U(sol.t_star) == pytest.approx(0.0, abs=1e-8)
    for t in np.linspace(dist.s_min, sol.t_star - 1e-9, 50):
        assert sol.Q(t) == 0.0
        assert sol.a_star(t) == t
    plateau_from = sol.t_dagger if sol.t_dagger is not None else 0.0
    assert sol.t_star <= plateau_from <= dist.s_max
    for t in np.linspace(plateau_from, dist.s_max, 50):
        assert sol.Q(t) == pytest.approx(sol.p_star, abs=1e-9)


@pytest.mark.parametrize("dist,gamma,kind", list(_cases()))
def test_no_profitable_deviation_on_200x200_grid(dist, gamma, kind):
    sol = _interior(dist, gamma, kind)
    types = np.linspace(dist.s_min, dist.s_max, 200)
    reports = np.linspace(dist.s_min, dist.s_max, 200)
    gain, where = best_response_continuous(sol, types, reports)
    assert gain <= DEVIATION_TOL, f"profitable deviation at {where}"


@pytest.mark.parametrize("kind,threshold", [("linear", 1.0),
                                            ("quadratic", 1.0)])
def test_first_best_boundary_continuity(kind, threshold):
    """Just above the regime threshold the interior value meets first-best."""
    dist = Uniform(-2.0, 1.0)
    gamma = threshold * (1.0 + 1e-3)
    interior = _interior(dist, gamma, kind)
    if kind == "linear":
        costs = CostModel.linear(threshold, (-2.0, 1.0))
    else:
        costs = CostModel.quadratic(threshold, (-2.0, 1.0))
    first_best = solve_continuous(dist, costs)
    assert first_best is not None
    assert abs(interior.designer_value() - first_best.designer_value()) \
        <= 1e-4
