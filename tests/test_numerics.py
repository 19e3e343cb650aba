import math
import random

import pytest

from scoremech._numerics import (NumericsError, panel_tail, simpson,
                                 simpson_panels)


def test_simpson_raises_on_a_nan_integrand():
    """NaN never meets the convergence test; without a guard the recursion
    runs to max_depth on both halves, about 2^40 evaluations.  The
    integrand gives up after 10,000 calls, so a missing guard fails here
    with AssertionError instead of hanging."""
    calls = []

    def nan_integrand(x):
        calls.append(x)
        if len(calls) > 10_000:
            raise AssertionError("simpson kept recursing on NaN")
        return math.nan

    with pytest.raises(NumericsError, match="not finite"):
        simpson(nan_integrand, 0.0, 1.0)
    assert len(calls) == 5  # the endpoints, the midpoint, one refinement


INTEGRANDS = [
    pytest.param(lambda x: x ** 4 - 3.0 * x, -1.0, 2.0, id="polynomial"),
    pytest.param(math.exp, 0.0, 3.0, id="exp"),
    pytest.param(math.sqrt, 0.0, 1.0, id="sqrt"),
    pytest.param(lambda x: abs(x - 0.3), -1.0, 1.0, id="kink"),
    pytest.param(math.sin, 2.0, -1.0, id="reversed"),
]


@pytest.mark.parametrize("f, a, b", INTEGRANDS)
def test_panels_tile_the_interval_and_sum_to_simpson(f, a, b):
    panels = simpson_panels(f, a, b)
    assert panels[0][0] == a and panels[-1][1] == b
    for (_, hi, _, _), (lo, _, _, _) in zip(panels, panels[1:]):
        assert hi == lo
    step = 1.0 if b > a else -1.0  # in order from a to b
    assert all((hi - lo) * step > 0 for lo, hi, _, _ in panels)
    assert math.fsum(value for _, _, value, _ in panels) == simpson(f, a, b)


@pytest.mark.parametrize("f, a, b", INTEGRANDS)
def test_panels_carry_their_five_values_in_order(f, a, b):
    """Each panel holds f at lo, lo + h/4, lo + h/2, lo + 3h/4 and hi, the
    points the pass evaluated: 4 per panel and the left end, none twice."""
    calls = {}

    def recording(x):
        calls[x] = calls.get(x, 0) + 1
        return f(x)

    panels = simpson_panels(recording, a, b)
    assert sum(calls.values()) == len(calls) == 4 * len(panels) + 1
    for lo, hi, _, fs in panels:
        mid = 0.5 * (lo + hi)
        points = (lo, 0.5 * (lo + mid), mid, 0.5 * (mid + hi), hi)
        assert points == pytest.approx(
            [lo + k * (hi - lo) / 4.0 for k in range(5)], rel=1e-15)
        assert set(points) <= calls.keys()
        assert fs == tuple(f(x) for x in points)


def test_one_panel_at_depth_zero_costs_five_evaluations():
    calls = []

    def f(x):
        calls.append(x)
        return math.exp(x)

    [(lo, hi, value, fs)] = simpson_panels(f, 0.0, 0.5, max_depth=0)
    assert (lo, hi, len(calls)) == (0.0, 0.5, 5)
    assert value == pytest.approx(math.exp(0.5) - 1.0, abs=1e-7)
    assert fs == tuple(math.exp(k / 8.0) for k in range(5))


@pytest.mark.parametrize("degree", range(5))
def test_panel_tail_is_exact_for_quartics(degree):
    """The quartic through a panel's five points is the integrand itself
    when that is a polynomial of degree <= 4, so the tail from t to hi is
    exact at every t; it is the panel's value at lo and 0 at hi."""
    rng = random.Random(degree)
    coeffs = [rng.uniform(-1.0, 1.0) for _ in range(degree + 1)]

    def poly(x):
        return sum(c * x ** k for k, c in enumerate(coeffs))

    def antiderivative(x):
        return sum(c * x ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    lo, hi = -0.7, -0.2
    [panel] = simpson_panels(poly, lo, hi, max_depth=0)
    assert panel_tail(panel, lo) == panel[2]
    assert panel_tail(panel, hi) == pytest.approx(0.0, abs=1e-14)
    for _ in range(50):
        t = lo + rng.random() * (hi - lo)
        assert panel_tail(panel, t) == pytest.approx(
            antiderivative(hi) - antiderivative(t), abs=1e-14)


def test_empty_interval_has_no_panels():
    assert simpson_panels(math.exp, 1.0, 1.0) == []
    assert simpson(math.exp, 1.0, 1.0) == 0.0


def test_panels_raise_on_a_nan_integrand():
    with pytest.raises(NumericsError, match="not finite"):
        simpson_panels(lambda x: math.nan, 0.0, 1.0)
