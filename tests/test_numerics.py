import math

import pytest

from scoremech._numerics import NumericsError, simpson, simpson_panels


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
    for (_, hi, _), (lo, _, _) in zip(panels, panels[1:]):
        assert hi == lo
    step = 1.0 if b > a else -1.0  # in order from a to b
    assert all((hi - lo) * step > 0 for lo, hi, _ in panels)
    assert math.fsum(value for _, _, value in panels) == simpson(f, a, b)


def test_one_panel_at_depth_zero_costs_five_evaluations():
    calls = []

    def f(x):
        calls.append(x)
        return math.exp(x)

    [(lo, hi, value)] = simpson_panels(f, 0.0, 0.5, max_depth=0)
    assert (lo, hi, len(calls)) == (0.0, 0.5, 5)
    assert value == pytest.approx(math.exp(0.5) - 1.0, abs=1e-7)


def test_empty_interval_has_no_panels():
    assert simpson_panels(math.exp, 1.0, 1.0) == []
    assert simpson(math.exp, 1.0, 1.0) == 0.0


def test_panels_raise_on_a_nan_integrand():
    with pytest.raises(NumericsError, match="not finite"):
        simpson_panels(lambda x: math.nan, 0.0, 1.0)
