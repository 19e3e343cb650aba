import math

import pytest

from scoremech._numerics import NumericsError, simpson


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
