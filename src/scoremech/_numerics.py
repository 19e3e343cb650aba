"""Adaptive Simpson quadrature and bracketed bisection."""

from __future__ import annotations

from math import fsum, isfinite

__all__ = ["simpson", "simpson_panels", "panel_tail", "bisect"]

# 90 x the integral from 0 to u of the Lagrange basis of u = k/4: row j holds
# the coefficients of u^(5-j), column k those of point k (sums: Boole's rule)
_QUARTIC_ANTIDERIVATIVE = ((192, -768, 1152, -768, 192),
                           (-600, 2160, -2880, 1680, -360),
                           (700, -2080, 2280, -1120, 220),
                           (-375, 720, -540, 240, -45),
                           (90, 0, 0, 0, 0))


class NumericsError(ArithmeticError):
    pass


def _simpson_step(a, fa, b, fb, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def simpson(f, a: float, b: float, tol: float = 1e-10) -> float:
    """Adaptive Simpson integral of ``f`` on [a, b] to absolute tolerance:
    the sum of the leaf panels of `simpson_panels`."""
    return fsum(panel[2] for panel in simpson_panels(f, a, b, tol))


def simpson_panels(f, a: float, b: float, tol: float = 1e-10,
                   max_depth: int = 40) -> list[tuple]:
    """Leaf panels ``(lo, hi, integral, fs)`` of one adaptive Simpson pass on
    [a, b], in order from a to b.  ``fs`` is f at lo + k (hi - lo)/4, k = 0..4;
    the integral is Boole's rule on them, that of their quartic (`panel_tail`).
    ``max_depth=0`` gives the single five-point step on [a, b].  Raises
    NumericsError when a refinement step is not finite (a NaN or infinite
    integrand value), rather than recursing to ``max_depth``."""
    if a == b:
        return []
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson_step(a, fa, b, fb, fm)
    return _simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, max_depth, [])


def _simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, depth, panels):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson_step(a, fa, m, fm, flm)
    right = _simpson_step(m, fm, b, fb, frm)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        panels.append((a, b, left + right + delta / 15.0,
                       (fa, flm, fm, frm, fb)))
        return panels
    if not isfinite(delta):  # NaN would recurse to max_depth everywhere
        raise NumericsError(f"integrand is not finite on [{a}, {b}]")
    _simpson_rec(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1, panels)
    return _simpson_rec(f, m, fm, b, fb, rm, frm, right, tol / 2.0,
                        depth - 1, panels)


def panel_tail(panel, t: float) -> float:
    """Integral from t to hi of the quartic through a `simpson_panels` panel's
    five points, by Horner's rule in u = (t-lo)/h; at lo, the panel's value."""
    lo, hi, value, (f0, f1, f2, f3, f4) = panel
    u, acc = (t - lo) / (hi - lo), 0.0
    for c0, c1, c2, c3, c4 in _QUARTIC_ANTIDERIVATIVE:
        acc = acc * u + c0 * f0 + c1 * f1 + c2 * f2 + c3 * f3 + c4 * f4
    return value - (t - lo) * acc / 90.0


def bisect(f, lo: float, hi: float, xtol: float = 1e-12,
           ftol: float | None = None, max_iter: int = 200) -> float:
    """Root of ``f`` on a bracketing interval [lo, hi].

    Stops when the bracket is narrower than ``xtol`` (and, if ``ftol`` is
    given, additionally drives |f| below it).
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo > 0) == (fhi > 0):
        raise NumericsError(
            f"no sign change on [{lo}, {hi}]: f={flo}, {fhi}")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0:
            return mid
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= xtol and (ftol is None or abs(fmid) <= ftol):
            return 0.5 * (lo + hi)
    return 0.5 * (lo + hi)
