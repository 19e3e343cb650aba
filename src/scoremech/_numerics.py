"""Adaptive Simpson quadrature and bracketed bisection."""

from __future__ import annotations

from math import fsum, isfinite

__all__ = ["simpson", "simpson_panels", "bisect"]


class NumericsError(ArithmeticError):
    pass


def _simpson_step(f, a, fa, b, fb, m, fm):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def simpson(f, a: float, b: float, tol: float = 1e-10,
            max_depth: int = 40) -> float:
    """Adaptive Simpson integral of ``f`` on [a, b] to absolute tolerance:
    the sum of the leaf panels of `simpson_panels`."""
    return fsum(v for _, _, v in simpson_panels(f, a, b, tol, max_depth))


def simpson_panels(f, a: float, b: float, tol: float = 1e-10,
                   max_depth: int = 40) -> list[tuple[float, float, float]]:
    """Leaf panels ``(lo, hi, integral)`` of one adaptive Simpson pass on
    [a, b], in order from a to b; each integral is Richardson-corrected.
    ``max_depth=0`` gives the single five-point step on [a, b].  Raises
    NumericsError when a refinement step is not finite (a NaN or infinite
    integrand value), rather than recursing to ``max_depth``.
    """
    if a == b:
        return []
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = _simpson_step(f, a, fa, b, fb, m, fm)
    return _simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, max_depth, [])


def _simpson_rec(f, a, fa, b, fb, m, fm, whole, tol, depth, panels):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = _simpson_step(f, a, fa, m, fm, lm, flm)
    right = _simpson_step(f, m, fm, b, fb, rm, frm)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        panels.append((a, b, left + right + delta / 15.0))
        return panels
    if not isfinite(delta):  # NaN would recurse to max_depth everywhere
        raise NumericsError(f"integrand is not finite on [{a}, {b}]")
    _simpson_rec(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1, panels)
    return _simpson_rec(f, m, fm, b, fb, rm, frm, right, tol / 2.0,
                        depth - 1, panels)


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
