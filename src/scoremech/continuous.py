"""Closed-form solvers for binary approval with a continuum of types.

Types equal natural scores on [s_min, s_max] with s_min < 0 < s_max and a
negative mean; the designer approves (value t) or rejects (value 0) and the
agent, regardless of type, wants approval.  Falsification costs are
|a-t|/gamma or (a-t)^2/gamma.

`solve_continuous` is the one solve path.  It checks gamma and the mean
once, then classifies the regime: when falsifying from 0 to the top score
costs at least the prize (gamma <= raw cost of s_max from 0) the
first-best is attainable; otherwise the optimal mechanism caps approval at
p* and screens with costly falsification.  The interior quadratic solution
needs a nondecreasing hazard rate, checked once per distribution (`check_mhr`).
Distributions check their support when constructed, so a solve does not.

The envelope derivative C is kept in original-cost form, C(t) =
2(a*(t)-t)/gamma for quadratic costs, which is the actual derivative of the
agent's equilibrium value and reproduces the worked example's constant
approval level.  The truth-telling monotonicity requirement lives on the
modified-cost derivative 2 a*(t)/gamma, exposed separately as `C_ic`.
The interior quadratic solution integrates this envelope once per solve,
into a table of adaptive Simpson panels that every later U and Q reads.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from ._numerics import NumericsError, bisect, simpson, simpson_panels
from .model import (
    AgentPayoff,
    AgentType,
    CostModel,
    DesignerPayoff,
    FiniteTypeSpace,
    Instance,
    format_number,
    require_gamma,
)

__all__ = [
    "Distribution",
    "Uniform",
    "TruncatedExponential",
    "Triangular",
    "Tabulated",
    "ContinuousSolution",
    "ContinuousError",
    "MonotonicityError",
    "MhrReport",
    "compute_t0",
    "check_mhr",
    "solve_continuous",
    "discretize",
    "write_solution_table",
]

QUAD_TOL = 1e-10
ROOT_XTOL = 1e-12
# hazard-rate grid: a step of 1e-3 on a support of width 3
MHR_GRID_POINTS = 3001
# smallest hazard-rate slope that still passes (grid round-off)
MHR_SLOPE_TOL = -1e-8


class ContinuousError(ValueError):
    """Bad input to a continuous solver."""


class MonotonicityError(ContinuousError):
    """Hazard-rate check failed; the quadratic solution is refused."""


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

class Distribution:
    """Type distribution on [s_min, s_max] with full-support density.
    Every constructor ends in ``__post_init__``, the support check."""

    s_min: float
    s_max: float

    def __post_init__(self):
        if not -math.inf < self.s_min < 0 < self.s_max < math.inf:
            raise ContinuousError(
                f"support [{self.s_min}, {self.s_max}] must straddle 0")

    def pdf(self, t: float) -> float:
        raise NotImplementedError

    def cdf(self, t: float) -> float:
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        return bisect(lambda t: self.cdf(t) - p, self.s_min, self.s_max,
                      xtol=1e-13)

    @property
    def mean(self) -> float:
        return self.tail_expectation(self.s_min)

    def tail_expectation(self, t: float) -> float:
        """integral of z f(z) dz from t to s_max."""
        raise NotImplementedError

    def pdf_derivative(self, t: float) -> float:
        h = 1e-4 * (self.s_max - self.s_min)
        lo = max(self.s_min, t - h)
        hi = min(self.s_max, t + h)
        return (self.pdf(hi) - self.pdf(lo)) / (hi - lo)

    @cached_property
    def _min_hazard_slope(self) -> float:  # a distribution never changes
        return check_mhr(self).min_hazard_slope


@dataclass(frozen=True)
class Uniform(Distribution):
    s_min: float
    s_max: float

    def pdf(self, t):
        return 1.0 / (self.s_max - self.s_min)

    def cdf(self, t):
        w = self.s_max - self.s_min
        return min(1.0, max(0.0, (t - self.s_min) / w))

    def quantile(self, p):
        return self.s_min + p * (self.s_max - self.s_min)

    @property
    def mean(self):
        return 0.5 * (self.s_min + self.s_max)

    def tail_expectation(self, t):
        return (self.s_max ** 2 - t ** 2) / (2.0 * (self.s_max - self.s_min))

    def pdf_derivative(self, t):
        return 0.0


@dataclass(frozen=True)
class TruncatedExponential(Distribution):
    """Density proportional to exp(-rate * (t - s_min)) on the support."""

    s_min: float
    s_max: float
    rate: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.rate) or self.rate == 0:
            raise ContinuousError(f"rate {self.rate} must be finite, nonzero")

    @property
    def _z(self) -> float:
        return 1.0 - math.exp(-self.rate * (self.s_max - self.s_min))

    def pdf(self, t):
        return self.rate * math.exp(-self.rate * (t - self.s_min)) / self._z

    def cdf(self, t):
        t = min(max(t, self.s_min), self.s_max)
        return (1.0 - math.exp(-self.rate * (t - self.s_min))) / self._z

    def quantile(self, p):
        return self.s_min - math.log(1.0 - p * self._z) / self.rate

    def tail_expectation(self, t):
        lam = self.rate

        def antiderivative(z):
            return -(z + 1.0 / lam) * math.exp(-lam * (z - self.s_min))

        return (antiderivative(self.s_max) - antiderivative(t)) / self._z

    def pdf_derivative(self, t):
        return -self.rate * self.pdf(t)


@dataclass(frozen=True)
class Triangular(Distribution):
    s_min: float
    s_max: float
    mode: float

    def __post_init__(self):
        super().__post_init__()
        if not self.s_min < self.mode < self.s_max:
            raise ContinuousError("mode must lie strictly inside the support")

    def _norms(self):
        w = self.s_max - self.s_min
        return w * (self.mode - self.s_min), w * (self.s_max - self.mode)

    def pdf(self, t):
        n1, n2 = self._norms()
        if t <= self.mode:
            return 2.0 * (t - self.s_min) / n1
        return 2.0 * (self.s_max - t) / n2

    def cdf(self, t):
        t = min(max(t, self.s_min), self.s_max)
        n1, n2 = self._norms()
        if t <= self.mode:
            return (t - self.s_min) ** 2 / n1
        return 1.0 - (self.s_max - t) ** 2 / n2

    def quantile(self, p):
        n1, n2 = self._norms()
        split = self.cdf(self.mode)
        if p <= split:
            return self.s_min + math.sqrt(p * n1)
        return self.s_max - math.sqrt((1.0 - p) * n2)

    @property
    def mean(self):
        return (self.s_min + self.mode + self.s_max) / 3.0

    def tail_expectation(self, t):
        n1, n2 = self._norms()
        hi = self.s_max

        def upper_piece(x):  # integral of z*(hi-z)*2/n2 from x to hi
            return 2.0 * (hi ** 3 / 6.0 - hi * x ** 2 / 2.0 + x ** 3 / 3.0) / n2

        if t >= self.mode:
            return upper_piece(t)
        lo = self.s_min

        def lower_antiderivative(z):  # of z*(z-lo)*2/n1
            return 2.0 * (z ** 3 / 3.0 - lo * z ** 2 / 2.0) / n1

        return (upper_piece(self.mode)
                + lower_antiderivative(self.mode) - lower_antiderivative(t))

    def pdf_derivative(self, t):
        n1, n2 = self._norms()
        return 2.0 / n1 if t < self.mode else -2.0 / n2


class Tabulated(Distribution):
    """Grid density with linear interpolation; normalized at construction.

    The cdf accumulates trapezoids and tail expectations integrate the
    piecewise-linear density cell-exactly.
    """

    def __init__(self, grid: Sequence[float], density: Sequence[float]):
        ts = np.asarray(grid, dtype=float)
        fs = np.asarray(density, dtype=float)
        if ts.ndim != 1 or ts.shape != fs.shape or len(ts) < 2:
            raise ContinuousError("grid and density must be 1-d, same length")
        if not (np.isfinite(ts).all() and np.isfinite(fs).all()):
            raise ContinuousError("grid and density must be finite")
        if np.any(np.diff(ts) <= 0):
            raise ContinuousError("grid must be strictly increasing")
        if np.any(fs <= 0):
            raise ContinuousError("tabulated density must be positive")
        total = float(np.trapezoid(fs, ts))
        self._ts = ts
        self._fs = fs / total
        self._cum = np.concatenate(
            [[0.0], np.cumsum(0.5 * (self._fs[1:] + self._fs[:-1])
                              * np.diff(ts))])
        self.s_min = float(ts[0])
        self.s_max = float(ts[-1])
        self.__post_init__()

    def pdf(self, t):
        return float(np.interp(t, self._ts, self._fs))

    def cdf(self, t):
        t = min(max(t, self.s_min), self.s_max)
        i = int(np.searchsorted(self._ts, t, side="right") - 1)
        i = min(i, len(self._ts) - 2)
        t0, t1 = self._ts[i], self._ts[i + 1]
        f0, f1 = self._fs[i], self._fs[i + 1]
        dt = t - t0
        slope = (f1 - f0) / (t1 - t0)
        return float(self._cum[i] + f0 * dt + 0.5 * slope * dt * dt)

    def tail_expectation(self, t):
        t = min(max(t, self.s_min), self.s_max)

        def cell(lo, hi, flo, fhi):
            # integral of z * (linear density) over [lo, hi]
            if hi <= lo:
                return 0.0
            slope = (fhi - flo) / (hi - lo)
            inter = flo - slope * lo

            def anti(z):
                return inter * z * z / 2.0 + slope * z ** 3 / 3.0

            return anti(hi) - anti(lo)

        i = int(np.searchsorted(self._ts, t, side="right") - 1)
        i = min(i, len(self._ts) - 2)
        total = cell(t, self._ts[i + 1], self.pdf(t), self._fs[i + 1])
        for j in range(i + 1, len(self._ts) - 1):
            total += cell(self._ts[j], self._ts[j + 1],
                          self._fs[j], self._fs[j + 1])
        return float(total)


# ---------------------------------------------------------------------------
# shared machinery
# ---------------------------------------------------------------------------

def compute_t0(dist: Distribution) -> float:
    """Type above which the conditional mean is zero.

    Root of g(t) = integral_t^{s_max} z f(z) dz, which is strictly
    increasing on [s_min, 0] with g(s_min) = mean < 0 and g(0) > 0.
    """
    if not dist.mean < 0:
        raise ContinuousError(
            f"solver assumes a negative mean type; got {dist.mean}")
    return bisect(dist.tail_expectation, dist.s_min, 0.0,
                  xtol=ROOT_XTOL, ftol=1e-12)


@dataclass
class MhrReport:
    passes: bool
    min_hazard_slope: float
    grid: np.ndarray
    hazard: np.ndarray
    sufficient_quantity: np.ndarray  # 2 + f'(t)(1-F(t))/f(t)^2


def check_mhr(dist: Distribution) -> MhrReport:
    """Check on ``MHR_GRID_POINTS`` points, whatever the support's width,
    that the hazard rate f/(1-F) never decreases.

    Points where 1-F underflows are dropped from the top of the grid.
    """
    grid = np.linspace(dist.s_min, dist.s_max, MHR_GRID_POINTS)
    keep, hazard, suff = [], [], []
    for t in grid:
        t = float(t)
        surv = 1.0 - dist.cdf(t)
        if surv <= 1e-12:
            break
        f = dist.pdf(t)
        if f <= 1e-300:  # density vanishing at an endpoint (triangular)
            continue
        keep.append(t)
        hazard.append(f / surv)
        suff.append(2.0 + dist.pdf_derivative(t) * surv / (f * f))
    keep = np.asarray(keep)
    hazard = np.asarray(hazard)
    slopes = np.diff(hazard) / np.diff(keep)
    min_slope = float(slopes.min()) if len(slopes) else 0.0
    return MhrReport(passes=bool(min_slope >= MHR_SLOPE_TOL),
                     min_hazard_slope=min_slope,
                     grid=keep, hazard=hazard,
                     sufficient_quantity=np.asarray(suff))


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass
class ContinuousSolution:
    """Optimal mechanism in piecewise closed form.

    ``a_star``/``Q``/``C``/``U``/``cost`` are scalar functions of the type;
    ``C`` is the envelope derivative of U (original-cost form) and ``C_ic``
    the modified-cost derivative whose monotonicity truth-telling needs.
    """

    regime: str  # first_best | interior
    cost_kind: str  # linear | quadratic
    gamma: float
    dist: Distribution
    t0: float
    t_star: float
    t_dagger: float | None
    p_star: float
    a_star: Callable[[float], float] = field(repr=False)
    C: Callable[[float], float] = field(repr=False)
    U: Callable[[float], float] = field(repr=False)
    Q: Callable[[float], float] = field(repr=False)
    C_ic: Callable[[float], float] = field(repr=False)

    def cost(self, t: float) -> float:
        """Scaled falsification cost on path: c(a*(t), t)/gamma-scaled."""
        return self.deviation_cost(self.a_star(t), t)

    def deviation_cost(self, a, t):
        """Scaled c(a, t) of score a for type t, elementwise.  Squares with C
        pow, as scalar ``**`` does; array ``** 2`` can round differently."""
        if self.cost_kind == "linear":
            return np.abs(a - t) / self.gamma
        return np.float_power(a - t, 2) / self.gamma

    def sample(self, ts: Sequence[float]) -> dict[str, np.ndarray]:
        ts = np.asarray(ts, dtype=float)
        a = np.array([self.a_star(t) for t in ts])
        u = np.array([self.U(t) for t in ts])
        cost = self.deviation_cost(a, ts)
        q = np.where(ts < self.t_star, 0.0, u + cost)
        return {
            "t": ts,
            "a_star": a,
            "Q_star": q,
            "C": np.array([self.C(t) for t in ts]),
            "U": u,
            "cost": cost,
        }

    def designer_value(self) -> float:
        """integral of Q(t) t f(t) dt over the support."""
        pieces = sorted({self.dist.s_min, self.t_star, 0.0,
                         self.t_dagger if self.t_dagger is not None else 0.0,
                         self.dist.s_max})

        def integrand(t):
            return self.Q(t) * t * self.dist.pdf(t)

        total = 0.0
        for lo, hi in zip(pieces, pieces[1:]):
            if hi > lo:
                total += simpson(integrand, lo, hi, tol=QUAD_TOL)
        return total


def solve_continuous(dist: Distribution, costs: CostModel
                     ) -> ContinuousSolution:
    """The optimal mechanism; ModelError for a bad cost model or gamma.

    First-best iff gamma <= s_max (linear) or gamma <= s_max^2
    (quadratic); the boundary gamma counts as first-best (type 0 exactly
    indifferent).  Otherwise the interior solution of the cost's kind.
    """
    gamma = require_gamma(costs)
    t0 = compute_t0(dist)
    s_max = dist.s_max
    if gamma <= (s_max if costs.kind == "linear" else s_max ** 2):
        return _first_best(dist, costs.kind, gamma, t0)
    if costs.kind == "linear":
        return _linear(dist, gamma, t0)
    return _quadratic(dist, gamma, t0)


def _first_best(dist: Distribution, kind: str, gamma: float,
                t0: float) -> ContinuousSolution:
    """Approve exactly the nonnegative types; those below the prize score
    falsify up to it."""
    prize_score = gamma if kind == "linear" else math.sqrt(gamma)

    def a_star(t):
        if 0.0 <= t < prize_score:
            return prize_score
        return t

    def Q(t):
        return 1.0 if t >= 0.0 else 0.0

    if kind == "linear":
        def C(t):
            return 1.0 / gamma if 0.0 <= t < prize_score else 0.0

        def U(t):
            if t < 0.0:
                return 0.0
            return min(t, prize_score) / gamma

        C_ic = C
    else:
        def C(t):
            if 0.0 <= t < prize_score:
                return 2.0 * (prize_score - t) / gamma
            return 0.0

        def U(t):
            if t < 0.0:
                return 0.0
            if t >= prize_score:
                return 1.0
            return 1.0 - (prize_score - t) ** 2 / gamma

        def C_ic(t):
            return 2.0 * a_star(t) / gamma

    return ContinuousSolution(
        regime="first_best", cost_kind=kind, gamma=gamma, dist=dist,
        t0=t0, t_star=0.0, t_dagger=None, p_star=1.0,
        a_star=a_star, C=C, U=U, Q=Q, C_ic=C_ic)


def _linear(dist: Distribution, gamma: float,
            t0: float) -> ContinuousSolution:
    """Interior optimal mechanism for cost |a - t| / gamma.

    All positive types pool at the top score with approval p* =
    min(1, (s_max - t0)/gamma); negative types above t* are approved with
    probability p* - (s_max - t)/gamma at their natural score.
    """
    s_max = dist.s_max
    if s_max - t0 <= gamma:
        p_star, t_star = (s_max - t0) / gamma, t0
    else:
        p_star, t_star = 1.0, s_max - gamma

    def a_star(t):
        return s_max if t >= 0.0 else t

    def C(t):
        return 1.0 / gamma if t >= t_star else 0.0

    def U(t):
        if t < t_star:
            return 0.0
        return p_star - (s_max - t) / gamma

    def Q(t):
        if t < t_star:
            return 0.0
        if t >= 0.0:
            return p_star
        return p_star - (s_max - t) / gamma

    return ContinuousSolution(
        regime="interior", cost_kind="linear", gamma=gamma, dist=dist,
        t0=t0, t_star=t_star, t_dagger=None, p_star=p_star,
        a_star=a_star, C=C, U=U, Q=Q, C_ic=C)


def _quadratic(dist: Distribution, gamma: float,
               t0: float) -> ContinuousSolution:
    """Interior optimal mechanism for cost (a - t)^2 / gamma.

    The pointwise optimal target a*(t) = t - tail(t)/(t f(t)) is
    gamma-free; it crosses s_max at t_dagger < 0.  The approval cap p* is
    the integral of the envelope derivative from t*; if the candidate with
    t* = t0 exceeds 1, p* is clamped to 1 and t* solves U(t*) = 0 (which
    can land above the raw crossing point, in which case every approved
    type is sent straight to the top score).

    The envelope is integrated once per solve, into the panel table that
    `integral_C` reads; above t_dagger_raw its integral is in closed form.
    """
    s_max = dist.s_max
    slope = dist._min_hazard_slope
    if not slope >= MHR_SLOPE_TOL:
        raise MonotonicityError(
            "monotonicity unverified: hazard rate decreases "
            f"(min slope {slope:.3g}); solution refused")

    def a_point(t):
        return t - dist.tail_expectation(t) / (t * dist.pdf(t))

    # raw crossing of the falsification target with the top score
    hi_bracket = -1e-9 * max(1.0, abs(dist.s_min))
    if a_point(hi_bracket) <= s_max:
        raise ContinuousError("falsification target never reaches the top "
                              "score; cannot locate t_dagger")
    try:
        t_dag_raw = bisect(lambda t: a_point(t) - s_max, t0, hi_bracket,
                           xtol=ROOT_XTOL)
    except NumericsError as exc:
        raise ContinuousError(f"no root for t_dagger: {exc}") from None
    # the bracketing function must be single-crossing; spot-check it
    samples = np.linspace(t0, t_dag_raw, 7)[1:-1]
    values = [a_point(float(t)) for t in samples]
    if any(values[i] > values[i + 1] + 1e-7 for i in range(len(values) - 1)):
        raise MonotonicityError("falsification target is not monotone on "
                                "[t0, t_dagger] despite the hazard check")

    def gap(t):  # a*(t) - t, capped at the top score
        if t >= t_dag_raw:
            return s_max - t
        return -dist.tail_expectation(t) / (t * dist.pdf(t))

    def C_raw(z):  # C above t0, before the cut at t*
        return 2.0 * gap(z) / gamma

    # U, Q and the t* root ask only about [t0, s_max]: one adaptive pass on
    # [t0, t_dag_raw] serves them all.  above[i] = integral of C from the
    # end of panel i to s_max; a query adds one five-point step to it.
    panels = simpson_panels(C_raw, t0, t_dag_raw, tol=QUAD_TOL)
    lefts = [lo for lo, _, _ in panels]
    above = list(accumulate((value for _, _, value in panels[:0:-1]),
                            initial=(s_max - t_dag_raw) ** 2 / gamma))[::-1]

    def integral_C(t):
        """integral of C from t >= t0 to s_max (original-cost envelope)."""
        if t >= t_dag_raw:
            return (s_max - t) ** 2 / gamma
        i = bisect_right(lefts, t) - 1
        return simpson(C_raw, t, panels[i][1], max_depth=0) + above[i]

    candidate = integral_C(t0)
    if candidate <= 1.0:
        p_star, t_star = candidate, t0
    else:
        p_star = 1.0
        t_star = bisect(lambda t: integral_C(t) - 1.0, t0, s_max,
                        xtol=ROOT_XTOL)
    t_dagger = max(t_dag_raw, t_star)

    def a_star(t):
        if t < t_star:
            return t
        if t >= t_dag_raw:
            return s_max
        return a_point(t)

    def C(t):
        if t < t_star:
            return 0.0
        return 2.0 * gap(t) / gamma

    def U(t):
        if t < t_star:
            return 0.0
        return p_star - integral_C(t)

    def Q(t):
        if t < t_star:
            return 0.0
        return p_star - integral_C(t) + gap(t) ** 2 / gamma

    def C_ic(t):
        return 2.0 * a_star(t) / gamma

    return ContinuousSolution(
        regime="interior", cost_kind="quadratic", gamma=gamma, dist=dist,
        t0=t0, t_star=t_star, t_dagger=t_dagger, p_star=p_star,
        a_star=a_star, C=C, U=U, Q=Q, C_ic=C_ic)


# ---------------------------------------------------------------------------
# discretization bridge to the finite LP
# ---------------------------------------------------------------------------

def discretize(dist: Distribution, costs: CostModel,
               n_types: int) -> Instance:
    """Equal-mass finite instance for cross-checking against the LP.

    Types sit at the (2i-1)/(2n) quantiles with mass 1/n each; the score
    grid is the type grid plus the top score.  Decision values are t for
    approval, 0 for rejection, without a loss term, and the agent values
    approval at 1.
    """
    if n_types < 2:
        raise ContinuousError("need n_types >= 2")
    gamma = require_gamma(costs)
    from fractions import Fraction

    points = [dist.quantile((2 * i + 1) / (2 * n_types))
              for i in range(n_types)]
    score_vals = sorted(set(points) | {dist.s_max})

    def sid(v: float) -> str:
        return f"s{score_vals.index(v):03d}"

    types = tuple(AgentType(f"t{i:03d}", sid(points[i]))
                  for i in range(n_types))
    space = FiniteTypeSpace(
        types=types,
        scores=tuple(sid(v) for v in score_vals),
        outcomes=("reject", "approve"),
        prior={t: Fraction(1, n_types) for t in types},
        score_values={sid(v): v for v in score_vals},
    )
    table = {}
    for t, tv in zip(types, points):
        for a, av in zip(space.scores, score_vals):
            table[(a, t)] = costs.raw_cost(av, tv) / gamma
    agent = AgentPayoff.unit_approval(space, approve="approve")
    designer = DesignerPayoff(
        decision_value={(x, t): (tv if x == "approve" else 0.0)
                        for t, tv in zip(types, points)
                        for x in space.outcomes},
        loss_coefficient=None)
    return Instance(space=space, costs=CostModel.tabulated(table),
                    agent=agent, designer=designer)


# ---------------------------------------------------------------------------
# solution export (the data behind the worked example's figure)
# ---------------------------------------------------------------------------

def write_solution_table(solution: ContinuousSolution, ts: Sequence[float],
                         path) -> None:
    cols = solution.sample(ts)
    names = ["t", "a_star", "Q_star", "C", "U", "cost"]
    lines = ["\t".join(names)]
    for i in range(len(cols["t"])):
        lines.append("\t".join(
            format_number(float(cols[n][i])) for n in names))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_solution_table(path) -> dict[str, np.ndarray]:
    with open(path) as fh:
        names = fh.readline().strip().split("\t")
        rows = [[float(v) for v in line.split("\t")]
                for line in fh if line.strip()]
    data = np.asarray(rows)
    return {name: data[:, i] for i, name in enumerate(names)}
