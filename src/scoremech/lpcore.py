"""Sparse linear-program solver with exact-rational and float modes.

An LP -- maximize c . x subject to sparse rows and x >= 0 -- is stored
once, as sparse arrays, and ``LinearProgram``'s one constructor takes
them; the finite mechanism solver fills them directly, from a few dozen
variables for the hand-worked instances to tens of thousands for
discretization cross-checks.  Its row view (``constraints``) has two
readers, the benchmark's LP counts (``perfbench/jobs.py:_lp_counts``) and
``test_array_builder_matches_row_by_row_families``.  Two modes are offered:

* ``exact`` -- a two-phase tableau simplex in exact rational arithmetic
  with Bland's anti-cycling rule: the first column with a negative reduced
  cost enters.  A basic column's reduced cost is exactly 0, so it never
  enters, and no set of basic columns is kept.  Each phase's loop returns
  "optimal", "unbounded" or "iteration_limit".  Floats are read as their
  binary Fractions once, before the solve.  The tableau is built from the
  sparse arrays and stored dense, each entry a plain-int numerator and
  denominator in lowest terms, with both phases' reduced-cost rows; each
  pivot updates only the pivot row's nonzero columns, in every row, and
  the dual is read off phase 2's row.  An optimum's ``assignment`` and
  ``dual`` are object arrays of ``fractions.Fraction``.  The golden-value
  tests run in this mode.
* ``float`` -- the matrix goes, as the LP's own CSR arrays, to the
  compiled extension of scipy's bundled HiGHS binding.  A float solve loads
  that extension alone, on first use, and imports no scipy package; exact
  and continuous runs load no scipy at all.  HiGHS solves without presolve
  and without scaling of its own, with Dantzig pricing, which suit DRM LPs.
  Its tolerances are absolute, so each row and the objective are first
  scaled by the power of two that puts their largest |entry| in [1/2, 1);
  the multipliers and the value are unscaled exactly.  Column values below
  1e-9 are round-off and are set to 0: a mass of 1e-12 on a lottery an agent
  cannot afford would otherwise be extracted as a recommendation.
  ``assignment`` and ``dual`` are float64 arrays.  An answer other than a
  certified optimum is solved again with HiGHS's defaults, and
  ``iterations`` counts both attempts.

Every optimal solve also produces a dual certificate: a vector of row
multipliers whose implied objective bound is checked against the primal
value (exactly in rational mode, to 1e-8 relative in float mode, where x
must also meet every row to 1e-9 relative).  A float LP that carries
column bounds ``upper`` implied by its rows, as the DRM LPs do, must also
pass a bound that round-off cannot fool: every positive reduced cost, plus
its rounding error, times its column's bound.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import machinery, util
from math import gcd, ldexp
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "LinearProgram",
    "LpSolution",
    "LpError",
    "solve_lp",
    "dual_bound",
]

LESS, EQUAL, GREATER = "<=", "=", ">="
_RELATIONS = (LESS, EQUAL, GREATER)

# Exact simplex pricing passes, or HiGHS iterations, before a solve stops
# with "iteration_limit"; read at each call.
ITERATION_CAP = 10**6
# The first float solve's HiGHS options: no presolve and no scaling of its
# own, since rows and objective come scaled by powers of two, and Dantzig
# dual pricing.
HIGHS_OPTIONS = {"presolve": "off", "simplex_dual_edge_weight_strategy": 0,
                 "simplex_scale_strategy": 0}

# HiGHS model statuses; any other (kSolveError...) is "numerical"
_HIGHS_STATUS = {"kOptimal": "optimal", "kIterationLimit": "iteration_limit",
                 "kInfeasible": "infeasible", "kUnbounded": "unbounded"}


class LpError(ValueError):
    """Structural problem with an LP (index out of range, bad relation...)."""


class LinearProgram:
    """maximize objective . x  subject to sparse rows and x >= 0.

    The one constructor takes numpy arrays: ``objective``; the entries
    ``row``, ``col``, ``val``, in any order; ``relations`` and ``rhs`` per
    row.  The numbers are all float64 or all object (Fractions and ints,
    never rounded).  Entries at one (row, column) are summed, in the order
    given; zero sums are dropped and the rest sorted by row, then column.
    Every array is then read-only.  An upper bound on a variable is a row.
    ``upper``, if given, holds bounds x <= upper that the rows already
    imply at every feasible point; only the float certificate reads them.
    """

    def __init__(self, objective, row, col, val, relations, rhs,
                 upper=None):
        # (row, col) -> key is one-to-one, also on indices validate() refuses
        lo = col.min(initial=0)
        key = row * (col.max(initial=0) - lo + 1) + (col - lo)
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        first = np.ones(len(key), bool)
        first[1:] = key[1:] != key[:-1]
        if not first.all():  # sum each run of repeated entries
            order = order[first]
            val = np.add.reduceat(val, np.flatnonzero(first))
        keep = val != 0
        order = order[keep]
        self.row, self.col, self.val = row[order], col[order], val[keep]
        self.objective, self.relations, self.rhs = objective, relations, rhs
        self.upper = upper
        for a in (objective, self.row, self.col, self.val, relations, rhs):
            a.flags.writeable = False

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.rhs)

    @property
    def constraints(self) -> list[tuple]:
        """Rows as ({column: coefficient}, relation, rhs), rebuilt per
        call.  No solver reads it or ``row_items``; see the module notes."""
        ends = np.searchsorted(self.row, np.arange(self.n_rows + 1)).tolist()
        col, val = self.col.tolist(), self.val.tolist()
        return [(dict(zip(col[s:e], val[s:e])), rel, b) for s, e, rel, b
                in zip(ends, ends[1:], self.relations.tolist(),
                       self.rhs.tolist())]

    def row_items(self, row: Mapping) -> list[tuple[int, object]]:
        """Nonzero (index, coefficient) pairs of a ``constraints`` row."""
        return [(j, a) for j, a in row.items() if a != 0]

    def validate(self) -> None:
        unknown = set(self.relations.tolist()) - set(_RELATIONS)
        if unknown:
            raise LpError(f"unknown relation {unknown.pop()!r}")
        if len(self.relations) != self.n_rows or len(self.row) and not (
                0 <= self.row[0] and self.row[-1] < self.n_rows
                and 0 <= self.col.min() and self.col.max() < self.n_vars):
            raise LpError("entry index out of range")


@dataclass
class LpSolution:
    status: str  # optimal|infeasible|unbounded|iteration_limit|numerical
    value: object = None
    # numpy arrays in the solve's numbers (module notes), empty if no optimum
    assignment: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual: np.ndarray = field(default_factory=lambda: np.zeros(0))  # per row
    certified: bool = False
    solver_code: str | None = None  # HiGHS model status name (float mode)
    iterations: int = 0  # exact: Bland pricing passes; float: HiGHS's nit

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve_lp(lp: LinearProgram, mode: str = "exact") -> LpSolution:
    """Solve ``lp``, maximizing, in the requested arithmetic mode.  Exact
    mode reads every float as its binary Fraction, once, for the solve and
    the certificate alike."""
    lp.validate()
    if mode == "exact":
        lp = _exact_view(lp)
        sol = _solve_exact(lp)
    elif mode == "float":
        sol = _solve_float(lp, HIGHS_OPTIONS)
    else:
        raise LpError(f"unknown mode {mode!r}")
    sol.certified = sol.optimal and _certify(lp, sol, exact=(mode == "exact"))
    if mode == "float" and not sol.certified:  # HiGHS's defaults
        first = sol.iterations
        sol = _solve_float(lp, {})
        sol.certified = sol.optimal and _certify(lp, sol, exact=False)
        sol.iterations += first
    return sol


def dual_bound(lp: LinearProgram, dual: Sequence, tol=0):
    """Objective bound implied by row multipliers ``dual``.

    Multipliers must be >= 0 on <= rows and <= 0 on >= rows (within
    ``tol``).  Returns None if the bound is infinite: a reduced cost more
    than ``tol`` above zero.  With x >= 0 a negative reduced cost adds
    nothing, and positive ones within ``tol`` are round-off.  Rows with a
    zero multiplier are skipped.  Arithmetic follows the LP's numbers:
    exact on object arrays of Fractions, float64 otherwise.
    """
    y = np.asarray(dual, dtype=lp.val.dtype)
    if len(y) != lp.n_rows:
        raise LpError(f"{len(y)} multipliers for {lp.n_rows} rows")
    rel = lp.relations
    if np.any((rel == LESS) & (y < -tol)):
        raise LpError("multiplier on <= row must be nonnegative")
    if np.any((rel == GREATER) & (y > tol)):
        raise LpError("multiplier on >= row must be nonpositive")
    nonzero = y != 0
    # y * rhs with the zeros in place: dropping them changes float rounding
    terms = np.zeros_like(y)
    terms[nonzero] = y[nonzero] * lp.rhs[nonzero]
    total = terms.sum()
    entries = nonzero[lp.row]
    used = np.zeros(lp.n_vars, dtype=y.dtype)  # A^T y
    np.add.at(used, lp.col[entries], y[lp.row[entries]] * lp.val[entries])
    return None if np.any(lp.objective - used > tol) else total


def _exact_view(lp: LinearProgram) -> LinearProgram:
    """``lp`` itself when its numbers are all ints and Fractions; else the
    same LP with every number coerced to Fraction."""
    numbers = (lp.objective, lp.val, lp.rhs)
    if {type(v) for a in numbers for v in a} <= {int, Fraction}:
        return lp
    frac = np.frompyfunc(Fraction, 1, 1)
    return LinearProgram(frac(lp.objective), lp.row, lp.col, frac(lp.val),
                         lp.relations, frac(lp.rhs))


def _certify(lp: LinearProgram, sol: LpSolution, exact: bool) -> bool:
    """Exact mode: the dual bound equals the value.  Float mode: x misses
    no row by over 1e-9 (sum_j |a_ij x_j| + |b_i|), and the dual bound,
    reduced costs up to 1e-7 ignored, is within 1e-8 relative of the value,
    as is ``_safe_bound`` when the LP carries ``upper``."""
    try:
        if exact:
            return dual_bound(lp, sol.dual) == sol.value
        bound = dual_bound(lp, sol.dual, tol=1e-7)
    except LpError:
        return False
    if bound is None:
        return False
    value = float(sol.value)
    gap = 1e-8 * max(1.0, abs(value))
    ax = np.asarray(lp.val, float) * sol.assignment[lp.col]
    b, rel = np.asarray(lp.rhs, float), lp.relations
    miss = np.bincount(lp.row, ax, lp.n_rows) - b  # activity - rhs
    miss = np.select([rel == LESS, rel == GREATER], [miss, -miss], abs(miss))
    rows_hold = np.all(miss <= 1e-9 * (np.bincount(lp.row, abs(ax),
                                                   lp.n_rows) + abs(b)))
    return bool(rows_hold) and abs(float(bound) - value) <= gap and (
        lp.upper is None or _safe_bound(lp, sol.dual) - value <= gap)


def _safe_bound(lp: LinearProgram, y: np.ndarray) -> float:
    """An objective bound that float round-off cannot push below the
    optimum (Neumaier & Shcherbina, Math. Programming 99, 2004): with
    sign-feasible y and 0 <= x <= ``lp.upper``,

        c . x <= y . b + sum_j upper_j max(0, r_j + err_j),

    r = c - A^T y as computed in float64, and err = gamma_k (|c| +
    |A|^T |y|) its rounding bound, k the terms in the longest column's sum;
    y . b gets a gamma of its own.  A^T y runs over the rows with a nonzero
    multiplier only, as in ``dual_bound``."""
    on = (y != 0)[lp.row]
    col = lp.col[on]
    ya = y[lp.row[on]] * np.asarray(lp.val[on], float)
    c, n = np.asarray(lp.objective, float), lp.n_vars
    r = c - np.bincount(col, ya, n)
    k = np.bincount(col).max(initial=0) + 2  # the products, c_j and r_j
    err = _gamma(k) * (abs(c) + np.bincount(col, abs(ya), n))
    yb = y * np.asarray(lp.rhs, float)
    return float(yb.sum() + _gamma(len(yb)) * abs(yb).sum()
                 + np.asarray(lp.upper, float) @ np.maximum(r + err, 0))


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u the float64 unit round-off."""
    ku = k * np.finfo(float).eps / 2
    return ku / (1 - ku)


# ---------------------------------------------------------------------------
# float mode (HiGHS)
# ---------------------------------------------------------------------------

def _highs_core():
    """scipy's compiled HiGHS binding, loaded by itself on first use, with
    no scipy package imported, under scipy's own name, so ``import
    scipy.optimize``, before or after, finds the same module."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = util.find_spec("scipy")
    if scipy is None:
        raise ImportError("scipy is not installed")
    where = scipy.submodule_search_locations[0] + "/optimize/_highspy"
    spec = machinery.FileFinder(
        where, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES),
    ).find_spec(name)
    if spec is None:
        raise ImportError(f"no {name} in {where}")
    module = sys.modules[name] = util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


def _solve_float(lp: LinearProgram, options: Mapping) -> LpSolution:
    core = _highs_core()
    n, rel, rhs = lp.n_vars, lp.relations, np.asarray(lp.rhs, float)
    cost, val = -np.asarray(lp.objective, float), np.asarray(lp.val, float)
    if not all(np.isfinite(v).all() for v in (cost, val, rhs)):
        raise LpError("an LP number is not finite")
    lower = np.where(rel == LESS, -np.inf, rhs)
    upper = np.where(rel == GREATER, np.inf, rhs)
    if n == 0:  # HiGHS answers kModelEmpty; every row's activity is 0
        if np.all((lower <= 0) & (0 <= upper)):
            return LpSolution("optimal", 0.0, np.zeros(n), np.zeros(lp.n_rows))
        return LpSolution("infeasible")
    # HiGHS's tolerances are absolute: scale each row, and the objective, by
    # a power of two that puts its largest |entry| in [1/2, 1).  Powers of
    # two are exact in binary, so unscaling the answer adds no rounding.
    starts = np.flatnonzero(np.diff(lp.row, prepend=-1))  # rows are sorted
    e = np.zeros(lp.n_rows, int)
    e[lp.row[starts]] = np.frexp(np.maximum.reduceat(abs(val), starts))[1]
    ec = int(np.frexp(abs(cost).max())[1])
    val, cost = np.ldexp(val, -e[lp.row]), np.ldexp(cost, -ec)
    lower, upper = np.ldexp(lower, -e), np.ldexp(upper, -e)
    indptr = np.searchsorted(lp.row, np.arange(lp.n_rows + 1))  # CSR
    highs = core._Highs()
    for name, value in {"output_flag": False,
                        "simplex_iteration_limit": ITERATION_CAP,
                        **options}.items():
        highs.setOptionValue(name, value)
    # minimize -c . x over continuous x >= 0, rows between their bounds
    highs.passModel(n, lp.n_rows, len(val), core.MatrixFormat.kRowwise,
                    core.ObjSense.kMinimize, 0.0, cost, np.zeros(n),
                    np.full(n, np.inf), lower, upper,
                    indptr, lp.col, val, np.zeros(n, np.int32))
    highs.run()
    code = highs.getModelStatus().name
    status = _HIGHS_STATUS.get(code, "numerical")
    info = highs.getInfo()
    if status != "optimal":
        return LpSolution(status=status, solver_code=code,
                          iterations=info.simplex_iteration_count)

    solution = highs.getSolution()
    # the max form's multipliers, unscaled
    dual = np.ldexp(-np.array(solution.row_dual), ec - e)
    # Clean round-off: values below 1e-9, which would count as masses, and
    # multipliers that would wreck the sign conditions.
    x = np.array(solution.col_value)
    x[x < 1e-9] = 0.0
    dual[(rel == LESS) & (-1e-7 < dual) & (dual < 0)] = 0.0
    dual[(rel == GREATER) & (0 < dual) & (dual < 1e-7)] = 0.0
    return LpSolution("optimal", ldexp(-info.objective_function_value, ec),
                      x, dual, solver_code=code,
                      iterations=info.simplex_iteration_count)


# ---------------------------------------------------------------------------
# exact mode (two-phase rational tableau of reduced int pairs, Bland's rule)
# ---------------------------------------------------------------------------

def _solve_exact(lp: LinearProgram) -> LpSolution:  # ints and Fractions
    n, m, rel = lp.n_vars, lp.n_rows, lp.relations
    frac, cap = Fraction, ITERATION_CAP
    # Flip rows to make every rhs nonnegative; also flip >= rows with zero
    # rhs so their slack can start basic (saves an artificial variable).
    flip = np.where((lp.rhs < 0) | ((lp.rhs == 0) & (rel == GREATER)), -1, 1)
    # Flipped relation as the slack's coefficient: 1 (<=), -1 (>=), 0 (=).
    sense = flip * ((rel == LESS).astype(int) - (rel == GREATER))
    # A x = b, x >= 0: per row its slack (<=, >=), then its artificial (>=, =)
    has_slack, has_art = sense != 0, sense <= 0
    width = has_slack.astype(int) + has_art.astype(int)
    slack = n + np.cumsum(width) - width
    art = slack + has_slack
    ncols = n + int(width.sum())

    # Entry (i, j) is num[i][j] / den[i][j] in lowest terms with den > 0.
    # Rows m and m + 1 are the cost rows of phases 2 and 1 (max -sum of
    # artificials): c_B B^-1 A_j - c_j, and c_B B^-1 b over the rhs column
    # ncols; in the first basis, -c and minus the artificials' rows.
    num = [[0] * (ncols + 1) for _ in range(m + 2)]
    den = [[1] * (ncols + 1) for _ in range(m + 2)]
    r = np.concatenate([lp.row, np.flatnonzero(has_slack),
                        np.flatnonzero(has_art), np.arange(m)])
    c = np.concatenate([lp.col, slack[has_slack], art[has_art],
                        np.full(m, ncols)])
    v = np.concatenate([flip[lp.row] * lp.val, sense[has_slack],
                        np.ones(int(has_art.sum()), int), flip * lp.rhs])
    cost = np.zeros((2, ncols + 1), object)
    cost[0, :n] = -lp.objective
    np.add.at(cost[1], c[has_art[r]], -v[has_art[r]])
    cost[1, art[has_art]] = 0
    ck, cj = np.nonzero(cost)
    for i, j, a in zip(np.append(r, m + ck).tolist(),
                       np.append(c, cj).tolist(),
                       np.append(v, cost[ck, cj]).tolist()):
        num[i][j], den[i][j] = a.as_integer_ratio()
    # each row's identity column: the artificial if it has one, else slack
    start = np.where(has_art, art, slack).tolist()
    basis = list(start)

    artificials = set(art[has_art].tolist())
    passes = 0

    def pivot(ti, tj):
        """Dense storage, sparse update: only the pivot row's nonzero
        columns change in the other rows and in the cost rows."""
        rn, rd = num[ti], den[ti]
        inv_n, inv_d = rd[tj], rn[tj]  # 1 / pivot, with inv_d made > 0
        if inv_d < 0:
            inv_n, inv_d = -inv_n, -inv_d
        nonzero = [j for j, x in enumerate(rn) if x]
        for j in nonzero:
            a, b = rn[j] * inv_n, rd[j] * inv_d
            g = gcd(a, b)
            rn[j], rd[j] = a // g, b // g
        for kn, kd in zip(num, den):
            fn = kn[tj]
            if fn and kn is not rn:  # row -= (fn / fd) * pivot row
                fd = kd[tj]
                for j in nonzero:
                    u = fd * rd[j]
                    a, b = kn[j] * u - fn * rn[j] * kd[j], kd[j] * u
                    g = gcd(a, b)
                    kn[j], kd[j] = a // g, b // g
        basis[ti] = tj

    def run_simplex(k, allowed):
        """Maximize the cost of row k by Bland's rule over ``allowed``, in
        order; a basic column has reduced cost exactly 0, so never enters.
        Returns "optimal", "unbounded" or "iteration_limit"."""
        nonlocal passes
        znum = num[k]
        while True:
            passes += 1
            if passes > cap:
                return "iteration_limit"
            entering = next((j for j in allowed if znum[j] < 0), -1)
            if entering < 0:
                return "optimal"
            leaving, best = -1, (0, 1)
            for i in range(m):
                a = num[i][entering]
                if a > 0:  # ratio rhs / a, compared by cross-multiplying
                    p, q = num[i][ncols] * den[i][entering], den[i][ncols] * a
                    d = p * best[1] - best[0] * q
                    if leaving < 0 or d < 0 or (
                            d == 0 and basis[i] < basis[leaving]):
                        leaving, best = i, (p, q)
            if leaving < 0:
                return "unbounded"
            pivot(leaving, entering)

    # Phase 1: drive artificials to zero.
    if artificials:
        status = run_simplex(m + 1, range(ncols))
        assert status != "unbounded", "phase-1 objective is bounded"
        if status == "optimal" and num[m + 1][ncols]:  # -sum of artificials
            status = "infeasible"
        if status != "optimal":
            return LpSolution(status, iterations=passes)
        # Pivot remaining (degenerate) artificials out of the basis.
        for i in range(m):
            if basis[i] in artificials:
                for j in range(ncols):
                    if j not in artificials and num[i][j] != 0:
                        pivot(i, j)
                        break
                # A row with no eligible pivot is redundant; harmless to
                # leave the artificial basic at value zero.

    # Phase 2.
    del num[m + 1], den[m + 1]
    status = run_simplex(m, [j for j in range(ncols) if j not in artificials])
    if status != "optimal":
        return LpSolution(status, iterations=passes)

    x = np.full(ncols, frac(0), object)
    for i, b in enumerate(basis):
        x[b] = frac(num[i][ncols], den[i][ncols])
    # Row i's multiplier (y = c_B B^-1) is the cost row at its identity column.
    dual = flip * np.array([frac(num[m][j], den[m][j]) for j in start], object)
    return LpSolution("optimal", value=frac(num[m][ncols], den[m][ncols]),
                      assignment=x[:n], dual=dual, iterations=passes)
