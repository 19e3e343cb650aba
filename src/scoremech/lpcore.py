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
  denominator in lowest terms; each pivot updates only the pivot row's
  nonzero columns, and the dual is read off the maintained reduced-cost
  row.  Optima are returned as ``fractions.Fraction``.  This is the mode
  the golden-value tests run in.
* ``float`` -- the sparse matrix goes to scipy's HiGHS backend, imported on
  first use so that exact and continuous runs never load scipy.

Every optimal solve also produces a dual certificate: a vector of row
multipliers whose implied objective bound is checked against the primal
value (exactly in rational mode, to 1e-8 relative in float mode).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
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

# linprog status codes; any other (4: numerical difficulties) is "numerical"
_HIGHS_STATUS = {0: "optimal", 1: "iteration_limit", 2: "infeasible",
                 3: "unbounded"}


class LpError(ValueError):
    """Structural problem with an LP (index out of range, bad relation...)."""


class LinearProgram:
    """maximize objective . x  subject to sparse rows and x >= 0.

    The one constructor takes numpy arrays: ``objective``; the entries
    ``row``, ``col``, ``val``, in any order; ``relations`` and ``rhs`` per
    row.  The numbers are all float64 or all object (Fractions and ints,
    never rounded).  Zero entries are dropped and the rest sorted by row,
    and every array is then read-only.  An upper bound on a variable is a
    row.
    """

    def __init__(self, objective, row, col, val, relations, rhs):
        keep = np.flatnonzero(val != 0)
        keep = keep[np.argsort(row[keep], kind="stable")]
        self.row, self.col, self.val = row[keep], col[keep], val[keep]
        self.objective, self.relations, self.rhs = objective, relations, rhs
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
    assignment: list = field(default_factory=list)
    dual: list = field(default_factory=list)  # one multiplier per row
    certified: bool = False
    solver_code: int | None = None  # HiGHS status code (float mode)
    iterations: int | None = None  # exact: Bland pricing passes; HiGHS nit

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
        sol = _solve_float(lp)
    else:
        raise LpError(f"unknown mode {mode!r}")
    if sol.optimal:
        sol.certified = _certify(lp, sol, exact=(mode == "exact"))
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
    y = np.array(dual, dtype=lp.val.dtype)
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
    if len(sol.dual) != lp.n_rows:
        return False
    try:
        if exact:
            return dual_bound(lp, sol.dual) == sol.value
        bound = dual_bound(lp, sol.dual, tol=1e-7)
    except LpError:
        return False
    if bound is None:
        return False
    scale = max(1.0, abs(float(sol.value)))
    return abs(float(bound) - float(sol.value)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# float mode (HiGHS)
# ---------------------------------------------------------------------------

def _solve_float(lp: LinearProgram) -> LpSolution:
    import scipy.sparse as sp  # deferred: exact and continuous runs skip it
    from scipy.optimize import linprog

    rel = lp.relations
    eq, ub = rel == EQUAL, rel != EQUAL
    # >= rows enter HiGHS as <= rows times -1; = rows keep sign 1.  Indices
    # are 32-bit, as scipy picks for matrices of this size.
    sign = np.where(rel == GREATER, -1.0, 1.0)
    a = sp.csr_array((sign[lp.row] * lp.val.astype(float),
                      (lp.row.astype(np.int32), lp.col.astype(np.int32))),
                     shape=(lp.n_rows, lp.n_vars))
    rhs = sign * lp.rhs.astype(float)
    a_ub, b_ub = (a[ub], rhs[ub]) if ub.any() else (None, None)
    a_eq, b_eq = (a[eq], rhs[eq]) if eq.any() else (None, None)
    res = linprog(
        -lp.objective.astype(float),  # linprog minimizes
        A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=(0, None),
        method="highs", options={"maxiter": ITERATION_CAP})
    status = _HIGHS_STATUS.get(res.status, "numerical")
    if status != "optimal":
        return LpSolution(status=status, solver_code=res.status)

    # HiGHS marginals are for the minimization form of the signed rows.
    dual = np.empty(lp.n_rows)
    dual[eq], dual[ub] = res.eqlin.marginals, res.ineqlin.marginals
    dual *= -sign
    # Clean round-off that would wreck the sign conditions.
    x = np.maximum(res.x, 0.0)
    dual[(rel == LESS) & (-1e-7 < dual) & (dual < 0)] = 0.0
    dual[(rel == GREATER) & (0 < dual) & (dual < 1e-7)] = 0.0
    return LpSolution(status="optimal", value=-float(res.fun),
                      assignment=x.tolist(), dual=dual.tolist(),
                      solver_code=res.status, iterations=res.nit)


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

    # Entry (i, j) is num[i][j] / den[i][j] in lowest terms with den > 0;
    # row m is the cost row: c_B B^-1 A_j - c_j for the phase's cost, and
    # over the rhs column (ncols) the phase objective c_B B^-1 b.
    num = [[0] * (ncols + 1) for _ in range(m + 1)]
    den = [[1] * (ncols + 1) for _ in range(m + 1)]
    r = np.concatenate([lp.row, np.flatnonzero(has_slack),
                        np.flatnonzero(has_art), np.arange(m)])
    c = np.concatenate([lp.col, slack[has_slack], art[has_art],
                        np.full(m, ncols)])
    v = np.concatenate([flip[lp.row] * lp.val, sense[has_slack],
                        np.ones(int(has_art.sum()), int), flip * lp.rhs])
    for i, j, a in zip(r.tolist(), c.tolist(), v.tolist()):
        num[i][j], den[i][j] = a.as_integer_ratio()
    # each row's identity column: the artificial if it has one, else slack
    start = np.where(has_art, art, slack).tolist()
    basis = list(start)

    artificials = set(art[has_art].tolist())
    passes = 0
    zero, znum = frac(0), num[m]

    def pivot(ti, tj):
        """Dense storage, sparse update: only the pivot row's nonzero
        columns change in the other rows and in the cost row."""
        rn, rd = num[ti], den[ti]
        inv_n, inv_d = rd[tj], rn[tj]  # 1 / pivot, with inv_d made > 0
        if inv_d < 0:
            inv_n, inv_d = -inv_n, -inv_d
        nonzero = [j for j, x in enumerate(rn) if x]
        for j in nonzero:
            a, b = rn[j] * inv_n, rd[j] * inv_d
            g = gcd(a, b)
            rn[j], rd[j] = a // g, b // g
        for k in range(m + 1):
            kn = num[k]
            fn = kn[tj]
            if fn and k != ti:  # row k -= (fn / fd) * pivot row
                kd = den[k]
                fd = kd[tj]
                for j in nonzero:
                    u = fd * rd[j]
                    a, b = kn[j] * u - fn * rn[j] * kd[j], kd[j] * u
                    g = gcd(a, b)
                    kn[j], kd[j] = a // g, b // g
        basis[ti] = tj

    def load_cost(cost):
        zrow = [-c for c in cost] + [zero]
        for rn, rd, b in zip(num, den, basis):
            if cost[b]:
                for j, x in enumerate(rn):
                    if x:
                        zrow[j] += cost[b] * frac(x, rd[j])
        znum[:], den[m][:] = zip(*[z.as_integer_ratio() for z in zrow])

    def run_simplex(allowed):
        """Maximize the loaded cost by Bland's rule over ``allowed``, in
        order; a basic column has reduced cost exactly 0, so never enters.
        Returns "optimal", "unbounded" or "iteration_limit"."""
        nonlocal passes
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
        load_cost([frac(-1) if j in artificials else zero
                   for j in range(ncols)])
        status = run_simplex(range(ncols))
        assert status != "unbounded", "phase-1 objective is bounded"
        if status == "optimal" and znum[ncols] != 0:  # -sum of artificials
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
    load_cost(lp.objective.tolist() + [zero] * (ncols - n))
    status = run_simplex([j for j in range(ncols) if j not in artificials])
    if status != "optimal":
        return LpSolution(status, iterations=passes)

    x = [zero] * ncols
    for i, b in enumerate(basis):
        x[b] = frac(num[i][ncols], den[i][ncols])
    # Row i's multiplier (y = c_B B^-1) is the cost row at its identity column.
    dual = [f * frac(znum[j], den[m][j]) for f, j in zip(flip.tolist(), start)]
    return LpSolution("optimal", value=frac(znum[ncols], den[m][ncols]),
                      assignment=x[:n], dual=dual, iterations=passes)
