import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import gcd

import numpy as np
import pytest

import scoremech
from scoremech import lpcore
from scoremech.finite import build_drm_lp, solve_drm
from scoremech.lpcore import LinearProgram, LpError, dual_bound, solve_lp
from scoremech.model import college_instance

from conftest import stub_highs_status


def _lp(objective, rows):
    """LinearProgram from dense (coefficients, relation, rhs) rows: every
    entry, zeros included, goes to the array constructor as a Python
    number."""
    dense = np.array([r for r, _, _ in rows], dtype=object).reshape(
        len(rows), len(objective))
    r, c = (i.ravel() for i in np.indices(dense.shape))
    return LinearProgram(np.array(objective, dtype=object), r, c,
                         dense.ravel(), np.array([rel for _, rel, _ in rows]),
                         np.array([b for _, _, b in rows], dtype=object))


def test_textbook_max():
    lp = _lp([1, 1], [([1, 1], "<=", 1)])
    for mode in ("exact", "float"):
        sol = solve_lp(lp, mode=mode)
        assert sol.status == "optimal"
        assert abs(float(sol.value) - 1.0) < 1e-12
        assert sol.certified
    assert solve_lp(lp, mode="exact").value == F(1)


def test_infeasible():
    lp = _lp([1], [([1], "<=", -1)])
    for mode in ("exact", "float"):
        assert solve_lp(lp, mode=mode).status == "infeasible"


@pytest.mark.parametrize("rhs, status", [(1, "optimal"), (-1, "infeasible")])
def test_zero_column_lp_gets_one_answer_in_both_modes(rhs, status):
    """No columns: the empty x gives the row 0, so the row alone decides."""
    lp = _lp([], [([], "<=", rhs)])
    for mode in ("exact", "float"):
        sol = solve_lp(lp, mode=mode)
        assert (sol.status, sol.certified) == (status, status == "optimal")
        if sol.optimal:
            assert (sol.value, list(sol.assignment)) == (0, [])


@pytest.mark.parametrize("dtype", [float, object])
def test_answers_are_arrays_in_the_solves_numbers(dtype):
    """max x0 + 2 x1 s.t. x0 + x1 <= 1 in float64 or in Fractions, and a
    zero-column LP: assignment and dual are numpy arrays, float64 from a
    float solve and Fractions in object arrays from an exact one, whatever
    the LP's numbers.  An answer without an optimum has empty arrays."""
    def numbers(*v):
        return np.array([(float if dtype is float else F)(x) for x in v],
                        dtype)

    no = np.array([], int)
    lp = LinearProgram(numbers(1, 2), np.array([0, 0]), np.array([0, 1]),
                       numbers(1, 1), np.array(["<="]), numbers(1))
    empty = LinearProgram(numbers(), no, no, numbers(), np.array(["<="]),
                          numbers(1))
    for mode, kind in (("float", np.float64), ("exact", object)):
        for problem, x, y in ((lp, [0, 1], [2]), (empty, [], [0])):
            sol = solve_lp(problem, mode=mode)
            assert sol.certified
            for got, want in ((sol.assignment, x), (sol.dual, y)):
                assert isinstance(got, np.ndarray) and got.dtype == kind
                assert list(got) == want
                if mode == "exact":
                    assert all(type(v) is F for v in got)
    infeasible = solve_lp(LinearProgram(
        numbers(1), np.array([0]), np.array([0]), numbers(1),
        np.array(["<="]), numbers(-1)), mode="exact")
    assert infeasible.status == "infeasible"
    assert (infeasible.assignment.size, infeasible.dual.size) == (0, 0)


@pytest.mark.parametrize("dtype", [float, object])
def test_repeated_entries_are_summed(dtype):
    """max x s.t. x + x <= 2, the two x given as separate entries: every
    reader sees 2x <= 2."""
    lp = LinearProgram(np.array([1], dtype), np.array([0, 0]),
                       np.array([0, 0]), np.array([1, 1], dtype),
                       np.array(["<="]), np.array([2], dtype))
    assert (lp.row.tolist(), lp.col.tolist(), lp.val.tolist()) == (
        [0], [0], [2])
    for mode in ("exact", "float"):
        sol = solve_lp(lp, mode=mode)
        assert (sol.status, sol.certified) == ("optimal", True)
        assert (sol.value, list(sol.assignment), list(sol.dual)) == (
            1, [1], [F(1, 2)])
    assert dual_bound(lp, [0.5]) == 1
    assert dual_bound(lp, [0.4]) is None  # reduced cost 1 - 0.8 > 0


def test_entries_are_sorted_by_row_then_column_and_cancelled_sums_dropped():
    lp = LinearProgram(np.array([1, 1, 1]), np.array([1, 0, 1, 0, 1]),
                       np.array([2, 1, 0, 1, 2]), np.array([3, 4, 5, -4, 6]),
                       np.array(["<=", "<="]), np.array([1, 1]))
    assert (lp.row.tolist(), lp.col.tolist(), lp.val.tolist()) == (
        [1, 1], [0, 2], [5, 9])
    # (0, 2) lies past the last column, where row 1 starts in row-major
    # order: it stays apart from (1, 0), for validate() to refuse
    lp = LinearProgram(np.array([1, 1]), np.array([1, 0]), np.array([0, 2]),
                       np.array([1, 1]), np.array(["<=", "<="]),
                       np.array([1, 1]))
    assert (lp.row.tolist(), lp.col.tolist()) == ([0, 1], [2, 0])
    with pytest.raises(LpError, match="out of range"):
        lp.validate()


def test_unbounded():
    lp = _lp([1], [([-1], "<=", 0)])
    for mode in ("exact", "float"):
        assert solve_lp(lp, mode=mode).status == "unbounded"


def test_equality_and_ge_rows():
    lp = _lp([3, -1, 0], [([1, 1, 1], "=", 1),
                          ([1, 0, 0], "<=", F(3, 5)),
                          ([0, 1, 0], ">=", F(1, 5))])
    sol = solve_lp(lp, mode="exact")
    assert sol.value == F(3, 5) * 3 - F(1, 5)
    assert sol.certified


def test_every_row_flip_case():
    """x0 + x1 + x2 = 5/2, x0 >= 2 x1, x1 >= 1/2, x0 + x1 >= 1: maximize
    x1 - x2.  On the equality x1 - x2 = 2 x1 + x0 - 5/2, so the optimum
    has x2 = 0 and x0 = 2 x1: x = (5/3, 5/6, 0), value 5/6."""
    lp = _lp([0, 1, -1],
             [([-1, -1, 0], "<=", -1),  # negative rhs, flips to >=
              ([-1, -1, -1], "=", F(-5, 2)),  # negative rhs
              ([0, 1, 0], ">=", F(1, 2)),  # slack and artificial
              ([1, -2, 0], ">=", 0)])  # zero rhs, flips to <=
    sol = solve_lp(lp, mode="exact")
    assert sol.status == "optimal" and sol.certified
    assert sol.value == F(5, 6)
    assert list(sol.assignment) == [F(5, 3), F(5, 6), 0]
    approx = solve_lp(lp, mode="float")
    assert approx.certified
    assert abs(approx.value - 5 / 6) <= 1e-9
    assert np.allclose(approx.assignment, [5 / 3, 5 / 6, 0], atol=1e-9)


@pytest.mark.parametrize("row,col", [(0, 2), (0, -1), (1, 0), (-1, 0)])
def test_entry_index_out_of_range(row, col):
    """One <= row over two variables; the entry (row, col) lies outside."""
    lp = LinearProgram(np.array([1, 1], dtype=object), np.array([0, row]),
                       np.array([0, col]), np.array([1, 1], dtype=object),
                       np.array(["<="]), np.array([1], dtype=object))
    for mode in ("exact", "float"):
        with pytest.raises(LpError, match="out of range"):
            solve_lp(lp, mode)


def test_unknown_relation():
    lp = _lp([1], [([1], "<", 1)])
    with pytest.raises(LpError):
        solve_lp(lp)


@pytest.mark.parametrize("objective,rows", [
    ([float("nan"), 1], [([1, 1], "<=", 1)]),
    ([1, 1], [([1, float("nan")], "<=", 1)]),
    ([1, 1], [([1, 1], "<=", float("inf"))])], ids=["c", "A", "b"])
def test_float_mode_refuses_non_finite_numbers(objective, rows):
    """HiGHS itself calls the first LP optimal and the others unbounded."""
    with pytest.raises(LpError, match="not finite"):
        solve_lp(_lp(objective, rows), mode="float")


def test_iteration_limit(monkeypatch):
    """The cap is read at each call, so patching it takes effect."""
    lp = _lp([1, 2, 3], [([1, 1, 1], "<=", 1), ([1, 2, 0], "<=", 2)])
    assert solve_lp(lp, mode="exact").status == "optimal"
    monkeypatch.setattr(lpcore, "ITERATION_CAP", 1)
    sol = solve_lp(lp, mode="exact")
    assert (sol.status, sol.iterations) == ("iteration_limit", 2)


def _seeded_lp(seed):
    """A small LP that may be infeasible or unbounded: 1-6 variables, 1-6
    rows of integer coefficients, any relation and rhs sign."""
    rng = random.Random(seed)
    nv, nc = rng.randint(1, 6), rng.randint(1, 6)
    objective = [rng.randint(-3, 3) for _ in range(nv)]
    return _lp(objective, [([rng.randint(-3, 3) for _ in range(nv)],
                            rng.choice(["<=", ">=", "="]), rng.randint(-4, 4))
                           for _ in range(nc)])


@pytest.mark.parametrize("seed,cap,status,iterations", [
    (390, None, "infeasible", 9),  # 8 phase-1 pivots first
    (147, None, "unbounded", 11),  # 6 phase-1 pivots, then 3 in phase 2
    (147, 1, "iteration_limit", 2),  # stops in phase 1
    (147, 3, "iteration_limit", 4),
    (15, 3, "iteration_limit", 4),  # 2 phase-1 passes: stops in phase 2
    # phase 1 ends with two artificials basic at zero and pivots them out
    (279, None, "optimal", 4),
])
def test_exact_exit_paths(monkeypatch, seed, cap, status, iterations):
    """Every way out of the exact simplex reports its status and the
    pricing passes made by then, both phases counted."""
    if cap is not None:
        monkeypatch.setattr(lpcore, "ITERATION_CAP", cap)
    sol = solve_lp(_seeded_lp(seed), mode="exact")
    assert (sol.status, sol.iterations) == (status, iterations)
    assert sol.certified == sol.optimal


def test_dual_bound_rejects_bad_signs():
    lp = _lp([1], [([1], "<=", 1)])
    with pytest.raises(LpError):
        dual_bound(lp, [-1])


@pytest.mark.parametrize("rows, dual, message", [
    ([([1], "<=", 1)], [1, 0], "2 multipliers for 1 rows"),
    ([([1], ">=", 0)], [1], "multiplier on >= row must be nonpositive"),
], ids=["length", "positive-on-greater"])
def test_dual_bound_refusals(rows, dual, message):
    with pytest.raises(LpError) as caught:
        dual_bound(_lp([1], rows), dual)
    assert str(caught.value) == message


def test_dual_bound_is_infinite_on_a_positive_reduced_cost():
    lp = _lp([1, 1], [([1, 0], "<=", 1), ([0, 1], "<=", 1)])
    assert dual_bound(lp, [1, 1]) == 2
    assert dual_bound(lp, [1, 0]) is None
    assert dual_bound(lp, [1, 1 - 1e-9], tol=1e-8) == pytest.approx(2)


def _random_lp(rng):
    nv = rng.randint(2, 8)
    nc = rng.randint(1, 8)
    objective = [F(rng.randint(-4, 6), rng.randint(1, 3)) for _ in range(nv)]
    constraints = []
    for _ in range(nc):
        row = [F(rng.randint(-2, 4)) for _ in range(nv)]
        rel = rng.choice(["<=", "<=", ">=", "="])
        if rel == "<=":
            rhs = F(rng.randint(0, 8))
        elif rel == ">=":
            rhs = F(rng.randint(-8, 0))
        else:
            row = [abs(a) for a in row]
            rhs = F(0)
        constraints.append((row, rel, rhs))
    constraints += [([F(int(k == j)) for k in range(nv)], "<=", F(2))
                    for j in range(nv)]  # box
    return _lp(objective, constraints)


def _array_form(lp):
    """The same LP rebuilt from its own arrays, the entries reversed."""
    return LinearProgram(lp.objective, lp.row[::-1], lp.col[::-1],
                         lp.val[::-1], lp.relations, lp.rhs)


def test_exact_and_float_agree_on_random_lps():
    """x = 0 is feasible and the box rows bound x, so every draw is
    optimal."""
    rng = random.Random(20240817)
    for _ in range(60):
        lp = _random_lp(rng)
        exact = solve_lp(lp, "exact")
        approx = solve_lp(lp, "float")
        assert exact.status == approx.status == "optimal"
        assert abs(float(exact.value) - approx.value) <= 1e-6
        assert exact.certified, "exact dual certificate failed"
        assert approx.certified, "float dual certificate failed"
        from_arrays = solve_lp(_array_form(lp), "exact")
        assert from_arrays.value == exact.value
        assert list(from_arrays.dual) == list(exact.dual)
        assert from_arrays.certified


def test_exact_tableau_entries_stay_in_lowest_terms(monkeypatch):
    """The exact simplex keeps each tableau entry as an int numerator and a
    positive int denominator in lowest terms, also after pivots on negative
    elements: every pair it turns back into a Fraction (loading the cost
    row, reading off the results) is already reduced."""
    pairs = []

    def recording_fraction(numerator=0, denominator=None):
        if denominator is not None:
            pairs.append((numerator, denominator))
        return F(numerator, denominator)

    monkeypatch.setattr(lpcore, "Fraction", recording_fraction)
    rng = random.Random(20240817)
    for _ in range(60):
        assert solve_lp(_random_lp(rng), "exact").certified
    assert pairs and all(d > 0 and gcd(n, d) == 1 for n, d in pairs)


def test_exact_certificate_is_tight():
    rng = random.Random(99)
    for _ in range(20):
        lp = _random_lp(rng)
        sol = solve_lp(lp, "exact")
        assert dual_bound(lp, sol.dual) == sol.value


def test_exact_certificate_reads_floats_as_binary_fractions():
    """A float among Fractions is certified as its exact binary value."""
    lp = _lp([F(1, 3), 0.1], [([1, 1], "<=", 0.1)])
    sol = solve_lp(lp, mode="exact")
    assert sol.value == F(1, 3) * F(0.1)
    assert sol.certified


def test_exact_mode_converts_the_numbers_once(monkeypatch):
    """The simplex and its certificate read one Fraction copy of a float
    LP."""
    seen = []
    for name in ("_solve_exact", "dual_bound"):
        def spy(lp, *args, real=getattr(lpcore, name)):
            seen.append(lp)
            return real(lp, *args)
        monkeypatch.setattr(lpcore, name, spy)
    lp = _lp([F(1, 3), 0.1], [([1, 1], "<=", 0.1)])
    assert solve_lp(lp, mode="exact").certified
    solved, certified = seen
    assert solved is certified is not lp
    numbers = (solved.objective, solved.val, solved.rhs)
    assert {type(v) for a in numbers for v in a} == {F}


def test_iterations_are_reported():
    lp = _lp([1, 1], [([1, 1], "<=", 1)])
    # one pivot, then the pricing pass that finds no entering column
    assert solve_lp(lp, mode="exact").iterations == 2
    nit = solve_lp(lp, mode="float").iterations
    assert isinstance(nit, int) and nit >= 0


def test_float_iterations_count_both_highs_attempts(monkeypatch):
    """With the cap at 1, the first HiGHS attempt stops after 1 iteration
    and the retry with HiGHS's defaults runs; the count sums both.  In
    ``solve_drm`` the retry's presolve solves the one round's LP in 0
    iterations (the count used to be 0); the full LP stops at the cap
    again (the count used to be None)."""
    inst = college_instance(internalize_costs=True)
    monkeypatch.setattr(lpcore, "ITERATION_CAP", 1)
    sol, _ = solve_drm(inst, "float")
    assert (sol.status, sol.certified, sol.iterations) == ("optimal", True, 1)
    sol = solve_lp(build_drm_lp(inst.space, inst.costs, inst.agent,
                                inst.designer), mode="float")
    assert (sol.status, sol.iterations) == ("iteration_limit", 2)

# The ids keep the numbers of scipy's linprog statuses these cases map to.
@pytest.mark.parametrize("case,code,status", [
    ("cap", "kIterationLimit", "iteration_limit"),
    ("infeasible", "kInfeasible", "infeasible"),
    ("unbounded", "kUnbounded", "unbounded"),
    ("stub", "kSolveError", "numerical"),
    ("stub", "kUnboundedOrInfeasible", "numerical"),
], ids=["1-iteration_limit", "2-infeasible", "3-unbounded", "4-numerical",
        "5-numerical"])
def test_highs_status_is_reported_truthfully(monkeypatch, case, code,
                                             status):
    """Real LPs that HiGHS, presolve off, stops on by the cap, finds
    infeasible or unbounded; a stub binding for the numerical statuses."""
    lp = {"cap": _lp([3, 2, 4], [([1, 1, 2], "<=", 4), ([2, 0, 3], "<=", 5),
                                 ([2, 1, 3], "<=", 7)]),
          "infeasible": _lp([1, 1], [([1, 1], "<=", 1), ([1, 1], ">=", 2)]),
          "unbounded": _lp([1, 1], [([1, -1], "<=", 1), ([-1, 1], "<=", 1)]),
          "stub": _lp([1, 1], [([1, 1], "<=", 1)])}[case]
    if case == "cap":
        assert solve_lp(lp, mode="float").iterations > 1
        monkeypatch.setattr(lpcore, "ITERATION_CAP", 1)
    if case == "stub":
        stub_highs_status(monkeypatch, code)
    sol = solve_lp(lp, mode="float")
    assert (sol.status, sol.solver_code) == (status, code)
    assert not sol.certified


def _fresh_python(script: str) -> str:
    """Standard output of ``script`` run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(scoremech.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_exact_and_continuous_runs_do_not_load_scipy():
    """Exact and continuous runs load no scipy; a float solve then loads
    HiGHS's compiled extension alone."""
    out = _fresh_python(
        "import sys, scoremech\n"
        "from fractions import Fraction\n"
        "inst = scoremech.college_instance(internalize_costs=True)\n"
        "sol, _ = scoremech.solve_drm(inst, mode='exact')\n"
        "assert sol.value == Fraction(53, 24)\n"
        "dist = scoremech.Uniform(-2.0, 1.0)\n"
        "costs = scoremech.CostModel.quadratic(4.0, (-2.0, 1.0))\n"
        "scoremech.solve_continuous(dist, costs).designer_value()\n"
        "mods = ('scipy', 'scipy.sparse', 'scipy.optimize',\n"
        "        'scipy.optimize._highspy._core')\n"
        "print(sorted(m for m in mods if m in sys.modules))\n"
        "sol, _ = scoremech.solve_drm(inst, mode='float')\n"
        "assert sol.certified\n"
        "print(sorted(m for m in mods[1:] if m in sys.modules))\n")
    assert out.split("\n") == [
        "[]", "['scipy.optimize._highspy._core']", ""]


@pytest.mark.parametrize("first", ["float solve", "import scipy.optimize"])
def test_highs_extension_is_shared_with_scipy_optimize(first):
    """Whichever comes first, ``lpcore`` and ``scipy.optimize`` use one
    extension module: linprog works, and a stub ``_Highs`` set on it, as
    ``conftest.stub_highs_status`` does, reaches the float path."""
    solve = ("sol, _ = scoremech.solve_drm(inst, mode='float')\n"
             "assert sol.certified\n")
    load = "from scipy.optimize import linprog\n"
    out = _fresh_python(
        "import scoremech\n"
        "from scoremech import lpcore\n"
        "inst = scoremech.college_instance(internalize_costs=True)\n"
        + (solve + load if first == "float solve" else load + solve) +
        "res = linprog([-1.0], A_ub=[[1.0]], b_ub=[2.0], method='highs')\n"
        "assert res.status == 0 and res.x[0] == 2.0\n"
        "from scipy.optimize._highspy import _core\n"
        "assert lpcore._highs_core() is _core\n"
        "class Stub(_core._Highs):\n"
        "    def getModelStatus(self):\n"
        "        return _core.HighsModelStatus.kSolveError\n"
        "_core._Highs = Stub\n"
        "try:\n"
        "    scoremech.solve_drm(inst, mode='float')\n"
        "except scoremech.SolveError as exc:\n"
        "    print(exc.status, exc)\n")
    assert out == ("numerical LP solver reported numerical difficulties "
                   "(HiGHS status kSolveError)\n")


def test_float_matrix_is_scipy_csr(monkeypatch):
    """The CSR arrays handed to HiGHS are those of ``scipy.sparse``, over
    the rows scaled by the powers of two that put each row's largest
    |entry| in [1/2, 1)."""
    import scipy.sparse as sp
    from scipy.optimize._highspy import _core

    seen = []

    class Highs(_core._Highs):
        def passModel(self, *args):
            seen.append(args[-4:-1])  # indptr, indices, values
            return super().passModel(*args)

    monkeypatch.setattr(_core, "_Highs", Highs)
    inst = scoremech.discretize(scoremech.Uniform(-2.0, 1.0),
                                scoremech.CostModel.linear(4.0, (-2.0, 1.0)),
                                16)
    lp = build_drm_lp(inst.space, inst.costs, inst.agent, inst.designer)
    assert solve_lp(lp, mode="float").certified
    top = np.zeros(lp.n_rows)
    np.maximum.at(top, lp.row, abs(lp.val))
    scaled = np.ldexp(lp.val, -np.frexp(top)[1][lp.row])
    a = sp.csr_array((scaled, (lp.row, lp.col)), shape=(lp.n_rows, lp.n_vars))
    indptr, indices, values = seen[0]
    for mine, theirs in ((indptr, a.indptr), (indices, a.indices),
                         (values, a.data)):
        np.testing.assert_array_equal(mine, theirs)


def test_exact_mode_does_not_read_the_row_view(monkeypatch):
    """The exact tableau is built from the sparse arrays alone."""
    def no_row_view(*args):
        raise AssertionError("row view read")

    monkeypatch.setattr(LinearProgram, "constraints", property(no_row_view))
    monkeypatch.setattr(LinearProgram, "row_items", no_row_view)
    sol, _ = scoremech.solve_drm(
        scoremech.college_instance(internalize_costs=True), mode="exact")
    assert sol.certified and sol.value == F(53, 24)
