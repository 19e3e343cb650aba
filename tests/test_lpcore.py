import os
import random
import subprocess
import sys
from fractions import Fraction as F
from math import gcd
from types import SimpleNamespace

import numpy as np
import pytest

import scoremech
from scoremech import lpcore
from scoremech.lpcore import LinearProgram, LpError, dual_bound, solve_lp


def test_textbook_max():
    lp = LinearProgram(objective=[1, 1], constraints=[([1, 1], "<=", 1)])
    for mode in ("exact", "float"):
        sol = solve_lp(lp, mode=mode)
        assert sol.status == "optimal"
        assert abs(float(sol.value) - 1.0) < 1e-12
        assert sol.certified
    assert solve_lp(lp, mode="exact").value == F(1)


def test_infeasible():
    lp = LinearProgram(objective=[1], constraints=[([1], "<=", -1)])
    for mode in ("exact", "float"):
        assert solve_lp(lp, mode=mode).status == "infeasible"


def test_unbounded():
    lp = LinearProgram(objective=[1], constraints=[([-1], "<=", 0)])
    for mode in ("exact", "float"):
        assert solve_lp(lp, mode=mode).status == "unbounded"


def test_equality_and_ge_rows():
    lp = LinearProgram(
        objective=[3, -1, 0],
        constraints=[([1, 1, 1], "=", 1),
                     ([1, 0, 0], "<=", F(3, 5)),
                     ([0, 1, 0], ">=", F(1, 5))])
    sol = solve_lp(lp, mode="exact")
    assert sol.value == F(3, 5) * 3 - F(1, 5)
    assert sol.certified


def test_every_row_flip_case():
    """x0 + x1 + x2 = 5/2, x0 >= 2 x1, x1 >= 1/2, x0 + x1 >= 1: maximize
    x1 - x2.  On the equality x1 - x2 = 2 x1 + x0 - 5/2, so the optimum
    has x2 = 0 and x0 = 2 x1: x = (5/3, 5/6, 0), value 5/6."""
    lp = LinearProgram(
        objective=[0, 1, -1],
        constraints=[([-1, -1, 0], "<=", -1),  # negative rhs, flips to >=
                     ([-1, -1, -1], "=", F(-5, 2)),  # negative rhs
                     ([0, 1, 0], ">=", F(1, 2)),  # slack and artificial
                     ([1, -2, 0], ">=", 0)])  # zero rhs, flips to <=
    sol = solve_lp(lp, mode="exact")
    assert sol.status == "optimal" and sol.certified
    assert sol.value == F(5, 6)
    assert sol.assignment == [F(5, 3), F(5, 6), 0]
    approx = solve_lp(lp, mode="float")
    assert approx.certified
    assert abs(approx.value - 5 / 6) <= 1e-9
    assert np.allclose(approx.assignment, [5 / 3, 5 / 6, 0], atol=1e-9)


def test_dimension_mismatch():
    lp = LinearProgram(objective=[1, 1], constraints=[([1], "<=", 1)])
    with pytest.raises(LpError):
        solve_lp(lp)


def test_unknown_relation():
    lp = LinearProgram(objective=[1], constraints=[([1], "<", 1)])
    with pytest.raises(LpError):
        solve_lp(lp)


def test_iteration_limit():
    lp = LinearProgram(
        objective=[1, 2, 3],
        constraints=[([1, 1, 1], "<=", 1), ([1, 2, 0], "<=", 2)])
    assert solve_lp(lp, mode="exact", iteration_cap=1).status \
        == "iteration_limit"


def test_sparse_rows_match_dense():
    dense = LinearProgram(objective=[2, 1], constraints=[([1, 3], "<=", 6)])
    sparse = LinearProgram(objective=[2, 1], constraints=[({0: 1, 1: 3}, "<=", 6)])
    for mode in ("exact", "float"):
        assert abs(float(solve_lp(dense, mode).value)
                   - float(solve_lp(sparse, mode).value)) < 1e-12


def test_dual_bound_rejects_bad_signs():
    lp = LinearProgram(objective=[1], constraints=[([1], "<=", 1)])
    with pytest.raises(LpError):
        dual_bound(lp, [-1])


def test_dual_bound_is_infinite_on_a_positive_reduced_cost():
    lp = LinearProgram(objective=[1, 1],
                       constraints=[([1, 0], "<=", 1), ([0, 1], "<=", 1)])
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
    constraints += [({j: F(1)}, "<=", F(2)) for j in range(nv)]  # box
    return LinearProgram(objective=objective, constraints=constraints)


def _array_form(lp):
    """The same LP passed to from_coo, from a dense matrix of its rows, with
    the entries in reverse order."""
    dense = np.array([[row.get(j, F(0)) for j in range(lp.n_vars)]
                      for row, _, _ in lp.constraints],
                     dtype=object).reshape(-1, lp.n_vars)
    r, c = np.nonzero(dense)
    r, c = r[::-1], c[::-1]
    return LinearProgram.from_coo(
        np.array(list(lp.objective), dtype=object), r, c, dense[r, c],
        np.array([rel for _, rel, _ in lp.constraints]),
        np.array([rhs for _, _, rhs in lp.constraints], dtype=object))


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
        assert from_arrays.dual == exact.dual
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
    lp = LinearProgram(objective=[F(1, 3), 0.1],
                       constraints=[([1, 1], "<=", 0.1)])
    sol = solve_lp(lp, mode="exact")
    assert sol.value == F(1, 3) * F(0.1)
    assert sol.certified


def test_iterations_are_reported():
    lp = LinearProgram(objective=[1, 1], constraints=[([1, 1], "<=", 1)])
    # one pivot, then the pricing pass that finds no entering column
    assert solve_lp(lp, mode="exact").iterations == 2
    nit = solve_lp(lp, mode="float").iterations
    assert isinstance(nit, int) and nit >= 0

@pytest.mark.parametrize("code,status", [
    (1, "iteration_limit"), (2, "infeasible"), (3, "unbounded"),
    (4, "numerical"), (5, "numerical")])
def test_highs_status_is_reported_truthfully(monkeypatch, code, status):
    import scipy.optimize

    monkeypatch.setattr(scipy.optimize, "linprog",
                        lambda *args, **kw: SimpleNamespace(status=code))
    lp = LinearProgram(objective=[1, 1], constraints=[([1, 1], "<=", 1)])
    sol = solve_lp(lp, mode="float")
    assert (sol.status, sol.solver_code) == (status, code)
    assert not sol.certified


def test_exact_and_continuous_runs_do_not_load_scipy():
    """Only the float LP path needs scipy, and it imports it on first use."""
    script = (
        "import sys, scoremech\n"
        "from fractions import Fraction\n"
        "inst = scoremech.college_instance(internalize_costs=True)\n"
        "sol, _ = scoremech.solve_drm(inst, mode='exact')\n"
        "assert sol.value == Fraction(53, 24)\n"
        "dist = scoremech.Uniform(-2.0, 1.0)\n"
        "costs = scoremech.CostModel.quadratic(4.0, (-2.0, 1.0))\n"
        "scoremech.solve_continuous(dist, costs).designer_value()\n"
        "print(sorted(m for m in ('scipy.sparse', 'scipy.optimize')\n"
        "             if m in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(scoremech.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_exact_mode_does_not_read_the_row_view(monkeypatch):
    """The exact tableau is built from the sparse arrays alone."""
    def no_row_view(*args):
        raise AssertionError("row view read")

    monkeypatch.setattr(LinearProgram, "constraints", property(no_row_view))
    monkeypatch.setattr(LinearProgram, "row_items", no_row_view)
    sol, _ = scoremech.solve_drm(
        scoremech.college_instance(internalize_costs=True), mode="exact")
    assert sol.certified and sol.value == F(53, 24)
