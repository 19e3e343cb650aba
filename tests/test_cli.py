import ast
import copy
import functools
import hashlib
import inspect
import json
import operator
import tempfile
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from scoremech import cli, lpcore
from scoremech import continuous as cont
from scoremech.continuous import read_solution_table
from scoremech.finite import (
    read_mechanism_table,
    read_mixture_table,
    write_mechanism_table,
    write_mixture_table,
)
from scoremech.model import (
    AgentType,
    ScoreBasedRule,
    college_instance,
    instance_to_config,
    save_instance,
    validate_mechanism,
)

from conftest import stub_highs_status


MIXTURE_HEADER_LINE = ("type_label\ttype_score\tcomponent\tweight\t"
                       "rec_score\tscore\toutcome\tq\n")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _dir_digest(root):
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_example_college_prints_both_scenarios(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "example", "college",
                           "--out", str(tmp_path / "ex"))
    assert code == 0
    assert "scenario1 value = 2.25" in out
    assert "9/4" in out
    assert "69/32" in out  # the illustrative menu mechanism's value
    assert "53/24" in out  # the audited LP optimum
    assert "scenario1 audit passes = True" in out
    assert "scenario2 audit passes = True" in out


def test_solve_finite_artifacts(capsys, tmp_path):
    inst = college_instance(internalize_costs=True)
    cfg = tmp_path / "college.json"
    save_instance(inst, cfg)
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(capsys, "solve-finite", "--instance", str(cfg),
                           "--out", str(out_dir))
    assert code == 0
    summary = (out_dir / "summary.txt").read_text()
    assert "value = 2.20833333333 = 53/24" in summary
    assert "audit_passes = True" in summary
    mech = read_mechanism_table(out_dir / "mechanism.tsv")
    assert validate_mechanism(inst.space, mech) == []
    audit = json.loads((out_dir / "audit.json").read_text())
    assert audit["passes"] is True


def test_solve_finite_runs_are_byte_identical(capsys, tmp_path):
    inst = college_instance(internalize_costs=True)
    cfg = tmp_path / "college.json"
    save_instance(inst, cfg)
    digests = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code, _, _ = run_cli(capsys, "solve-finite", "--instance", str(cfg),
                             "--out", str(out_dir))
        assert code == 0
        digests.append(_dir_digest(out_dir))
    assert digests[0] == digests[1]


def test_solve_continuous_summary_and_table(capsys, tmp_path):
    out_dir = tmp_path / "cont"
    code, out, _ = run_cli(capsys, "solve-continuous",
                           "--dist", "uniform:-2,1", "--cost", "quadratic",
                           "--gamma", "4", "--out", str(out_dir))
    assert code == 0
    summary = (out_dir / "summary.txt").read_text()
    assert "regime = interior" in summary
    assert "t_dagger = -0.333333333333" in summary
    assert "p_star = 0.6079864055" in summary
    data = read_solution_table(out_dir / "solution.tsv")
    assert len(data["t"]) == 401
    assert np.all(np.diff(data["Q_star"]) >= -1e-12)
    # rerun is byte-identical
    out_dir2 = tmp_path / "cont2"
    run_cli(capsys, "solve-continuous", "--dist", "uniform:-2,1",
            "--cost", "quadratic", "--gamma", "4", "--out", str(out_dir2))
    assert _dir_digest(out_dir) == _dir_digest(out_dir2)


def test_solve_continuous_first_best_regime(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "solve-continuous",
                           "--dist", "uniform:-2,1", "--cost", "quadratic",
                           "--gamma", "0.5", "--out", str(tmp_path / "fb"))
    assert code == 0
    assert "regime = first_best" in out


def test_solve_continuous_lp_cross_check(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "solve-continuous",
                           "--dist", "uniform:-2,1", "--cost", "linear",
                           "--gamma", "4", "--grid-types", "7",
                           "--out", str(tmp_path / "xc"))
    assert code == 0
    assert "lp_value" in out
    gap_line = [l for l in out.splitlines() if l.startswith("lp_gap")][0]
    assert float(gap_line.split("=")[1]) < 0.05


def test_solve_continuous_tabulated_grid(capsys, tmp_path):
    xs = np.linspace(-2.0, 1.0, 61)
    rows = "\n".join(f"{x} {1.0 + 0.2 * x * x}" for x in xs)
    grid_path = tmp_path / "density.txt"
    grid_path.write_text(rows + "\n")
    out_dir = tmp_path / "tab"
    code, out, _ = run_cli(capsys, "solve-continuous",
                           "--dist", f"grid:{grid_path}",
                           "--cost", "linear", "--gamma", "4",
                           "--out", str(out_dir))
    assert code == 0
    assert "regime = interior" in out
    data = read_solution_table(out_dir / "solution.tsv")
    assert np.all(data["Q_star"] <= 1.0 + 1e-12)


def test_positive_mean_distribution_exits_3(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve-continuous",
                           "--dist", "uniform:-1,2", "--cost", "linear",
                           "--gamma", "4", "--out", str(tmp_path / "bad"))
    assert code == 3
    assert "negative mean" in err


def test_bad_config_exits_2(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, _, err = run_cli(capsys, "solve-finite", "--instance",
                           str(missing), "--out", str(tmp_path / "o"))
    assert code == 2
    assert "cannot read" in err

    bad_dist = run_cli(capsys, "solve-continuous", "--dist", "banana:1,2",
                       "--cost", "linear", "--gamma", "4",
                       "--out", str(tmp_path / "o2"))
    assert bad_dist[0] == 2


def test_infeasible_instance_exits_3(capsys, tmp_path):
    inst = college_instance(internalize_costs=True)
    infeasible = type(inst)(
        space=inst.space, costs=inst.costs, agent=inst.agent,
        designer=inst.designer,
        outside_option={t: F(2) for t in inst.space.types})
    cfg = tmp_path / "infeasible.json"
    save_instance(infeasible, cfg)
    code, _, err = run_cli(capsys, "solve-finite", "--instance", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == 3
    assert "infeasible" in err


def test_highs_numerical_difficulties_exit_4(capsys, tmp_path, monkeypatch):
    stub_highs_status(monkeypatch, "kSolveError")
    cfg = tmp_path / "college.json"
    save_instance(college_instance(internalize_costs=True), cfg)
    code, _, err = run_cli(capsys, "solve-finite", "--mode", "float",
                           "--instance", str(cfg), "--out",
                           str(tmp_path / "o"))
    assert code == cli.EXIT_NUMERIC == 4
    assert "numerical difficulties (HiGHS status kSolveError)" in err
    assert "iteration limit" not in err


def test_failed_certificate_exits_4(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(lpcore, "_certify", lambda *args, **kw: False)
    cfg = tmp_path / "college.json"
    save_instance(college_instance(internalize_costs=True), cfg)
    code, _, err = run_cli(capsys, "solve-finite", "--instance", str(cfg),
                           "--out", str(tmp_path / "o"))
    assert code == cli.EXIT_NUMERIC == 4
    assert err == "error: dual certificate failed verification\n"


def test_exact_iteration_limit_exits_4(capsys, tmp_path, monkeypatch):
    """The cap stops the Fraction simplex in the first restricted LP."""
    monkeypatch.setattr(lpcore, "ITERATION_CAP", 1)
    cfg = tmp_path / "college.json"
    save_instance(college_instance(internalize_costs=True), cfg)
    code, out, err = run_cli(capsys, "solve-finite", "--mode", "exact",
                             "--instance", str(cfg), "--out",
                             str(tmp_path / "o"))
    assert (code, out, err) == (4, "", "error: LP hit the iteration limit\n")


def test_config_file_mirrors_flags(capsys, tmp_path):
    run_cfg = tmp_path / "run.json"
    run_cfg.write_text(json.dumps({
        "dist": "uniform:-2,1", "cost": "linear", "gamma": 4.0,
        "out": str(tmp_path / "from_config")}))
    code, out, _ = run_cli(capsys, "--config", str(run_cfg),
                           "solve-continuous", "--dist", "uniform:-2,1",
                           "--cost", "linear", "--gamma", "1024")
    # explicit flags win; gamma comes from the command line
    assert code == 0
    assert "gamma = 1024" in out

    code, out, _ = run_cli(capsys, "--config", str(run_cfg),
                           "solve-continuous", "--dist", "uniform:-2,1",
                           "--cost", "linear")
    assert code == 0
    assert "gamma = 4" in out
    assert (tmp_path / "from_config" / "summary.txt").exists()

    # a flag has one spelling: the prefix --gam used to be read as --gamma
    # by argparse but not by the config merge, so the config's gamma won
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(run_cfg), "solve-continuous",
                  "--gam", "1024"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --gam 1024" in capsys.readouterr().err


def test_audit_command(capsys, tmp_path):
    inst = college_instance(internalize_costs=True)
    cfg = tmp_path / "college.json"
    save_instance(inst, cfg)
    from scoremech.model import college_menu_mechanism
    mech_path = tmp_path / "menu.tsv"
    write_mechanism_table(inst.space, college_menu_mechanism(), mech_path)
    out_dir = tmp_path / "audit"
    code, out, _ = run_cli(capsys, "audit", "--instance", str(cfg),
                           "--mechanism", str(mech_path),
                           "--out", str(out_dir))
    assert code == 0
    assert "passes = True" in out
    report = json.loads((out_dir / "audit.json").read_text())
    assert report["max_tt_violation"] == 0


def test_canonicalize_score_based(capsys, tmp_path):
    inst = college_instance(internalize_costs=False)
    cfg = tmp_path / "college.json"
    save_instance(inst, cfg)
    # the scenario-1 optimum has deterministic recommendations
    from scoremech.finite import solve_drm
    _, mech = solve_drm(inst, mode="exact")
    mech_path = tmp_path / "mech.tsv"
    write_mechanism_table(inst.space, mech, mech_path)
    out_dir = tmp_path / "canon"
    code, out, _ = run_cli(capsys, "canonicalize", "--op", "score-based",
                           "--instance", str(cfg),
                           "--mechanism", str(mech_path),
                           "--out", str(out_dir))
    assert code == 0
    rule_lines = (out_dir / "scorerule.tsv").read_text().splitlines()
    assert rule_lines[0] == "score\toutcome\tq"
    assert (out_dir / "falsification.tsv").exists()


def test_canonicalize_derandomize(capsys, tmp_path):
    inst = college_instance(internalize_costs=True)
    cfg = tmp_path / "college.json"
    save_instance(inst, cfg)
    t = AgentType("F", "sL")
    rule_a = ScoreBasedRule(decision={("admit", "sL"): F(1, 5),
                                      ("reject", "sL"): F(4, 5)})
    rule_b = ScoreBasedRule(decision={("admit", "sL"): F(3, 5),
                                      ("reject", "sL"): F(2, 5)})
    mixture = {u: [(F(1), rule_a, "sL")] for u in inst.space.types}
    mixture[t] = [(F(1, 2), rule_a, "sL"), (F(1, 2), rule_b, "sL")]
    mix_path = tmp_path / "mixture.tsv"
    write_mixture_table(mixture, mix_path)
    out_dir = tmp_path / "derand"
    code, _, _ = run_cli(capsys, "canonicalize", "--op", "derandomize",
                         "--instance", str(cfg), "--mixture", str(mix_path),
                         "--out", str(out_dir))
    assert code == 0
    mech = read_mechanism_table(out_dir / "mechanism.tsv")
    assert mech.q("admit", "sL", t) == F(2, 5)
    assert mech.q("admit", "sL", AgentType("NF", "sH")) == F(1, 5)


def test_canonicalize_derandomize_refuses_a_partial_mixture(capsys, tmp_path):
    """A mixture that leaves types out collapses to a mechanism that audit
    would refuse; the command refuses it first and writes nothing."""
    cfg = tmp_path / "college.json"
    save_instance(college_instance(internalize_costs=True), cfg)
    rule = ScoreBasedRule(decision={("admit", "sL"): F(1),
                                    ("reject", "sL"): F(0)})
    write_mixture_table({AgentType("F", "sL"): [(F(1), rule, "sL")]},
                        tmp_path / "mix.tsv")
    code, _, err = run_cli(capsys, "canonicalize", "--op", "derandomize",
                           "--instance", str(cfg),
                           "--mixture", str(tmp_path / "mix.tsv"),
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error: invalid mechanism: recommendation for "
                          "NF:sL sums to 0.0")
    assert not (tmp_path / "o").exists()


def test_canonicalize_rebalance(capsys, tmp_path):
    from scoremech.model import (AgentPayoff, CostModel, DesignerPayoff,
                                 FiniteMechanism, FiniteTypeSpace, Instance)
    t = AgentType("x", "s0")
    space = FiniteTypeSpace(
        types=(t,), scores=("s0", "s1"), outcomes=("no", "yes"),
        prior={t: F(1)}, score_values={"s0": 0.0, "s1": 1.0})
    costs = CostModel.tabulated({("s0", t): F(1, 10), ("s1", t): F(3, 10)})
    # own-score cost must be zero; use a type naturally at s0 with cost 0
    costs = CostModel.tabulated({("s0", t): F(0), ("s1", t): F(3, 10)})
    agent = AgentPayoff.unit_approval(space, "yes")
    designer = DesignerPayoff(decision_value={
        ("yes", t): F(1), ("no", t): F(0)})
    inst = Instance(space=space, costs=costs, agent=agent, designer=designer)
    cfg = tmp_path / "inst.json"
    save_instance(inst, cfg)
    mech = FiniteMechanism(
        decision={("yes", "s0", t): F(4, 5), ("no", "s0", t): F(1, 5),
                  ("yes", "s1", t): F(2, 5), ("no", "s1", t): F(3, 5)},
        recommendation={("s0", t): F(1, 2), ("s1", t): F(1, 2)})
    mech_path = tmp_path / "mech.tsv"
    write_mechanism_table(space, mech, mech_path)
    out_dir = tmp_path / "rebal"
    code, _, _ = run_cli(capsys, "canonicalize", "--op", "rebalance",
                         "--instance", str(cfg),
                         "--mechanism", str(mech_path),
                         "--out", str(out_dir))
    assert code == 0
    out = read_mechanism_table(out_dir / "mechanism.tsv")
    a0, a1 = out.q("yes", "s0", t), out.q("yes", "s1", t)
    assert a0 <= a1
    assert F(1, 2) * a0 + F(1, 2) * a1 == F(3, 5)


def test_mixture_table_roundtrip(tmp_path):
    t = AgentType("F", "sL")
    rule = ScoreBasedRule(decision={("admit", "sL"): F(1, 4),
                                    ("reject", "sL"): F(3, 4),
                                    ("admit", "sH"): F(1),
                                    ("reject", "sH"): F(0)})
    mixture = {t: [(F(1, 3), rule, "sL"), (F(2, 3), rule, "sH")]}
    path = tmp_path / "mix.tsv"
    write_mixture_table(mixture, path)
    back = read_mixture_table(path)
    assert set(back) == {t}
    assert sorted(w for w, _, _ in back[t]) == [F(1, 3), F(2, 3)]
    for w, r, rec in back[t]:
        assert r.decision == rule.decision


@pytest.mark.parametrize("content", [
    None,  # no such file
    MIXTURE_HEADER_LINE + "F\tsL\t0\t1\tsL\tsL\tadmit\n",  # short row
    MIXTURE_HEADER_LINE + "F\tsL\t0\tabout half\tsL\tsL\tadmit\t1\n",
], ids=["missing", "short_row", "bad_number"])
def test_unreadable_mixture_exits_2(capsys, tmp_path, content):
    cfg = tmp_path / "college.json"
    save_instance(college_instance(internalize_costs=True), cfg)
    mix_path = tmp_path / "mixture.tsv"
    if content is not None:
        mix_path.write_text(content)
    code, _, err = run_cli(capsys, "canonicalize", "--op", "derandomize",
                           "--instance", str(cfg), "--mixture", str(mix_path),
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith(f"error: cannot read mixture table {mix_path}: ")


def test_solve_continuous_integrates_designer_value_once(capsys, tmp_path,
                                                         monkeypatch):
    calls = []
    designer_value = cont.ContinuousSolution.designer_value

    def counted(self):
        calls.append(designer_value(self))
        return calls[-1]

    monkeypatch.setattr(cont.ContinuousSolution, "designer_value", counted)
    code, out, _ = run_cli(capsys, "solve-continuous",
                           "--dist", "uniform:-2,1", "--cost", "linear",
                           "--gamma", "4", "--grid-types", "5",
                           "--out", str(tmp_path / "xc"))
    assert code == 0
    assert len(calls) == 1
    s = dict(line.split(" = ", 1) for line in out.splitlines())
    assert s["designer_value"] == format(calls[0], ".12g")
    assert float(s["lp_gap"]) == pytest.approx(
        abs(float(s["lp_value"]) - calls[0]), abs=1e-10)


def test_cli_uses_no_private_name_of_another_module():
    """cli.py is argument glue: every library call goes through a public
    name of the module that owns it."""
    tree = ast.parse(inspect.getsource(cli))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for alias in node.names}
    assert {"finite", "model", "lpcore", "cont", "audit_mod"} <= modules
    private = [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name)
               and node.value.id in modules and node.attr.startswith("_")]
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names if alias.name.startswith("_")]
    assert private == [] and imported == []


def test_zero_denominator_in_mechanism_table_exits_2(capsys, tmp_path):
    inst = college_instance(internalize_costs=True)
    cfg = tmp_path / "college.json"
    save_instance(inst, cfg)
    from scoremech.model import college_menu_mechanism
    mech_path = tmp_path / "menu.tsv"
    write_mechanism_table(inst.space, college_menu_mechanism(), mech_path)
    header, first, *rest = mech_path.read_text().splitlines(keepends=True)
    cells = first.split("\t")
    cells[header.split("\t").index("rho")] = "1/0"
    mech_path.write_text("".join([header, "\t".join(cells), *rest]))
    code, _, err = run_cli(capsys, "audit", "--instance", str(cfg),
                           "--mechanism", str(mech_path),
                           "--out", str(tmp_path / "audit"))
    assert code == 2
    assert err.startswith(f"error: cannot read mechanism table {mech_path}: ")
    assert "zero denominator in '1/0'" in err


@pytest.mark.parametrize("spec", ["uniform:-2", "texp:-2", "triangular:-2,1",
                                  "texp:-2,1,1,1"])
def test_distribution_spec_with_wrong_field_count_exits_2(capsys, tmp_path,
                                                          spec):
    code, _, err = run_cli(capsys, "solve-continuous", "--dist", spec,
                           "--cost", "linear", "--gamma", "4",
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith(f"error: bad distribution spec {spec!r}: ")


FINITE_COMMANDS = [
    ["solve-finite"],
    ["audit", "--mechanism", "menu.tsv"],
    ["canonicalize", "--op", "rebalance", "--mechanism", "menu.tsv"],
    ["canonicalize", "--op", "score-based", "--mechanism", "menu.tsv"],
    ["canonicalize", "--op", "derandomize", "--mixture", "mix.tsv"]]


def _college_inputs(tmp_path, edit):
    """The college config, changed by ``edit`` on its JSON tree, plus a
    menu mechanism table and a one-type mixture table beside it."""
    inst = college_instance(internalize_costs=True)
    cfg = tmp_path / "college.json"
    save_instance(inst, cfg)
    data = json.loads(cfg.read_text())
    edit(data)
    cfg.write_text(json.dumps(data))
    from scoremech.model import college_menu_mechanism
    write_mechanism_table(inst.space, college_menu_mechanism(),
                          tmp_path / "menu.tsv")
    rule = ScoreBasedRule(decision={("admit", "sL"): F(1),
                                    ("reject", "sL"): F(0)})
    write_mixture_table({AgentType("F", "sL"): [(F(1), rule, "sL")]},
                        tmp_path / "mix.tsv")
    return cfg


# an exact number beyond float range, where float() raises OverflowError
_HUGE = "1" + "0" * 400


def _as_floats(data, section, key, value):
    """Edit a config tree in place: every "p/q" string a float, as in CI's
    floats.json, then ``value`` at ``data[section][key]``."""
    def floats(tree):
        if isinstance(tree, dict):
            return {k: floats(v) for k, v in tree.items()}
        exact = isinstance(tree, str) and "/" in tree
        return float(F(tree)) if exact else tree

    data.update(floats(data))
    data[section][key] = value


@pytest.mark.parametrize("command", FINITE_COMMANDS)
def test_unnormalized_prior_exits_2(capsys, tmp_path, monkeypatch, command):
    """A prior summing to 3/4, and one with an exact mass too large for a
    float, which used to exit 4 with "integer division result too large
    for a float".  Among float masses, the JSON integer 10^400 makes the
    sum overflow, and ``number_sum`` sums the masses as floats instead."""
    for edit, total in [
            (lambda data: data["prior"].update({"NF|sL": "0/1"}), "0.75"),
            (lambda data: data["prior"].update({"F|sL": _HUGE}), "inf"),
            (lambda data: _as_floats(data, "prior", "F|sL", 10**400), "inf")]:
        run = Path(tempfile.mkdtemp(dir=tmp_path))
        cfg = _college_inputs(run, edit)
        monkeypatch.chdir(run)
        code, out, err = run_cli(capsys, *command, "--instance", str(cfg),
                                 "--out", "o")
        assert (code, out) == (2, "")
        assert err == ("error: invalid instance: prior not normalized "
                       f"(sums to {total})\n")
        assert not (run / "o").exists()


_HUGE_RHO = ("invalid mechanism: recommendation for F:sL sums to inf; "
             f"rho(sL|F:sL) = {_HUGE} outside [0, 1]")


@pytest.mark.parametrize("command, edit, message", [
    (["audit", "--mechanism", "menu.tsv"], "rho", _HUGE_RHO),
    (["canonicalize", "--op", "score-based", "--mechanism", "menu.tsv"],
     "rho", _HUGE_RHO),
    (["canonicalize", "--op", "rebalance", "--mechanism", "menu.tsv"], "rho",
     _HUGE_RHO),
    (["canonicalize", "--op", "derandomize", "--mixture", "mix.tsv"],
     "weight", f"mixture for F:sL has total mass {_HUGE}"),
    (["solve-finite", "--mode", "float"], "cost",
     "invalid instance: objective at (F:sL, sH, reject) is -inf"),
    (["audit", "--mechanism", "menu.tsv"], "float-data",
     "invalid instance: agent value at (reject, F:sL) is inf"),
], ids=["audit-rho", "score-based-rho", "rebalance-rho", "derandomize-weight",
        "solve-float-cost", "audit-float-data"])
def test_exact_number_beyond_float_range_exits_2(capsys, tmp_path,
                                                 monkeypatch, command, edit,
                                                 message):
    """An exact rho (on both outcome rows of one type and score), mixture
    weight or cost of 10^400 used to exit 4 with "integer division result
    too large for a float".  Float mode reads the cost as -inf in the
    objective table (the loss is c^2/6) and refuses it there.  So did the
    audit of float data holding the JSON integer 10^400 as an agent value:
    its float arithmetic would overflow, and it refuses the entry first."""
    def huge_cost(data):
        if edit == "cost":
            data["cost"]["table"]["sH|F|sL"] = _HUGE
        if edit == "float-data":
            _as_floats(data, "agent_value", "reject|F|sL", 10**400)

    cfg = _college_inputs(tmp_path, huge_cost)
    for name, column, key in (("menu.tsv", "rho", ["F", "sL", "sL"]),
                              ("mix.tsv", "weight", ["F", "sL"])):
        header, *rows = (tmp_path / name).read_text().splitlines()
        rows = [row.split("\t") for row in rows]
        for row in rows:
            if edit == column and row[:len(key)] == key:
                row[header.split("\t").index(column)] = _HUGE
        (tmp_path / name).write_text(
            "\n".join([header] + ["\t".join(r) for r in rows]) + "\n")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "--instance", str(cfg),
                             "--out", "o")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_exact_mode_solves_a_cost_beyond_float_range(capsys, tmp_path):
    """Exact mode solves with the cost that float mode refuses."""
    cfg = _college_inputs(tmp_path, lambda data: data["cost"]["table"].update(
        {"sH|F|sL": _HUGE}))
    code, out, err = run_cli(capsys, "solve-finite", "--mode", "exact",
                             "--instance", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert (code, out, err) == (0, "value = 2 = 2/1\n", "")


@pytest.mark.parametrize("section", ["decision_value", "agent_value"])
def test_exact_values_beyond_float_range_show_as_infinities(capsys, tmp_path,
                                                             section):
    """An exact solve with a decision or an agent value of 10^400 used to
    exit 4 after solving, converting the value (in summary.txt) or a best
    response's value (in audit.json) by float(): no summary.txt, or an
    empty audit.json.  They show as "inf = p/q" and as Infinity."""
    cfg = _college_inputs(tmp_path, lambda data: data[section].update(
        {"admit|F|sL": _HUGE}))
    code, out, err = run_cli(capsys, "solve-finite", "--mode", "exact",
                             "--instance", str(cfg),
                             "--out", str(tmp_path / "o"))
    assert (code, err) == (0, "")
    summary = (tmp_path / "o" / "summary.txt").read_text()
    report = json.loads((tmp_path / "o" / "audit.json").read_text())
    assert report["passes"] is True and "\naudit_passes = True\n" in summary
    assert f"\n{out}" in summary
    shown, exact = out.removeprefix("value = ").rstrip("\n").split(" = ")
    if section == "decision_value":
        assert shown == "inf" and F(exact) > 10**400 // 4
    else:
        assert (shown, exact) == ("2.20833333333", "53/24")
        assert float("inf") in (info["value"] for info
                                in report["best_responses"].values())


@pytest.mark.parametrize("value", ["nan", "-inf"])
@pytest.mark.parametrize("command", FINITE_COMMANDS,
                         ids=["solve-finite", "audit", "rebalance",
                              "score-based", "derandomize"])
def test_non_finite_outside_option_exits_2(capsys, tmp_path, monkeypatch,
                                           command, value):
    """Every finite command refuses a NaN or an infinity in the outside
    option, with the same message; rebalance, derandomize and the
    score-based reduction used to skip the check."""
    def outside(data):
        data["outside_option"]["F|sL"] = value

    cfg = _college_inputs(tmp_path, outside)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "--instance", str(cfg),
                             "--out", "o")
    assert (code, out) == (2, "")
    assert err == (f"error: invalid instance: outside option at F:sL is "
                   f"{float(value)}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", FINITE_COMMANDS)
def test_parametric_cost_config_exits_2(capsys, tmp_path, monkeypatch,
                                        command):
    def parametric(data):
        data["cost"] = {"kind": "linear", "gamma": 4, "domain": [-2, 1]}

    cfg = _college_inputs(tmp_path, parametric)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "--instance", str(cfg),
                             "--out", "o")
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read instance config {cfg}: a finite "
                   "instance needs a cost table, not a 'linear' cost\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, key, where", [
    (["solve-finite"], "table", 'in "cost"'),
    (["audit", "--mechanism", "menu.tsv"], "decision_value",
     "at the top level")])
def test_missing_config_key_is_named(capsys, tmp_path, monkeypatch, command,
                                     key, where):
    def drop(data):
        del (data["cost"] if key == "table" else data)[key]

    cfg = _college_inputs(tmp_path, drop)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "--instance", str(cfg),
                             "--out", "o")
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read instance config {cfg}: "
                   f"missing key {key!r} {where}\n")


@pytest.mark.parametrize("command, message", [
    (["solve-finite"], "--instance is required (flag or config file)"),
    (["example", "nosuch"], "unknown example 'nosuch'"),
    (["canonicalize", "--op", "derandomize", "--instance", "college.json"],
     "--op derandomize needs --mixture"),
    (["canonicalize", "--op", "rebalance", "--instance", "college.json"],
     "--op rebalance needs --mechanism"),
], ids=["solve-finite-no-instance", "example-unknown",
        "derandomize-no-mixture", "rebalance-no-mechanism"])
def test_missing_input_exits_2(capsys, tmp_path, monkeypatch, command,
                               message):
    save_instance(college_instance(internalize_costs=True),
                  tmp_path / "college.json")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "--out", "o")
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, where", [
    (["solve-finite"], "instance"),
    (["solve-finite", "--mode", "float"], "instance"),
    (["audit", "--mechanism", "menu.tsv"], "instance"),
    (["audit", "--mechanism", "nan.tsv"], "mechanism")],
    ids=["solve-finite-exact", "solve-finite-float", "audit-instance",
         "audit-mechanism"])
def test_non_finite_number_exits_2(capsys, tmp_path, monkeypatch, command,
                                   where):
    """A "nan" agent value in the instance config, or every q of the
    mechanism table set to nan."""
    inst = college_instance(internalize_costs=True)
    cfg = tmp_path / "college.json"
    save_instance(inst, cfg)
    if where == "instance":
        data = json.loads(cfg.read_text())
        data["agent_value"]["admit|F|sL"] = "nan"
        cfg.write_text(json.dumps(data))
    from scoremech.model import college_menu_mechanism
    write_mechanism_table(inst.space, college_menu_mechanism(),
                          tmp_path / "menu.tsv")
    header, *rows = (tmp_path / "menu.tsv").read_text().splitlines(
        keepends=True)
    (tmp_path / "nan.tsv").write_text("".join(
        [header] + [row.rsplit("\t", 1)[0] + "\tnan\n" for row in rows]))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *command, "--instance", str(cfg),
                             "--out", "o")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: invalid {where}: ")
    assert err.count("nan") == (1 if where == "instance" else len(rows))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content, message", [
    ("-2\n0\n1\n", "a grid file has two columns, t and f(t)"),
    ("-2 1\n0 nan\n1 1\n", "grid and density must be finite"),
    ("-2 1\n0 inf\n1 1\n", "grid and density must be finite")],
    ids=["one-column", "nan-density", "inf-density"])
def test_bad_grid_file_exits_2(capsys, tmp_path, content, message):
    grid = tmp_path / "grid.txt"
    grid.write_text(content)
    code, _, err = run_cli(capsys, "solve-continuous", "--dist",
                           f"grid:{grid}", "--cost", "linear", "--gamma", "4",
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert err == f"error: bad distribution spec 'grid:{grid}': {message}\n"


@pytest.mark.parametrize("command, flag", [
    (["example"], "--tol"),
    (["solve-continuous", "--dist", "uniform:-2,1", "--cost", "linear",
      "--gamma", "4"], "--mode"),
    (["solve-continuous", "--dist", "uniform:-2,1", "--cost", "linear",
      "--gamma", "4"], "--tol"),
    (["audit", "--instance", "i.json", "--mechanism", "m.tsv"], "--mode"),
    (["canonicalize", "--op", "rebalance", "--instance", "i.json",
      "--mechanism", "m.tsv"], "--mode"),
], ids=["example-tol", "solve-continuous-mode", "solve-continuous-tol",
        "audit-mode", "canonicalize-mode"])
def test_unread_flags_are_rejected(capsys, command, flag):
    value = "1e-6" if flag == "--tol" else "float"
    with pytest.raises(SystemExit) as exc:
        cli.main(command + [flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_invalid_distribution_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve-continuous", "--dist", "uniform:1,2",
                           "--cost", "linear", "--gamma", "4",
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error: bad distribution spec 'uniform:1,2': "
                          "support [1.0, 2.0] must straddle 0")


def test_zero_texp_rate_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve-continuous", "--dist", "texp:-2,1,0",
                           "--cost", "linear", "--gamma", "4",
                           "--out", str(tmp_path / "o"))
    assert code == 2
    assert err.startswith("error: bad distribution spec 'texp:-2,1,0': ")


def test_nonparametric_cost_from_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"cost": "tabulated"}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "solve-continuous",
                           "--dist", "uniform:-2,1", "--gamma", "4",
                           "--out", str(tmp_path / "o"))
    assert code == 2
    # argparse's own wording; the list of choices is quoted only before
    # Python 3.12.8
    assert err.startswith("error: config 'cost': invalid choice: "
                          "'tabulated' (choose from ")


@pytest.mark.parametrize("cost", ["linear", "quadratic"])
@pytest.mark.parametrize("gamma", ["-1", "0", "nan"])
def test_nonpositive_gamma_exits_2(capsys, tmp_path, cost, gamma):
    code, out, err = run_cli(capsys, "solve-continuous",
                             "--dist", "uniform:-2,1", "--cost", cost,
                             "--gamma", gamma, "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err == "error: parametric cost model requires gamma > 0\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--samples", "-1", "--samples must be at least 1"),
    ("--samples", "0", "--samples must be at least 1"),
    ("--grid-types", "1", "--grid-types must be 0 or at least 2"),
    ("--grid-types", "-3", "--grid-types must be 0 or at least 2"),
], ids=["samples-negative", "samples-zero", "grid-types-1",
        "grid-types-negative"])
def test_out_of_range_table_sizes_exit_2(capsys, tmp_path, flag, value,
                                         message):
    out_dir = tmp_path / "o"
    code, out, err = run_cli(capsys, "solve-continuous",
                             "--dist", "uniform:-2,1", "--cost", "quadratic",
                             "--gamma", "4", flag, value,
                             "--out", str(out_dir))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (out_dir / "solution.tsv").exists()


def test_out_of_range_samples_from_config_exits_2(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"samples": 0}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "solve-continuous",
                           "--dist", "uniform:-2,1", "--cost", "quadratic",
                           "--gamma", "4", "--out", str(tmp_path / "o"))
    assert (code, err) == (2, "error: --samples must be at least 1\n")


def test_console_script_reads_config(capsys, tmp_path, monkeypatch):
    """``main()`` without arguments, as the ``scoremech`` entry point and
    ``python -m scoremech.cli`` call it, reads ``sys.argv``."""
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"dist": "uniform:-2,1", "cost": "quadratic",
                               "gamma": 4, "out": str(tmp_path / "o")}))
    monkeypatch.setattr("sys.argv", ["scoremech", "--config", str(cfg),
                                     "solve-continuous", "--samples", "5"])
    assert cli.main() == 0
    out = capsys.readouterr().out
    assert "regime = interior" in out and "gamma = 4\n" in out
    assert len(read_solution_table(tmp_path / "o" / "solution.tsv")["t"]) == 5


def _run_config(capsys, tmp_path, config, *flags):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    return run_cli(capsys, "--config", str(cfg), "solve-continuous",
                   "--out", str(tmp_path / "o"), *flags)


@pytest.mark.parametrize("config", [
    {"samples": "401"}, {"gamma": "4"}, {"gamma": 4}],
    ids=["samples-string", "gamma-string", "gamma-int"])
def test_config_values_are_read_like_flags(capsys, tmp_path, config):
    flags = {"dist": "uniform:-2,1", "cost": "quadratic", "gamma": "4",
             "samples": "401"}
    argv = [x for k, v in flags.items() if k not in config
            for x in (f"--{k}", v)]
    code, out, err = _run_config(capsys, tmp_path, config, *argv)
    assert (code, err) == (0, "")
    reference = run_cli(capsys, "solve-continuous", "--out",
                        str(tmp_path / "ref"),
                        *[x for k, v in flags.items() for x in (f"--{k}", v)])
    assert reference == (0, out, "")
    assert ((tmp_path / "o" / "solution.tsv").read_bytes()
            == (tmp_path / "ref" / "solution.tsv").read_bytes())


@pytest.mark.parametrize("config, message", [
    ({"samples": 10.5}, "config 'samples': invalid int value: '10.5'"),
    ({"samples": True}, "config 'samples': invalid int value: 'True'"),
    ({"gamma": "four"}, "config 'gamma': invalid float value: 'four'"),
    ({"cost": "cubic"}, "config 'cost': invalid choice: 'cubic' "),
    ({"mode": "fast"}, "unknown config key 'mode'"),
    ({"out": None}, "config 'out': bad value None"),
    ({"dist": ["uniform", -2, 1]}, "config 'dist': bad value ['uniform', "
                                   "-2, 1]"),
    ({"func": "x"}, "unknown config key 'func'"),
    ({"command": "audit"}, "unknown config key 'command'"),
    ({"config": "x.json"}, "unknown config key 'config'"),
], ids=["samples-float", "samples-bool", "gamma-word", "cost-choice",
        "mode-choice", "out-null", "dist-list", "not-a-flag", "command-key",
        "config-key"])
def test_bad_config_value_exits_2(capsys, tmp_path, config, message):
    code, out, err = _run_config(capsys, tmp_path, config, "--dist",
                                 "uniform:-2,1", "--gamma", "4")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert not (tmp_path / "o").exists()


def test_unnormalized_recommendation_exits_2(capsys, tmp_path):
    inst = college_instance(internalize_costs=True)
    cfg = tmp_path / "college.json"
    save_instance(inst, cfg)
    from scoremech.model import college_menu_mechanism
    mech_path = tmp_path / "menu.tsv"
    write_mechanism_table(inst.space, college_menu_mechanism(), mech_path)
    header, *rows = mech_path.read_text().splitlines(keepends=True)
    rho = header.split("\t").index("rho")
    for i, row in enumerate(rows):  # rho(sH | NF, sH) = 1/2 on both rows
        cells = row.split("\t")
        if cells[:3] == ["NF", "sH", "sH"]:
            cells[rho] = "1/2"
            rows[i] = "\t".join(cells)
    mech_path.write_text("".join([header, *rows]))
    code, _, err = run_cli(capsys, "audit", "--instance", str(cfg),
                           "--mechanism", str(mech_path),
                           "--out", str(tmp_path / "audit"))
    assert code == 2
    assert err.startswith("error: invalid mechanism: recommendation for ")
    assert "sums to 0.5" in err


@functools.cache
def _college2_table():
    """The lines of college scenario 2's exact optimal mechanism table, as
    ``solve-finite`` writes it; solved once per test session."""
    from scoremech.finite import solve_drm
    inst = college_instance(internalize_costs=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mechanism.tsv"
        write_mechanism_table(inst.space, solve_drm(inst)[1], path)
        return tuple(path.read_text().splitlines())


def _college2_solved(tmp_path, edit):
    """College scenario 2's config and exact optimal mechanism table, the
    table's rows (header excluded, split into cells) changed by ``edit``."""
    cfg = tmp_path / "college.json"
    save_instance(college_instance(internalize_costs=True), cfg)
    mech_path = tmp_path / "mechanism.tsv"
    header, *rows = _college2_table()
    rows = [row.split("\t") for row in rows]
    edit(header.split("\t"), rows)
    mech_path.write_text("\n".join([header] + ["\t".join(r) for r in rows])
                         + "\n")
    return cfg, mech_path


def test_mechanism_rows_that_disagree_on_rho_exit_2(capsys, tmp_path):
    """rho is repeated on each outcome row of a (type, score); with inf on
    one of them the table used to read as its last row and pass the
    audit."""
    def infinite_rho(header, rows):
        first = next(r for r in rows if r[:2] == ["F", "sL"])
        first[header.index("rho")] = "inf"

    cfg, mech_path = _college2_solved(tmp_path, infinite_rho)
    code, out, err = run_cli(capsys, "audit", "--instance", str(cfg),
                             "--mechanism", str(mech_path),
                             "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read mechanism table {mech_path}: the "
                   "rows of (sH, F:sL) give rho inf and 1/1\n")
    assert not (tmp_path / "o").exists()


def test_mechanism_rows_that_give_two_q_exit_2(capsys, tmp_path):
    """A second q for one (type, score, outcome), on a row placed before
    the solved one, used to be dropped: the table audited as passing."""
    def second_q(header, rows):
        first = rows[0]  # F sL sH reject, q = 0/1
        rows.insert(0, first[:header.index("q")] + ["1/2"])

    cfg, mech_path = _college2_solved(tmp_path, second_q)
    code, out, err = run_cli(capsys, "audit", "--instance", str(cfg),
                             "--mechanism", str(mech_path),
                             "--out", str(tmp_path / "o"))
    assert (code, out) == (2, "")
    assert err == (f"error: cannot read mechanism table {mech_path}: the "
                   "rows of (reject, sH, F:sL) give q 1/2 and 0/1\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("op, q, problem", [
    ("score-based", "nan", "q(reject|sH,F:sL) = nan outside [0, 1]"),
    ("score-based", "-1", "q(reject|sH,F:sL) = -1 outside [0, 1]"),
    ("rebalance", None, "recommendation for F:sL sums to 0.0")],
    ids=["score-based-nan-q", "score-based-negative-q", "rebalance-empty"])
def test_canonicalize_validates_the_mechanism(capsys, tmp_path, monkeypatch,
                                              op, q, problem):
    """A q of nan or -1 on one row, or a table with no rows."""
    def edit(header, rows):
        if q is None:
            rows.clear()
        else:
            rows[0][header.index("q")] = q

    cfg, mech_path = _college2_solved(tmp_path, edit)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "canonicalize", "--op", op,
                             "--instance", str(cfg),
                             "--mechanism", str(mech_path), "--out", "o")
    assert (code, out) == (2, "")
    assert err.startswith("error: invalid mechanism: ") and problem in err
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


_DROP = object()


def _replace(tree, path, value):
    """``tree`` with the value at ``path`` (keys and list indices) set to
    ``value``, or dropped if ``value`` is ``_DROP``; the root if ``path``
    is empty.  ``tree`` itself is left as it was."""
    if not path:
        return value
    tree = copy.deepcopy(tree)
    parent = functools.reduce(operator.getitem, path[:-1], tree)
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return tree


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("path, value, message", [
    (("outcomes",), [], "invalid instance: no outcomes"),
    (("types",), [], "invalid instance: no types"),
    (("scores",), [], "invalid instance: no scores"),
    (("prior",), [], "cannot read instance config {cfg}: key 'prior' at the "
     "top level is not a JSON object"),
    (("outcomes",), "admit", "cannot read instance config {cfg}: key "
     "'outcomes' at the top level is not a JSON array"),
    ((), 3, "cannot read instance config {cfg}: the config is not a JSON "
     "object"),
    ((), None, "cannot read instance config {cfg}: the config is not a "
     "JSON object"),
    (("types", 0), 3, "cannot read instance config {cfg}: an entry of "
     "'types' is not a [label, score] pair of strings: 3"),
    (("scores", 1), [], "cannot read instance config {cfg}: an entry of "
     "'scores' is not a string: []"),
    (("prior", "F|sL"), [1], "cannot read instance config {cfg}: key "
     "'F|sL' in \"prior\" is not a number: [1]"),
    (("cost", "table", "sH|F|sL"), None, "cannot read instance config "
     "{cfg}: key 'sH|F|sL' in \"table\" in \"cost\" is not a number: null"),
    (("loss_coefficient",), True, "cannot read instance config {cfg}: key "
     "'loss_coefficient' at the top level is not a number: true")],
    ids=["no-outcomes", "no-types", "no-scores", "prior-list",
         "outcomes-string", "top-level-number", "top-level-null",
         "type-number", "score-list", "prior-mass-list", "cost-null",
         "loss-coefficient-true"])
def test_config_of_the_wrong_shape_exits_2(capsys, tmp_path, monkeypatch,
                                           mode, path, value, message):
    """Empty lists, and sections or entries of the wrong JSON type, used to
    exit 1 with a traceback."""
    cfg = _college_inputs(tmp_path, lambda data: None)
    cfg.write_text(json.dumps(_replace(json.loads(cfg.read_text()), path,
                                       value)))
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "solve-finite", "--mode", mode,
                             "--instance", str(cfg), "--out", "o")
    assert (code, out) == (2, "")
    assert err.startswith("error: " + message.format(cfg=cfg))
    assert err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_overflowing_cost_exits_2(capsys, tmp_path, monkeypatch, mode):
    """A cost of 1e308 passes ``validate``, but the loss lam * c^2 of the
    objective table overflows: both modes refuse it, naming the entry.
    Exact mode used to exit 4, converting the infinity to a Fraction."""
    def overflow(data):
        data["cost"]["table"]["sH|F|sL"] = 1e308

    cfg = _college_inputs(tmp_path, overflow)
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "solve-finite", "--mode", mode,
                             "--instance", str(cfg), "--out", "o")
    assert (code, out) == (2, "")
    assert err == ("error: invalid instance: objective at (F:sL, sH, reject)"
                   " is -inf\n")
    assert not (tmp_path / "o").exists()


def _config_paths(tree, path=()):
    """Every path in a JSON tree, the root's () first."""
    yield path
    if isinstance(tree, (dict, list)):
        items = tree.items() if isinstance(tree, dict) else enumerate(tree)
        for key, value in items:
            yield from _config_paths(value, path + (key,))


_COLLEGE2 = instance_to_config(college_instance(internalize_costs=True))
_MUTANTS = [_DROP, float("nan"), float("inf"), float("-inf"), 1e308, -1e308,
            -1, "1/0", "abc", None, [], {}, True, _HUGE]


@seed(0)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(path=st.sampled_from(list(_config_paths(_COLLEGE2))),
       value=st.sampled_from(_MUTANTS))
def test_single_mutations_of_the_college_config_keep_the_exit_codes(
        capsys, tmp_path, path, value):
    """One value of college scenario 2's config (the tree ``example
    college`` writes as college_scenario2.json) dropped or replaced, then
    ``solve-finite`` in both modes: an exit code the CLI documents, never
    an exception; one stderr line, a warning counted, on a refusal; a
    passing audit on a solve.  Exact mode never exits 4, since an exact
    value beyond float range is shown as "inf = p/q"; float mode does on a
    +-1e308 value, whose dual certificate fails."""
    if not path and value is _DROP:
        value = None
    run = Path(tempfile.mkdtemp(dir=tmp_path))
    cfg = run / "config.json"
    cfg.write_text(json.dumps(_replace(_COLLEGE2, path, value)))
    for mode in ("exact", "float"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "solve-finite", "--mode", mode,
                                     "--instance", str(cfg),
                                     "--out", str(run / mode))
        assert code in ((0, 2, 3) if mode == "exact" else (0, 2, 3, 4))
        if code:
            assert out == ""
            assert err.count("\n") + len(caught) == 1
        else:
            assert (err, caught) == ("", [])
            summary = (run / mode / "summary.txt").read_text()
            assert "\naudit_passes = True\n" in summary


_ROW_EDITS = ["drop", "duplicate"]
_CELL_MUTANTS = ["nan", "inf", "-inf", "1e308", "-1e308", "-1", "1/0", "abc",
                 "", _HUGE]


@seed(0)
@settings(max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(row=st.integers(0, 63), cell=st.integers(0, 6),
       edit=st.sampled_from(_ROW_EDITS + _CELL_MUTANTS))
def test_single_mutations_of_the_college_mechanism_table_keep_the_exit_codes(
        capsys, tmp_path, row, cell, edit):
    """College scenario 2's optimal mechanism table with one row dropped
    or duplicated, or one cell replaced, then ``audit`` and
    ``canonicalize --op score-based``: a success or a refusal (neither
    solves an LP, so exits 3 and 4 never apply), never an exception; one
    stderr line, a warning counted, on a refusal."""
    def mutate(header, rows):
        i = row % len(rows)
        if edit == "drop":
            del rows[i]
        elif edit == "duplicate":
            rows.insert(i, list(rows[i]))
        else:
            rows[i][cell] = edit

    run = Path(tempfile.mkdtemp(dir=tmp_path))
    cfg, table = _college2_solved(run, mutate)
    for command in (["audit"], ["canonicalize", "--op", "score-based"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *command, "--instance", str(cfg),
                                     "--mechanism", str(table),
                                     "--out", str(run / command[-1]))
        assert code in (0, 2)
        if code:
            assert out == ""
            assert err.count("\n") + len(caught) == 1
        else:
            assert (err, caught) == ("", [])


@pytest.mark.parametrize("rate", ["12", "20"])
def test_steep_truncated_exponential_solves_quadratic(capsys, tmp_path,
                                                      rate):
    code, out, err = run_cli(capsys, "solve-continuous",
                             "--dist", f"texp:-2,1,{rate}",
                             "--cost", "quadratic", "--gamma", "4",
                             "--out", str(tmp_path / "o"))
    assert (code, err) == (0, "")
    assert "regime = interior\n" in out
