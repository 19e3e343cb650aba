"""Workload inputs, the jobs that run them, and their correctness gates.

Every job calls the library only through its public functions, each call
wrapped in a tracer span named ``<module>.<function>``.  A job returns a
record ``{"fail": [...], "stable": {...}, "counts": {...}, "value": ...}``:
``fail`` lists the checks it failed, and ``stable`` holds what must repeat
exactly from round to round (artifact digests, LP dimensions).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from scoremech import audit, finite, lpcore, model
from scoremech import continuous as cont
from scoremech.model import (AgentPayoff, CostModel, DesignerPayoff,
                             FiniteTypeSpace, Instance)

# Exact optima of the college instance, both scenarios (README, tests).
REFERENCES = {"college1": Fraction(9, 4), "college2": Fraction(53, 24)}

FLOAT_VALUE_RTOL = 1e-7
CONTINUOUS_GAIN_TOL = 1e-8
BRUTE_FORCE_STEP = Fraction(1, 8)
SAMPLE_POINTS = 401
AUDIT_GRID = 41
CHILD_TIMEOUT_S = 120


@dataclass
class Job:
    id: str
    run: Callable  # run(tracer) -> record
    largest: bool = False  # part of the workload's named largest job


@dataclass
class Workload:
    jobs: list[Job]
    # cross-job check run after each round: {job id: [failures]}
    round_check: Callable[[dict], dict] = field(default=lambda recs: {})


def record(fail=None, **kw) -> dict:
    out = {"fail": list(fail or []), "stable": {}, "counts": {}}
    out.update(kw)
    return out


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rng.uniform(-rel, rel))


def _dist(rng: random.Random, kind: str):
    """A distribution with negative mean and nondecreasing hazard rate."""
    lo = -2.0 + rng.uniform(-0.1, 0.1)
    hi = 1.0 + rng.uniform(-0.05, 0.05)
    if kind == "uniform":
        return cont.Uniform(lo, hi)
    if kind == "texp":
        return cont.TruncatedExponential(lo, hi, _jitter(rng, 1.0, 0.1))
    return cont.Triangular(lo, hi, -1.0 + rng.uniform(-0.1, 0.1))


def _costs(kind: str, gamma: float, dist) -> CostModel:
    make = CostModel.linear if kind == "linear" else CostModel.quadratic
    return make(gamma, (dist.s_min, dist.s_max))


def _interior_gamma(rng: random.Random, kind: str, dist) -> float:
    """Gamma well inside the interior regime (threshold s_max or s_max^2)."""
    base = 4.0 if kind == "linear" else 3.0
    threshold = dist.s_max if kind == "linear" else dist.s_max ** 2
    return max(_jitter(rng, base, 0.1), 2.0 * threshold)


def to_fractions(inst: Instance) -> Instance:
    """The same instance with every float converted to an exact Fraction."""
    s = inst.space
    space = FiniteTypeSpace(
        types=s.types, scores=s.scores, outcomes=s.outcomes,
        prior=dict(s.prior),
        score_values=None if s.score_values is None else {
            a: Fraction(v) for a, v in s.score_values.items()})
    return Instance(
        space=space,
        costs=CostModel.tabulated(
            {k: Fraction(v) for k, v in inst.costs.table.items()}),
        agent=AgentPayoff({k: Fraction(v)
                           for k, v in inst.agent.value.items()}),
        designer=DesignerPayoff(
            {k: Fraction(v) for k, v in inst.designer.decision_value.items()},
            inst.designer.loss_coefficient),
        outside_option=dict(inst.outside_option))


# ---------------------------------------------------------------------------
# finite jobs
# ---------------------------------------------------------------------------

def run_finite(inst: Instance, mode: str, tr) -> dict:
    """validate -> build -> solve -> extract -> audit -> evaluate."""
    space, costs, agent, designer = (inst.space, inst.costs, inst.agent,
                                     inst.designer)
    outside = inst.outside_option
    fail = []
    problems = tr.call("model.validate", model.validate, space, costs,
                       designer, agent)
    if problems:
        fail.append("invalid instance: " + "; ".join(problems))
    lp = tr.call("finite.build_drm_lp", finite.build_drm_lp, space, costs,
                 agent, designer, outside)
    if tr.enabled:
        tr.call("lpcore.validate_probe", lp.validate, probe=True)
    sol = tr.call("lpcore.solve_lp", lpcore.solve_lp, lp, mode=mode)
    if not sol.optimal:
        return record(fail + [f"LP status {sol.status}"])
    if not sol.certified:
        fail.append("dual certificate not verified")
    counts = {}
    if tr.enabled:
        tol = 0 if mode == "exact" else 1e-7
        tr.call("lpcore.dual_bound_probe", lpcore.dual_bound, lp, sol.dual,
                tol=tol, probe=True)
        counts = tr.call("bench.counts", _lp_counts, lp, sol, space,
                         probe=True)
    mech = tr.call("finite.extract_mechanism", finite.extract_mechanism,
                   space, sol)
    report = tr.call("audit.audit_ic", audit.audit_ic, space, costs, agent,
                     mech, outside)
    if not report.passes:
        fail.append(f"audit fails (tt {report.max_tt_violation:.3g}, "
                    f"pc {report.max_pc_violation:.3g})")
    value, _, _ = tr.call("finite.evaluate_mechanism",
                          finite.evaluate_mechanism, space, costs, agent,
                          designer, mech)
    if mode == "exact":
        if value != sol.value:
            fail.append(f"evaluated {value} != LP value {sol.value}")
    elif abs(value - sol.value) > FLOAT_VALUE_RTOL * max(1.0, abs(value)):
        fail.append(f"evaluated {value!r} != LP value {sol.value!r}")
    return record(fail, value=sol.value, counts=counts,
                  stable=dict(counts))


def _lp_counts(lp, sol, space) -> dict:
    n = len(space.types)
    return {
        "lpcore.n_vars": lp.n_vars,
        "lpcore.n_rows": len(lp.constraints),
        "lpcore.nnz": sum(len(lp.row_items(row))
                          for row, _, _ in lp.constraints),
        "lpcore.dual_nonzero": sum(1 for y in sol.dual if y != 0),
        "audit.pairs_checked": n * (n - 1),
    }


def _discretized(tr, dist, cost_kind, gamma, n, exact=False) -> Instance:
    inst = tr.call("continuous.discretize", cont.discretize, dist,
                   _costs(cost_kind, gamma, dist), n)
    return to_fractions(inst) if exact else inst


def _ladder(rng, tr, spec, exact):
    """Jobs for (n, dist kind, cost kind) triples; jittered unless fixed."""
    jobs = []
    for i, (n, dist_kind, cost_kind, fixed) in enumerate(spec):
        if fixed:  # the named largest job: Uniform(-2, 1), linear, gamma 4
            dist, gamma = cont.Uniform(-2.0, 1.0), 4.0
        else:
            dist = _dist(rng, dist_kind)
            gamma = _interior_gamma(rng, cost_kind, dist)
        inst = _discretized(tr, dist, cost_kind, gamma, n, exact)
        mode = "exact" if exact else "float"
        jobs.append(Job(
            id=f"{mode}{i}-n{n}-{dist_kind}-{cost_kind}-g{gamma:.4f}",
            run=lambda t, inst=inst, mode=mode: run_finite(inst, mode, t),
            largest=fixed))
    return jobs


def finite_float(rng, tr, tiny, workdir, refs) -> Workload:
    sizes = (4, 5, 6) if tiny else (16, 24, 32)
    a, b, c = sizes
    # six small jobs, so that the median job is one of many small
    # instances rather than the one at the edge of their cluster
    spec = [(a, "uniform", "linear", False), (a, "uniform", "quadratic", False),
            (a, "texp", "linear", False), (a, "texp", "quadratic", False),
            (a, "uniform", "linear", False), (a, "texp", "quadratic", False),
            (b, "uniform", "quadratic", False), (b, "texp", "linear", False),
            (c, "uniform", "linear", True)]
    jobs = _ladder(rng, tr, spec, exact=False)
    rng.shuffle(jobs)
    return Workload(jobs)


def finite_exact(rng, tr, tiny, workdir, refs) -> Workload:
    spec = [(3, "uniform", "linear", tiny)]
    if not tiny:
        spec += [(3, "texp", "quadratic", False),
                 (4, "texp", "linear", False), (4, "uniform", "quadratic", False),
                 (5, "uniform", "linear", True)]
    jobs = _ladder(rng, tr, spec, exact=True)
    scenarios = {}
    for scenario, internalize in (("college1", False), ("college2", True)):
        inst = model.college_instance(internalize_costs=internalize)
        scenarios[scenario] = inst

        def college(t, inst=inst, scenario=scenario):
            rec = run_finite(inst, "exact", t)
            if "value" in rec and rec["value"] != refs[scenario]:
                rec["fail"].append(f"{scenario} value {rec['value']} != "
                                   f"reference {refs[scenario]}")
            return rec

        jobs.append(Job(id=scenario, run=college))

    def brute(t, inst=scenarios["college2"]):
        value = t.call("audit.brute_force_optimum", audit.brute_force_optimum,
                       inst.space, inst.costs, inst.agent, inst.designer,
                       BRUTE_FORCE_STEP, inst.outside_option)
        return record(value=value)

    jobs.append(Job(id="brute_force-college2", run=brute))
    rng.shuffle(jobs)

    def round_check(recs):
        bf, lp = recs.get("brute_force-college2"), recs.get("college2")
        if bf and lp and bf.get("value") != lp.get("value"):
            return {"brute_force-college2": [
                f"brute force {bf.get('value')} != LP {lp.get('value')}"]}
        return {}

    return Workload(jobs, round_check)


# ---------------------------------------------------------------------------
# continuous sweep
# ---------------------------------------------------------------------------

# Gamma as a multiple of the regime threshold (s_max, or s_max^2 for
# quadratic cost).  No multiple is within 10% of 1, so the +-2% jitter
# never moves a job across the regime boundary.
FIRST_BEST_MULTIPLES = (0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
INTERIOR_MULTIPLES = tuple(round(1.1 * (8.0 / 1.1) ** (i / 22), 4)
                           for i in range(23))


def run_continuous(dist, costs, tr) -> dict:
    fail = []
    sol = tr.call("continuous.solve_continuous", cont.solve_continuous, dist,
                  costs)
    interior_quadratic = (sol.cost_kind == "quadratic"
                          and sol.regime == "interior")
    if tr.enabled and interior_quadratic:
        tr.call("continuous.check_mhr_probe", cont.check_mhr, dist,
                probe=True)
    value = tr.call("continuous.designer_value", sol.designer_value)
    table = tr.call("continuous.sample", sol.sample,
                    np.linspace(dist.s_min, dist.s_max, SAMPLE_POINTS))
    grid = np.linspace(dist.s_min, dist.s_max, AUDIT_GRID)
    gain, where = tr.call("audit.best_response_continuous",
                          audit.best_response_continuous, sol, grid, grid)
    if not 0.0 < sol.p_star <= 1.0:
        fail.append(f"p* = {sol.p_star!r} outside (0, 1]")
    if gain > CONTINUOUS_GAIN_TOL:
        fail.append(f"IC gain {gain:.3g} at {where}")
    if not math.isfinite(value):
        fail.append(f"designer value {value!r}")
    if not all(np.all(np.isfinite(col)) for col in table.values()):
        fail.append("non-finite sample")
    counts = {"continuous.interior_quadratic": int(interior_quadratic),
              "continuous.jobs": 1}
    return record(fail, value=value, counts=counts, stable=dict(counts))


def continuous_sweep(rng, tr, tiny, workdir, refs) -> Workload:
    multiples = ((0.5, 2.0, 6.0) if tiny
                 else FIRST_BEST_MULTIPLES + INTERIOR_MULTIPLES)
    jobs = []
    for dist_kind in ("uniform", "texp", "triangular"):
        for cost_kind in ("linear", "quadratic"):
            dist = _dist(rng, dist_kind)
            threshold = dist.s_max if cost_kind == "linear" else dist.s_max ** 2
            for m in multiples:
                gamma = _jitter(rng, m * threshold, 0.02)
                costs = _costs(cost_kind, gamma, dist)
                jobs.append(Job(
                    id=f"{dist_kind}-{cost_kind}-x{m}",
                    run=lambda t, d=dist, c=costs: run_continuous(d, c, t)))
    # the named largest job is one whole comparative-statics curve: the
    # triangular prior under quadratic cost, the slowest kind of job
    for job in jobs[-len(multiples):]:
        job.largest = True
    rng.shuffle(jobs)
    return Workload(jobs)


# ---------------------------------------------------------------------------
# cli: fresh interpreter processes
# ---------------------------------------------------------------------------

def python_env(root: Path) -> dict:
    """Environment for a child interpreter that imports ``root/src``."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def run_child(argv, cwd: Path, env: dict, stdout_path: Path):
    """Run a child to completion, killing it after CHILD_TIMEOUT_S; returns
    (exit code, peak RSS in MiB)."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait4, unlike Popen.wait, returns the child's own rusage
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def digest_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes() + b"\0")
    return h.hexdigest()


def read_summary(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def _fmt_fraction(v: Fraction) -> str:
    return f"{format(float(v), '.12g')} = {v.numerator}/{v.denominator}"


def cli(rng, tr, tiny, workdir, refs) -> Workload:
    root = Path(__file__).resolve().parent.parent
    config = workdir / "college_scenario2.json"
    model.save_instance(model.college_instance(internalize_costs=True),
                        config)
    dq = _dist(rng, "texp")
    dl = _dist(rng, "uniform")
    gq = _interior_gamma(rng, "quadratic", dq)
    gl = _interior_gamma(rng, "linear", dl)
    cfg = str(config)
    mech = str(workdir / "finite" / "mechanism.tsv")
    grid_types = "4" if tiny else "16"

    def out(name):
        return str(workdir / name)

    groups = [
        [("example", ["example", "college", "--out", out("example")])],
        [("solve-finite", ["solve-finite", "--mode", "exact",
                           "--instance", cfg, "--out", out("finite")]),
         ("audit", ["audit", "--instance", cfg, "--mechanism", mech,
                    "--out", out("audit")]),
         ("canonicalize", ["canonicalize", "--op", "score-based",
                           "--instance", cfg, "--mechanism", mech,
                           "--out", out("canon")])],
        [("continuous-quadratic", [
            "solve-continuous", "--dist",
            f"texp:{dq.s_min:.4f},{dq.s_max:.4f},{dq.rate:.4f}",
            "--cost", "quadratic", "--gamma", f"{gq:.4f}",
            "--out", out("cq")])],
        [("continuous-linear", [
            "solve-continuous", "--dist",
            f"uniform:{dl.s_min:.4f},{dl.s_max:.4f}",
            "--cost", "linear", "--gamma", f"{gl:.4f}",
            "--grid-types", grid_types, "--out", out("cl")])],
    ]
    rng.shuffle(groups)
    env = python_env(root)
    jobs = []
    for group in groups:
        for name, args in group:
            jobs.append(Job(
                id=name, largest=(name == "example"),
                run=lambda t, name=name, args=args: _cli_job(
                    name, args, root, workdir, env, refs, t)))
    return Workload(jobs)


def _cli_job(name, args, root, workdir, env, refs, tr) -> dict:
    out_dir = Path(args[args.index("--out") + 1])
    shutil.rmtree(out_dir, ignore_errors=True)
    stdout = workdir / f"{name}.stdout"
    argv = [sys.executable, "-m", "scoremech.cli"] + args
    code, rss = tr.call("cli.command", run_child, argv, root, env, stdout)
    if tr.enabled:  # the same command in process, without the import
        from scoremech import cli as cli_mod
        in_args = list(args)
        in_args[args.index("--out") + 1] = str(out_dir) + "-inproc"
        with contextlib.redirect_stdout(io.StringIO()):
            tr.call("cli.main", cli_mod.main, in_args, probe=True)
    fail = [] if code == 0 else [f"exit code {code}"]
    if code == 0:
        fail += _cli_checks(name, out_dir, stdout, refs)
    digest = hashlib.sha256(stdout.read_bytes()).hexdigest()
    if out_dir.is_dir():
        digest += digest_dir(out_dir)
    return record(fail, rss_mb=rss, stable={"artifacts": digest})


def _cli_checks(name, out_dir: Path, stdout: Path, refs) -> list[str]:
    fail = []
    if name == "example":
        text = stdout.read_text()
        for i in (1, 2):
            line = f"scenario{i} value = {_fmt_fraction(refs[f'college{i}'])}"
            if line not in text.splitlines():
                fail.append(f"missing {line!r}")
            if f"scenario{i} audit passes = True" not in text:
                fail.append(f"scenario{i} audit does not pass")
    elif name == "solve-finite":
        s = read_summary(out_dir / "summary.txt")
        want = {"status": "optimal", "certified": "True",
                "audit_passes": "True",
                "value": _fmt_fraction(refs["college2"])}
        for key, value in want.items():
            if s.get(key) != value:
                fail.append(f"summary {key} = {s.get(key)!r}, want {value!r}")
    elif name == "audit":
        if "passes = True" not in stdout.read_text():
            fail.append("audit does not pass")
    elif name == "canonicalize":
        for f in ("scorerule.tsv", "falsification.tsv"):
            if not (out_dir / f).is_file():
                fail.append(f"missing {f}")
    else:
        s = read_summary(out_dir / "summary.txt")
        p = float(s.get("p_star", "nan"))
        if not 0.0 < p <= 1.0:
            fail.append(f"p_star = {p!r}")
        if s.get("regime") != "interior":
            fail.append(f"regime = {s.get('regime')!r}")
        if name == "continuous-linear" and "lp_value" not in s:
            fail.append("no discretized LP cross-check")
    return fail


BUILDERS = {"finite_float": finite_float, "finite_exact": finite_exact,
            "continuous_sweep": continuous_sweep, "cli": cli}


def make_workload(name, seed, tr, tiny, workdir, refs=REFERENCES) -> Workload:
    """Generate the seeded inputs of one workload; the library sees only
    these."""
    return BUILDERS[name](random.Random(seed), tr, tiny, workdir, refs)
