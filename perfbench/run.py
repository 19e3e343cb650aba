#!/usr/bin/env python3
"""Benchmark for scoremech, run from outside the library.

    python3 perfbench/run.py --workload finite_float --seed 1 --seconds 22 \
        --trace 0

Run it from the root of a checkout; it imports the library from ``src/``.
``--workload all`` runs every workload in turn.  A run generates the
workload's inputs from ``--seed``, then runs the workload's job list in
rounds, one job at a time (a closed loop with one client), until
``--seconds`` have passed.  Every job is checked against a correctness
gate.  End-to-end times are medians over rounds, scaled to a reference
machine speed by calibration samples taken during the run (see
CALIBRATION); the raw times are in the result file.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics, from
rounds that alternate untraced and traced.  Each run also writes
``.perfbench_out/<workload>-seed<n>-trace<t>.json`` (environment, per-job
times and counts, failures) and, when traced, the spans as JSON lines.

Workloads, metrics and units are defined in ``BENCHMARK.json`` and
``perfbench/jobs.py``.  ``--tiny`` shrinks every workload for the smoke
test (``python3 -m pytest perfbench``).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# set-up is timed in this process and in this many fresh child processes;
# setup_s is the median of all of them
SETUP_CHILDREN = 2
# fresh interpreters timed for cli.interpreter_s and cli.import_s
PROBE_REPEATS = 3


sys.path.insert(0, str(HERE))
from tracer import NullTracer, Tracer  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here at all (no library to import)."""


def _import_library():
    if not (ROOT / "src" / "scoremech" / "__init__.py").is_file():
        raise BenchError(f"no src/scoremech under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))


def setup(workload, seed, tiny, workdir, tr, refs=None):
    """Import the library and generate the inputs; returns (seconds,
    workload, jobs module)."""
    start = perf_counter()
    import scoremech  # noqa: F401  (timed: the import is part of set-up)
    import jobs
    workdir.mkdir(parents=True, exist_ok=True)
    wl = jobs.make_workload(workload, seed, tr, tiny, workdir,
                            refs or jobs.REFERENCES)
    return perf_counter() - start, wl, jobs


def _child_setup_seconds(workload, seed, tiny, i) -> float:
    from jobs import CHILD_TIMEOUT_S
    argv = [sys.executable, str(HERE / "run.py"), "--setup-only",
            "--workload", workload, "--seed", str(seed),
            "--setup-dir", str(OUT / f"setup-{workload}-{i}")]
    if tiny:
        argv.append("--tiny")
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                         timeout=CHILD_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def fresh_interpreter_seconds(code, env=None) -> float:
    """Wall seconds of ``python -c code`` in a fresh interpreter."""
    from jobs import CHILD_TIMEOUT_S
    start = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start


def python_sample() -> float:
    """Seconds taken by a fixed pure-Python task that no change to the
    library can alter."""
    start = perf_counter()
    acc = Fraction(0)
    for i in range(1, 360):
        acc = (acc + Fraction(i, i + 7)) * Fraction(3, 4)
    table = {}
    for i in range(90000):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0.0) + math.exp(-i * 1e-4)
    xs = [math.sqrt(i) for i in range(90000)]
    xs.sort(reverse=True)
    return perf_counter() - start


def dependency_import_sample() -> float:
    """Seconds for a fresh interpreter to import the library's
    dependencies (not the library itself)."""
    return fresh_interpreter_seconds(
        "import numpy, scipy.sparse, scipy.optimize")


@functools.cache
def _fixed_lp():
    """A fixed random sparse LP, max c.x s.t. A x <= b, 0 <= x <= 1."""
    import numpy as np
    import scipy.sparse as sp
    rng = np.random.default_rng(20240312)
    a = sp.random(700, 500, density=0.01, random_state=rng, format="csr")
    a.data = rng.uniform(0.1, 1.0, a.nnz)
    b = 0.3 * np.asarray(a.sum(axis=1)).ravel()
    return -rng.uniform(0.5, 1.5, 500), a, b


def highs_sample() -> float:
    """Seconds for scipy's HiGHS to solve a fixed LP that the benchmark
    builds itself, without the library."""
    from scipy.optimize import linprog
    c, a, b = _fixed_lp()
    start = perf_counter()
    res = linprog(c, A_ub=a, b_ub=b, bounds=(0, 1), method="highs")
    elapsed = perf_counter() - start
    if res.status != 0:
        raise RuntimeError(f"calibration LP: {res.message}")
    return elapsed


# Calibration: (sample, its typical seconds on a 2-core Xeon machine,
# seconds between samples; 0 samples before every job).  The speed this
# shared machine gives the benchmark drifts by tens of percent within
# seconds and minutes.  Samples taken between jobs all through a round,
# and after its last job, track that drift: each job's time is scaled by
# reference / the samples around it (see speed_factors).
# Each workload is tracked by a task like its own work: pure-Python work
# by a pure-Python task; finite_float, mostly HiGHS, by a HiGHS solve;
# the cli workload, whose time is interpreter start-up and imports, by a
# fresh interpreter's imports.
CALIBRATION = {"finite_float": (highs_sample, 0.11, 0.0),
               "finite_exact": (python_sample, 0.025, 0.0),
               "continuous_sweep": (python_sample, 0.025, 1.0),
               "cli": (dependency_import_sample, 0.65, 4.0)}
IMPORT_REFERENCE_S = CALIBRATION["cli"][1]


def nearest_rank(values, q):
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def speed_factors(samples, times, reference) -> list[float]:
    """Per job of a round, the factor that scales its time to the
    reference speed.  ``samples`` is [(number of jobs run before the
    sample, seconds)], ending with a sample after the last job, and
    ``times`` the jobs' seconds in order.  A job that takes at least half
    of the round is scaled by the round's median sample; any other job by
    the mean of the samples just before and just after it."""
    round_factor = reference / statistics.median(v for _, v in samples)
    factors = []
    for i, t in enumerate(times):
        if t >= sum(times) / 2:
            factors.append(round_factor)
            continue
        before = [v for pos, v in samples if pos <= i][-1]
        after = next(v for pos, v in samples if pos > i)
        factors.append(2 * reference / (before + after))
    return factors


def run_round(wl, tr, stable_seen, calibration):
    """One pass over the job list.  Returns (wall seconds, {job id: wall},
    {job id: record}, calibration samples [(jobs run before it, seconds)]
    taken between jobs, before the first and after the last)."""
    times, recs, samples = {}, {}, []
    sampling = 0.0  # wall time spent in calibration samples
    start = next_sample = perf_counter()

    def sample():
        nonlocal sampling, next_sample
        s0 = perf_counter()
        samples.append((len(times), calibration[0]()))
        next_sample = perf_counter()
        sampling += next_sample - s0
        next_sample += calibration[2]

    for job in wl.jobs:
        if perf_counter() >= next_sample:
            sample()
        tr.job = job.id
        t0 = perf_counter()
        try:
            rec = tr.call("bench.job", job.run, tr)
        except Exception as exc:  # a failed job is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            rec = {"fail": [f"{type(exc).__name__}: {exc}"], "stable": {},
                   "counts": {}}
        times[job.id] = perf_counter() - t0
        recs[job.id] = rec
    tr.job = None
    sample()
    for job_id, msgs in wl.round_check(recs).items():
        recs[job_id]["fail"].extend(msgs)
    wall = perf_counter() - start - sampling
    for job_id, rec in recs.items():
        key = (job_id, tr.enabled)
        first = stable_seen.setdefault(key, rec["stable"])
        if rec["stable"] != first:
            rec["fail"].append(f"not repeatable: {rec['stable']} "
                               f"!= {first}")
    return wall, times, recs, samples


def environment(seed) -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _git_commit(), "seed": seed}


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds, trace, tiny=False, refs=None) -> dict:
    """Run one workload; returns the full result (see module docstring)."""
    _import_library()
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = OUT / tag
    shutil.rmtree(workdir, ignore_errors=True)
    tracer = Tracer() if trace else NullTracer()
    setup_s, wl, jobs = setup(workload, seed, tiny, workdir, tracer, refs)
    setup_samples, import_samples = [setup_s], []
    for i in range(SETUP_CHILDREN):
        setup_samples.append(_child_setup_seconds(workload, seed, tiny, i))
        import_samples.append(dependency_import_sample())
    try:
        result = _measure(workload, seconds, trace, wl, jobs, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        for i in range(SETUP_CHILDREN):
            shutil.rmtree(OUT / f"setup-{workload}-{i}", ignore_errors=True)
    if not trace:
        # set-up is mostly imports: scaled like the cli workload
        result["metrics"]["setup_s"] = (
            statistics.median(setup_samples) * IMPORT_REFERENCE_S
            / statistics.median(import_samples))
    result["setup_samples_s"] = setup_samples
    result["setup_import_samples_s"] = import_samples
    result["environment"] = environment(seed)
    result["workload"] = workload
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(result, indent=1,
                                                default=str) + "\n")
    if trace:
        tracer.write(OUT / f"{tag}.spans.jsonl")
    return result


def _measure(workload, seconds, trace, wl, jobs, tracer) -> dict:
    setup_mark = tracer.mark() if trace else 0
    probes = {}
    if trace:
        env = jobs.python_env(ROOT)
        interp = statistics.median(
            fresh_interpreter_seconds("pass", env)
            for _ in range(PROBE_REPEATS))
        imp = statistics.median(
            fresh_interpreter_seconds("import scoremech", env)
            for _ in range(PROBE_REPEATS))
        probes = {"cli.interpreter_s": interp, "cli.import_s": imp - interp}

    calibration = CALIBRATION[workload]
    null = NullTracer()
    stable_seen = {}
    plain, traced = [], []
    attempted = failed = 0
    failures = []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        wall, times, recs, samples = run_round(wl, null, stable_seen,
                                               calibration)
        plain.append({"wall": wall, "times": times, "recs": recs,
                      "calibration": samples})
        if trace:
            mark = tracer.mark()
            wall_t, _, recs_t, _ = run_round(wl, tracer, stable_seen,
                                             calibration)
            traced.append((wall_t, recs_t, tracer.self_times(mark),
                           tracer.probe_seconds(mark)))
            recs = {**recs, **{f"{k} (traced)": v for k, v in recs_t.items()}}
        for job_id, rec in recs.items():
            attempted += 1
            if rec["fail"]:
                failed += 1
                failures.append({"job": job_id, "fail": rec["fail"]})
                print(f"FAILED {job_id}: {'; '.join(rec['fail'])}",
                      file=sys.stderr)

    walls = [r["wall"] for r in plain]
    largest = [j.id for j in wl.jobs if j.largest]
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "rounds": len(plain), "round_walls_s": walls,
        "largest_job": largest,
        "jobs": {job_id: [r["times"][job_id] for r in plain]
                 for job_id in plain[0]["times"]},
        "calibration_s": [r["calibration"] for r in plain],
        "failures": failures[:50],
    }
    if not trace:
        if workload == "cli":
            rss = max(rec["rss_mb"] for r in plain
                      for rec in r["recs"].values() if "rss_mb" in rec)
        else:
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # each job's time, scaled by the speed measured around it
        scaled = []
        for r in plain:
            times = [r["times"][job.id] for job in wl.jobs]
            f = speed_factors(r["calibration"], times, calibration[1])
            scaled.append({job.id: t * fj
                           for job, t, fj in zip(wl.jobs, times, f)})
        result["metrics"] = {
            "total_s": statistics.median(sum(t.values()) for t in scaled),
            "largest_job_s": statistics.median(
                sum(t[job_id] for job_id in largest) for t in scaled),
            "job_ms.p50": 1e3 * statistics.median(
                nearest_rank(t.values(), 0.5) for t in scaled),
            "job_ms.p90": 1e3 * statistics.median(
                nearest_rank(t.values(), 0.9) for t in scaled),
            "peak_rss_mb": rss,
        }
        return result

    # self time per traced round, plus the one-off spans of set-up
    layers = {}
    for _, _, self_times, _ in traced:
        for name, (s, c) in self_times.items():
            s0, c0 = layers.get(name, (0.0, 0))
            layers[name] = (s0 + s / len(traced), c0 + c / len(traced))
    layers.update(tracer.self_times(0, setup_mark))
    metrics = dict(probes)
    counts = {}
    for rec in traced[0][1].values():
        for key, v in rec["counts"].items():
            counts[key] = counts.get(key, 0) + v
    metrics.update(_count_metrics(counts))
    metrics["trace.overhead_s"] = (
        statistics.median(w - p for w, _, _, p in traced)
        - statistics.median(walls))
    result["counts"] = counts
    result["metrics"] = _layer_metrics(layers, metrics)
    return result


def _count_metrics(counts) -> dict:
    """Exact counts summed over one traced round's jobs."""
    rows = counts.get("lpcore.n_rows", 0)
    sweep = counts.get("continuous.jobs", 0)
    return {
        "lpcore.n_vars": counts.get("lpcore.n_vars", 0),
        "lpcore.n_rows": rows,
        "lpcore.nnz": counts.get("lpcore.nnz", 0),
        "lpcore.dual_nonzero_frac":
            counts.get("lpcore.dual_nonzero", 0) / rows if rows else 0.0,
        "audit.pairs_checked": counts.get("audit.pairs_checked", 0),
        "continuous.interior_quadratic_frac":
            counts.get("continuous.interior_quadratic", 0) / sweep
            if sweep else 0.0,
    }


def _layer_metrics(layers, metrics) -> dict:
    """Every per-layer metric of BENCHMARK.json: ``<span>_s`` is self time
    per round and ``<span>_calls`` calls per round; a layer the workload
    never calls reads 0."""
    out = {}
    for m in SPEC["per_layer"]:
        name = m["name"]
        if name in metrics:
            out[name] = metrics[name]
        elif name.endswith("_s"):
            out[name] = layers.get(name[:-2], (0.0, 0))[0]
        elif name.endswith("_calls"):
            out[name] = layers.get(name[:-6], (0.0, 0))[1]
        else:
            raise KeyError(f"no value for per-layer metric {name}")
    return out


def result_line(result, trace) -> str:
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]} for m in spec}
    return json.dumps({"correct": result["correct"],
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_result(workload, seed, trace, result) -> None:
    env = result["environment"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  "
          f"rounds {result['rounds']}  " + "  ".join(
              f"{k} {v}" for k, v in env.items() if k != "seed"))
    print(f"  {'attempted':40s} {result['attempted']:>14d} count")
    print(f"  {'failed_frac':40s} {result['failed_frac']:>14.6g} ratio")
    for m in SPEC["per_layer"] if trace else SPEC["end_to_end"]:
        print(f"  {m['name']:40s} {result['metrics'][m['name']]:>14.6g} "
              f"{m['unit']}")
    print(result_line(result, trace))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        required=True, help="one workload, or all in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every job (smoke test)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _import_library()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        workdir = Path(args.setup_dir)
        seconds, _, _ = setup(args.workload, args.seed, args.tiny, workdir,
                              NullTracer())
        shutil.rmtree(workdir, ignore_errors=True)
        print(repr(seconds))
        return 0
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        result = run(name, args.seed, args.seconds, bool(args.trace),
                     args.tiny)
        print_result(name, args.seed, args.trace, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
