"""Command-line front end.

Commands: ``example``, ``solve-finite``, ``solve-continuous``, ``audit``,
``canonicalize``.  ``model`` writes every artifact: tables and summaries
as delimiter-separated text, reals at 12 significant digits and rationals
as "p/q"; JSON (``audit.json``, an instance config) with full-precision
floats.  Reruns are byte-identical and diff-friendly.

Exit codes: 0 success, 2 config error, 3 infeasible LP or a refused
continuous problem (nonnegative mean, hazard rate), 4 numerical failure.

The instance config schema is documented at
``scoremech.model.instance_from_config``.  Its numbers are read by
``model.parse_number``, the parser of every table: a decimal string such
as "0.5" is read as a float (earlier versions rejected it), and "p/q" and
integer strings stay exact.

A run config passed via ``--config`` is a JSON object whose keys are the
command's own flags (``--help`` lists them); explicit flags win and other
keys are errors: ``mode`` only for ``example`` and ``solve-finite``, ``tol``
only for ``solve-finite``, ``audit`` and ``canonicalize``.  Each value goes
through its flag's ``type=`` and ``choices=``, as its text.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import audit as audit_mod
from . import continuous as cont
from . import finite, lpcore, model

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_NUMERIC = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) in (None, ""):
            flag = "--" + name.replace("_", "-")
            raise CliError(f"{flag} is required (flag or config file)",
                           EXIT_CONFIG)


def _read(reader, path: str, what: str):
    """``reader(path)``; unreadable or malformed input is a config error."""
    try:
        return reader(path)
    except (OSError, KeyError, ValueError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc}", EXIT_CONFIG)


# parametric --dist kinds: constructor, least and most number of fields
_DISTS = {"uniform": (cont.Uniform, 2, 2),
          "texp": (cont.TruncatedExponential, 2, 3),
          "triangular": (cont.Triangular, 3, 3)}


def _parse_dist(spec: str) -> cont.Distribution:
    kind, _, rest = spec.partition(":")
    try:
        if kind in _DISTS:
            make, least, most = _DISTS[kind]
            fields = [float(v) for v in rest.split(",")]
            if not least <= len(fields) <= most:
                arity = f"{least} or {most}" if most > least else least
                raise ValueError(f"{kind} takes {arity} numbers, "
                                 f"got {len(fields)}")
            return make(*fields)
        if kind == "grid":
            rows = np.loadtxt(rest, ndmin=2)
            if rows.shape[1] < 2:
                raise ValueError("a grid file has two columns, t and f(t)")
            return cont.Tabulated(rows[:, 0], rows[:, 1])
    except (OSError, ValueError) as exc:
        raise CliError(f"bad distribution spec {spec!r}: {exc}", EXIT_CONFIG)
    raise CliError(f"unknown distribution kind {kind!r}", EXIT_CONFIG)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_example(args) -> int:
    if args.name != "college":
        raise CliError(f"unknown example {args.name!r}", EXIT_CONFIG)
    lines = []
    for scenario, internalize in ((1, False), (2, True)):
        inst = model.college_instance(internalize_costs=internalize)
        sol, mech = finite.solve_drm(inst, args.mode)
        report = audit_mod.audit_ic(inst.space, inst.costs, inst.agent, mech,
                                    inst.outside_option)
        lines.append((f"scenario{scenario} value", sol.value))
        lines.append((f"scenario{scenario} audit passes", report.passes))
    menu = model.college_menu_mechanism()
    inst2 = model.college_instance(internalize_costs=True)
    menu_value, menu_u, _ = finite.evaluate_mechanism(
        inst2.space, inst2.costs, inst2.agent, inst2.designer, menu)
    lines.append(("scenario2 reference menu value", menu_value))
    for t in inst2.space.types:
        lines.append((f"reference menu U({t})", menu_u[t]))
    text = model.summary_text(lines)
    print(text, end="")
    if args.out:
        out = _out_dir(args)
        (out / "college.txt").write_text(text)
        model.save_instance(inst2, out / "college_scenario2.json")
    return EXIT_OK


def cmd_solve_finite(args) -> int:
    _require(args, "instance")
    inst = _read(model.load_instance, args.instance, "instance config")
    sol, mech = finite.solve_drm(inst, args.mode)
    report = audit_mod.audit_ic(inst.space, inst.costs, inst.agent, mech,
                                inst.outside_option, tolerance=args.tol)
    out = _out_dir(args)
    finite.write_mechanism_table(inst.space, mech, out / "mechanism.tsv")
    report.save(out / "audit.json")
    (out / "summary.txt").write_text(model.summary_text([
        ("status", sol.status),
        ("mode", args.mode),
        ("value", sol.value),
        ("certified", sol.certified),
        ("audit_passes", report.passes),
        ("max_tt_violation", report.max_tt_violation),
        ("max_pc_violation", report.max_pc_violation),
    ]))
    print(model.summary_text([("value", sol.value)]), end="")
    return EXIT_OK


def cmd_solve_continuous(args) -> int:
    _require(args, "dist", "cost", "gamma")
    if not args.samples >= 1:  # argparse checks the type, not the range
        raise CliError("--samples must be at least 1", EXIT_CONFIG)
    if not (args.grid_types == 0 or args.grid_types >= 2):
        raise CliError("--grid-types must be 0 or at least 2", EXIT_CONFIG)
    dist = _parse_dist(args.dist)
    costs = model.CostModel(args.cost, gamma=args.gamma,
                            domain=(dist.s_min, dist.s_max))
    solution = cont.solve_continuous(dist, costs)
    value = solution.designer_value()
    out = _out_dir(args)
    ts = np.linspace(dist.s_min, dist.s_max, args.samples)
    cont.write_solution_table(solution, ts, out / "solution.tsv")
    entries = [
        ("regime", solution.regime),
        ("cost", solution.cost_kind),
        ("gamma", solution.gamma),
        ("t0", solution.t0),
        ("t_star", solution.t_star),
        ("t_dagger", solution.t_dagger),
        ("p_star", solution.p_star),
        ("designer_value", value),
    ]
    if args.grid_types:
        inst = cont.discretize(dist, costs, args.grid_types)
        lp_sol, _ = finite.solve_drm(inst, "float")
        entries.append(("lp_value", lp_sol.value))
        entries.append(("lp_gap", abs(lp_sol.value - value)))
    text = model.summary_text(entries)
    (out / "summary.txt").write_text(text)
    print(text, end="")
    return EXIT_OK


def cmd_audit(args) -> int:
    _require(args, "instance", "mechanism")
    inst = _read(model.load_instance, args.instance, "instance config")
    mech = _read(finite.read_mechanism_table, args.mechanism,
                 "mechanism table")
    report = audit_mod.audit_ic(inst.space, inst.costs, inst.agent, mech,
                                inst.outside_option, tolerance=args.tol)
    out = _out_dir(args)
    report.save(out / "audit.json")
    print(f"passes = {report.passes} "
          f"(tt = {report.max_tt_violation:.3g}, "
          f"pc = {report.max_pc_violation:.3g})")
    return EXIT_OK


def cmd_canonicalize(args) -> int:
    _require(args, "op", "instance")
    inst = _read(model.load_instance, args.instance, "instance config")
    if args.op == "derandomize":
        if not args.mixture:
            raise CliError("--op derandomize needs --mixture", EXIT_CONFIG)
        model.require_valid("instance", model.validate(
            inst.space, inst.costs, inst.designer, inst.agent,
            inst.outside_option))
        mech = finite.derandomize_decision_rules(_read(
            finite.read_mixture_table, args.mixture, "mixture table"))
        model.require_valid("mechanism",
                            model.validate_mechanism(inst.space, mech))
    else:
        if not args.mechanism:
            raise CliError(f"--op {args.op} needs --mechanism", EXIT_CONFIG)
        mech = _read(finite.read_mechanism_table, args.mechanism,
                     "mechanism table")
        if args.op == "score-based":
            rule, falsification = finite.reduce_to_score_based(
                inst, mech, tol=args.tol)
            out = _out_dir(args)
            finite.write_score_rule_table(inst.space, rule,
                                          out / "scorerule.tsv")
            finite.write_falsification_table(inst.space, falsification,
                                             out / "falsification.tsv")
            print("wrote scorerule.tsv, falsification.tsv")
            return EXIT_OK
        mech = finite.rebalance_mechanism(inst, mech)
    out = _out_dir(args)
    finite.write_mechanism_table(inst.space, mech, out / "mechanism.tsv")
    print("wrote mechanism.tsv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scoremech", allow_abbrev=False,
        description="Optimal approval mechanisms under costly score "
                    "falsification")
    parser.add_argument("--config", help="JSON file whose keys mirror the "
                                         "flags; explicit flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):  # one spelling per flag, as _merge_config reads
        return sub.add_parser(name, help=help, allow_abbrev=False)

    flags = {"mode": dict(choices=("exact", "float"), default="exact"),
             "tol": dict(type=float, default=1e-9)}

    def common(p, *names):
        p.add_argument("--out", default="out", help="output directory")
        for name in names:
            p.add_argument("--" + name, **flags[name])

    p = command("example", "run a built-in instance")
    p.add_argument("name", nargs="?", default="college")
    common(p, "mode")
    p.set_defaults(func=cmd_example, out=None)

    p = command("solve-finite", "solve a finite instance by LP")
    p.add_argument("--instance")
    common(p, "mode", "tol")
    p.set_defaults(func=cmd_solve_finite)

    p = command("solve-continuous", "closed-form continuum solver")
    p.add_argument("--dist",
                   help="uniform:a,b | texp:a,b[,rate] | triangular:a,b,mode"
                        " | grid:path")
    p.add_argument("--cost", choices=("linear", "quadratic"))
    p.add_argument("--gamma", type=float)
    p.add_argument("--samples", type=int, default=401,
                   help="rows in the solution table (at least 1)")
    p.add_argument("--grid-types", type=int, default=0,
                   help="also cross-check against a discretized LP")
    common(p)
    p.set_defaults(func=cmd_solve_continuous)

    p = command("audit", "audit a mechanism table")
    p.add_argument("--instance")
    p.add_argument("--mechanism")
    common(p, "tol")
    p.set_defaults(func=cmd_audit)

    p = command("canonicalize", "derandomize / rebalance / score-based reduce")
    p.add_argument("--op",
                   choices=("derandomize", "rebalance", "score-based"))
    p.add_argument("--instance")
    p.add_argument("--mechanism")
    p.add_argument("--mixture")
    common(p, "tol")
    p.set_defaults(func=cmd_canonicalize)
    return parser


def _merge_config(parser, argv):
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if args.config:
        overrides = _read(lambda p: json.loads(Path(p).read_text()),
                          args.config, "config")
        explicit = {a.lstrip("-").replace("-", "_").split("=")[0]
                    for a in argv if a.startswith("--")}
        command = next(a for a in parser._actions if a.dest == "command")
        actions = {a.dest: a for a in command.choices[args.command]._actions
                   if hasattr(args, a.dest)}  # the command's own flags
        for key, value in overrides.items():
            attr = key.replace("-", "_")
            if attr not in actions:
                raise CliError(f"unknown config key {key!r}", EXIT_CONFIG)
            if not isinstance(value, (str, int, float)):  # null, list, ...
                raise CliError(f"config {key!r}: bad value {value!r}",
                               EXIT_CONFIG)
            try:  # the flag's own type= and choices=, applied to its text
                value = parser._get_values(actions[attr], [str(value)])
            except argparse.ArgumentError as exc:
                raise CliError(f"config {key!r}: {exc.message}", EXIT_CONFIG)
            if attr not in explicit:
                setattr(args, attr, value)
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _merge_config(parser, argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except cont.ContinuousError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except finite.SolveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_REGIME if exc.status in ("infeasible", "unbounded")
                else EXIT_NUMERIC)
    except (model.ModelError, lpcore.LpError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
