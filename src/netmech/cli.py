"""Command-line front end.

Verbs and the flags each one reads (every verb takes ``--config``, optional
for experiment and bench):

  validate    --config
  solve       --config --theta
  rewards     --config --seed --engine --mc-samples --quad-order
              --report-grid --threads --out
  verify      the rewards flags plus --grid
  experiment  the verify flags plus --name
  bench       --config --seed --out --sizes

A flag a verb does not read is a usage error. Exit codes: 0 = success and
every asserted property passed; 1 = a property check failed (the report is
still written); 2 = usage, config or validation error, with the flag, config
key or violated assumption named. --out is created before any computation,
and an --out that cannot be a directory is such an error.

All randomness flows from one nonnegative seed. Precedence: --seed flag, then
the NETMECH_SEED environment variable, then a "seed" key in the config file,
then 0. Identical invocations produce byte-identical CSV output, including
under different --threads, except the wall-clock times of table2.csv, which
bench, experiment --name table2 and experiment --name all write.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, as_int, load_config, params_from_config, scenario_from_config
from .distributions import SupportError
from .experiments import (
    EXPERIMENT_NAMES,
    MIN_GRIDS,
    TABLE2_SIZES,
    ExperimentSpec,
    run_experiment,
    run_table2,
    write_summary,
)
from .market import MAX_ARRAY_FLOATS, InvalidScenarioError, Scenario, check_dense_size
from .mechanism import (
    MIN_GRID,
    EngineError,
    SolverError,
    demand_solution,
    export_interim_csv,
    foc_residual,
    interim_curves,
    make_engine,
    reward_schedule,
)
from .csvio import write_csv
from .verification import verify_all


def _at_least(low: int):
    """argparse type: an integer >= low."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return integer


def _sizes(text: str):
    """argparse type for --sizes: comma-separated network sizes >= 1 (empty: the default),
    each within the dense network budget, checked before any array is built."""
    if not text:
        return TABLE2_SIZES
    try:
        sizes = tuple(int(v) for v in text.split(","))
        valid = min(sizes) >= 1
    except ValueError:
        valid = False
    if not valid:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers >= 1, got {text!r}")
    try:
        check_dense_size(max(sizes))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return sizes


# the flags a verb may read besides --config; interim_curves and verify_ic need
# grids of at least MIN_GRID points
_FLAGS = {
    "--seed": dict(type=_at_least(0), default=None,
                   help="master seed (default: NETMECH_SEED, then config \"seed\", then 0)"),
    "--engine": dict(choices=("quadrature", "mc"), default="quadrature"),
    "--mc-samples": dict(type=_at_least(1), default=20_000),
    "--quad-order": dict(type=_at_least(1), default=8),
    "--report-grid": dict(type=_at_least(MIN_GRID), default=201, help="report grid size"),
    "--threads": dict(type=_at_least(1), default=os.cpu_count() or 1),
    "--out": dict(default="out", help="output directory"),
    "--grid": dict(type=_at_least(MIN_GRID), default=21, help="true-type grid size"),
}
_CURVE_FLAGS = ("--seed", "--engine", "--mc-samples", "--quad-order", "--report-grid", "--threads", "--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmech",
        description="Optimal incentive mechanism for a sponsored-content market on a graph.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def verb(name, help_text, *flags, config_required=True, grid_type=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=config_required, help="scenario config (JSON)")
        for flag in flags:
            kwargs = dict(_FLAGS[flag])
            if grid_type and flag in ("--grid", "--report-grid"):
                kwargs["type"] = grid_type
            p.add_argument(flag, **kwargs)
        return p

    verb("validate", "check assumption 1 (regularity) and assumption 2 (feasibility)")
    verb("solve", "optimal demand for one type profile").add_argument(
        "--theta", required=True, help="comma-separated type profile")
    verb("rewards", "interim curves and reward schedule to CSV", *_CURVE_FLAGS)
    verb("verify", "certify IC, IR, and gamma monotonicity", *_CURVE_FLAGS, "--grid")
    # each experiment derives its own grids from these (fig4 adds a node, table1 takes >= 41);
    # cmd_experiment checks them against experiments.MIN_GRIDS
    verb("experiment", "run a case-study experiment", *_CURVE_FLAGS, "--grid",
         config_required=False, grid_type=int).add_argument(
        "--name", required=True, choices=EXPERIMENT_NAMES + ("all",))
    verb("bench", "time the demand solve across network sizes", "--seed", "--out",
         config_required=False).add_argument(
        "--sizes", type=_sizes, default=TABLE2_SIZES, help="comma-separated network sizes")
    return parser


def _seed(value, source: str) -> int:
    try:
        seed = as_int(value)
        if seed >= 0:
            return seed
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"{source} must be a nonnegative integer, got {value!r}")


def _resolve_seed(args, cfg: dict | None) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NETMECH_SEED")
    if env is not None:
        return _seed(env, "NETMECH_SEED")
    if cfg and "seed" in cfg:
        return _seed(cfg["seed"], "config key 'seed'")
    return 0


def _load_scenario(args) -> tuple[Scenario, dict]:
    cfg = load_config(args.config)
    return scenario_from_config(cfg), cfg


def _output_dir(args) -> Path:
    """Create --out before any computation; ConfigError, with the OS reason, if it cannot be."""
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: cannot create the output directory: "
                          f"{exc.strerror or exc}") from None
    return out


def _curves_and_rewards(args, sc: Scenario, cfg: dict):
    engine = make_engine(args.engine, args.quad_order, args.mc_samples, _resolve_seed(args, cfg))
    curves = interim_curves(sc, args.report_grid, engine, threads=args.threads)
    return curves, reward_schedule(curves)


def cmd_validate(args) -> int:
    sc, _ = _load_scenario(args)
    print(sc.regularity.summary())
    print(sc.assumption2.summary())
    sc.require_valid()  # a failure is main's one error: line, naming each violated assumption
    return 0


def cmd_solve(args) -> int:
    sc, _ = _load_scenario(args)
    try:
        theta = np.array([float(v) for v in args.theta.split(",")])
    except ValueError:
        raise ConfigError(f"--theta must be comma-separated numbers, got {args.theta!r}") from None
    if theta.size != sc.n:
        raise ConfigError(f"--theta needs {sc.n} types, one per user, got {theta.size}")
    sol = demand_solution(sc, theta)
    for i, value in enumerate(sol.x):
        print(f"x[{i}] = {value:.12g}")
    print(f"foc residual = {foc_residual(sc, theta, sol.x):.3e}")
    print(f"forward error bound = {sol.error_bound:.3e} (Varah: ||A^-1||_inf <= 1 / min row slack)")
    print(f"cg iterations = {sol.iterations}")
    return 0


def cmd_rewards(args) -> int:
    sc, cfg = _load_scenario(args)
    path = _output_dir(args) / "rewards.csv"
    curves, rewards = _curves_and_rewards(args, sc, cfg)
    export_interim_csv(curves, rewards, path)
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    sc, cfg = _load_scenario(args)
    # one user's (truth, report) utilities, and every user's (truth,) bests and gains
    floats = args.grid * args.report_grid + 2 * sc.n * args.grid
    if floats > MAX_ARRAY_FLOATS:
        raise ConfigError(f"the IC sweep of --grid {args.grid} x --report-grid {args.report_grid} "
                          f"utilities per user and 2 x {sc.n} users x --grid {args.grid} bests and gains "
                          f"holds {floats} floats, over the budget of {MAX_ARRAY_FLOATS}")
    out = _output_dir(args)
    curves, rewards = _curves_and_rewards(args, sc, cfg)
    reports = verify_all(sc, curves, rewards, args.grid, args.report_grid)
    lines = []
    for report in reports:
        lines.extend(report.summary_lines())
    (out / "verify_summary.txt").write_text("\n".join(lines) + "\n")
    write_csv(
        out / "verify_report.csv",
        ("property", "value", "tolerance", "status", "worst_user", "worst_theta", "worst_report"),
        [row for report in reports for row in report.csv_rows()],
    )
    export_interim_csv(curves, rewards, out / "verify_curves.csv")
    for line in lines:
        print(line)
    return 0 if all(r.passed for r in reports) else 1


def cmd_experiment(args) -> int:
    spec = _spec_from_args(
        args,
        engine=args.engine,
        quad_order=args.quad_order,
        mc_samples=args.mc_samples,
        grid=args.grid,
        report_grid=args.report_grid,
        threads=args.threads,
    )
    names = EXPERIMENT_NAMES if args.name == "all" else (args.name,)
    for name in names:
        for dest, low in MIN_GRIDS.get(name, {}).items():
            if getattr(args, dest) < low:
                raise ConfigError(f"--{dest.replace('_', '-')} must be an integer >= {low} "
                                  f"for experiment {name}, got {getattr(args, dest)}")
    summary_path = _output_dir(args) / "summary.txt"
    results = [run_experiment(spec, name) for name in names]
    write_summary(results, summary_path)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status} ({', '.join(res.csv_paths)})")
        for check in res.checks:
            print("  " + check.line())
    print(f"wrote {summary_path}")
    return 0 if all(r.passed for r in results) else 1


def cmd_bench(args) -> int:
    spec = _spec_from_args(args)
    summary_path = _output_dir(args) / "summary.txt"
    result = run_table2(spec, sizes=args.sizes)
    for rec in result.records:
        print(f"n={rec.n}: {rec.wall_seconds:.6f} s ({rec.statistic} of {rec.repetitions})")
    for check in result.checks:
        print(check.line())
    write_summary([result], summary_path)
    return 0 if result.passed else 1


def _spec_from_args(args, **fields) -> ExperimentSpec:
    """Spec from --config (its params and distribution blocks), --seed, --out and the verb's ``fields``."""
    cfg = load_config(args.config) if args.config else None
    spec = ExperimentSpec(out_dir=args.out, seed=_resolve_seed(args, cfg), **fields)
    if cfg is not None:
        params, dist = params_from_config(cfg)
        spec = replace(spec, params=params, dist=dist)
    return spec


_COMMANDS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "rewards": cmd_rewards,
    "verify": cmd_verify,
    "experiment": cmd_experiment,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or usage error (2)
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.verb](args)
    except (ConfigError, InvalidScenarioError, SupportError, EngineError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
