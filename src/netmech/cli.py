"""Command-line front end.

Verbs: validate, solve, rewards, verify, experiment, bench. Exit codes:
0 = success and every asserted property passed; 1 = a property check failed
(the report is still written); 2 = config or validation error, with the
violated assumption printed.

All randomness flows from one seed. Precedence: --seed flag, then the
NETMECH_SEED environment variable, then a "seed" key in the config file,
then 0. Identical invocations produce byte-identical CSV output, including
under different --threads.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config, scenario_from_config
from .distributions import SupportError
from .experiments import (
    EXPERIMENT_NAMES,
    ExperimentSpec,
    run_experiment,
    run_table2,
    write_summary,
)
from .market import InvalidScenarioError, Scenario
from .mechanism import (
    EngineError,
    MonteCarloEngine,
    QuadratureEngine,
    SolverError,
    demand_solution,
    export_interim_csv,
    foc_residual,
    interim_curves,
    reward_schedule,
)
from .csvio import write_csv
from .verification import report_csv_rows, verify_all


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netmech",
        description="Optimal incentive mechanism for a sponsored-content market on a graph.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="scenario config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="master seed (default: NETMECH_SEED or 0)")
        p.add_argument("--engine", choices=("quadrature", "mc"), default="quadrature")
        p.add_argument("--mc-samples", type=int, default=20_000)
        p.add_argument("--quad-order", type=int, default=8)
        p.add_argument("--grid", type=int, default=21, help="true-type grid size")
        p.add_argument("--report-grid", type=int, default=201, help="report grid size")
        p.add_argument("--threads", type=int, default=os.cpu_count() or 1)
        p.add_argument("--out", default="out", help="output directory")

    common(sub.add_parser("validate", help="check assumption 1 (regularity) and assumption 2 (feasibility)"))
    p_solve = sub.add_parser("solve", help="optimal demand for one type profile")
    common(p_solve)
    p_solve.add_argument("--theta", required=True, help="comma-separated type profile")
    common(sub.add_parser("rewards", help="interim curves and reward schedule to CSV"))
    common(sub.add_parser("verify", help="certify IC, IR, and gamma monotonicity"))
    p_exp = sub.add_parser("experiment", help="run a case-study experiment")
    common(p_exp, config_required=False)
    p_exp.add_argument("--name", required=True, choices=EXPERIMENT_NAMES + ("all",))
    p_bench = sub.add_parser("bench", help="time the demand solve across network sizes")
    common(p_bench, config_required=False)
    p_bench.add_argument("--sizes", default=None, help="comma-separated network sizes")
    return parser


def _resolve_seed(args, cfg: dict | None) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("NETMECH_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigError(f"NETMECH_SEED must be an integer, got {env!r}") from None
    if cfg and "seed" in cfg:
        return int(cfg["seed"])
    return 0


def _engine(args, seed: int):
    if args.engine == "quadrature":
        return QuadratureEngine(order=args.quad_order)
    return MonteCarloEngine(samples=args.mc_samples, seed=seed)


def _load_scenario(args) -> tuple[Scenario, dict]:
    cfg = load_config(args.config)
    return scenario_from_config(cfg), cfg


def cmd_validate(args) -> int:
    sc, _ = _load_scenario(args)
    print(sc.regularity.summary())
    print(sc.assumption2.summary())
    if not sc.valid:
        if not sc.regularity.passed:
            print("assumption 1 violated: hazard must be non-decreasing and "
                  "virtual value nonnegative", file=sys.stderr)
        if not sc.assumption2.passed:
            print(f"assumption 2 violated: {sc.assumption2.failure_message()}", file=sys.stderr)
        return 2
    return 0


def cmd_solve(args) -> int:
    sc, _ = _load_scenario(args)
    try:
        theta = np.array([float(v) for v in args.theta.split(",")])
    except ValueError:
        raise ConfigError(f"--theta must be comma-separated numbers, got {args.theta!r}") from None
    sol = demand_solution(sc, theta)
    for i, value in enumerate(sol.x):
        print(f"x[{i}] = {value:.12g}")
    print(f"foc residual = {foc_residual(sc, theta, sol.x):.3e}")
    print(f"forward error bound = {sol.error_bound:.3e} (Varah: ||A^-1||_inf <= 1 / min row slack)")
    print(f"cg iterations = {sol.iterations}")
    return 0


def cmd_rewards(args) -> int:
    sc, cfg = _load_scenario(args)
    seed = _resolve_seed(args, cfg)
    curves = interim_curves(sc, args.report_grid, _engine(args, seed), threads=args.threads)
    rewards = reward_schedule(curves)
    path = Path(args.out) / "rewards.csv"
    export_interim_csv(curves, rewards, path)
    print(f"wrote {path}")
    return 0


def cmd_verify(args) -> int:
    sc, cfg = _load_scenario(args)
    seed = _resolve_seed(args, cfg)
    curves = interim_curves(sc, args.report_grid, _engine(args, seed), threads=args.threads)
    rewards = reward_schedule(curves)
    reports = verify_all(sc, curves, rewards, args.grid, args.report_grid)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = []
    for report in reports:
        lines.extend(report.summary_lines())
    (out / "verify_summary.txt").write_text("\n".join(lines) + "\n")
    write_csv(
        out / "verify_report.csv",
        ("property", "value", "tolerance", "status", "worst_user", "worst_theta", "worst_report"),
        report_csv_rows(reports),
    )
    export_interim_csv(curves, rewards, out / "verify_curves.csv")
    for line in lines:
        print(line)
    return 0 if all(r.passed for r in reports) else 1


def cmd_experiment(args) -> int:
    spec = _spec_from_args(args)
    names = EXPERIMENT_NAMES if args.name == "all" else (args.name,)
    results = [run_experiment(spec, name) for name in names]
    summary_path = Path(args.out) / "summary.txt"
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
    sizes = None
    if args.sizes:
        try:
            sizes = tuple(int(v) for v in args.sizes.split(","))
        except ValueError:
            raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from None
    result = run_table2(spec, sizes=sizes)
    for rec in result.records:
        print(f"n={rec.n}: {rec.wall_seconds:.6f} s ({rec.statistic} of {rec.repetitions})")
    for check in result.checks:
        print(check.line())
    write_summary([result], Path(args.out) / "summary.txt")
    return 0 if result.passed else 1


def _spec_from_args(args) -> ExperimentSpec:
    cfg = load_config(args.config) if args.config else None
    seed = _resolve_seed(args, cfg)
    spec = ExperimentSpec(
        out_dir=args.out,
        seed=seed,
        engine=args.engine,
        quad_order=args.quad_order,
        mc_samples=args.mc_samples,
        grid=args.grid,
        report_grid=args.report_grid,
        threads=args.threads,
    )
    if cfg:
        sc = scenario_from_config(cfg)
        spec = replace(spec, params=sc.params, dist=sc.dist)
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
