"""Case-study experiments: sweeps, timing, CSV artifacts.

Every experiment is reproducible bit-for-bit from (spec, seed): networks and
type draws derive from the spec seed, estimators are deterministic, and CSV
cells are formatted with fixed precision. The assertion outcomes of each run
are returned as ``Check`` records and written to a summary file. The network
generators live in ``market`` and are re-exported here.

Feasibility note: random-half networks with unit edge weights violate the
market's dominance requirement once n reaches ~10 with the default
parameters, so the scaling studies scale every edge by a common weight
(``scaled_random_half_network``). fig6 gives all its networks the smallest
of their per-size weights, so every scenario validates with a factor-2
margin and all sizes share one "strength of connectivity", which preserves
the cross-size comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .csvio import write_csv
from .distributions import TypeDistribution, Uniform
from .market import MarketParams, Network, Scenario, make_network, scaled_random_half_network
from .mechanism import (
    MonteCarloEngine,
    QuadratureEngine,
    cumulative_trapezoid,
    interim_curves,
    reward_schedule,
    solve_profiles,
    truthful_interim_utility,
)
from .verification import interim_utility, untruthful_impact

CASE_STUDY_PARAMS = MarketParams(a=0.5, b=6.0, s=1.0, t=1.0, p=0.1)
DEFAULT_DIST = Uniform(0.4, 0.8)
TABLE2_SIZES = (10, 20, 50, 100, 200, 400, 600, 800)
EXPERIMENT_NAMES = ("fig3", "fig4", "table1", "table2", "fig6")


@dataclass(frozen=True)
class ExperimentSpec:
    """Configuration for the case-study runs."""

    name: str = "custom"
    out_dir: str = "out"
    seed: int = 0
    params: MarketParams = CASE_STUDY_PARAMS
    dist: TypeDistribution = DEFAULT_DIST
    engine: str = "quadrature"
    quad_order: int = 8
    mc_samples: int = 20_000
    grid: int = 21
    report_grid: int = 201
    threads: int = 1
    sizes: tuple = TABLE2_SIZES
    fig6_sizes: tuple = (10, 20, 50)
    fig6_grid: int = 9
    repetitions: int = 5
    table1_truth: float = 0.6
    fig3_truths: tuple = (0.45, 0.55, 0.65, 0.75)

    def make_engine(self):
        if self.engine == "quadrature":
            return QuadratureEngine(order=self.quad_order)
        if self.engine == "mc":
            return MonteCarloEngine(samples=self.mc_samples, seed=self.seed)
        raise ValueError(f"unknown engine {self.engine!r}; expected quadrature or mc")


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}" + (
            f": {self.detail}" if self.detail else ""
        )


@dataclass(frozen=True)
class TimingRecord:
    n: int
    wall_seconds: float
    repetitions: int
    statistic: str = "median"
    mean_degree: float = 0.0


@dataclass(frozen=True)
class ExperimentResult:
    name: str
    csv_paths: tuple
    checks: tuple
    records: tuple = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _scenario(spec: ExperimentSpec, network: Network) -> Scenario:
    sc = Scenario(network, spec.params, spec.dist)
    sc.require_valid()
    return sc


def _out(spec: ExperimentSpec, filename: str) -> str:
    return str(Path(spec.out_dir) / filename)


def run_fig3(spec: ExperimentSpec, rewards=None) -> ExperimentResult:
    """Interim utility of the last user in the complete 5-graph, report swept.

    One curve per true type; the curve maximum must sit at the truthful
    report (within one report-grid step).
    """
    sc = _scenario(spec, make_network("complete", 5))
    user = sc.n - 1
    engine = spec.make_engine()
    curves = interim_curves(sc, spec.report_grid, engine, users=[user], threads=spec.threads)
    if rewards is None:
        rewards = reward_schedule(curves)
    reports = curves.grid
    step = reports[1] - reports[0]
    truths = np.asarray(spec.fig3_truths, dtype=float)
    swept = interim_utility(curves, rewards, user, truths[:, None], reports)
    truthful = interim_utility(curves, rewards, user, truths, truths)
    rows = []
    checks = []
    for theta, utilities, u_truth in zip(truths, swept, truthful):
        rows.extend(
            (float(theta), float(m), float(v)) for m, v in zip(reports, utilities)
        )
        best = float(reports[int(np.argmax(utilities))])
        checks.append(
            Check(
                f"fig3 curve theta={theta:g}: maximum at truthful report",
                abs(best - theta) <= step * (1 + 1e-9),
                f"argmax report {best:g}",
            )
        )
        checks.append(
            Check(
                f"fig3 curve theta={theta:g}: lowest-report row does not beat the maximum",
                utilities[0] <= u_truth + 1e-12,
                f"U(lowest report) {utilities[0]:.6g} vs truthful {u_truth:.6g}",
            )
        )
    path = _out(spec, "fig3.csv")
    write_csv(path, ("theta_true", "theta_hat", "utility"), rows)
    return ExperimentResult("fig3", (path,), tuple(checks))


def run_fig4(spec: ExperimentSpec) -> ExperimentResult:
    """Truthful interim utility by role: complete user, star center, star branch.

    The binding participation constraint makes every curve exactly zero at the
    lowest type, so the strict ordering is asserted on the grid above it.
    """
    complete = _scenario(spec, make_network("complete", 5))
    star = _scenario(spec, make_network("star", 5))
    engine = spec.make_engine()
    grid_size = spec.grid + 1  # extra node at the binding lower endpoint
    cc = interim_curves(complete, grid_size, engine, users=[0], threads=spec.threads)
    cs = interim_curves(star, grid_size, engine, users=[0, 1], threads=spec.threads)
    u_complete = truthful_interim_utility(cc)[0]
    u_center, u_branch = truthful_interim_utility(cs)[[0, 1]]
    grid = cc.grid
    rows = []
    for label, vals in (
        ("complete.a1", u_complete),
        ("star.b1", u_center),
        ("star.b2", u_branch),
    ):
        rows.extend((label, float(th), float(v)) for th, v in zip(grid, vals))
    sel = slice(1, None)
    checks = [
        Check(
            "fig4 ordering complete.a1 > star.b1 pointwise",
            bool(np.all(u_complete[sel] > u_center[sel])),
            f"min gap {float(np.min(u_complete[sel] - u_center[sel])):.3e}",
        ),
        Check(
            "fig4 ordering star.b1 > star.b2 pointwise",
            bool(np.all(u_center[sel] > u_branch[sel])),
            f"min gap {float(np.min(u_center[sel] - u_branch[sel])):.3e}",
        ),
    ]
    path = _out(spec, "fig4.csv")
    write_csv(path, ("curve", "theta", "utility"), rows)
    return ExperimentResult("fig4", (path,), tuple(checks))


def run_table1(spec: ExperimentSpec) -> ExperimentResult:
    """Worst-case provider-utility drop when one user misreports (hub graph)."""
    sc = _scenario(spec, make_network("hub_plus_edge", 5))
    engine = spec.make_engine()
    sweep_grid = max(41, spec.grid)
    curves = interim_curves(sc, max(spec.report_grid, 41), engine, threads=spec.threads)
    rewards = reward_schedule(curves)
    truth = np.full(sc.n, spec.table1_truth)
    labels = ["c.1", "c.2", "c.3", "c.4", "c.5"]
    impacts = [
        untruthful_impact(sc, truth, i, sweep_grid, rewards=rewards) for i in range(sc.n)
    ]
    rows = [("none", impacts[0].baseline_cp_utility, impacts[0].baseline_cp_utility, "", 0.0)]
    sweep_rows = []
    for label, imp in zip(labels, impacts):
        rows.append(
            (label, imp.baseline_cp_utility, imp.worst_cp_utility, imp.worst_report, imp.drop)
        )
        sweep_rows.extend(
            (label, float(r), float(v)) for r, v in zip(imp.reports, imp.cp_utilities)
        )
    drops = [imp.drop for imp in impacts]
    checks = [
        Check(
            "table1 ordering drop(c.1) > drop(c.3) > drop(c.2)",
            drops[0] > drops[2] > drops[1],
            f"drops {drops[0]:.6g} / {drops[2]:.6g} / {drops[1]:.6g}",
        ),
        Check(
            "table1 symmetric pair c.3 = c.4",
            abs(drops[2] - drops[3]) <= 1e-9,
            f"difference {abs(drops[2] - drops[3]):.3e}",
        ),
        Check(
            "table1 symmetric pair c.2 = c.5",
            abs(drops[1] - drops[4]) <= 1e-9,
            f"difference {abs(drops[1] - drops[4]):.3e}",
        ),
    ]
    path = _out(spec, "table1.csv")
    write_csv(path, ("deviator", "baseline_cp", "worst_cp", "worst_report", "drop"), rows)
    sweep_path = _out(spec, "table1_sweep.csv")
    write_csv(sweep_path, ("deviator", "report", "cp_utility"), sweep_rows)
    return ExperimentResult("table1", (path, sweep_path), tuple(checks))


def run_table2(spec: ExperimentSpec, sizes=None) -> ExperimentResult:
    """Median wall time of matrix assembly + LU solve across network sizes.

    Timing runs sequentially; the log-log slope over the four largest sizes is
    checked against the cubic-solve bound only when the sizes reach the
    hundreds (below that, constant overheads dominate the fit).
    """
    sizes = tuple(spec.sizes if sizes is None else sizes)
    records = []
    rows = []
    for n in sizes:
        net, _ = scaled_random_half_network(
            n, spec.seed + n, spec.params, spec.dist.upper
        )
        sc = _scenario(spec, net)
        theta = spec.dist.sample(n, seed=spec.seed + n + 1)
        # direct LU of one profile: demand_solve iterates at O(n^2) per step, not the O(n^3) solve timed here
        phis = np.asarray(sc.dist.virtual_value(theta), dtype=float)[None]
        solve_profiles(sc, phis)  # warm up
        # sub-millisecond solves need many repetitions for a stable median
        reps = max(5, spec.repetitions, min(60, 6000 // max(1, n)))
        samples = []
        for _ in range(reps):
            start = time.perf_counter()
            solve_profiles(sc, phis)
            samples.append(time.perf_counter() - start)
        degrees = (net.weights > 0).sum(axis=1)
        rec = TimingRecord(
            n=n,
            wall_seconds=float(np.median(samples)),
            repetitions=reps,
            mean_degree=float(degrees.mean()),
        )
        records.append(rec)
        rows.append((rec.n, rec.wall_seconds, rec.repetitions, rec.statistic, rec.mean_degree))
    checks = []
    if len(sizes) >= 4 and max(sizes) >= 400:
        top = sorted(records, key=lambda r: r.n)[-4:]
        slope = float(
            np.polyfit(
                np.log([r.n for r in top]), np.log([r.wall_seconds for r in top]), 1
            )[0]
        )
        checks.append(
            Check(
                "table2 log-log slope within [2.0, 3.5] over the four largest sizes",
                2.0 <= slope <= 3.5,
                f"slope {slope:.3f}",
            )
        )
    path = _out(spec, "table2.csv")
    write_csv(path, ("n", "wall_seconds", "repetitions", "statistic", "mean_degree"), rows)
    return ExperimentResult("table2", (path,), tuple(checks), records=tuple(records))


def run_fig6(spec: ExperimentSpec) -> ExperimentResult:
    """Truthful interim utility of a representative user vs network size.

    Monte Carlo engine (the sizes outgrow tensor quadrature); the pointwise
    increase across sizes is asserted within three standard errors.
    """
    sizes = tuple(spec.fig6_sizes)
    params, upper = spec.params, spec.dist.upper
    weight = min(scaled_random_half_network(n, spec.seed + n, params, upper)[1] for n in sizes)
    engine = MonteCarloEngine(samples=spec.mc_samples, seed=spec.seed)
    utilities = {}
    u_se = {}
    rows = []
    for n in sizes:
        net, _ = scaled_random_half_network(n, spec.seed + n, params, upper, edge_weight=weight)
        sc = _scenario(spec, net)
        curves = interim_curves(sc, spec.fig6_grid, engine, users=[0], threads=spec.threads)
        t_vals = truthful_interim_utility(curves)[0]
        # conservative error for the running integral: integrate the SE curve
        t_se = cumulative_trapezoid(curves.gamma_se, curves.grid)[0]
        utilities[n] = t_vals
        u_se[n] = t_se
        rows.extend((n, float(th), float(v)) for th, v in zip(curves.grid, t_vals))
    checks = []
    for small, large in zip(sizes[:-1], sizes[1:]):
        margin = 3.0 * (u_se[small] + u_se[large])
        gap = utilities[large] - utilities[small]
        checks.append(
            Check(
                f"fig6 utility(n={large}) >= utility(n={small}) pointwise (3 SE)",
                bool(np.all(gap >= -margin)),
                f"min gap {float(np.min(gap)):.3e}",
            )
        )
    checks.append(
        Check(
            "fig6 all utilities nonnegative",
            bool(all(np.all(utilities[n] >= 0) for n in sizes)),
        )
    )
    path = _out(spec, "fig6.csv")
    write_csv(path, ("n", "theta", "utility"), rows)
    return ExperimentResult("fig6", (path,), tuple(checks))


_RUNNERS = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "table1": run_table1,
    "table2": run_table2,
    "fig6": run_fig6,
}


def run_experiment(spec: ExperimentSpec, name: str) -> ExperimentResult:
    try:
        runner = _RUNNERS[name]
    except KeyError:
        raise ValueError(f"unknown experiment {name!r}; expected one of {EXPERIMENT_NAMES}") from None
    return runner(replace(spec, name=name))


def write_summary(results, path) -> None:
    lines = []
    for res in results:
        lines.append(f"{res.name}: {'PASS' if res.passed else 'FAIL'}")
        for check in res.checks:
            lines.append("  " + check.line())
        for csv_path in res.csv_paths:
            lines.append(f"  wrote {csv_path}")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")
