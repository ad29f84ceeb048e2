"""Empirical certification of the mechanism's promises.

The interim utility of a user with true type theta who reports theta_hat is

    U~_i(theta, theta_hat) = V_i(theta_hat) + theta * gamma_i(theta_hat) + r_i(theta_hat)

evaluated by linear interpolation on the curve grid. ``interim_utility`` is
its only implementation: it broadcasts over both types, so each sweep below is
one call per user. The checks:

  * incentive compatibility: no report beats the truthful one, for every user,
    every true type on one grid, every report on another; the best report must
    also sit within one report-grid step of the truth;
  * individual rationality: truthful interim utility is nonnegative everywhere
    and exactly zero at the lowest type (the binding participation constraint);
  * monotonicity: gamma_i is non-decreasing along the grid.

All three return a ``VerificationReport`` carrying worst-case witnesses: the
first extremum in (user, true type) order, so ties resolve to the lowest user
and type. A failed check is report content, never an exception.

``bruteforce_oracle`` maximizes the pointwise virtual-surplus objective

    sum_i [ (s+a-p) x_i - ((t+b)/2) x_i^2 + phi_i x_i sum_j g_ij x_j ]

over x >= 0 by grid refinement or projected gradient ascent. It exists only
to cross-check the closed-form demand solve: the objective and its gradient
share no code with the solve. Only its concavity guard reuses the solve's
matrix assembly and dominance slack, to refuse scenarios with no maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .market import Scenario, cp_ex_post_utility
from .mechanism import (
    _MAX_QUADRATURE_USERS,
    InterimCurves,
    MonteCarloEngine,
    QuadratureEngine,
    RewardSchedule,
    _on_grid,
    demand_solve,
    dominance_slack,
    interim_curves,
    reward_schedule,
    system_matrix,
)

# defaults: analytic tolerance for quadrature-backed checks, slope tolerance,
# and the IR tolerance (grid-exact at nodes, so effectively rounding noise)
TOL_IC_QUADRATURE = 1e-6
TOL_IR = 1e-8
TOL_MONO = 1e-8


class NonConcaveError(RuntimeError):
    """The brute-force objective is not strictly concave (feasibility broken)."""


@dataclass(frozen=True)
class WorstCase:
    user: int
    theta_true: float
    theta_hat: float
    value: float


@dataclass(frozen=True)
class VerificationReport:
    """Worst-case certification outcome; fields are None when not checked."""

    ic_max_gain: float | None = None
    ic_argmax_within_step: bool | None = None
    ir_min: float | None = None
    ir_binding_gap: float | None = None
    gamma_min_slope: float | None = None
    worst_cases: tuple = ()
    tolerances: dict = field(default_factory=dict)
    estimator: dict = field(default_factory=dict)

    def _verdicts(self) -> dict:
        """Pass/fail of each checked property, keyed by tolerance name."""
        tol = self.tolerances
        out = {}
        if self.ic_max_gain is not None:
            out["ic"] = self.ic_max_gain <= tol["ic"] and bool(self.ic_argmax_within_step)
        if self.ir_min is not None:
            out["ir"] = self.ir_min >= -tol["ir"] and self.ir_binding_gap <= tol["ir"]
        if self.gamma_min_slope is not None:
            out["mono"] = self.gamma_min_slope >= -tol["mono"]
        return out

    @property
    def passed(self) -> bool:
        return all(self._verdicts().values())

    def summary_lines(self) -> list[str]:
        status = {k: "PASS" if ok else "FAIL" for k, ok in self._verdicts().items()}
        lines = []
        if self.ic_max_gain is not None:
            lines.append(
                f"IC {status['ic']}: max misreport gain {self.ic_max_gain:.3e} "
                f"(tol {self.tolerances['ic']:.1e}), best report at truth: "
                f"{'yes' if self.ic_argmax_within_step else 'NO'}"
            )
        if self.ir_min is not None:
            lines.append(
                f"IR {status['ir']}: min truthful utility {self.ir_min:.3e}, "
                f"binding gap {self.ir_binding_gap:.3e} (tol {self.tolerances['ir']:.1e})"
            )
        if self.gamma_min_slope is not None:
            lines.append(
                f"monotonicity {status['mono']}: min gamma slope "
                f"{self.gamma_min_slope:.3e} (tol {self.tolerances['mono']:.1e})"
            )
        for w in self.worst_cases:
            lines.append(
                f"  worst case user {w.user}: theta {w.theta_true:.6g} -> "
                f"report {w.theta_hat:.6g}, value {w.value:.3e}"
            )
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return lines


def interim_utility(
    curves: InterimCurves,
    rewards: RewardSchedule,
    i: int,
    theta_true,
    theta_hat,
):
    """V_i(theta_hat) + theta_true * gamma_i(theta_hat) + r_i(theta_hat).

    Broadcasts over theta_true and theta_hat; a float for scalar input.
    """
    grid = curves.grid
    theta_true = _on_grid(grid, theta_true, "true type")
    theta_hat = _on_grid(grid, theta_hat, "report")
    v = np.interp(theta_hat, grid, curves.v[i])
    gamma = np.interp(theta_hat, grid, curves.gamma[i])
    u = v + theta_true * gamma + rewards.reward(i, theta_hat)
    return float(u) if u.ndim == 0 else u


def _ic_tolerance(curves: InterimCurves) -> float:
    if curves.method == "quadrature":
        return TOL_IC_QUADRATURE
    # Monte Carlo: three standard errors of the interim-utility difference.
    # Common random numbers correlate the errors at the two reports; bounding
    # by the sum of the two per-point errors stays conservative.
    width = curves.grid[-1] - curves.grid[0]
    se = np.nanmax(curves.gamma_se)
    theta_top = curves.grid[-1]
    return 3.0 * (2.0 * theta_top * se + width * se)


def verify_ic(
    sc: Scenario,
    curves: InterimCurves,
    rewards: RewardSchedule,
    true_grid: int,
    report_grid: int,
    tol: float | None = None,
) -> VerificationReport:
    """Sweep (true type, report) pairs and record the worst misreport gain."""
    if true_grid < 9 or report_grid < 9:
        raise ValueError("need grids of at least 9 points")
    if tol is None:
        tol = _ic_tolerance(curves)
    lo, hi = sc.dist.lower, sc.dist.upper
    truths = np.linspace(lo, hi, true_grid)
    reports = np.linspace(lo, hi, report_grid)
    step = reports[1] - reports[0]

    users = curves.users
    # (user, truth, report) utilities and the (user, truth) truthful ones
    u = np.stack([interim_utility(curves, rewards, i, truths[:, None], reports) for i in users])
    u_truth = np.stack([interim_utility(curves, rewards, i, truths, truths) for i in users])
    best = np.argmax(u, axis=2)
    gains = np.take_along_axis(u, best[..., None], axis=2)[..., 0] - u_truth
    argmax_ok = not np.any(np.abs(reports[best] - truths) > step * (1 + 1e-9))
    row, t = np.unravel_index(np.argmax(gains), gains.shape)
    gain = float(gains[row, t])
    return VerificationReport(
        ic_max_gain=gain,
        ic_argmax_within_step=argmax_ok,
        worst_cases=(WorstCase(users[row], float(truths[t]), float(reports[best[row, t]]), gain),),
        tolerances={"ic": tol},
        estimator=dict(curves.detail),
    )


def verify_ir(
    sc: Scenario,
    curves: InterimCurves,
    rewards: RewardSchedule,
    true_grid: int,
    tol: float = TOL_IR,
) -> VerificationReport:
    """Truthful interim utility nonnegative; binding (zero) at the lowest type."""
    truths = np.linspace(sc.dist.lower, sc.dist.upper, true_grid)
    values = np.stack([interim_utility(curves, rewards, i, truths, truths) for i in curves.users])
    row, k = np.unravel_index(np.argmin(values), values.shape)
    ir_min = float(values[row, k])
    return VerificationReport(
        ir_min=ir_min,
        # truths[0] is the lowest type exactly, where participation binds
        ir_binding_gap=float(np.max(np.abs(values[:, 0]))),
        worst_cases=(WorstCase(curves.users[row], float(truths[k]), float(truths[k]), ir_min),),
        tolerances={"ir": tol},
        estimator=dict(curves.detail),
    )


def verify_monotonicity(curves: InterimCurves, tol: float = TOL_MONO) -> VerificationReport:
    """Forward differences of gamma_i must be nonnegative along the grid."""
    diffs = np.diff(curves.gamma[list(curves.users)], axis=1)
    flat = int(np.argmin(diffs))
    row, col = np.unravel_index(flat, diffs.shape)
    user = curves.users[row]
    return VerificationReport(
        gamma_min_slope=float(diffs[row, col]),
        worst_cases=(
            WorstCase(user, float(curves.grid[col]), float(curves.grid[col + 1]), float(diffs[row, col])),
        ),
        tolerances={"mono": tol},
        estimator=dict(curves.detail),
    )


def verify_all(
    sc: Scenario,
    curves: InterimCurves,
    rewards: RewardSchedule,
    true_grid: int,
    report_grid: int,
) -> list[VerificationReport]:
    return [
        verify_ic(sc, curves, rewards, true_grid, report_grid),
        verify_ir(sc, curves, rewards, true_grid),
        verify_monotonicity(curves),
    ]


def report_csv_rows(reports) -> list[tuple]:
    """Flatten reports into (property, value, tolerance, passed, witness...) rows."""
    rows = []
    for rep in reports:
        witness = rep.worst_cases[0] if rep.worst_cases else WorstCase(-1, np.nan, np.nan, np.nan)
        for prop, value, tol_key in (
            ("ic_max_gain", rep.ic_max_gain, "ic"),
            ("ir_min", rep.ir_min, "ir"),
            ("ir_binding_gap", rep.ir_binding_gap, "ir"),
            ("gamma_min_slope", rep.gamma_min_slope, "mono"),
        ):
            if value is None:
                continue
            rows.append(
                (
                    prop,
                    float(value),
                    float(rep.tolerances[tol_key]),
                    "PASS" if rep.passed else "FAIL",
                    witness.user,
                    witness.theta_true,
                    witness.theta_hat,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# untruthful-user impact on the provider
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpactRow:
    """CP utility when one user sweeps their report and everyone else is truthful."""

    deviator: int
    baseline_cp_utility: float
    worst_cp_utility: float
    worst_report: float
    reports: np.ndarray
    cp_utilities: np.ndarray

    @property
    def drop(self) -> float:
        return self.baseline_cp_utility - self.worst_cp_utility


def untruthful_impact(
    sc: Scenario,
    theta_true,
    deviator: int,
    report_grid: int,
    rewards: RewardSchedule | None = None,
) -> ImpactRow:
    """Worst-case ex-post CP utility over the deviator's report sweep.

    The sweep curve is returned whole so any fixed deviation convention can be
    read off it. Rewards follow reports: R_j = r_j(report_j).
    """
    sc.require_valid()
    theta_true = sc.check_profile(theta_true)
    if not 0 <= deviator < sc.n:
        raise IndexError(f"deviator index {deviator} out of range")
    if rewards is None:
        engine = QuadratureEngine() if sc.n <= _MAX_QUADRATURE_USERS else MonteCarloEngine()
        rewards = reward_schedule(interim_curves(sc, max(report_grid, 33), engine))
    reports = np.linspace(sc.dist.lower, sc.dist.upper, report_grid)

    def cp_at(report: float) -> float:
        profile = theta_true.copy()
        profile[deviator] = report
        x = demand_solve(sc, profile)
        return cp_ex_post_utility(sc, x, rewards.rewards_for_profile(profile))

    baseline = cp_at(float(theta_true[deviator]))
    utilities = np.array([cp_at(float(r)) for r in reports])
    worst = int(np.argmin(utilities))
    return ImpactRow(
        deviator=deviator,
        baseline_cp_utility=baseline,
        worst_cp_utility=float(utilities[worst]),
        worst_report=float(reports[worst]),
        reports=reports,
        cp_utilities=utilities,
    )


# ---------------------------------------------------------------------------
# brute-force oracle for the demand solve
# ---------------------------------------------------------------------------


def virtual_surplus(sc: Scenario, theta, x: np.ndarray) -> np.ndarray:
    """Pointwise virtual-surplus objective, vectorized over stacked x rows."""
    th = sc.check_profile(theta)
    phi = np.asarray(sc.dist.virtual_value(th), dtype=float)
    g = sc.network.weights
    p = sc.params
    x = np.atleast_2d(np.asarray(x, dtype=float))
    linear = (p.s + p.a - p.p) * x.sum(axis=-1)
    quad = 0.5 * (p.t + p.b) * (x**2).sum(axis=-1)
    cross = ((phi * x) * (x @ g.T)).sum(axis=-1)
    return linear - quad + cross


def _check_concave(sc: Scenario, theta) -> None:
    slack = dominance_slack(system_matrix(sc, theta))
    if np.min(slack) <= 0:
        raise NonConcaveError(
            f"objective Hessian not strictly diagonally dominant (worst slack {np.min(slack):g})"
        )


def _x_upper_bound(sc: Scenario) -> float:
    slack = float(np.min(sc.assumption2.row_slack))
    return (sc.params.s + sc.params.a - sc.params.p) / slack


def bruteforce_oracle(sc: Scenario, theta, method: str = "grid") -> np.ndarray:
    """Maximize the virtual surplus directly; test oracle for the linear solve.

    ``grid``: full grid search with window refinement, n <= 3 only.
    ``ascent``: projected gradient ascent with a conservative step size.
    """
    sc.require_valid()
    theta = sc.check_profile(theta)
    _check_concave(sc, theta)
    if method == "grid":
        return _grid_maximize(sc, theta)
    if method == "ascent":
        return _ascent_maximize(sc, theta)
    raise ValueError(f"unknown oracle method {method!r}")


def _grid_maximize(sc: Scenario, theta, points: int = 21, rounds: int = 6) -> np.ndarray:
    n = sc.n
    if n > 3:
        raise ValueError("grid search oracle limited to n <= 3")
    lo = np.zeros(n)
    hi = np.full(n, _x_upper_bound(sc))
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lo[d], hi[d], points) for d in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        values = virtual_surplus(sc, theta, mesh)
        best = mesh[int(np.argmax(values))]
        span = (hi - lo) / (points - 1)
        lo = np.maximum(best - span, 0.0)
        hi = best + span
    return best


def _ascent_maximize(
    sc: Scenario, theta, tol: float = 1e-11, max_iter: int = 200_000
) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    phi = np.asarray(sc.dist.virtual_value(th), dtype=float)
    g = sc.network.weights
    p = sc.params
    tb = p.t + p.b
    coupling = (phi[:, None] * g + g.T * phi[None, :]).sum(axis=1).max()
    step = 1.0 / (tb + coupling)  # below 2/L for the concave quadratic
    x = np.full(sc.n, (p.s + p.a - p.p) / tb)
    for _ in range(max_iter):
        grad = (p.s + p.a - p.p) - tb * x + phi * (g @ x) + g.T @ (phi * x)
        x_new = np.maximum(x + step * grad, 0.0)
        if np.max(np.abs(x_new - x)) < tol:
            return x_new
        x = x_new
    return x
