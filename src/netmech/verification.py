"""Empirical certification of the mechanism's promises.

The interim utility of a user with true type theta who reports theta_hat is

    U~_i(theta, theta_hat) = V_i(theta_hat) + theta * gamma_i(theta_hat) + r_i(theta_hat)

where V and gamma interpolate linearly between curve-grid nodes and r is the
deployed schedule's ``RewardSchedule.reward``, whose cells carry the
t (1 - t) term of the exact integral. ``interim_utility`` is its only
implementation: it broadcasts over both types, so each sweep below is
one call per user. The checks:

  * incentive compatibility: no report beats the truthful one, for every user,
    every true type on one grid, every report on another; the best report must
    also sit within one report-grid step of the truth, and of reports that tie
    the maximum exactly (a user whose utility is flat) the best is the one
    nearest the truth;
  * individual rationality: truthful interim utility is nonnegative everywhere
    and exactly zero at the lowest type (the binding participation constraint);
  * monotonicity: gamma_i is non-decreasing along the grid.

Each returns its own ``VerificationReport`` (``ICReport``, ``IRReport``,
``MonotonicityReport``) carrying one worst-case witness: the first entry in
(user, grid index) order within rounding of the extremum, so users that tie
always name the lowest one. On quadrature curves twins
(``market.twin_classes``) tie exactly, since one twin's rows are copied to
the others, and users related by another symmetry of the network tie up to
the last bits. The reported value is the exact extremum. A failed check is
report content, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .market import _CHUNK_FLOATS, Scenario, cp_ex_post_utility
from .mechanism import MIN_GRID, InterimCurves, RewardSchedule, _on_grid, demand_solve

# tolerances: IC on quadrature-backed curves (Monte Carlo ones take theirs from
# the standard error), IR (grid-exact at nodes, so effectively rounding noise)
# and the gamma slope
TOL_IC_QUADRATURE = 1e-6
TOL_IR = 1e-8
TOL_MONO = 1e-8
# witness ties: within this many eps of the swept quantity's largest magnitude
WITNESS_ULPS = 64


@dataclass(frozen=True)
class WorstCase:
    user: int
    theta_true: float
    theta_hat: float
    value: float


@dataclass(frozen=True)
class VerificationReport:
    """One certification check's outcome: its worst-case ``witness`` and its ``tolerance``.

    Each check is a subclass (``ICReport``, ``IRReport``, ``MonotonicityReport``)
    that adds the values it measured and states its own ``passed``, its
    summary ``headline()`` and ``csv_fields``, the values written as CSV rows,
    each under its field name.
    """

    witness: WorstCase
    tolerance: float

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"

    def summary_lines(self) -> list[str]:
        w = self.witness
        return [
            self.headline(),
            f"  worst case user {w.user}: theta {w.theta_true:.6g} -> "
            f"report {w.theta_hat:.6g}, value {w.value:.3e}",
            f"overall: {self.status}",
        ]

    def csv_rows(self) -> list[tuple]:
        """One (property, value, tolerance, status, witness user, theta, report) row per value."""
        w = self.witness
        return [(prop, float(getattr(self, prop)), float(self.tolerance), self.status,
                 w.user, w.theta_true, w.theta_hat) for prop in self.csv_fields]


@dataclass(frozen=True)
class ICReport(VerificationReport):
    ic_max_gain: float
    ic_argmax_within_step: bool
    csv_fields = ("ic_max_gain",)

    @property
    def passed(self) -> bool:
        return self.ic_max_gain <= self.tolerance and self.ic_argmax_within_step

    def headline(self) -> str:
        return (f"IC {self.status}: max misreport gain {self.ic_max_gain:.3e} "
                f"(tol {self.tolerance:.1e}), best report at truth: "
                f"{'yes' if self.ic_argmax_within_step else 'NO'}")


@dataclass(frozen=True)
class IRReport(VerificationReport):
    ir_min: float
    ir_binding_gap: float
    csv_fields = ("ir_min", "ir_binding_gap")

    @property
    def passed(self) -> bool:
        return self.ir_min >= -self.tolerance and self.ir_binding_gap <= self.tolerance

    def headline(self) -> str:
        return (f"IR {self.status}: min truthful utility {self.ir_min:.3e}, "
                f"binding gap {self.ir_binding_gap:.3e} (tol {self.tolerance:.1e})")


@dataclass(frozen=True)
class MonotonicityReport(VerificationReport):
    gamma_min_slope: float
    csv_fields = ("gamma_min_slope",)

    @property
    def passed(self) -> bool:
        return self.gamma_min_slope >= -self.tolerance

    def headline(self) -> str:
        return (f"monotonicity {self.status}: min gamma slope "
                f"{self.gamma_min_slope:.3e} (tol {self.tolerance:.1e})")


def interim_utility(
    curves: InterimCurves,
    rewards: RewardSchedule,
    i: int,
    theta_true,
    theta_hat,
):
    """V_i(theta_hat) + theta_true * gamma_i(theta_hat) + r_i(theta_hat).

    Broadcasts over theta_true and theta_hat; a float for scalar input. The one
    array of the broadcast shape is the result: V and r, of theta_hat's shape,
    are added into theta_true * gamma (a sum that rounds as V + theta_true * gamma).
    """
    grid = curves.grid
    theta_true = _on_grid(grid, theta_true, "true type")
    theta_hat = _on_grid(grid, theta_hat, "report")
    v = np.interp(theta_hat, grid, curves.v[i])
    gamma = np.interp(theta_hat, grid, curves.gamma[i])
    u = theta_true * gamma
    u += v
    u += rewards.reward(i, theta_hat)
    return float(u) if u.ndim == 0 else u


def _witness(values: np.ndarray, extremum: float, scale: float) -> tuple:
    """(user row, grid index) of the first entry within rounding of ``extremum``.

    Rounding is ``WITNESS_ULPS`` eps times ``scale``, the largest magnitude of
    the quantity the sweep evaluated. A NaN extremum names the first NaN entry.
    """
    if np.isnan(extremum):
        near = np.isnan(values)
    else:
        near = np.abs(values - extremum) <= WITNESS_ULPS * np.finfo(float).eps * scale
    return np.unravel_index(int(np.argmax(near)), values.shape)


def _ic_tolerance(curves: InterimCurves) -> float:
    if curves.gamma_se is None:
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
) -> ICReport:
    """Sweep (true type, report) pairs and record the worst misreport gain."""
    if true_grid < MIN_GRID or report_grid < MIN_GRID:
        raise ValueError(f"need grids of at least {MIN_GRID} points")
    lo, hi = sc.dist.lower, sc.dist.upper
    truths = np.linspace(lo, hi, true_grid)
    reports = np.linspace(lo, hi, report_grid)
    step = reports[1] - reports[0]

    users = curves.users
    # the ties and distances of a block of truths at a time, about _CHUNK_FLOATS floats each
    height = max(1, _CHUNK_FLOATS // reports.size)
    blocks = [slice(k, k + height) for k in range(0, truths.size, height)]

    def sweep(i):
        """User i's best report of each truth, its gain over the truthful one, and max |U_i|.

        u is the one array of the (truth, report) shape that it holds."""
        u = interim_utility(curves, rewards, i, truths[:, None], reports)
        top = np.max(u, axis=1, keepdims=True)
        best = np.empty(truths.size, dtype=np.intp)
        for rows in blocks:
            # of reports whose utility equals the maximum exactly, the one nearest the truth
            # (a NaN counts as a maximum, so it carries into the gain)
            ties = (u[rows] == top[rows]) | np.isnan(u[rows])
            distance = np.abs(reports - truths[rows, None])
            best[rows] = np.argmin(np.where(ties, distance, np.inf), axis=1)
        gains = u[np.arange(truths.size), best] - interim_utility(curves, rewards, i, truths, truths)
        # max |u| as max(max u, -min u), which is exact; a NaN carries through both
        return best, gains, np.maximum(np.max(top), -np.min(u))

    # one user's (truth, report) utilities at a time; (user, truth) bests and gains
    best, gains, scales = (np.array(part) for part in zip(*map(sweep, users)))
    argmax_ok = not np.any(np.abs(reports[best] - truths) > step * (1 + 1e-9))
    gain = float(np.max(gains))
    row, t = _witness(gains, gain, np.max(scales))
    return ICReport(
        witness=WorstCase(users[row], float(truths[t]), float(reports[best[row, t]]), gain),
        tolerance=_ic_tolerance(curves),
        ic_max_gain=gain,
        ic_argmax_within_step=argmax_ok,
    )


def verify_ir(
    sc: Scenario,
    curves: InterimCurves,
    rewards: RewardSchedule,
    true_grid: int,
) -> IRReport:
    """Truthful interim utility nonnegative; binding (zero) at the lowest type."""
    truths = np.linspace(sc.dist.lower, sc.dist.upper, true_grid)
    values = np.stack([interim_utility(curves, rewards, i, truths, truths) for i in curves.users])
    ir_min = float(np.min(values))
    row, k = _witness(values, ir_min, np.max(np.abs(values)))
    return IRReport(
        witness=WorstCase(curves.users[row], float(truths[k]), float(truths[k]), ir_min),
        tolerance=TOL_IR,
        ir_min=ir_min,
        # truths[0] is the lowest type exactly, where participation binds
        ir_binding_gap=float(np.max(np.abs(values[:, 0]))),
    )


def verify_monotonicity(curves: InterimCurves) -> MonotonicityReport:
    """Forward differences of gamma_i must be nonnegative along the grid."""
    gamma = curves.gamma[list(curves.users)]
    diffs = np.diff(gamma, axis=1)
    slope = float(np.min(diffs))
    row, col = _witness(diffs, slope, np.max(np.abs(gamma)))
    return MonotonicityReport(
        witness=WorstCase(curves.users[row], float(curves.grid[col]), float(curves.grid[col + 1]), slope),
        tolerance=TOL_MONO,
        gamma_min_slope=slope,
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
    rewards: RewardSchedule,
) -> ImpactRow:
    """Worst-case ex-post CP utility over the deviator's report sweep.

    The sweep curve is returned whole so any fixed deviation convention can be
    read off it. Rewards follow reports: R_j = r_j(report_j), read from the
    deployed schedule ``rewards``.
    """
    sc.require_valid()
    theta_true = sc.check_profile(theta_true)
    if not 0 <= deviator < sc.n:
        raise IndexError(f"deviator index {deviator} out of range")
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
