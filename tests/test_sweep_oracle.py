"""The array-valued IC/IR sweeps against the scalar loops they replaced.

The oracle below is the direct algorithm: one scalar interim utility per
(user, true type, report), scanned in (user, truth) order with a strict ``>``
(IC) or ``<`` (IR) so the first extremum wins. The sweeps must reproduce
every report field exactly, the witness included.
"""

import csv
import warnings

import numpy as np
import pytest

from netmech import (
    MonteCarloEngine,
    NegativeRewardWarning,
    Network,
    QuadratureEngine,
    Scenario,
    SupportError,
    interim_curves,
    interim_utility,
    reward_schedule,
    verify_ic,
    verify_ir,
)
from netmech import experiments
from netmech.experiments import ExperimentSpec, run_fig3
from netmech.verification import TOL_IR, ICReport, IRReport, WorstCase, _ic_tolerance
from conftest import CASE_PARAMS, UNIFORM, complete_network, zero_network


def hub_network() -> Network:
    w = np.zeros((5, 5))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    return Network(w)


NETWORKS = {"complete5": complete_network(5), "hub5": hub_network(), "zero5": zero_network(5)}
ENGINES = {
    "quadrature": lambda: QuadratureEngine(order=8),
    "mc": lambda: MonteCarloEngine(samples=1000, seed=3),
}


def scalar_reward(rewards, i, theta_hat):
    """r_i at one report: the linear interpolant plus t (1 - t) times its cell's term."""
    grid = rewards.grid
    k = 0
    while k < grid.size - 2 and grid[k + 1] <= theta_hat:
        k += 1
    t = (theta_hat - grid[k]) / (grid[k + 1] - grid[k])
    linear = float(np.interp(theta_hat, grid, rewards.rewards[i]))
    return linear + t * (1.0 - t) * float(rewards.cell_term[i, k])


def scalar_utility(curves, rewards, i, theta_true, theta_hat):
    """One point of U_i, each term interpolated on its own with a support check."""
    grid = curves.grid
    for theta in (theta_hat, theta_true):
        if not grid[0] <= theta <= grid[-1]:
            raise ValueError(f"type {theta} outside curve grid [{grid[0]}, {grid[-1]}]")
    v = float(np.interp(theta_hat, grid, curves.v[i]))
    gamma = float(np.interp(theta_hat, grid, curves.gamma[i]))
    return v + theta_true * gamma + scalar_reward(rewards, i, theta_hat)


def oracle_ic(sc, curves, rewards, true_grid, report_grid):
    lo, hi = sc.dist.lower, sc.dist.upper
    truths = np.linspace(lo, hi, true_grid)
    reports = np.linspace(lo, hi, report_grid)
    step = reports[1] - reports[0]
    max_gain = -np.inf
    argmax_ok = True
    worst = None
    for i in curves.users:
        for theta in truths:
            u_reports = np.array([scalar_utility(curves, rewards, i, theta, m) for m in reports])
            u_truth = scalar_utility(curves, rewards, i, theta, theta)
            # of the reports of maximal utility, exactly, the one nearest the truth
            ties = np.flatnonzero(u_reports == np.max(u_reports))
            best = int(ties[np.argmin(np.abs(reports[ties] - theta))])
            if abs(reports[best] - theta) > step * (1 + 1e-9):
                argmax_ok = False
            gain = float(u_reports[best] - u_truth)
            if gain > max_gain:
                max_gain = gain
                worst = WorstCase(i, float(theta), float(reports[best]), gain)
    return ICReport(
        witness=worst,
        tolerance=_ic_tolerance(curves),
        ic_max_gain=max_gain,
        ic_argmax_within_step=argmax_ok,
    )


def oracle_ir(sc, curves, rewards, true_grid):
    lo, hi = sc.dist.lower, sc.dist.upper
    truths = np.linspace(lo, hi, true_grid)
    ir_min = np.inf
    worst = None
    binding_gap = 0.0
    for i in curves.users:
        values = np.array([scalar_utility(curves, rewards, i, t, t) for t in truths])
        k = int(np.argmin(values))
        if values[k] < ir_min:
            ir_min = float(values[k])
            worst = WorstCase(i, float(truths[k]), float(truths[k]), float(values[k]))
        binding_gap = max(binding_gap, abs(scalar_utility(curves, rewards, i, lo, lo)))
    return IRReport(
        witness=worst,
        tolerance=TOL_IR,
        ir_min=ir_min,
        ir_binding_gap=float(binding_gap),
    )


@pytest.fixture(scope="module", params=[
    (net, eng) for net in ("complete5", "hub5", "zero5") for eng in ("quadrature", "mc")
], ids=lambda p: "-".join(p))
def certified(request):
    net, eng = request.param
    sc = Scenario(NETWORKS[net], CASE_PARAMS, UNIFORM)
    curves = interim_curves(sc, 41, ENGINES[eng]())
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRewardWarning)
        rewards = reward_schedule(curves)
    return sc, curves, rewards


@pytest.mark.parametrize("true_grid,report_grid", [(21, 201), (17, 33)])
def test_verify_ic_matches_scalar_oracle(certified, true_grid, report_grid):
    sc, curves, rewards = certified
    got = verify_ic(sc, curves, rewards, true_grid, report_grid)
    want = oracle_ic(sc, curves, rewards, true_grid, report_grid)
    assert got == want
    assert type(got.ic_max_gain) is float
    assert type(got.ic_argmax_within_step) is bool


@pytest.mark.parametrize("true_grid", [21, 17])
def test_verify_ir_matches_scalar_oracle(certified, true_grid):
    sc, curves, rewards = certified
    got = verify_ir(sc, curves, rewards, true_grid)
    want = oracle_ir(sc, curves, rewards, true_grid)
    assert got == want
    assert type(got.ir_min) is float and type(got.ir_binding_gap) is float


def test_array_utility_is_the_scalar_utility_bitwise(certified):
    _, curves, rewards = certified
    rng = np.random.default_rng(5)
    lo, hi = curves.grid[0], curves.grid[-1]
    truths = np.concatenate([[lo, hi], rng.uniform(lo, hi, 6)])
    reports = np.concatenate([curves.grid[::7], [lo, hi], rng.uniform(lo, hi, 9)])
    for i in curves.users:
        array = interim_utility(curves, rewards, i, truths[:, None], reports)
        assert array.shape == (truths.size, reports.size)
        scalar = np.array([[interim_utility(curves, rewards, i, float(t), float(m)) for m in reports]
                           for t in truths])
        oracle = np.array([[scalar_utility(curves, rewards, i, float(t), float(m)) for m in reports]
                           for t in truths])
        assert array.tobytes() == scalar.tobytes() == oracle.tobytes()
        assert type(interim_utility(curves, rewards, i, truths[0], reports[0])) is float


def test_array_reward_is_the_scalar_reward_bitwise(certified):
    _, curves, rewards = certified
    rng = np.random.default_rng(6)
    lo, hi = rewards.grid[0], rewards.grid[-1]
    reports = np.concatenate([rewards.grid, rng.uniform(lo, hi, 50)]).reshape(-1, 13)
    for i in curves.users:
        array = rewards.reward(i, reports)
        assert array.shape == reports.shape
        scalar = np.array([[rewards.reward(i, float(m)) for m in row] for row in reports])
        assert array.tobytes() == scalar.tobytes()
        assert type(rewards.reward(i, float(reports[0, 0]))) is float


def test_curves_need_a_user():
    # a sweep over no users would certify nothing
    sc = Scenario(complete_network(3), CASE_PARAMS, UNIFORM)
    with pytest.raises(ValueError, match="at least one user"):
        interim_curves(sc, 9, QuadratureEngine(order=4), users=[])


class TestOutOfGrid:
    @pytest.fixture(scope="class")
    def small(self):
        sc = Scenario(complete_network(3), CASE_PARAMS, UNIFORM)
        curves = interim_curves(sc, 9, QuadratureEngine(order=4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRewardWarning)
            return curves, reward_schedule(curves)

    @pytest.mark.parametrize("theta_true,theta_hat,what", [
        (0.3, 0.6, "true type"),
        (0.6, 0.9, "report"),
        (np.array([0.5, 0.81]), 0.6, "true type"),
        (0.6, np.array([0.5, np.nan]), "report"),
    ])
    def test_utility_names_the_argument(self, small, theta_true, theta_hat, what):
        curves, rewards = small
        with pytest.raises(ValueError, match=f"^{what} .* outside"):
            interim_utility(curves, rewards, 0, theta_true, theta_hat)

    @pytest.mark.parametrize("theta", [0.39, np.array([0.5, 0.9]), np.nan])
    def test_reward_keeps_support_error(self, small, theta):
        _, rewards = small
        with pytest.raises(SupportError, match="^report .* outside"):
            rewards.reward(0, theta)


@pytest.mark.filterwarnings("ignore::netmech.NegativeRewardWarning")
@pytest.mark.parametrize("engine", ["quadrature", "mc"])
def test_fig3_matches_scalar_loop_on_all_user_curves(tmp_path, engine, monkeypatch):
    """fig3 computes the plotted user only; its rows equal the scalar loop on that user's
    curves, which are the all-user sweep's: bit for bit with Monte Carlo, and to 1e-12 with
    quadrature, whose all-user sweep runs user 4's twin user 0 and copies its rows."""
    spec = ExperimentSpec(out_dir=str(tmp_path), seed=3, engine=engine, mc_samples=1000,
                          report_grid=81)
    monkeypatch.setattr(experiments, "FIG3_TRUTHS", (0.45, 0.6))
    result = run_fig3(spec)
    with open(result.csv_paths[0]) as fh:
        rows = list(csv.reader(fh))[1:]
    sc = Scenario(complete_network(5), spec.params, spec.dist)
    everyone = interim_curves(sc, spec.report_grid, spec.make_engine())
    curves = interim_curves(sc, spec.report_grid, spec.make_engine(), users=[4])
    for field in ("gamma", "v", "c"):
        got, own = getattr(everyone, field)[4], getattr(curves, field)[4]
        scale = 1e-12 * np.max(np.abs(own)) if engine == "quadrature" else 0.0
        assert np.max(np.abs(got - own)) <= scale, field
    rewards = reward_schedule(curves)
    want = [[f"{t:.12g}", f"{m:.12g}", f"{scalar_utility(curves, rewards, 4, t, float(m)):.12g}"]
            for t in experiments.FIG3_TRUTHS for m in curves.grid]
    assert rows == want
