import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmech import (
    InterimCurves,
    MonteCarloEngine,
    Network,
    NegativeRewardWarning,
    QuadratureEngine,
    RewardSchedule,
    Scenario,
    demand_solve,
    interim_curves,
    interim_utility,
    reward_schedule,
    truthful_interim_utility,
    untruthful_impact,
    verify_ic,
    verify_ir,
    verify_monotonicity,
)
from conftest import CASE_PARAMS, UNIFORM, complete_network, zero_network
from oracles import bruteforce_oracle, virtual_surplus


@pytest.fixture(scope="module")
def complete5_certified():
    sc = Scenario(complete_network(5), CASE_PARAMS, UNIFORM)
    curves = interim_curves(sc, 101, QuadratureEngine(order=8))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRewardWarning)
        rewards = reward_schedule(curves)
    return sc, curves, rewards


@pytest.fixture(scope="module")
def zero5_certified():
    sc = Scenario(zero_network(5), CASE_PARAMS, UNIFORM)
    curves = interim_curves(sc, 33, QuadratureEngine(order=8))
    rewards = reward_schedule(curves)
    return sc, curves, rewards


def shift_rewards(rewards: RewardSchedule, delta) -> RewardSchedule:
    return RewardSchedule(
        grid=rewards.grid, rewards=rewards.rewards + delta, cell_term=rewards.cell_term,
    )


class TestInterimUtility:
    def test_binding_at_lowest_type(self, complete5_certified):
        _, curves, rewards = complete5_certified
        lo = curves.grid[0]
        for i in range(5):
            assert interim_utility(curves, rewards, i, lo, lo) == pytest.approx(0.0, abs=1e-12)

    def test_zero_network_identically_zero(self, zero5_certified):
        _, curves, rewards = zero5_certified
        for theta, report in ((0.4, 0.8), (0.6, 0.5), (0.75, 0.75)):
            assert interim_utility(curves, rewards, 2, theta, report) == pytest.approx(0.0, abs=1e-12)

    def test_top_type_reporting_bottom_identity(self, complete5_certified):
        # U(top, bottom) collapses to (top - bottom) * gamma(bottom)
        _, curves, rewards = complete5_certified
        lo, hi = curves.grid[0], curves.grid[-1]
        for i in range(5):
            expected = (hi - lo) * curves.gamma[i, 0]
            assert interim_utility(curves, rewards, i, hi, lo) == pytest.approx(expected, abs=1e-12)

    def test_out_of_support(self, complete5_certified):
        _, curves, rewards = complete5_certified
        with pytest.raises(Exception, match="outside"):
            interim_utility(curves, rewards, 0, 0.6, 0.9)
        with pytest.raises(Exception, match="outside"):
            interim_utility(curves, rewards, 0, 0.3, 0.6)


class TestVerifyIc:
    def test_complete5_quadrature_certifies(self, complete5_certified):
        sc, curves, rewards = complete5_certified
        report = verify_ic(sc, curves, rewards, 21, 101)
        assert report.ic_max_gain <= 1e-6
        assert report.ic_argmax_within_step
        assert report.passed

    def test_corrupted_rewards_detected(self, complete5_certified):
        # corrupting r by +0.1*report makes over-reporting profitable; the gain
        # is capped near (0.1)^2 / (2 gamma') ~ 5e-3 for this scenario, far
        # above the certification tolerance
        sc, curves, rewards = complete5_certified
        corrupted = shift_rewards(rewards, 0.1 * rewards.grid[None, :])
        report = verify_ic(sc, curves, corrupted, 21, 101)
        assert report.ic_max_gain > 4e-3
        assert not report.ic_argmax_within_step
        assert not report.passed

    def test_zero_network_exact(self, zero5_certified):
        sc, curves, rewards = zero5_certified
        report = verify_ic(sc, curves, rewards, 11, 33)
        assert report.ic_max_gain <= 1e-14
        assert report.passed

    def test_monte_carlo_tolerance_certifies(self, case_params, uniform_dist):
        sc = Scenario(complete_network(3), case_params, uniform_dist)
        curves = interim_curves(sc, 33, MonteCarloEngine(samples=4000, seed=2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRewardWarning)
            rewards = reward_schedule(curves)
        report = verify_ic(sc, curves, rewards, 11, 33)
        assert report.tolerance > 1e-6  # SE-based, wider than quadrature
        assert report.passed

    def test_grid_minimum(self, complete5_certified):
        sc, curves, rewards = complete5_certified
        with pytest.raises(ValueError):
            verify_ic(sc, curves, rewards, 5, 101)


def one_user_schedule(grid, gamma, v):
    """Curves of one user with the given node gamma and V, and their reward schedule."""
    zeros = np.zeros((1, grid.size))
    curves = InterimCurves(grid, gamma[None, :], v[None, :], zeros, (0,), "quadrature")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NegativeRewardWarning)
        return curves, reward_schedule(curves)


class TestContinuumIncentives:
    """Between the nodes the schedule pays the exact integral of the linear gamma."""

    @settings(max_examples=200, deadline=None)
    @given(
        lo=st.floats(0.0, 1.0),
        width=st.floats(0.25, 1.0),
        start=st.floats(0.0, 1.0),
        steps=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=11),
        v=st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    # a subnormal gamma: the arithmetic rounds in absolute quanta of 4.9e-324 there
    @example(lo=0.5, width=0.25, start=2.2250738585e-313, steps=[0.0], v=[0.0] * 12, seed=0)
    def test_non_decreasing_gamma_is_ic_and_ir_off_the_nodes(self, lo, width, start, steps, v, seed):
        grid = np.linspace(lo, lo + width, len(steps) + 1)
        gamma = start + np.cumsum([0.0] + steps)
        v = width * gamma.max() * np.array(v[:grid.size])
        curves, rewards = one_user_schedule(grid, gamma, v)
        off_node = np.random.default_rng(seed).uniform(lo, grid[-1], 20 * grid.size)
        types = np.unique(np.concatenate([grid, off_node]))
        u = interim_utility(curves, rewards, 0, types[:, None], types)
        truthful = np.diag(u)
        # the standard rounding model fl(a op b) = (a op b)(1 + d) + e: |d| <= eps, and the
        # absolute e, at most the smallest subnormal, is all there is when u is subnormal
        rounding = 64 * (np.finfo(float).eps * np.abs(u).max() + np.finfo(float).smallest_subnormal)
        assert np.max(u - truthful[:, None]) <= rounding
        assert np.min(truthful) >= -rounding

    def test_one_decreasing_cell_gains_inside_it(self):
        grid = np.linspace(0.4, 0.8, 9)
        gamma = np.linspace(0.1, 0.9, 9)
        k = 4
        gamma[k + 1] = gamma[k] - 0.05
        curves, rewards = one_user_schedule(grid, gamma, np.zeros(grid.size))
        types = np.linspace(0.4, 0.8, 8 * 40 + 1)
        u = interim_utility(curves, rewards, 0, types[:, None], types)
        gains = u - np.diag(u)[:, None]
        _, report = np.unravel_index(np.argmax(gains), gains.shape)
        assert gains.max() > 1e-4
        assert grid[k] <= types[report] <= grid[k + 1]
        # from the bottom of the cell, reporting its top gains h (gamma_k - gamma_{k+1}) / 2
        bottom, top = grid[k], grid[k + 1]
        pair = (interim_utility(curves, rewards, 0, bottom, top)
                - interim_utility(curves, rewards, 0, bottom, bottom))
        assert pair == pytest.approx(0.5 * (top - bottom) * (gamma[k] - gamma[k + 1]), rel=1e-9)


class TestVerifyIr:
    def test_random_valid_scenario(self, scenario_factory):
        rng = np.random.default_rng(13)
        sc = scenario_factory(rng, n=3)
        curves = interim_curves(sc, 33, QuadratureEngine(order=8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRewardWarning)
            rewards = reward_schedule(curves)
        report = verify_ir(sc, curves, rewards, 33)
        assert report.ir_min >= -1e-8
        assert report.ir_binding_gap <= 1e-8

    def test_shift_detected(self, complete5_certified):
        sc, curves, rewards = complete5_certified
        report = verify_ir(sc, curves, shift_rewards(rewards, -0.05), 21)
        assert report.ir_min == pytest.approx(-0.05, abs=1e-9)
        assert not report.passed

    def test_zero_network(self, zero5_certified):
        sc, curves, rewards = zero5_certified
        report = verify_ir(sc, curves, rewards, 17)
        assert report.ir_min == pytest.approx(0.0, abs=1e-12)


class TestVerifyMonotonicity:
    def test_complete5_passes(self, complete5_certified):
        _, curves, _ = complete5_certified
        assert verify_monotonicity(curves).passed

    def test_zero_network_flat(self, zero5_certified):
        _, curves, _ = zero5_certified
        report = verify_monotonicity(curves)
        assert report.passed
        assert report.gamma_min_slope == pytest.approx(0.0, abs=1e-15)

    def test_decreasing_gamma_located(self, zero5_certified):
        _, curves, _ = zero5_certified
        gamma = np.tile(np.linspace(0.0, 1.0, curves.grid.size), (5, 1))
        gamma[3, 10] = gamma[3, 9] - 0.5  # inject a dip for user 3
        broken = InterimCurves(
            grid=curves.grid,
            gamma=gamma,
            v=curves.v,
            c=curves.c,
            users=curves.users,
        )
        report = verify_monotonicity(broken)
        assert not report.passed
        witness = report.witness
        assert witness.user == 3
        assert witness.theta_true == pytest.approx(curves.grid[9])

    @staticmethod
    def two_dips(curves, dip_1, dip_3):
        """gamma flat except user 1 falls by dip_1 at grid index 4 and user 3 by dip_3 at 0."""
        gamma = np.zeros((5, curves.grid.size))
        gamma[1, 5:] = dip_1
        gamma[3, 1:] = dip_3
        return InterimCurves(grid=curves.grid, gamma=gamma, v=curves.v, c=curves.c,
                             users=curves.users)

    def test_rounding_tie_names_the_lowest_user(self, zero5_certified):
        """User 3's minimum slope is 1 ulp below user 1's: the witness is user 1,
        and the reported slope is still the exact minimum."""
        _, curves, _ = zero5_certified
        lowest = np.nextafter(-0.25, -1.0)
        report = verify_monotonicity(self.two_dips(curves, -0.25, lowest))
        assert report.gamma_min_slope == lowest
        witness = report.witness
        assert (witness.user, witness.theta_true, witness.theta_hat, witness.value) == (
            1, curves.grid[4], curves.grid[5], lowest)

    def test_gap_beyond_rounding_names_the_minimum(self, zero5_certified):
        _, curves, _ = zero5_certified
        report = verify_monotonicity(self.two_dips(curves, -0.25, -0.25 - 1e-12))
        witness = report.witness
        assert (witness.user, witness.theta_true) == (3, curves.grid[0])

    def test_nan_curve_fails_and_is_named(self, zero5_certified):
        _, curves, _ = zero5_certified
        broken = self.two_dips(curves, -0.25, -0.5)
        broken.gamma[2, 6] = np.nan
        report = verify_monotonicity(broken)
        assert not report.passed
        assert (report.witness.user, report.witness.theta_true) == (2, curves.grid[5])


class TestPropositionChains:
    def test_truthful_utility_nonnegative_chain(self, complete5_certified):
        _, curves, _ = complete5_certified
        t = truthful_interim_utility(curves)
        assert np.all(t >= 0)
        assert np.all(t[:, 0] == 0)
        assert np.all(np.diff(t, axis=1) >= 0)

    def test_ic_sum_inequality(self, complete5_certified):
        _, curves, _ = complete5_certified
        grid = curves.grid
        for i in range(5):
            g = curves.gamma[i]
            diff = g[None, :] - g[:, None]
            gap = grid[None, :] - grid[:, None]
            assert np.min(diff * gap) >= -1e-12


class TestDetectorCompleteness:
    def test_ir_and_monotonicity_flag_ten_x_violations(self, complete5_certified):
        sc, curves, rewards = complete5_certified
        assert not verify_ir(sc, curves, shift_rewards(rewards, -10 * 1e-8), 21).passed
        gamma = curves.gamma.copy()
        gamma[0, 5] = gamma[0, 6] + 10 * 1e-8
        dipped = InterimCurves(
            grid=curves.grid, gamma=gamma, v=curves.v, c=curves.c,
            users=curves.users,
        )
        assert not verify_monotonicity(dipped).passed

    def test_ic_flags_node_bump_above_adjacency_penalty(self, complete5_certified):
        sc, curves, rewards = complete5_certified
        tol = 1e-6
        step = curves.grid[1] - curves.grid[0]
        # worst-case masking: moving to a neighbour node costs step*dgamma/2
        penalty = 0.5 * step * np.max(np.diff(curves.gamma, axis=1))
        bump = 10 * tol + penalty
        corrupted = rewards.rewards.copy()
        corrupted[:, 41] += bump  # off the 21-point true grid
        report = verify_ic(sc, curves, RewardSchedule(rewards.grid, corrupted, rewards.cell_term), 21, 101)
        assert report.ic_max_gain > tol
        assert not report.passed


class TestUntruthfulImpact:
    def test_truthful_report_is_baseline(self, complete5_certified):
        sc, curves, rewards = complete5_certified
        truth = np.full(5, 0.6)
        row = untruthful_impact(sc, truth, 2, 41, rewards=rewards)
        at_truth = row.cp_utilities[np.argmin(np.abs(row.reports - 0.6))]
        assert at_truth == pytest.approx(row.baseline_cp_utility, abs=1e-12)

    @pytest.mark.parametrize("deviator", [5, -1])
    def test_deviator_out_of_range(self, complete5_certified, deviator):
        sc, _, rewards = complete5_certified
        with pytest.raises(IndexError, match=f"deviator index {deviator} out of range"):
            untruthful_impact(sc, np.full(5, 0.6), deviator, 9, rewards=rewards)

    def test_zero_network_no_impact(self, zero5_certified):
        sc, curves, rewards = zero5_certified
        row = untruthful_impact(sc, np.full(5, 0.6), 0, 33, rewards=rewards)
        assert np.max(np.abs(row.cp_utilities - row.baseline_cp_utility)) <= 1e-12

    def test_default_engine_builds_rewards(self, case_params, uniform_dist):
        w = np.zeros((3, 3))
        w[0, 1:] = w[1:, 0] = 1.0
        sc = Scenario(Network(w), case_params, uniform_dist)
        rewards = reward_schedule(interim_curves(sc, 33, QuadratureEngine()))
        row = untruthful_impact(sc, np.full(3, 0.6), 1, 17, rewards=rewards)
        assert row.drop >= 0
        assert row.reports.size == 17

    def test_hub_graph_ordering(self, hub5):
        curves = interim_curves(hub5, 41, QuadratureEngine(order=8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRewardWarning)
            rewards = reward_schedule(curves)
        truth = np.full(5, 0.6)
        rows = [untruthful_impact(hub5, truth, i, 41, rewards=rewards) for i in range(5)]
        drops = [r.drop for r in rows]
        assert drops[0] > drops[2] > drops[1]
        assert abs(drops[2] - drops[3]) <= 1e-9
        assert abs(drops[1] - drops[4]) <= 1e-9

    def test_sweep_monotone_below_truth(self, hub5):
        # the provider's ex-post utility rises with the reported type, so the
        # worst case sits at the bottom of the support and under-reporting
        # hurts more the further it goes
        curves = interim_curves(hub5, 41, QuadratureEngine(order=8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRewardWarning)
            rewards = reward_schedule(curves)
        row = untruthful_impact(hub5, np.full(5, 0.6), 0, 41, rewards=rewards)
        below = row.reports <= 0.6 + 1e-12
        assert np.all(np.diff(row.cp_utilities[below]) > 0)
        assert row.worst_report == pytest.approx(row.reports[0])


class TestBruteforceOracle:
    def test_two_user_symmetric(self, case_params, uniform_dist):
        sc = Scenario(complete_network(2), case_params, uniform_dist)
        theta = np.array([0.5, 0.7])
        expected = 1.4 / (7.0 - (0.2 + 0.6))
        assert np.allclose(bruteforce_oracle(sc, theta, "grid"), expected, atol=1e-5)
        assert np.allclose(bruteforce_oracle(sc, theta, "ascent"), expected, atol=1e-7)

    def test_single_user(self, case_params, uniform_dist):
        sc = Scenario(zero_network(1), case_params, uniform_dist)
        assert bruteforce_oracle(sc, np.array([0.6]), "grid") == pytest.approx(0.2, abs=1e-5)

    def test_hub3_matches_solver(self, case_params, uniform_dist):
        w = np.zeros((3, 3))
        w[0, 1:] = w[1:, 0] = 1.0
        sc = Scenario(Network(w), case_params, uniform_dist)
        theta = np.full(3, 0.6)
        x = demand_solve(sc, theta)
        assert np.allclose(x, [0.25231, 0.22884, 0.22884], atol=1e-5)
        for method in ("grid", "ascent"):
            assert np.allclose(bruteforce_oracle(sc, theta, method), x, atol=1e-5)

    def test_oracle_never_beats_solver(self, scenario_factory):
        rng = np.random.default_rng(31)
        for _ in range(10):
            sc = scenario_factory(rng, n=2)
            theta = sc.dist.sample(2, seed=int(rng.integers(1 << 31)))
            x = demand_solve(sc, theta)
            y = bruteforce_oracle(sc, theta, "ascent")
            assert virtual_surplus(sc, theta, x)[0] >= virtual_surplus(sc, theta, y)[0] - 1e-10

    def test_grid_oracle_size_limit(self, complete5):
        with pytest.raises(ValueError, match="n <= 3"):
            bruteforce_oracle(complete5, np.full(5, 0.6), "grid")

    def test_unknown_method(self, case_params, uniform_dist):
        sc = Scenario(zero_network(1), case_params, uniform_dist)
        with pytest.raises(ValueError, match="unknown oracle"):
            bruteforce_oracle(sc, np.array([0.6]), "newton")
