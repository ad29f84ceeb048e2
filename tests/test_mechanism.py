import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmech import (
    EngineError,
    MonteCarloEngine,
    NegativeRewardWarning,
    QuadratureEngine,
    Scenario,
    SolverError,
    Network,
    TruncatedNormal,
    Uniform,
    demand_solve,
    export_interim_csv,
    foc_residual,
    interim_curves,
    make_engine,
    reward_schedule,
    system_matrix,
    truthful_interim_utility,
)
from netmech.market import InvalidScenarioError, scaled_random_half_network, twin_classes
from netmech import market, mechanism
from netmech.mechanism import demand_solution, solve_profiles
from conftest import (
    CASE_PARAMS, UNIFORM, alone, complete_network, large_scenario, path_network, random_valid_scenario,
    traced_peak, whole_samples, zero_network,
)
from oracles import cp_expected_utility, cp_expected_utility_virtual, k_matrix, k_sensitivity, tensor_rule


def hub_network(n: int) -> Network:
    w = np.zeros((n, n))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    return Network(w)


def varah_bound(sc, theta, x) -> float:
    """Bound on ||x - x*||_inf for any candidate x: (||r||_inf + its rounding) / min row slack."""
    p = sc.params
    c = p.s + p.a - p.p
    slack = float(np.min(sc.assumption2.row_slack))
    rounding = (sc.n + 3) * np.finfo(float).eps * ((2 * (p.t + p.b) - slack) * np.max(np.abs(x)) + c)
    return (foc_residual(sc, theta, x) + rounding) / slack


def exact_solution(sc, theta) -> list:
    """x* of the float system A x = c 1, by Gauss-Jordan elimination on Fractions."""
    n = sc.n
    phi = [Fraction(v) for v in np.asarray(sc.dist.virtual_value(theta), dtype=float)]
    g = [[Fraction(v) for v in row] for row in sc.network.weights]
    p = sc.params
    tb, c = Fraction(p.t + p.b), Fraction(p.s + p.a - p.p)
    rows = [
        [(tb if i == j else 0) - phi[i] * g[i][j] - g[j][i] * phi[j] for j in range(n)] + [c]
        for i in range(n)
    ]
    for k in range(n):
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(n):
            if i != k:
                rows[i] = [v - rows[i][k] * w for v, w in zip(rows[i], rows[k])]
    return [row[n] for row in rows]


def boundary_scenario(sc, delta: float) -> Scenario:
    """Rescale the weights so that the min row slack is delta * (t+b), at the worst row."""
    g = sc.network.weights
    tb = sc.params.t + sc.params.b
    coupling = float((g.sum(axis=1) + g.sum(axis=0)).max())
    return Scenario(Network(g * ((1 - delta) * tb / (sc.dist.upper * coupling))), sc.params, sc.dist)


class TestDemandSolve:
    def test_zero_network_closed_form(self, zero5):
        x = demand_solve(zero5, np.full(5, 0.55))
        assert np.allclose(x, 1.4 / 7.0, atol=1e-14)

    def test_complete5_symmetric_closed_form(self, complete5):
        x = demand_solve(complete5, np.full(5, 0.6))
        # phi = 0.4, so each row reads (7 - 2*0.4*4) x = 1.4
        assert np.allclose(x, 1.4 / 3.8, atol=1e-12)

    def test_hub3_hand_elimination(self, case_params, uniform_dist):
        sc = Scenario(hub_network(3), case_params, uniform_dist)
        x = demand_solve(sc, np.full(3, 0.6))
        # eliminate the two identical leaves by hand: 7 x0 - 1.6 y = 1.4,
        # 7 y - 0.8 x0 = 1.4  =>  (49 - 1.28) x0 = 9.8 + 2.24
        x0 = 12.04 / 47.72
        y = (1.4 + 0.8 * x0) / 7.0
        assert np.allclose(x, [x0, y, y], atol=1e-12)
        assert np.allclose(x, [0.25231, 0.22884, 0.22884], atol=1e-5)

    def test_invalid_scenario_refused(self, case_params):
        sc = Scenario(complete_network(5), case_params, Uniform(1.0, 2.0))
        with pytest.raises(InvalidScenarioError):
            demand_solve(sc, np.full(5, 1.5))

    def test_profile_outside_support_refused(self, complete5):
        with pytest.raises(Exception, match="support"):
            demand_solve(complete5, np.full(5, 0.9))

    def test_positive_on_random_scenarios(self, scenario_factory):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            sc = scenario_factory(rng, n=int(rng.integers(2, 13)))
            theta = sc.dist.sample(sc.n, seed=int(rng.integers(1 << 31)))
            assert np.all(demand_solve(sc, theta) > 0)

    def test_batched_solve_agrees(self, scenario_factory):
        rng = np.random.default_rng(5)
        for _ in range(300):
            sc = scenario_factory(rng)
            theta = sc.dist.sample(sc.n, seed=int(rng.integers(1 << 31)))
            phi = np.asarray(sc.dist.virtual_value(theta), dtype=float)
            x_lu = solve_profiles(sc, phi[None])[0]
            sol = demand_solution(sc, theta)
            gap = np.max(np.abs(sol.x - x_lu))
            assert gap <= 1e-13 * np.max(np.abs(x_lu))
            assert gap <= sol.error_bound + varah_bound(sc, theta, x_lu)

    def test_error_bound_holds_in_exact_arithmetic(self, scenario_factory):
        rng = np.random.default_rng(11)
        for k in range(100):
            sc = scenario_factory(rng, n=2 + k % 4)
            theta = sc.dist.sample(sc.n, seed=int(rng.integers(1 << 31)))
            sol = demand_solution(sc, theta)
            error = max(abs(Fraction(v) - w) for v, w in zip(sol.x, exact_solution(sc, theta)))
            assert error <= Fraction(sol.error_bound)

    def test_permutation_equivariance(self, hub5):
        rng = np.random.default_rng(3)
        theta = rng.uniform(0.4, 0.8, 5)
        perm = rng.permutation(5)
        sc_perm = Scenario(Network(hub5.network.weights[np.ix_(perm, perm)]), hub5.params, hub5.dist)
        x = demand_solve(hub5, theta)
        x_perm = demand_solve(sc_perm, theta[perm])
        assert np.allclose(x_perm, x[perm], atol=1e-13)

    def test_matches_explicit_inverse(self, scenario_factory):
        rng = np.random.default_rng(7)
        for n in (5, 20, 50):
            sc = scenario_factory(rng, n=n)
            theta = sc.dist.sample(n, seed=n)
            a = system_matrix(sc, theta)
            rhs = np.full(n, sc.params.s + sc.params.a - sc.params.p)
            assert np.allclose(demand_solve(sc, theta), np.linalg.inv(a) @ rhs, atol=1e-9)

    def test_symmetric_complete_scalar_formula(self, case_params):
        for n in (2, 5, 10):
            g = 0.5 * 7.0 / (0.8 * 2 * (n - 1))  # keep the dominance bound with margin 2
            sc = Scenario(Network(g * (np.ones((n, n)) - np.eye(n))), case_params, UNIFORM)
            for theta in (0.45, 0.6, 0.8):
                phi = 2 * theta - 0.8
                expected = 1.4 / (7.0 - 2 * phi * (n - 1) * g)
                x = demand_solve(sc, np.full(n, theta))
                assert np.allclose(x, expected, atol=1e-12)

    def test_entrywise_type_monotonicity(self, scenario_factory):
        rng = np.random.default_rng(21)
        h = 1e-6
        for _ in range(25):
            sc = scenario_factory(rng, n=int(rng.integers(2, 7)))
            lo, hi = sc.dist.lower, sc.dist.upper
            theta = np.clip(sc.dist.sample(sc.n, seed=int(rng.integers(1 << 31))), lo + 2 * h, hi - 2 * h)
            for i in range(sc.n):
                up, down = theta.copy(), theta.copy()
                up[i] += h
                down[i] -= h
                diff = (demand_solve(sc, up) - demand_solve(sc, down)) / (2 * h)
                assert np.min(diff) >= -1e-8


class TestFeasibilityBoundary:
    """Weights rescaled so that the min row slack is delta (t+b), delta down to 1e-8.

    The random couplings of ``random_valid_scenario`` differ across rows once
    n >= 3, so lambda_min(A) stays well above the min row slack and x stays
    moderate even at theta = theta_bar. A regular coupling has x* = c / (delta
    (t+b)) there instead, beyond what a double-precision residual can certify.
    """

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 20), log_delta=st.floats(-8.0, -1.0))
    def test_solve_near_the_edge(self, seed, n, log_delta):
        base = random_valid_scenario(np.random.default_rng(seed), n=n)
        sc = boundary_scenario(base, 10.0**log_delta)
        assert sc.valid
        for theta in (np.full(n, sc.dist.upper), sc.dist.sample(n, seed=seed)):
            sol = demand_solution(sc, theta)
            assert np.all(sol.x > 0)
            assert foc_residual(sc, theta, sol.x) <= 1e-9
            x_lu = solve_profiles(sc, np.asarray(sc.dist.virtual_value(theta), dtype=float)[None])[0]
            assert np.max(np.abs(sol.x - x_lu)) <= sol.error_bound + varah_bound(sc, theta, x_lu)
        beyond = boundary_scenario(base, -(10.0**log_delta))
        g = beyond.network.weights
        worst = int(np.argmax(g.sum(axis=1) + g.sum(axis=0)))
        with pytest.raises(InvalidScenarioError, match=rf"user {worst}: t\+b > theta_bar"):
            demand_solve(beyond, np.full(n, beyond.dist.upper))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 20), log_delta=st.floats(-8.0, -1.0))
    def test_row_slack_of_a_at_least_min_row_slack(self, seed, n, log_delta):
        # 0 <= phi <= theta_bar: the oracle's objective is strictly concave on the whole support
        base = random_valid_scenario(np.random.default_rng(seed), n=n)
        for sc in (base, boundary_scenario(base, 10.0**log_delta)):
            floor = np.min(sc.assumption2.row_slack) - 8 * np.finfo(float).eps * (sc.params.t + sc.params.b)
            for theta in (np.full(n, sc.dist.lower), np.full(n, sc.dist.upper), sc.dist.sample(n, seed=seed)):
                a = np.abs(system_matrix(sc, theta))
                assert np.min(2 * np.diag(a) - a.sum(axis=1)) >= floor

    def test_regular_coupling_at_theta_bar_is_certified(self, case_params, uniform_dist):
        # A(theta_bar) 1 = delta (t+b) 1, so x* = 1.4 / (7e-8) = 2e7 and any evaluated
        # residual is about eps ||A|| ||x*|| ~ 1e-8: far above 1e-10 c, which the direct
        # solve misses too, but a backward error of ~1e-17, within 1e-10 (||A|| ||x|| + c)
        sc = boundary_scenario(Scenario(complete_network(4), case_params, uniform_dist), 1e-8)
        theta = np.full(4, 0.8)
        sol = demand_solution(sc, theta)
        x_lu = solve_profiles(sc, np.asarray(sc.dist.virtual_value(theta), dtype=float)[None])[0]
        assert np.allclose(x_lu, 2e7, rtol=1e-6)
        assert foc_residual(sc, theta, x_lu) > 1e-10 * 1.4
        assert foc_residual(sc, theta, sol.x) <= 1e-10 * (14.0 * np.max(sol.x) + 1.4)
        # the Varah bound stays the certified error: a few units on 2e7
        assert sol.error_bound < 1e-6 * np.max(sol.x)
        assert np.max(np.abs(sol.x - x_lu)) <= sol.error_bound + varah_bound(sc, theta, x_lu)


class TestDemandSolveGuards:
    @pytest.mark.parametrize("value", [-0.1, 0.9])
    def test_virtual_value_outside_zero_theta_bar(self, complete5, monkeypatch, value):
        virtual_value = Uniform.virtual_value

        def tampered(dist, theta):
            phi = np.array(virtual_value(dist, theta), dtype=float)
            phi[3] = value
            return phi

        monkeypatch.setattr(Uniform, "virtual_value", tampered)
        with pytest.raises(SolverError) as err:
            demand_solve(complete5, np.full(5, 0.6))
        assert str(err.value).startswith(
            f"user 3: virtual value phi_3 = {value:g} leaves [0, theta_bar = 0.8]"
        )

    # _solve checks the residual of the CG result; positivity is checked on _solve's result
    @pytest.mark.parametrize("seam,user,quantity,tamper", [
        ("_cg", 2, "residual |r_2| = ", lambda x: x + 1e-3 * np.eye(5)[2]),
        ("_solve", 1, "demand x_1 = -", lambda x: x * np.where(np.arange(5) == 1, -1.0, 1.0)),
    ])
    def test_cg_result_checked(self, complete5, monkeypatch, seam, user, quantity, tamper):
        solve = getattr(mechanism, seam)

        def tampered(*args):
            x, *rest = solve(*args)
            return (tamper(x), *rest)

        monkeypatch.setattr(mechanism, seam, tampered)
        with pytest.raises(SolverError) as err:
            demand_solve(complete5, np.array([0.5, 0.6, 0.7, 0.8, 0.45]))
        assert str(err.value).startswith(f"user {user}: {quantity}")

    def test_condition_bound_refused_before_iterating(self, complete5):
        sc = boundary_scenario(complete5, 1e-13)
        assert sc.valid
        with pytest.raises(SolverError, match=r"a-priori bound cond <= .* exceeds 1e\+12"):
            demand_solve(sc, np.full(5, 0.6))

    def test_iteration_cap(self, hub5):
        a = system_matrix(hub5, np.array([0.5, 0.6, 0.7, 0.8, 0.45]))
        rhs = np.full(5, 1.4)

        def cg(floor, cap):
            work = tuple(np.empty(5) for _ in range(3))
            return mechanism._cg(lambda v: a @ v, rhs, rhs / 7.0, floor, cap,
                                 lambda system, entry: f"user {entry}", work)

        with pytest.raises(SolverError, match=r"^user \d: CG residual .* after 1 iterations"):
            cg(lambda x: 0.0, 1)
        x, iterations = cg(lambda x: 1e-13, 50)
        assert iterations <= 5
        assert np.allclose(x, np.linalg.solve(a, rhs), rtol=0, atol=1e-13)


class TestFocResidual:
    def test_solution_residual_small(self, scenario_factory):
        rng = np.random.default_rng(17)
        for _ in range(20):
            sc = scenario_factory(rng)
            theta = sc.dist.sample(sc.n, seed=int(rng.integers(1 << 31)))
            assert foc_residual(sc, theta, demand_solve(sc, theta)) <= 1e-9

    def test_perturbation_detected(self, complete5):
        theta = np.full(5, 0.6)
        x = demand_solve(complete5, theta)
        x[2] += 0.01
        residual = foc_residual(complete5, theta, x)
        # the perturbed row moves by exactly (t+b) * 0.01; coupling rows move less
        assert residual == pytest.approx(7.0 * 0.01, rel=1e-12)
        assert residual > 0

    def test_zero_network_exact(self, zero5):
        assert foc_residual(zero5, np.full(5, 0.7), np.full(5, 0.2)) < 1e-15


class TestPanelProduct:
    """Past 2**16 floats of a symmetric G, ``Network.operator`` forms G v and G (phi o v) by one
    GEMM per row panel; an asymmetric G, or a small one, keeps the two GEMMs."""

    @staticmethod
    def system(shape, seed=1):
        rng = np.random.default_rng(seed)
        phi = np.asarray(UNIFORM.virtual_value(UNIFORM.quantile(rng.random(shape))), dtype=float)
        return phi, rng.random(shape)

    @staticmethod
    def product(sc, phi, stacks):
        """The operator's product, whose buffer with one spare stack holds ``stacks`` stacks:
        four on the two-GEMM path, six on the panel path. The scratch stack it hands out
        is the one after the product's output, filled with NaN here: no product reads it."""
        apply, (spare, scratch) = sc.network.operator(phi, sc.params.t + sc.params.b, spare=1)
        assert spare.base.size == stacks * phi.size and scratch.base is spare.base
        assert scratch.shape == phi.shape and scratch.ctypes.data == spare.ctypes.data + 2 * phi.nbytes
        scratch.fill(np.nan)
        return apply

    @staticmethod
    def dense(sc, phi, v):
        """A(phi) v from the assembled matrices, one system per column."""
        n = sc.n
        matrices = mechanism._assemble(sc, phi.reshape(n, -1).T)
        return np.stack([a @ col for a, col in zip(matrices, v.reshape(n, -1).T)], axis=1).reshape(v.shape)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["panel", "two-gemm"])
    @pytest.mark.parametrize("shape", [(300,), (300, 4)], ids=["vector", "stack"])
    def test_solve_matches_lu(self, symmetric, shape):
        sc = large_scenario(symmetric)
        assert sc.network.symmetric is symmetric and sc.network.weights.size > market._CHUNK_FLOATS
        phi, rhs = self.system(shape)
        x, iterations, _, _ = mechanism._solve(sc, phi, rhs, "test system")
        assert x.shape == shape and iterations > 3
        # one system per column of the stack
        phis, rhss = phi.reshape(300, -1).T, rhs.reshape(300, -1).T
        want = np.linalg.solve(mechanism._assemble(sc, phis), rhss[..., None])[..., 0].T.reshape(shape)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("symmetric, stacks", [(True, 8), (False, 6)], ids=["panel", "two-gemm"])
    @pytest.mark.parametrize("shape", [(300,), (300, 4)], ids=["vector", "stack"])
    def test_solve_takes_one_allocation(self, symmetric, stacks, shape):
        """X, CG's r and d and the product's output and scratch, which also serves as CG's
        temporary, are carved from one buffer."""
        phi, rhs = self.system(shape)
        x = mechanism._solve(large_scenario(symmetric), phi, rhs, "test system")[0]
        assert x.base.size == stacks * x.size

    @pytest.mark.parametrize("shape", [(300,), (300, 4)], ids=["vector", "stack"])
    def test_panel_product_equals_two_gemms(self, monkeypatch, shape):
        sc = large_scenario(True)
        phi, _ = self.system(shape)
        v = np.random.default_rng(2).standard_normal(shape)
        got = self.product(sc, phi, 6)(v).copy()
        monkeypatch.setattr(market, "_CHUNK_FLOATS", sc.network.weights.size)  # the two-GEMM path
        want = self.product(sc, phi, 4)(v)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        dense = self.dense(sc, phi, v)
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))

    @pytest.mark.parametrize("n, stacks", [(256, 4), (257, 6)], ids=["two-gemm", "panel"])
    def test_product_at_the_panel_boundary(self, n, stacks):
        """G of 256**2 = 2**16 floats keeps the two GEMMs; one more user takes the panels."""
        sc = large_scenario(True, n)
        phi, _ = self.system((n, 3))
        v = np.random.default_rng(3).standard_normal((n, 3))
        got = self.product(sc, phi, stacks)(v)
        dense = self.dense(sc, phi, v)
        assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))

    def test_panel_iterations_allocate_nothing_of_the_stack_size(self):
        sc = large_scenario(True)
        phi, rhs = self.system((300, 200))
        (x, iterations, _, _), peak = traced_peak(lambda: mechanism._solve(sc, phi, rhs, "test system"))
        assert iterations > 3
        # the panel path's one workspace of eight stack-sized arrays; one more in any
        # iteration would add phi.nbytes
        assert peak < 8 * rhs.nbytes + phi.nbytes / 3


class TestKSensitivity:
    def test_zero_network_gives_zero(self, zero5):
        assert np.array_equal(k_sensitivity(zero5, np.full(5, 0.6), 1), np.zeros((5, 5)))

    def test_two_user_finite_difference_oracle(self, case_params, uniform_dist):
        sc = Scenario(complete_network(2), case_params, uniform_dist)
        theta = np.array([0.55, 0.7])
        analytic = k_sensitivity(sc, theta, 0)
        h = 1e-5
        bump = np.array([h, 0.0])
        fd = (k_matrix(sc, theta + bump) - k_matrix(sc, theta - bump)) / (2 * h)
        scale = max(np.max(np.abs(analytic)), np.max(np.abs(fd)))
        assert np.max(np.abs(analytic - fd)) <= 1e-6 * scale

    def test_nonnegative_entries_random(self, scenario_factory):
        rng = np.random.default_rng(29)
        for _ in range(50):
            sc = scenario_factory(rng, n=int(rng.integers(2, 9)))
            theta = sc.dist.sample(sc.n, seed=int(rng.integers(1 << 31)))
            i = int(rng.integers(sc.n))
            assert k_sensitivity(sc, theta, i).min() >= -1e-12


class TestInterimCurves:
    def test_zero_network_constants(self, zero5):
        curves = interim_curves(zero5, 17, QuadratureEngine(order=8))
        assert np.allclose(curves.gamma, 0.0, atol=1e-15)
        assert np.allclose(curves.v, (0.5 - 0.1) * 0.2 - 3.0 * 0.04, atol=1e-12)
        assert np.allclose(curves.c, 0.2 - 0.02, atol=1e-12)

    def test_quadrature_vs_monte_carlo(self, case_params, uniform_dist):
        sc = Scenario(complete_network(2), case_params, uniform_dist)
        quad = interim_curves(sc, 17, QuadratureEngine(order=32))
        mc = interim_curves(sc, 17, MonteCarloEngine(samples=100_000, seed=4))
        assert np.all(np.abs(quad.gamma - mc.gamma) <= 3.0 * mc.gamma_se)

    def test_gamma_strictly_increasing_complete5(self, complete5):
        curves = interim_curves(complete5, 33, QuadratureEngine(order=8))
        assert np.all(np.diff(curves.gamma, axis=1) > 0)

    def test_grid_size_minimum(self, complete5):
        with pytest.raises(ValueError, match="grid_size"):
            interim_curves(complete5, 8, QuadratureEngine())

    @pytest.mark.parametrize("users", [[5], [-1], [0, 7]])
    def test_user_out_of_range(self, complete5, users):
        with pytest.raises(IndexError, match="user index out of range"):
            interim_curves(complete5, 9, QuadratureEngine(order=2), users=users)

    def test_quadrature_size_limit(self, case_params, uniform_dist):
        # the complete graph's rule is C(8 + 7, 8) = 6435 multisets of the 8 others
        complete = Scenario(Network(0.05 * (np.ones((9, 9)) - np.eye(9))), case_params, uniform_dist)
        assert np.all(np.isfinite(interim_curves(complete, 9, QuadratureEngine(order=8)).gamma))
        # the path has no twins, so its rule is the 8**8 tensor
        path = Scenario(path_network(9), case_params, uniform_dist)
        with pytest.raises(EngineError, match=r"order 8 at n=9 holds 16777280 weights and multiset "
                                              r"entries, over the budget of 16777216.*Monte"):
            interim_curves(path, 9, QuadratureEngine(order=8))

    def test_zero_budget_engines(self):
        with pytest.raises(EngineError):
            QuadratureEngine(order=0)
        # leggauss eigen-solves an order x order matrix, so 4096**2 = 2**24 floats is the largest
        assert QuadratureEngine(order=4096).order == 4096
        with pytest.raises(EngineError, match="order 4097 needs order >= 1 and an order x order "
                                              "eigenproblem of 16785409 floats within the budget of 16777216"):
            QuadratureEngine(order=4097)
        with pytest.raises(EngineError):
            MonteCarloEngine(samples=0)

    def test_make_engine(self):
        quad = make_engine("quadrature", 5, 100, 7)
        assert isinstance(quad, QuadratureEngine) and quad.order == 5
        mc = make_engine("mc", 5, 100, 7)
        assert isinstance(mc, MonteCarloEngine) and (mc.samples, mc.seed) == (100, 7)
        with pytest.raises(EngineError, match="unknown engine 'lu'"):
            make_engine("lu", 5, 100, 7)

    def test_threading_is_bit_identical(self, complete5):
        eng = QuadratureEngine(order=8)
        one = interim_curves(complete5, 33, eng, threads=1)
        four = interim_curves(complete5, 33, eng, threads=4)
        assert np.array_equal(one.gamma, four.gamma)
        assert np.array_equal(one.v, four.v)
        assert np.array_equal(one.c, four.c)

    def test_user_subset(self, complete5):
        curves = interim_curves(complete5, 17, QuadratureEngine(order=4), users=[2])
        assert curves.users == (2,)
        assert np.all(np.isfinite(curves.gamma[2]))
        assert np.all(np.isnan(curves.gamma[0]))


class TestStatelessEngines:
    ENGINES = [QuadratureEngine(order=5), MonteCarloEngine(samples=300, seed=4)]

    @pytest.mark.parametrize("engine", ENGINES, ids=["quadrature", "mc"])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_repeated_calls_are_equal(self, engine, n):
        first = whole_samples(engine, UNIFORM, n, n - 1)
        second = whole_samples(engine, UNIFORM, n, n - 1)
        assert first[0].shape == (first[1].size, n - 1)
        assert first[1].sum() == pytest.approx(1.0)
        assert np.array_equal(first[0], second[0]) and np.array_equal(first[1], second[1])

    def test_mc_users_share_their_common_columns(self):
        engine = MonteCarloEngine(samples=200, seed=9)
        n, i, j = 6, 1, 4
        values_i, _ = whole_samples(engine, UNIFORM, n, i)
        values_j, _ = whole_samples(engine, UNIFORM, n, j)
        common = [k for k in range(n) if k not in (i, j)]
        cols_i = [k for k in range(n) if k != i]
        cols_j = [k for k in range(n) if k != j]
        assert np.array_equal(values_i[:, [cols_i.index(k) for k in common]],
                              values_j[:, [cols_j.index(k) for k in common]])

    def test_mc_engine_reused_across_sizes(self):
        # fig6 runs one engine over several n; each size gets a fresh engine's curves
        reused = MonteCarloEngine(samples=300, seed=5)
        for n in (8, 16, 8):
            net, _ = scaled_random_half_network(n, n, CASE_PARAMS, UNIFORM.upper)
            sc = Scenario(net, CASE_PARAMS, UNIFORM)
            got = interim_curves(sc, 9, reused, users=[0])
            want = interim_curves(sc, 9, MonteCarloEngine(samples=300, seed=5), users=[0])
            for field in ("gamma", "v", "c", "gamma_se"):
                assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)

    @pytest.mark.parametrize("engine,field", [(ENGINES[0], "order"), (ENGINES[1], "seed")])
    def test_fields_are_frozen(self, engine, field):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(engine, field, 7)

    def test_quadrature_node_budget(self):
        # a twin-free rule at n = 5 holds order**4 weights and 4 x order table entries: order 63
        # is the largest within 2**24, counted without building any row
        assert QuadratureEngine(order=63).sample_count(5, 0, alone(5)) == 63**4
        with pytest.raises(EngineError, match="order 64 at n=5 holds 16777472 weights and multiset entries"):
            QuadratureEngine(order=64).sample_count(5, 0, alone(5))
        values, weights = whole_samples(QuadratureEngine(order=33), UNIFORM, 5, 0)
        assert values.shape == (33**4, 4) and weights.shape == (33**4,)

    def test_mc_float_budget(self, monkeypatch):
        """The draws are made a slice of rows at a time, so no sample count is refused by the
        floats a whole draw would hold, and its last row is drawn alone."""
        rows = MonteCarloEngine(samples=2**22 + 1).others_rows(UNIFORM, 4, 0, alone(4))
        assert rows.shape == (2**22 + 1, 3)
        assert rows.types(slice(2**22, 2**22 + 1)).shape == (1, 3)
        monkeypatch.setattr(mechanism, "MAX_ARRAY_FLOATS", 12)
        engine = MonteCarloEngine(samples=13)
        assert engine.sample_count(1, 0, alone(1)) == 13
        assert whole_samples(engine, UNIFORM, 3, 0)[0].shape == (13, 2)


class TestQuadratureBudget:
    """A rule is refused by its own size over the twin classes, never by the user count."""

    # twin-free (n, order) pairs on both sides of a budget of 1024**2 + 2 x 1024 entries, the
    # weights and multiset tables of the n = 3 rule of order 1024
    @pytest.mark.parametrize("n,order", [(3, 1024), (3, 1025), (5, 32), (5, 33), (7, 10), (7, 11)])
    def test_twin_free_boundary(self, monkeypatch, n, order):
        # built at the default budget: order 1025's eigenproblem would pass the patched one
        engine = QuadratureEngine(order=order)
        monkeypatch.setattr(mechanism, "MAX_ARRAY_FLOATS", 1024**2 + 2 * 1024)
        count = order ** (n - 1)
        entries = count + (n - 1) * order
        if entries <= 1024**2 + 2 * 1024:
            rows, peak = traced_peak(lambda: engine.others_rows(UNIFORM, n, 0, alone(n)))
            assert rows.shape == (count, n - 1)
            assert peak <= 2.5 * 8 * entries, peak / (8 * entries)
        else:
            with pytest.raises(EngineError, match=(
                    rf"order {order} at n={n} holds {entries} weights and multiset entries, "
                    rf"over the budget of 1050624")):
                engine.others_rows(UNIFORM, n, 0, alone(n))

    def test_one_class_rule_peak(self):
        """The 11 others of a complete graph of 12 are one class: the rule holds C(18, 11)
        weights and an (C(18, 11), 11) multiset table, and builds no more than 2.5 times that."""
        count = math.comb(8 + 10, 11)
        classes = twin_classes(complete_network(12))
        rows, peak = traced_peak(lambda: QuadratureEngine(order=8).others_rows(UNIFORM, 12, 0, classes))
        assert rows.shape == (count, 11)
        assert peak <= 2.5 * 8 * 12 * count, peak / (8 * 12 * count)

    @pytest.mark.parametrize("n", [9, 12])
    def test_complete_graph_agrees_with_monte_carlo(self, n):
        sc = Scenario(Network(0.05 * (np.ones((n, n)) - np.eye(n))), CASE_PARAMS, UNIFORM)
        quad = interim_curves(sc, 17, QuadratureEngine(order=8))
        # every user is the twin of every other: one computed curve, copied
        assert np.all(quad.gamma == quad.gamma[0])
        mc = interim_curves(sc, 17, MonteCarloEngine(samples=100_000, seed=4), users=[0])
        assert np.all(np.abs(quad.gamma[0] - mc.gamma[0]) <= 3.0 * mc.gamma_se[0])

    # the C(order + n - 2, n - 1) multisets of user 0's n - 1 twins are counted, never built;
    # at n = 27 the 906192 weights fit the budget and the 26 x 906192 table entries pass it
    @pytest.mark.parametrize("n,order", [(200, 8), (27, 7)])
    def test_refused_before_any_multiset(self, n, order):
        classes = twin_classes(complete_network(n))
        count = math.comb(order + n - 2, n - 1)

        def refused():
            with pytest.raises(EngineError, match=rf"holds {count * n} weights and multiset entries"):
                QuadratureEngine(order=order).others_rows(UNIFORM, n, 0, classes)

        peak = traced_peak(refused)[1]
        assert peak < 2**20

    def test_refused_before_the_twin_classes(self, monkeypatch, case_params, uniform_dist):
        # C(8 + 32, 33) = 18643560 rows if the 33 others were one class of twins
        sc = Scenario(path_network(34), case_params, uniform_dist)

        def no_classes(network):
            raise AssertionError("twin classes computed before the budget check")

        monkeypatch.setattr(market, "twin_classes", no_classes)
        monkeypatch.setattr(mechanism, "twin_classes", no_classes)
        with pytest.raises(EngineError, match=r"holds at least 18643560 weights and multiset entries"):
            interim_curves(sc, 9, QuadratureEngine(order=8))


class TestSampleRows:
    """A sample set made in row chunks is the whole set, bit for bit, for every user."""

    DISTS = [UNIFORM, TruncatedNormal(0.4, 0.8, mu=0.3, sigma=0.3)]

    @staticmethod
    def assert_chunks_are_whole(rows, values, weights, chunk):
        slices = list(mechanism._chunk_slices(rows.shape[0], chunk))
        assert rows.shape == values.shape
        assert np.array_equal(np.concatenate([rows.types(sl) for sl in slices]), values)
        assert np.array_equal(np.concatenate([rows[sl] for sl in slices]),
                              np.asarray(rows.dist.virtual_value(values), dtype=float))
        assert np.array_equal(rows.weights, weights)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
    def test_mc_rows_are_one_draw(self, dist):
        engine = MonteCarloEngine(samples=1000, seed=11)
        n = 6
        uniforms = np.random.default_rng(11).random((1000, n))
        for i in range(n):
            values, weights = whole_samples(engine, dist, n, i)
            assert np.array_equal(values, dist.quantile(np.delete(uniforms, i, axis=1)))
            assert np.array_equal(weights, np.full(1000, 1.0 / 1000))
            for chunk in (1, 77, 1000):
                self.assert_chunks_are_whole(engine.others_rows(dist, n, i, alone(n)), values, weights, chunk)

    @pytest.mark.parametrize("dist", DISTS, ids=lambda d: type(d).__name__)
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_quadrature_rows_are_the_tensor_rule(self, dist, n):
        order = 5
        tensor, tensor_weights = tensor_rule(dist, n, order)
        engine = QuadratureEngine(order=order)
        for i in range(n):
            values, weights = whole_samples(engine, dist, n, i)
            assert np.array_equal(values, tensor)
            assert np.array_equal(weights, tensor_weights)
            for chunk in (1, 7, order ** (n - 1)):
                self.assert_chunks_are_whole(engine.others_rows(dist, n, i, alone(n)), values, weights, chunk)


class TestRewardSchedule:
    def test_zero_network_constant_reward(self, zero5):
        curves = interim_curves(zero5, 17, QuadratureEngine(order=8))
        schedule = reward_schedule(curves)
        assert np.allclose(schedule.rewards, 0.04, atol=1e-12)

    def test_lower_endpoint_formula(self, complete5):
        curves = interim_curves(complete5, 17, QuadratureEngine(order=8))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRewardWarning)
            schedule = reward_schedule(curves)
        lo = curves.grid[0]
        expected = -lo * curves.gamma[:, 0] - curves.v[:, 0]
        assert np.allclose(schedule.rewards[:, 0], expected, atol=1e-15)

    def test_negative_rewards_warn_not_clip(self, complete5):
        curves = interim_curves(complete5, 17, QuadratureEngine(order=8))
        with pytest.warns(NegativeRewardWarning, match="user"):
            schedule = reward_schedule(curves)
        assert schedule.rewards.min() < 0  # kept as-is

    def test_truthful_utility_grid_refinement(self, complete5):
        eng = QuadratureEngine(order=8)
        coarse = interim_curves(complete5, 64, eng, users=[0])
        fine = interim_curves(complete5, 631, eng, users=[0])  # 10x finer, shared nodes
        t_coarse = truthful_interim_utility(coarse)[0]
        t_fine = truthful_interim_utility(fine)[0][::10]
        assert np.all(np.diff(t_coarse) >= 0)
        assert np.max(np.abs(t_coarse - t_fine)) < 1e-4

    def test_unsorted_grid_rejected(self, zero5):
        curves = interim_curves(zero5, 17, QuadratureEngine(order=4))
        broken = type(curves)(
            grid=curves.grid[::-1].copy(),
            gamma=curves.gamma,
            v=curves.v,
            c=curves.c,
            users=curves.users,
        )
        with pytest.raises(ValueError, match="ascending"):
            reward_schedule(broken)


class TestCpExpectedUtility:
    def test_single_user_zero_network(self, case_params, uniform_dist):
        sc = Scenario(zero_network(1), case_params, uniform_dist)
        curves = interim_curves(sc, 17, QuadratureEngine(order=8))
        schedule = reward_schedule(curves)
        assert cp_expected_utility(sc, curves, schedule) == pytest.approx(0.14, abs=1e-10)

    def test_dual_formula_crosscheck(self, case_params, uniform_dist):
        sc = Scenario(complete_network(2), case_params, uniform_dist)
        curves = interim_curves(sc, 401, QuadratureEngine(order=12))
        schedule = reward_schedule(curves)
        direct = cp_expected_utility(sc, curves, schedule)
        virtual = cp_expected_utility_virtual(sc, curves)
        assert abs(direct - virtual) / abs(direct) <= 1e-6

    def test_positive_and_stable_under_refinement(self, complete5):
        eng = QuadratureEngine(order=8)
        values = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRewardWarning)
            for grid in (64, 128):
                curves = interim_curves(complete5, grid, eng)
                values.append(cp_expected_utility(complete5, curves, reward_schedule(curves)))
        assert values[0] > 0
        assert abs(values[0] - values[1]) <= 1e-3


class TestBindingCondition:
    def test_truthful_utility_zero_at_lowest_type(self, complete5, hub5):
        for sc in (complete5, hub5):
            curves = interim_curves(sc, 17, QuadratureEngine(order=8))
            assert np.all(truthful_interim_utility(curves)[:, 0] == 0.0)


class TestCsvExport:
    def test_columns_and_precision(self, zero5, tmp_path):
        curves = interim_curves(zero5, 17, QuadratureEngine(order=4))
        schedule = reward_schedule(curves)
        path = tmp_path / "curves.csv"
        export_interim_csv(curves, schedule, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "user,theta,gamma,V,C,r"
        assert len(lines) == 1 + 5 * 17
        first = lines[1].split(",")
        assert float(first[5]) == pytest.approx(0.04, abs=1e-12)
