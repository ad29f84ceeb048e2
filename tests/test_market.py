import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmech import (
    Assumption2Report,
    InvalidScenarioError,
    MarketParams,
    Network,
    Scenario,
    SupportError,
    Uniform,
    cp_ex_post_utility,
    validate_assumption2,
)
from netmech import market
from netmech.config import network_from_config
from netmech.market import make_network, twin_classes
from conftest import CASE_PARAMS, UNIFORM, alone, complete_network, path_network, traced_peak, zero_network
import oracles
from oracles import user_utility


class TestUserUtility:
    def test_zero_network_ir_binding_case(self, zero5):
        # psi(0.2) = 0.1 - 0.12 = -0.02; reward 0.04 exactly offsets net cost
        x = np.full(5, 0.2)
        rewards = np.full(5, 0.04)
        theta = np.full(5, 0.6)
        assert user_utility(zero5, x, rewards, theta, 0) == pytest.approx(0.0, abs=1e-15)

    def test_null_allocation(self, complete5):
        zeros = np.zeros(5)
        assert user_utility(complete5, zeros, zeros, np.full(5, 0.6), 2) == 0.0

    def test_two_user_hand_arithmetic(self, case_params, uniform_dist):
        sc = Scenario(complete_network(2), case_params, uniform_dist)
        x = np.array([0.2258, 0.2258])
        theta = np.array([0.5, 0.6])
        # independent term-by-term recomputation with plain floats
        psi = 0.5 * 0.2258 - 0.5 * 6.0 * 0.2258**2
        network = 0.5 * 0.2258 * 0.2258
        expected = psi + network - 0.1 * 0.2258
        got = user_utility(sc, x, np.zeros(2), theta, 0)
        assert got == pytest.approx(expected, abs=1e-15)

    def test_index_out_of_range(self, complete5):
        with pytest.raises(IndexError):
            user_utility(complete5, np.zeros(5), np.zeros(5), np.full(5, 0.5), 5)

    def test_length_mismatch(self, complete5):
        with pytest.raises(ValueError):
            user_utility(complete5, np.zeros(4), np.zeros(5), np.full(5, 0.5), 0)


class TestCpExPostUtility:
    def test_null(self, complete5):
        assert cp_ex_post_utility(complete5, np.zeros(5), np.zeros(5)) == 0.0

    def test_single_user(self, case_params, uniform_dist):
        sc = Scenario(zero_network(1), case_params, uniform_dist)
        got = cp_ex_post_utility(sc, np.array([0.2]), np.array([0.04]))
        assert got == pytest.approx(0.2 - 0.02 - 0.04, abs=1e-15)

    def test_termwise_oracle_complete5(self, complete5):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.05, 0.5, 5)
        rewards = rng.uniform(-0.02, 0.1, 5)
        expected = sum(1.0 * xi - 0.5 * 1.0 * xi**2 - ri for xi, ri in zip(x, rewards))
        assert cp_ex_post_utility(complete5, x, rewards) == pytest.approx(expected, abs=1e-14)

    def test_length_mismatch(self, complete5):
        with pytest.raises(ValueError):
            cp_ex_post_utility(complete5, np.zeros(5), np.zeros(4))


class TestAssumption2:
    def test_case_study_parameters_pass(self, complete5):
        report = complete5.assumption2
        assert report.passed
        # slack = 7 - 0.8*8
        assert np.min(report.row_slack) == pytest.approx(0.6)

    def test_wide_support_fails(self, case_params):
        sc = Scenario(complete_network(5), case_params, Uniform(1.0, 2.0))
        report = validate_assumption2(sc)
        assert not report.passed
        with pytest.raises(InvalidScenarioError, match="7 <= 16"):
            sc.require_valid()

    def test_price_slack_fails(self, uniform_dist):
        params = MarketParams(a=0.5, b=6.0, s=1.0, t=1.0, p=2.0)
        sc = Scenario(zero_network(3), params, uniform_dist)
        assert not sc.assumption2.passed
        with pytest.raises(InvalidScenarioError, match=r"s\+a > p fails"):
            sc.require_valid()

    def test_require_valid_raises(self, case_params):
        sc = Scenario(complete_network(5), case_params, Uniform(1.0, 2.0))
        with pytest.raises(Exception, match="t\\+b > theta_bar"):
            sc.require_valid()

    def test_nan_slack_fails_and_is_named(self, complete5):
        report = Assumption2Report(
            row_slack=np.array([0.6, np.nan]), price_slack=np.nan, theta_max=0.8, tb=7.0, price_sum=1.5
        )
        assert not report.passed
        object.__setattr__(complete5, "assumption2", report)
        assert not complete5.valid
        with pytest.raises(InvalidScenarioError) as refused:
            complete5.require_valid()
        message = str(refused.value)
        assert "user 1: t+b > theta_bar" in message
        assert "user 0" not in message
        assert "s+a > p fails" in message


class TestTypeValidation:
    def test_network_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Network(np.array([[0.0, -1.0], [1.0, 0.0]]))

    def test_network_rejects_self_loops(self):
        with pytest.raises(ValueError, match="g_ii"):
            Network(np.eye(2))

    def test_network_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            Network(np.zeros((2, 3)))

    def test_network_rejects_zero_users(self):
        with pytest.raises(ValueError, match="need at least one user"):
            Network(np.zeros((0, 0)))

    def test_network_freezes_its_own_copy(self):
        w = np.zeros((3, 3))
        net = Network(w)
        w[0, 1] = 1.0  # the caller's array stays writable, and the network does not follow it
        assert net.weights[0, 1] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            net.weights[0, 1] = 1.0

    @pytest.mark.parametrize("kind", ["complete", "star", "hub_plus_edge", "random_k"])
    def test_generated_networks_are_symmetric(self, kind):
        assert make_network(kind, 9, seed=4).symmetric
        assert market.scaled_random_half_network(9, 4, CASE_PARAMS, UNIFORM.upper)[0].symmetric

    def test_edges_config_is_symmetric(self):
        cfg = {"kind": "edges", "n": 4, "edges": [[0, 1], [2, 1, 0.25], [3, 0, 2.0]]}
        assert network_from_config(cfg).symmetric

    def test_symmetry_is_exact(self):
        w = np.array([[0.0, 0.3, 1.0], [0.3, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert Network(w).symmetric
        w[1, 0] = np.nextafter(0.3, 1.0)
        assert not Network(w).symmetric
        assert not Network(np.array([[0.0, 1.0], [0.0, 0.0]])).symmetric

    @pytest.mark.parametrize("n", [1, 2, 256, 300, 513])
    def test_symmetry_by_panels_is_the_whole_comparison(self, n):
        # past 256 users the row panels of _CHUNK_FLOATS // n rows are compared in turn
        # with their column panels: one asymmetric entry in any of them is seen
        w = np.random.default_rng(n).random((n, n))
        w += w.T
        np.fill_diagonal(w, 0.0)
        assert Network(w).symmetric
        for j, k in {(n - 1, 0), (0, n - 1), (n // 2, n - 1 - n // 3), (n - 1, n - 2)}:
            if j != k and k >= 0:
                bad = w.copy()
                bad[j, k] = np.nextafter(bad[j, k], 0.0)
                assert not Network(bad).symmetric, (j, k)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_network_rejects_non_finite(self, value):
        with pytest.raises(ValueError, match="must be finite"):
            Network(np.array([[0.0, value], [1.0, 0.0]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_params_reject_non_finite(self, value):
        with pytest.raises(ValueError, match="parameter p must be finite"):
            MarketParams(a=0.5, b=6.0, s=1.0, t=1.0, p=value)

    def test_params_reject_negative(self):
        with pytest.raises(ValueError):
            MarketParams(a=-0.1, b=6.0, s=1.0, t=1.0, p=0.1)

    def test_params_need_concavity(self):
        with pytest.raises(ValueError, match="concavity"):
            MarketParams(a=0.5, b=0.0, s=1.0, t=0.0, p=0.1)

    def test_profile_support_check(self, complete5):
        with pytest.raises(Exception, match="support"):
            complete5.check_profile(np.array([0.5, 0.5, 0.5, 0.5, 0.9]))

    def test_profile_nan_rejected(self, complete5):
        with pytest.raises(SupportError):
            complete5.check_profile(np.array([0.5, 0.5, np.nan, 0.5, 0.5]))

    @pytest.mark.parametrize("theta", [np.full(4, 0.5), np.full((5, 1), 0.5), 0.5],
                             ids=["short", "column", "scalar"])
    def test_profile_wrong_shape(self, complete5, theta):
        with pytest.raises(ValueError, match=r"type profile must have shape \(5,\), got"):
            complete5.check_profile(theta)

    @pytest.mark.parametrize("value", [0.39, 0.81, -np.inf])
    def test_profile_refused_by_the_laws_own_test(self, complete5, value):
        profile = np.array([0.5, 0.5, 0.5, value, 0.8])
        with pytest.raises(SupportError) as by_law:
            complete5.dist.virtual_value(profile)
        with pytest.raises(SupportError) as by_profile:
            complete5.check_profile(profile)
        assert str(by_profile.value) == str(by_law.value) == "type value outside support [0.4, 0.8]"
        assert np.array_equal(complete5.check_profile(np.array([0.4, 0.5, 0.6, 0.7, 0.8])),
                              [0.4, 0.5, 0.6, 0.7, 0.8])


class TestQuadraticStructure:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha=st.floats(0.1, 2.0))
    def test_third_difference_vanishes_along_rays(self, seed, alpha):
        # any quadratic q satisfies q(3x) = 3 q(2x) - 3 q(x) + q(0)
        rng = np.random.default_rng(seed)
        sc = Scenario(complete_network(4), CASE_PARAMS, UNIFORM)
        x = rng.uniform(0.01, 0.2, 4) * alpha
        theta = rng.uniform(0.4, 0.8, 4)
        rewards = rng.uniform(-0.1, 0.1, 4)
        for fn in (
            lambda z: user_utility(sc, z, rewards, theta, 1),
            lambda z: cp_ex_post_utility(sc, z, rewards),
        ):
            lhs = fn(3 * x)
            rhs = 3 * fn(2 * x) - 3 * fn(x) + fn(0 * x)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_permutation_equivariance(self, complete5, hub5):
        rng = np.random.default_rng(11)
        for sc in (complete5, hub5):
            x = rng.uniform(0.05, 0.4, 5)
            theta = rng.uniform(0.4, 0.8, 5)
            rewards = rng.uniform(-0.05, 0.1, 5)
            perm = rng.permutation(5)
            w_perm = sc.network.weights[np.ix_(perm, perm)]
            sc_perm = Scenario(Network(w_perm), sc.params, sc.dist)
            for i in range(5):
                assert user_utility(sc_perm, x[perm], rewards[perm], theta[perm], i) == pytest.approx(
                    user_utility(sc, x, rewards, theta, perm[i]), abs=1e-14
                )
            assert cp_ex_post_utility(sc_perm, x[perm], rewards[perm]) == pytest.approx(
                cp_ex_post_utility(sc, x, rewards), abs=1e-14
            )


class TestTwinClasses:
    def test_benchmark_graphs(self, hub5, complete5):
        assert twin_classes(hub5.network) == ((0,), (1, 4), (2, 3))
        assert twin_classes(complete5.network) == ((0, 1, 2, 3, 4),)
        assert twin_classes(make_network("star", 5)) == ((0,), (1, 2, 3, 4))
        assert twin_classes(zero_network(3)) == ((0, 1, 2),)
        assert twin_classes(path_network(5)) == alone(5)

    def test_direction_and_weight_break_twinship(self):
        w = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert twin_classes(Network(w)) == ((0, 1, 2),)
        w[0, 1] = 0.5  # g_01 != g_10: 0 and 1 are no longer twins, nor is 2 with either
        assert twin_classes(Network(w)) == ((0,), (1,), (2,))
        w[1, 0] = 0.5
        assert twin_classes(Network(w)) == ((0, 1), (2,))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), symmetric=st.booleans())
    def test_classes_are_the_swaps_that_leave_g_unchanged(self, data, n, symmetric):
        values = data.draw(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=n * n, max_size=n * n))
        w = np.array(values).reshape(n, n)
        if symmetric:
            w = np.triu(w) + np.triu(w).T
        np.fill_diagonal(w, 0.0)
        classes = twin_classes(Network(w))
        assert sorted(u for members in classes for u in members) == list(range(n))
        assert all(list(members) == sorted(members) for members in classes)
        assert [members[0] for members in classes] == sorted(members[0] for members in classes)
        label = {u: k for k, members in enumerate(classes) for u in members}
        for j in range(n):
            for k in range(j + 1, n):
                perm = np.arange(n)
                perm[[j, k]] = k, j
                assert np.array_equal(w[np.ix_(perm, perm)], w) == (label[j] == label[k]), (j, k)


class TestDenseBudget:
    def test_refused_before_allocation(self):
        # 30000**2 floats would be 6.7 GiB
        with pytest.raises(ValueError, match=r"n=30000 users holds 900000000 weights, "
                                             r"over the budget of 16777216 floats"):
            make_network("complete", 30000)

    def test_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(market, "MAX_ARRAY_FLOATS", 25)
        assert make_network("star", 5).n == 5
        with pytest.raises(ValueError, match="n=6 users holds 36 weights, over the budget of 25"):
            make_network("star", 6)

    def test_budget_admits_the_largest_size_in_use(self):
        # table2 and the solve-n800 benchmark build dense networks of 800 users
        market.check_dense_size(800)
        assert 4096**2 <= market.MAX_ARRAY_FLOATS


SIZES = [1, 2, 3, 4, 5, 64, 257]
SEEDS = [0, 3, 11]


def edge_list(n: int) -> list:
    """Edges of every form: unit and weighted, repeated with a new weight, and ones that meet."""
    return [(0, n - 1, 1.0), (n - 1, n // 2, 0.25), (n // 3, n - 1, 2.0), (0, n - 1, 0.5)] if n > 2 else [(0, 1, 3.0)]


def same_bits(network: Network, reference: np.ndarray) -> bool:
    """The reference's bits, and ``symmetric`` equal to the whole comparison of G with G^T."""
    w = network.weights
    return (w.dtype == np.float64 and w.flags.c_contiguous and w.tobytes() == reference.tobytes()
            and network.symmetric == np.array_equal(w, w.T))


def traced_build(build, n: int):
    """The network that ``build(n)`` makes and the tracemalloc peak of making it."""
    built, peak = traced_peak(lambda: build(n))
    network = built[0] if isinstance(built, tuple) else built
    assert network.n == n and network.symmetric == np.array_equal(network.weights, network.weights.T)
    return network, peak


class TestConstruction:
    """Every dense network is built in one n x n float array, with the reference's bits."""

    @pytest.mark.parametrize("n", SIZES)
    def test_generators_match_the_reference_bit_for_bit(self, n):
        for kind in ["complete", "star"] + ["hub_plus_edge"] * (n >= 4):
            assert same_bits(make_network(kind, n), oracles.network_weights(kind, n)), kind
        for seed in SEEDS:
            assert same_bits(make_network("random_k", n, seed), oracles.network_weights("random_k", n, seed))
            for edge_weight in (None, 0.013):
                net, weight = market.scaled_random_half_network(n, seed, CASE_PARAMS, UNIFORM.upper, edge_weight)
                want, want_weight = oracles.scaled_random_half_weights(n, seed, CASE_PARAMS, UNIFORM.upper,
                                                                       edge_weight)
                assert same_bits(net, want) and weight == want_weight, (seed, edge_weight)

    @pytest.mark.parametrize("n", SIZES)
    def test_config_networks_match_the_reference_bit_for_bit(self, n):
        for kind in ["complete", "star"] + ["hub_plus_edge"] * (n >= 4):
            for weight in (1, 0.37):
                got = network_from_config({"kind": kind, "n": n, "weight": weight})
                assert same_bits(got, oracles.network_weights(kind, n, weight=weight)), (kind, weight)
        for seed in SEEDS:
            got = network_from_config({"kind": "random_k", "n": n, "seed": seed, "weight": 0.21})
            assert same_bits(got, oracles.network_weights("random_k", n, seed, weight=0.21)), seed
        if n > 1:
            edges = edge_list(n)
            got = network_from_config({"kind": "edges", "n": n, "weight": 1.5, "edges": [list(e) for e in edges]})
            assert same_bits(got, oracles.network_weights("edges", n, edges=edges, weight=1.5))

    def test_reference_generators_share_no_code_with_market(self):
        tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
        references = {node.id if isinstance(node, ast.Name) else node.attr
                      for fn in tree.body if isinstance(fn, ast.FunctionDef)
                      and fn.name in ("network_weights", "scaled_random_half_weights")
                      for node in ast.walk(fn) if isinstance(node, (ast.Name, ast.Attribute))}
        source = ast.parse(Path(market.__file__).read_text())
        defined = {node.name for node in source.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        assert {"make_network", "scaled_random_half_network", "dominance_coupling"} <= defined
        assert not references & defined

    @pytest.mark.parametrize("build", [
        lambda n: make_network("complete", n),
        lambda n: make_network("star", n),
        lambda n: make_network("hub_plus_edge", n),
        lambda n: make_network("random_k", n, 3),
        lambda n: market.scaled_random_half_network(n, 3, CASE_PARAMS, UNIFORM.upper),
        lambda n: network_from_config({"kind": "complete", "n": n, "weight": 0.5}),
        lambda n: network_from_config({"kind": "random_k", "n": n, "seed": 3, "weight": 0.5}),
        lambda n: network_from_config({"kind": "edges", "n": n, "weight": 0.5, "edges": [[0, 1], [2, 1, 0.25]]}),
    ], ids=["complete", "star", "hub_plus_edge", "random_k", "scaled", "config-complete", "config-random_k",
            "config-edges"])
    def test_one_n_by_n_float_array_at_its_peak(self, build):
        # the float array, at most n^2 bytes beside it (random_k's adjacency), and 64 KiB
        # for everything of size O(n)
        n = 512
        _, peak = traced_build(build, n)
        assert peak <= 1.25 * n * n * 8 + 64 * 2**10

    @pytest.mark.parametrize("build", [
        lambda n: make_network("complete", n),
        lambda n: make_network("star", n),
        lambda n: make_network("hub_plus_edge", n),
        lambda n: make_network("edges", n, edges=edge_list(n)),
        lambda n: network_from_config({"kind": "complete", "n": n, "weight": 0.5}),
        lambda n: network_from_config({"kind": "edges", "n": n, "weight": 0.5, "edges": [[0, 1], [2, 1, 0.25]]}),
    ], ids=["complete", "star", "hub_plus_edge", "edges", "config-complete", "config-edges"])
    def test_no_n_by_n_temporary_without_an_adjacency(self, build):
        # G is compared with G^T a panel of _CHUNK_FLOATS bools at a time, so a kind with no
        # bool adjacency holds nothing of size n^2 beside its float array
        n = 512
        _, peak = traced_build(build, n)
        assert peak <= n * n * 8 + 256 * 2**10

    def test_network_keeps_a_frozen_array_and_copies_any_other(self):
        frozen = np.zeros((3, 3))
        frozen.setflags(write=False)
        assert Network(frozen).weights is frozen
        kept = make_network("star", 4).weights
        assert Network(kept).weights is kept
        # a read-only view may have a writable base, and a float32 or Fortran-order array is converted
        for other in (np.zeros((4, 4))[:3, :3], np.zeros((3, 3), dtype=np.float32), np.zeros((3, 3), order="F")):
            other.setflags(write=False)
            copied = Network(other).weights
            assert copied is not other and copied.dtype == np.float64 and copied.flags.c_contiguous
            assert not copied.flags.writeable

    def test_random_k_needs_a_seed(self):
        with pytest.raises(ValueError, match="'random_k' needs 'seed'"):
            make_network("random_k", 5)
        with pytest.raises(ValueError, match="'random_k' needs 'seed'"):
            market.scaled_random_half_network(5, None, CASE_PARAMS, UNIFORM.upper)

    def test_bad_edge_named(self):
        for edge in ((0, 0, 1.0), (0, 3, 1.0), (-1, 1, 1.0)):
            with pytest.raises(ValueError, match=rf"edge \({edge[0]}, {edge[1]}\) invalid for n=3"):
                make_network("edges", 3, edges=[(0, 1, 1.0), edge])
