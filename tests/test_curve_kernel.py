"""The rank-2 interim-curve kernel against the stacked per-grid-point solve.

Two oracles. ``oracle_curves`` is the direct algorithm: stack the full
(grid, samples, n) virtual-value array and solve every system with
``solve_profiles``. ``lu_factors`` solves B [y z w] = [c 1, e_i, g_i] by one
LU per sample, the kernel's factors before it moved to CG. The kernel must
agree with both to 1e-12 of each quantity's largest magnitude.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmech import (
    MonteCarloEngine,
    NegativeRewardWarning,
    Network,
    QuadratureEngine,
    Scenario,
    SolverError,
    interim_curves,
    reward_schedule,
    verify_all,
)
from netmech import market, mechanism
from netmech.market import make_network, twin_classes
from netmech.mechanism import SampleRows, solve_profiles
from conftest import alone, large_scenario, random_valid_scenario, whole_samples
from oracles import tensor_curves, tensor_rule
from test_mechanism import boundary_scenario

SRC = str(Path(__file__).resolve().parents[1] / "src")


def oracle_curves(sc, grid_size, engine, users):
    """gamma, V, C and the MC standard error of gamma by one full solve per (grid, sample)."""
    n, dist, p = sc.n, sc.dist, sc.params
    grid = np.linspace(dist.lower, dist.upper, grid_size)
    out = {key: np.full((n, grid_size), np.nan) for key in ("gamma", "v", "c", "se")}
    for i in users:
        values, weights = whole_samples(engine, dist, n, i)
        phis = np.empty((grid_size, values.shape[0], n))
        phis[:, :, np.delete(np.arange(n), i)] = np.asarray(dist.virtual_value(values))[None]
        phis[:, :, i] = np.asarray(dist.virtual_value(grid))[:, None]
        x = solve_profiles(sc, phis)
        xi = x[..., i]
        gamma_samples = xi * (x @ sc.network.weights[i])
        out["gamma"][i] = gamma_samples @ weights
        out["v"][i] = ((p.a - p.p) * xi - 0.5 * p.b * xi**2) @ weights
        out["c"][i] = (p.s * xi - 0.5 * p.t * xi**2) @ weights
        m = len(weights)
        var = ((gamma_samples - out["gamma"][i][:, None]) ** 2 @ weights) * m / max(1, m - 1)
        out["se"][i] = np.sqrt(var / m)
    return out


def lu_factors(sc, i, phis_others):
    """s = [g_i.y, y_i] and S = [g_i.[z w]; [z_i w_i]] from one LU solve of B [y z w] per sample."""
    n = sc.n
    phis = np.zeros((phis_others.shape[0], n))
    phis[:, np.delete(np.arange(n), i)] = phis_others
    g_i = sc.network.weights[i]
    rhs = np.zeros((n, 3))
    rhs[:, 0] = sc.params.s + sc.params.a - sc.params.p
    rhs[i, 1] = 1.0
    rhs[:, 2] = g_i
    sol = np.linalg.solve(mechanism._assemble(sc, phis), rhs)
    g_sol = g_i @ sol
    i_sol = sol[:, i, :]
    return (np.stack([g_sol[:, 0], i_sol[:, 0]], axis=1),
            np.stack([g_sol[:, 1:], i_sol[:, 1:]], axis=1))


def with_rows(big_s, rows):
    """A copy of the S factors with S = [[c, 0], [0, 0]] at each sample j of ``rows`` {j: c}."""
    big_s = big_s.copy()
    for j, c in rows.items():
        big_s[j] = [[c, 0.0], [0.0, 0.0]]
    return big_s


def with_entry(factor, index, value):
    """A copy of a factor array with ``value`` at ``index``."""
    factor = factor.copy()
    factor[index] = value
    return factor


def first_sign_break(sc, grid_size, s, big_s, quantity):
    """(grid index, sample) of the first element in (grid, sample) order at which the
    named quantity of the 2x2 system (I - phi S) [g_i.x, x_i] = s breaks its sign,
    from the LAPACK determinant and solve of every system."""
    grid = np.linspace(sc.dist.lower, sc.dist.upper, grid_size)
    phi = np.asarray(sc.dist.virtual_value(grid))[:, None, None, None]
    m = np.eye(2) - phi * big_s
    if quantity.startswith("det"):
        with np.errstate(invalid="ignore"):  # a NaN factor is one of the cases
            bad = ~(np.linalg.det(m) > 0)
    else:
        x = np.linalg.solve(m, np.broadcast_to(s[..., None], m.shape[:-1] + (1,)))[..., 0]
        bad = ~(x[..., 1] > 0) if quantity.startswith("x_") else ~(x[..., 0] >= 0)
    return tuple(np.argwhere(bad)[0])


def assert_factors_match_lu(sc, engine, users=None):
    for i in range(sc.n) if users is None else users:
        values, _ = whole_samples(engine, sc.dist, sc.n, i)
        phis = np.asarray(sc.dist.virtual_value(values), dtype=float)
        got = mechanism._rank2_factors(sc, i, phis)
        want = lu_factors(sc, i, phis)
        for name, g, w in zip(("s", "S"), got, want):
            assert g.shape == w.shape
            g, w = g.reshape(len(phis), -1), w.reshape(len(phis), -1)
            scale = np.max(np.abs(w), axis=0)
            assert np.all(np.max(np.abs(g - w), axis=0) <= 1e-12 * scale), (i, name)


def assert_matches_oracle(sc, grid_size, engine, users):
    curves = interim_curves(sc, grid_size, engine, users=users)
    want = oracle_curves(sc, grid_size, engine, users)
    got = {"gamma": curves.gamma, "v": curves.v, "c": curves.c}
    if curves.gamma_se is not None:
        got["se"] = curves.gamma_se
    rows = list(users)
    for key, value in got.items():
        scale = np.max(np.abs(want[key][rows]))
        assert np.max(np.abs(value[rows] - want[key][rows])) <= 1e-12 * scale, key


class TestAgainstStackedSolve:
    @pytest.mark.parametrize("draw", range(20))
    def test_random_scenarios(self, draw):
        rng = np.random.default_rng(1000 + draw)
        if draw % 2 == 0:
            sc = random_valid_scenario(rng, n=int(rng.integers(2, 5)))
            users = range(sc.n)
            assert_matches_oracle(sc, 9, QuadratureEngine(order=5), users)
        else:
            sc = random_valid_scenario(rng, n=int(rng.integers(5, 21)))
            users = sorted(rng.choice(sc.n, size=3, replace=False).tolist())
        assert_matches_oracle(sc, 9, MonteCarloEngine(samples=300, seed=draw), users)

    def test_user_subset_case_study(self, hub5):
        assert_matches_oracle(hub5, 17, QuadratureEngine(order=6), [1, 3])


class TestFactorsAgainstLU:
    @pytest.mark.parametrize("draw", range(10))
    def test_random_scenarios(self, draw):
        rng = np.random.default_rng(2000 + draw)
        sc = random_valid_scenario(rng, n=int(rng.integers(2, 31)))
        if sc.n <= 4:
            assert_factors_match_lu(sc, QuadratureEngine(order=6))
        users = sorted(rng.choice(sc.n, size=min(3, sc.n), replace=False).tolist())
        assert_factors_match_lu(sc, MonteCarloEngine(samples=500, seed=draw), users)

    def test_isolated_user(self, case_params, uniform_dist):
        """User 4 has no edges: g_4 = 0 and B e_4 = (t+b) e_4, so both its systems start at r = 0."""
        w = np.zeros((6, 6))
        for a, b in ((0, 1), (1, 2), (2, 3), (3, 5), (0, 5)):
            w[a, b] = w[b, a] = 1.0
        sc = Scenario(Network(w), case_params, uniform_dist)
        with np.errstate(all="raise"):
            assert_factors_match_lu(sc, MonteCarloEngine(samples=400, seed=1))

    def test_user_with_no_outgoing_weight(self):
        """g_2 = 0 while others weigh user 2: the g_i columns sit at r = 0 beside active e_i ones."""
        base = random_valid_scenario(np.random.default_rng(5), n=6)
        w = base.network.weights.copy()
        w[2] = 0.0
        sc = Scenario(Network(w), base.params, base.dist)
        assert sc.valid
        with np.errstate(all="raise"):
            assert_factors_match_lu(sc, MonteCarloEngine(samples=400, seed=3), users=[2])

    def test_zero_network(self, zero5):
        with np.errstate(all="raise"):
            assert_factors_match_lu(zero5, QuadratureEngine(order=4))

    @pytest.mark.parametrize("symmetric", [True, False], ids=["panel", "two-gemm"])
    def test_network_past_the_cache_budget(self, symmetric):
        """n = 300: the (n, 2 samples) stack runs on the row-panel product when G is symmetric."""
        engine = MonteCarloEngine(samples=40, seed=6)
        assert_factors_match_lu(large_scenario(symmetric), engine, users=[0, 151])

    def test_panel_chunks_on_a_pool_are_the_serial_factors(self):
        sc = large_scenario(True)
        values, _ = whole_samples(MonteCarloEngine(samples=250, seed=6), sc.dist, sc.n, 0)
        phis = np.asarray(sc.dist.virtual_value(values), dtype=float)
        want = mechanism._rank2_factors(sc, 0, phis)  # three chunks of up to 109 samples
        with ThreadPoolExecutor(max_workers=3) as pool:
            got = mechanism._rank2_factors(sc, 0, phis, pool)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_chunks_do_not_change_factors(self, hub5, monkeypatch):
        values, _ = whole_samples(MonteCarloEngine(samples=700, seed=2), hub5.dist, 5, 0)
        phis = np.asarray(hub5.dist.virtual_value(values), dtype=float)
        whole = mechanism._rank2_factors(hub5, 0, phis)
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", 2 * 5 * 64)
        for got, want in zip(mechanism._rank2_factors(hub5, 0, phis), whole):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestGuards:
    def test_residual_of_base_solve(self, complete5, monkeypatch):
        cg = mechanism._cg
        monkeypatch.setattr(mechanism, "_cg", lambda *args: (-cg(*args)[0], 0))
        # one user on two threads maps chunks of 8 samples over the pool; every chunk fails
        for threads, chunk_floats, users in ((1, mechanism._CHUNK_FLOATS, None), (2, 2 * 5 * 8, [0])):
            monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", chunk_floats)
            with pytest.raises(SolverError, match=r"^user 0: base system \(phi_0 = 0\) right-hand side "
                                                  r"e_i at sample 0: residual \|r_0\| = 2 exceeds "
                                                  r"backward-error tolerance 2.91e-10$"):
                interim_curves(complete5, 9, QuadratureEngine(order=4), users=users, threads=threads)

    def test_iteration_cap(self, complete5, monkeypatch):
        bounds = mechanism._a_priori
        monkeypatch.setattr(mechanism, "_a_priori",
                            lambda *args: dataclasses.replace(bounds(*args), cap=1))
        with pytest.raises(SolverError, match=r"^user 3: base system \(phi_3 = 0\) right-hand "
                                              r"side e_i at sample 0: CG residual .* after 1 iterations"):
            interim_curves(complete5, 9, QuadratureEngine(order=4), users=[3])

    def test_condition_bound_refused(self, complete5):
        sc = boundary_scenario(complete5, 1e-13)
        assert sc.valid
        with pytest.raises(SolverError, match=r"^user 1: base system \(phi_1 = 0\) ill-conditioned: "
                                              r"a-priori bound cond <= .* exceeds 1e\+12"):
            interim_curves(sc, 9, QuadratureEngine(order=4), users=[1])

    # chunks of 4 samples put sample 7 in the second chunk, after the first is solved
    @pytest.mark.parametrize("value,chunk_floats", [
        pytest.param(-0.1, mechanism._CHUNK_FLOATS, id="-0.1"),
        pytest.param(0.9, mechanism._CHUNK_FLOATS, id="0.9"),
        pytest.param(-0.1, 2 * 5 * 4, id="-0.1-chunks-of-4"),
        pytest.param(0.9, 2 * 5 * 4, id="0.9-chunks-of-4"),
    ])
    def test_virtual_value_outside_zero_theta_bar(self, complete5, monkeypatch, value, chunk_floats):
        getitem = mechanism.SampleRows.__getitem__

        def tampered(rows, sl):
            # the other users' virtual values at sample 7, in whichever chunk reads it
            phi = getitem(rows, sl)
            if sl.start <= 7 < sl.stop:
                phi[7 - sl.start, 2] = value
            return phi

        monkeypatch.setattr(mechanism.SampleRows, "__getitem__", tampered)
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", chunk_floats)
        for threads in (1, 2):
            with pytest.raises(SolverError) as err:
                interim_curves(complete5, 9, QuadratureEngine(order=4), users=[1], threads=threads)
            assert str(err.value).startswith(
                f"user 1: base system (phi_1 = 0) right-hand side e_i at sample 7: "
                f"virtual value phi_3 = {value:g} leaves [0, theta_bar = 0.8]"
            ), threads

    # phi(0.4) = 0 on Uniform(0.4, 0.8), so det = 1 there and first fails at 0.45
    @pytest.mark.parametrize("theta,quantity,tamper", [
        ("0.45", "det(I - phi S)", lambda s, big_s: (s, big_s * np.array([[1e6, 1.0], [1.0, 1.0]]))),
        ("0.4", "x_2", lambda s, big_s: (-s, big_s)),
        ("0.4", "g_2.x", lambda s, big_s: (s * np.array([-1.0, 1.0]), big_s)),
        # a NaN in one sample's S makes det NaN at every type, phi = 0 included
        pytest.param("0.4", "det(I - phi S)", lambda s, big_s: (s, with_rows(big_s, {5: np.nan})),
                     id="nan-factor"),
        # S = [[c, 0], [0, 0]] gives det = 1 - phi c, first <= 0 where phi >= 1/c: sample 37
        # breaks at phi = 0.5 (theta 0.65), sample 11 only at 0.7, sample 200 with sample 37
        pytest.param("0.65", "det(I - phi S)",
                     lambda s, big_s: (s, with_rows(big_s, {11: 1 / 0.65, 37: 1 / 0.45, 200: 1 / 0.45})),
                     id="first-bad-after-sample-0"),
    ])
    def test_m_matrix_signs(self, path5, monkeypatch, theta, quantity, tamper):
        factors = mechanism._rank2_factors
        seen = []

        def tampered(*args):
            seen.append(tamper(*factors(*args)))
            return seen[-1]

        monkeypatch.setattr(mechanism, "_rank2_factors", tampered)
        # the path has no twins, so user 2's rule is the whole tensor of 4**4 samples: the
        # default budget holds the whole grid in one chunk, 256 one grid point per chunk, so
        # a later bad theta lies in a later chunk; two threads map the grid chunks over the pool
        for chunk_floats, threads in ((mechanism._CHUNK_FLOATS, 1), (4**4, 1), (4**4, 2)):
            monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", chunk_floats)
            with pytest.raises(SolverError) as err:
                interim_curves(path5, 9, QuadratureEngine(order=4), users=[2], threads=threads)
            message = str(err.value)
            assert message.startswith(f"user 2 at theta {theta}: {quantity} = ")
            assert len(seen[-1][0]) == 4**4
            k, j = first_sign_break(path5, 9, *seen[-1], quantity)
            assert f"{np.linspace(0.4, 0.8, 9)[k]:.12g}" == theta
            assert f" at sample {j} breaks" in message, (chunk_floats, threads)
            assert "Assumption 2" in message

    @pytest.mark.parametrize("quantity,sample,tamper", [
        # S00 = inf makes tr and det S infinite, so det(I - phi S) = 1 - (0 inf + 0 inf) at phi = 0
        pytest.param("det(I - phi S)", 5, lambda s, big_s: (s, with_entry(big_s, (5, 0, 0), np.inf)),
                     id="inf-in-S"),
        # s1 = inf makes ca infinite, so x_i = (0 ca + s1) / det is NaN at phi = 0
        pytest.param("x_2", 9, lambda s, big_s: (with_entry(s, (9, 1), np.inf), big_s), id="inf-in-s"),
    ])
    def test_infinite_factor_fails_its_sign_as_nan(self, path5, monkeypatch, quantity, sample, tamper):
        factors = mechanism._rank2_factors
        monkeypatch.setattr(mechanism, "_rank2_factors", lambda *args: tamper(*factors(*args)))
        for chunk_floats, threads in ((mechanism._CHUNK_FLOATS, 1), (4**4, 1), (4**4, 2)):
            monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", chunk_floats)
            with pytest.raises(SolverError) as err, warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                interim_curves(path5, 9, QuadratureEngine(order=4), users=[2], threads=threads)
            assert str(err.value) == (f"user 2 at theta 0.4: {quantity} = nan at sample {sample} "
                                      f"breaks the sign that Assumption 2 promises")

    def test_grid_chunks_do_not_change_curves(self, hub5, monkeypatch):
        """The grid stage never mixes grid points: one per chunk gives the default curves."""
        for engine in (QuadratureEngine(order=6), MonteCarloEngine(samples=1500, seed=4)):
            whole = interim_curves(hub5, 17, engine)
            samples = len(whole_samples(engine, hub5.dist, 5, 0)[1])
            monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", samples)
            single = interim_curves(hub5, 17, engine)
            monkeypatch.undo()
            pairs = [(single.gamma, whole.gamma), (single.v, whole.v), (single.c, whole.c)]
            if whole.gamma_se is not None:
                pairs.append((single.gamma_se, whole.gamma_se))
            for got, want in pairs:
                assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@dataclasses.dataclass(frozen=True)
class TensorRule:
    """An engine that serves the full tensor rule built by the test: no twin reduction."""

    order: int
    standard_error = None

    def classes(self, network):
        return alone(network.n)

    def others_rows(self, dist, n, i, classes):
        types, weights = tensor_rule(dist, n, self.order)
        return SampleRows(dist, weights, lambda rows: types[rows], types.shape)


class TestTwinReduction:
    """The rule over twin classes against the full tensor rule, built without engine code."""

    @pytest.fixture(params=["hub5", "complete5", "star5", "path5"])
    def network_case(self, request, case_params, uniform_dist):
        if request.param == "star5":
            return Scenario(make_network("star", 5), case_params, uniform_dist)
        return request.getfixturevalue(request.param)

    def test_curves_match_the_full_tensor(self, network_case):
        curves = interim_curves(network_case, 17, QuadratureEngine(order=6))
        want = tensor_curves(network_case, 17, 6, range(5))
        for key, got in (("gamma", curves.gamma), ("v", curves.v), ("c", curves.c)):
            assert np.max(np.abs(got - want[key])) <= 1e-12 * np.max(np.abs(want[key])), key

    def test_twin_free_network_is_the_full_tensor_bit_for_bit(self, path5):
        classes = twin_classes(path5.network)
        assert classes == alone(5)
        types, weights = tensor_rule(path5.dist, 5, 6)
        for i in range(5):
            rows = QuadratureEngine(order=6).others_rows(path5.dist, 5, i, classes)
            assert np.array_equal(rows.types(slice(0, rows.shape[0])), types), i
            assert np.array_equal(rows.weights, weights), i
        for threads in (1, 2):
            got = interim_curves(path5, 17, QuadratureEngine(order=6), threads=threads)
            want = interim_curves(path5, 17, TensorRule(order=6), threads=threads)
            for field in ("gamma", "v", "c"):
                assert np.array_equal(getattr(got, field), getattr(want, field)), (field, threads)

    @pytest.mark.parametrize("users,runs", [(None, [0, 1, 2]), ([3, 4], [3, 4]), ([1, 4], [1])])
    def test_first_requested_twin_runs_and_the_rest_are_copies(self, hub5, monkeypatch, users, runs):
        factors = mechanism._rank2_factors
        seen = []

        def recorded(sc, i, *rest):
            seen.append(i)
            return factors(sc, i, *rest)

        monkeypatch.setattr(mechanism, "_rank2_factors", recorded)
        curves = interim_curves(hub5, 17, QuadratureEngine(order=6), users=users)
        assert sorted(seen) == runs
        for a, b in ((1, 4), (2, 3)):
            if a in curves.users and b in curves.users:
                for field in ("gamma", "v", "c"):
                    assert np.array_equal(getattr(curves, field)[a], getattr(curves, field)[b])
        seen.clear()
        interim_curves(hub5, 17, MonteCarloEngine(samples=50, seed=1), users=users)
        assert sorted(seen) == sorted(curves.users)

    def test_rule_sizes_and_no_full_tensor(self, hub5, complete5):
        engine = QuadratureEngine(order=8)
        hub = twin_classes(hub5.network)
        # user 0: two pairs, C(9, 2)**2; users 1 to 4: one pair and two single users, 36 * 8 * 8
        assert [engine.others_rows(hub5.dist, 5, i, hub).shape[0] for i in range(5)] == [1296] + [2304] * 4
        for order in (8, 32):
            # C(order + 3, 4) multisets of four exchangeable users: 330 and 52360
            tracemalloc.start()
            try:
                rows = QuadratureEngine(order=order).others_rows(
                    complete5.dist, 5, 0, twin_classes(complete5.network))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert rows.shape == (math.comb(order + 3, 4), 4)
            assert rows.weights.sum() == pytest.approx(1.0, rel=1e-13)
        # the 2**20 weights of the full tensor alone would take 8 MiB
        assert peak < 8 * 2**20
        # the node budget counts the rule over the classes, not the 33**4 > 2**20 tensor
        rows = QuadratureEngine(order=33).others_rows(complete5.dist, 5, 0, twin_classes(complete5.network))
        assert rows.shape == (math.comb(36, 4), 4) == (58905, 4)


class TestChunkPath:
    """A single user: its chunks run on the pool."""

    @pytest.mark.parametrize("engine", [QuadratureEngine(order=6), MonteCarloEngine(samples=1500, seed=4)],
                             ids=["quadrature", "mc"])
    def test_one_user_bit_identical_across_threads(self, hub5, monkeypatch, engine):
        # chunks of 64 samples in the CG stage and one grid point each in the grid stage;
        # frequent thread switches would expose two chunks writing the same rows;
        # four CPUs, so the pool's cap still gives threads=4 four workers
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", 2 * 5 * 64)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [interim_curves(hub5, 17, engine, users=[0], threads=t) for t in (1, 2, 4)]
        finally:
            sys.setswitchinterval(interval)
        fields = ("gamma", "v", "c") + (("gamma_se",) if engine.standard_error is not None else ())
        for got in runs[1:]:
            for field in fields:
                assert np.array_equal(getattr(got, field), getattr(runs[0], field), equal_nan=True), field

    def test_pool_capped_at_the_cpus(self, hub5, monkeypatch):
        """Live memory grows with the workers, so no more open than there are CPUs."""
        opened = []

        class Recorded(ThreadPoolExecutor):
            def __init__(self, max_workers):
                opened.append(max_workers)
                super().__init__(max_workers)

        engine = MonteCarloEngine(samples=60, seed=3)
        want = interim_curves(hub5, 9, engine)
        monkeypatch.setattr(mechanism, "ThreadPoolExecutor", Recorded)
        for cpus, threads, workers in ((2, 64, [2]), (4, 3, [3]), (1, 64, []), (None, 64, [])):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            opened.clear()
            got = interim_curves(hub5, 9, engine, threads=threads)
            assert opened == workers, (cpus, threads)
            assert np.array_equal(got.gamma_se, want.gamma_se), (cpus, threads)

    def test_sample_rows_give_the_array_factors(self, hub5, monkeypatch):
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", 2 * 5 * 64)
        engine = MonteCarloEngine(samples=700, seed=2)
        values, _ = whole_samples(engine, hub5.dist, 5, 3)
        want = mechanism._rank2_factors(hub5, 3, np.asarray(hub5.dist.virtual_value(values), dtype=float))
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = mechanism._rank2_factors(hub5, 3, engine.others_rows(hub5.dist, 5, 3, alone(5)), pool)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_cg_iterations_allocate_nothing_of_the_stack_size(self):
        sc = random_valid_scenario(np.random.default_rng(8), n=60)
        n, m = sc.n, 500
        phi = np.zeros((n, 2 * m))
        phi[1:, :m] = np.asarray(sc.dist.virtual_value(
            whole_samples(MonteCarloEngine(samples=m, seed=1), sc.dist, n, 0)[0]), dtype=float).T
        phi[:, m:] = phi[:, :m]
        rhs = np.zeros((n, 2 * m))
        rhs[0, :m] = 1.0
        rhs[:, m:] = sc.network.weights[0][:, None]
        assert sc.network.weights.size <= market._PANEL_FLOATS  # the two-GEMM path
        tracemalloc.start()
        try:
            x, iterations, _, _ = mechanism._solve(sc, phi, rhs, "base system")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iterations > 5
        # the solve's one workspace of seven stack-sized arrays, then per-column arrays and
        # numpy's 64 KiB buffer for broadcast products; one more (n, 2m) array in any
        # iteration would add phi.nbytes
        assert peak < 7 * rhs.nbytes + phi.nbytes / 3
        want = np.linalg.solve(mechanism._assemble(sc, phi.T), rhs.T[..., None])[..., 0].T
        assert np.allclose(x, want, rtol=0, atol=1e-12)


class TestNearEdge:
    """Scenarios whose min row slack is delta (t+b), delta down to 1e-12: the pipeline
    certifies every property, or refuses with a SolverError that names a user and the
    a-priori condition limit (kappa <= 2 / delta passes 1e12 below delta = 2e-12)."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 5),
        family=st.sampled_from(["uniform", "truncated_exponential", "truncated_normal"]),
        delta=st.floats(-12.0, math.log10(0.5)).map(lambda e: 10.0**e),
    )
    def test_certified_or_refused_naming_a_user(self, seed, n, family, delta):
        base = random_valid_scenario(np.random.default_rng(seed), n=n, families=(family,))
        sc = boundary_scenario(base, delta)
        assert sc.valid
        try:
            curves = interim_curves(sc, 9, QuadratureEngine(order=4))
        except SolverError as err:
            assert re.match(r"user \d+: .* a-priori bound cond <= .* exceeds 1e\+12", str(err)), str(err)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NegativeRewardWarning)
            rewards = reward_schedule(curves)
        for report in verify_all(sc, curves, rewards, 9, 9):
            assert report.passed, report.summary_lines()


def test_mc_memory_within_budget():
    """MC at n=60 with 20k samples stays well under the 1.2 GB of a stacked solve."""
    script = (
        "import resource\n"
        "from netmech import MarketParams, MonteCarloEngine, Scenario, Uniform, interim_curves\n"
        "from netmech.market import scaled_random_half_network\n"
        "params = MarketParams(a=0.5, b=6.0, s=1.0, t=1.0, p=0.1)\n"
        "dist = Uniform(0.4, 0.8)\n"
        "net, _ = scaled_random_half_network(60, 60, params, dist.upper)\n"
        "interim_curves(Scenario(net, params, dist), 9, MonteCarloEngine(20_000, seed=0), users=[0])\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    peak_mb = int(done.stdout.strip()) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 400
