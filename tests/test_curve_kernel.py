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
from netmech.market import make_network, scaled_random_half_network, twin_classes
from netmech.mechanism import SampleRows, solve_profiles
from conftest import CASE_PARAMS, UNIFORM, alone, large_scenario, random_valid_scenario, traced_peak, whole_samples
import oracles
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


def with_rows(big_s, start, rows):
    """A copy of one chunk's S factors, its first sample numbered ``start``, with
    S = [[c, 0], [0, 0]] at each sample j of ``rows`` {j: c} that the chunk holds."""
    big_s = big_s.copy()
    for j, c in rows.items():
        if start <= j < start + len(big_s):
            big_s[j - start] = [[c, 0.0], [0.0, 0.0]]
    return big_s


def with_entry(factor, start, index, value):
    """A copy of one chunk's factor array, its first sample numbered ``start``, with
    ``value`` at ``index`` if the chunk holds sample ``index[0]``."""
    factor = factor.copy()
    if start <= index[0] < start + len(factor):
        factor[(index[0] - start,) + index[1:]] = value
    return factor


def with_rows_negated(factor, start, rows):
    """A copy of one chunk's factor array, its first sample numbered ``start``, negated at
    each sample of ``rows`` that the chunk holds."""
    factor = factor.copy()
    for j in rows:
        if start <= j < start + len(factor):
            factor[j - start] *= -1.0
    return factor


def tamper_factors(monkeypatch, tamper):
    """Make ``_rank2_factors`` return ``tamper(s, S, start)`` of each chunk's factors, and
    return the dict that collects the returned factors by the chunk's first sample."""
    factors = mechanism._rank2_factors
    chunks = {}

    def tampered(sc, i, rows, sl):
        chunks[sl.start] = tamper(*factors(sc, i, rows, sl), sl.start)
        return chunks[sl.start]

    monkeypatch.setattr(mechanism, "_rank2_factors", tampered)
    return chunks


def joined(chunks):
    """One user's (s, S) from the factors of its chunks, keyed by first sample."""
    return tuple(np.concatenate([chunks[start][k] for start in sorted(chunks)]) for k in (0, 1))


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
        got = mechanism._rank2_factors(sc, i, phis, slice(0, len(phis)))
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

    @pytest.mark.parametrize("draw", range(6))
    def test_chunk_sums_merge(self, draw, monkeypatch):
        """Chunks of 64 samples: each chunk's sums, and the standard error's squares about
        each chunk's mean, merge into the whole set's."""
        rng = np.random.default_rng(3000 + draw)
        sc = random_valid_scenario(rng, n=int(rng.integers(2, 21)))
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", 2 * sc.n * 64)
        users = sorted(rng.choice(sc.n, size=min(2, sc.n), replace=False).tolist())
        assert_matches_oracle(sc, 9, MonteCarloEngine(samples=700, seed=draw), users)

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
        ("0.45", "det(I - phi S)", lambda s, big_s, start: (s, big_s * np.array([[1e6, 1.0], [1.0, 1.0]]))),
        ("0.4", "x_2", lambda s, big_s, start: (-s, big_s)),
        ("0.4", "g_2.x", lambda s, big_s, start: (s * np.array([-1.0, 1.0]), big_s)),
        # a NaN in one sample's S makes det NaN at every type, phi = 0 included
        pytest.param("0.4", "det(I - phi S)", lambda s, big_s, start: (s, with_rows(big_s, start, {5: np.nan})),
                     id="nan-factor"),
        # S = [[c, 0], [0, 0]] gives det = 1 - phi c, first <= 0 where phi >= 1/c: sample 37
        # breaks at phi = 0.5 (theta 0.65), sample 11 only at 0.7, sample 200 with sample 37
        pytest.param("0.65", "det(I - phi S)",
                     lambda s, big_s, start: (s, with_rows(big_s, start, {11: 1 / 0.65, 37: 1 / 0.45,
                                                                          200: 1 / 0.45})),
                     id="first-bad-after-sample-0"),
        # sample 3's det breaks from theta 0.65 on, sample 200's x_2 at every type: the lowest
        # type names x_2, whichever grid points and samples share a chunk
        pytest.param("0.4", "x_2",
                     lambda s, big_s, start: (with_rows_negated(s, start, [200]),
                                              with_rows(big_s, start, {3: 1 / 0.45})),
                     id="lowest-type-before-first-guard"),
    ])
    def test_m_matrix_signs(self, path5, monkeypatch, theta, quantity, tamper):
        chunks = tamper_factors(monkeypatch, tamper)
        # the path has no twins, so user 2's rule is the whole tensor of 4**4 samples: the
        # default budget holds it in one CG chunk and the whole grid in one grid chunk; 256
        # floats give CG chunks of 25 samples, so samples 37 and 200 lie in later chunks, and
        # one grid point per chunk, so a later bad theta lies in a later chunk; two threads
        # map the chunks over the pool
        for chunk_floats, threads in ((mechanism._CHUNK_FLOATS, 1), (4**4, 1), (4**4, 2)):
            monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", chunk_floats)
            chunks.clear()
            with pytest.raises(SolverError) as err:
                interim_curves(path5, 9, QuadratureEngine(order=4), users=[2], threads=threads)
            message = str(err.value)
            assert message.startswith(f"user 2 at theta {theta}: {quantity} = ")
            s, big_s = joined(chunks)
            assert len(s) == 4**4
            k, j = first_sign_break(path5, 9, s, big_s, quantity)
            assert f"{np.linspace(0.4, 0.8, 9)[k]:.12g}" == theta
            assert f" at sample {j} breaks" in message, (chunk_floats, threads)
            assert "Assumption 2" in message

    @pytest.mark.parametrize("quantity,sample,tamper", [
        # S00 = inf makes tr and det S infinite, so det(I - phi S) = 1 - (0 inf + 0 inf) at phi = 0
        pytest.param("det(I - phi S)", 5,
                     lambda s, big_s, start: (s, with_entry(big_s, start, (5, 0, 0), np.inf)), id="inf-in-S"),
        # s1 = inf makes ca infinite, so x_i = (0 ca + s1) / det is NaN at phi = 0
        pytest.param("x_2", 9, lambda s, big_s, start: (with_entry(s, start, (9, 1), np.inf), big_s),
                     id="inf-in-s"),
    ])
    def test_infinite_factor_fails_its_sign_as_nan(self, path5, monkeypatch, quantity, sample, tamper):
        tamper_factors(monkeypatch, tamper)
        for chunk_floats, threads in ((mechanism._CHUNK_FLOATS, 1), (4**4, 1), (4**4, 2)):
            monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", chunk_floats)
            with pytest.raises(SolverError) as err, warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                interim_curves(path5, 9, QuadratureEngine(order=4), users=[2], threads=threads)
            assert str(err.value) == (f"user 2 at theta 0.4: {quantity} = nan at sample {sample} "
                                      f"breaks the sign that Assumption 2 promises")

    def test_grid_chunks_do_not_change_curves(self, hub5, monkeypatch):
        """A budget of one user's sample count splits its samples into several CG chunks and
        the grid into blocks; the merged sums give the default curves."""
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

    def sample_count(self, n, i, classes):
        return self.order ** (n - 1)

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
            rows, peak = traced_peak(lambda: QuadratureEngine(order=order).others_rows(
                complete5.dist, 5, 0, twin_classes(complete5.network)))
            assert rows.shape == (math.comb(order + 3, 4), 4)
            assert rows.weights.sum() == pytest.approx(1.0, rel=1e-13)
        # the 2**20 weights of the full tensor alone would take 8 MiB
        assert peak < 8 * 2**20
        # the node budget counts the rule over the classes, not the 33**4 > 2**20 tensor
        rows = QuadratureEngine(order=33).others_rows(complete5.dist, 5, 0, twin_classes(complete5.network))
        assert rows.shape == (math.comb(36, 4), 4) == (58905, 4)

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_multisets_match_the_itertools_oracle(self, monkeypatch, chunk):
        """The vectorized enumeration gives itertools' rows in its order and the same weight bits,
        read back in blocks of any size (blocks of one row when a row exceeds the chunk)."""
        if chunk:
            monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", chunk)
        cases = [(order, k) for order in range(1, 7) for k in range(1, 7)] + [(33, 4), (2, 40)]
        if not chunk:
            cases.append((8, 12))  # 50388 rows, read back in ten blocks
        for order, k in cases:
            node_weights = np.random.default_rng([order, k]).uniform(0.01, 1.0, order)
            rows, weights = mechanism._multisets(order, k, node_weights)
            want_rows, want_weights = oracles.multisets(order, k, node_weights)
            assert rows.dtype == np.intp and np.array_equal(rows, want_rows), (order, k)
            assert weights.tobytes() == want_weights.tobytes(), (order, k)


class TestChunkPath:
    """Users run in turn, and the pool runs the chunks of one user at a time."""

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

    @pytest.mark.parametrize("engine", [QuadratureEngine(order=6), MonteCarloEngine(samples=1500, seed=4)],
                             ids=["quadrature", "mc"])
    @pytest.mark.parametrize("chunk_floats", [mechanism._CHUNK_FLOATS, 2 * 5 * 64], ids=["one-chunk", "chunks"])
    def test_all_users_bit_identical_across_threads(self, hub5, monkeypatch, engine, chunk_floats):
        # the default budget holds every user's samples in one CG chunk, so no chunk reaches
        # the pool; chunks of 64 samples put every user's chunks on it
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", chunk_floats)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        runs = [interim_curves(hub5, 17, engine, threads=t) for t in (1, 2, 4)]
        fields = ("gamma", "v", "c") + (("gamma_se",) if engine.standard_error is not None else ())
        for got in runs[1:]:
            for field in fields:
                assert np.array_equal(getattr(got, field), getattr(runs[0], field)), field

    def test_a_user_in_one_chunk_submits_nothing(self, hub5, monkeypatch):
        """hub5's rules of 1296 and 2304 rows at order 8 each fit one CG chunk, so every user,
        grid stage and all, runs on the calling thread; users never go to the pool."""
        submitted = []

        class Spy(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                submitted.append(args)
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(mechanism, "ThreadPoolExecutor", Spy)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        engine = QuadratureEngine(order=8)
        want = interim_curves(hub5, 201, engine)
        got = interim_curves(hub5, 201, engine, threads=2)
        assert submitted == []
        assert np.array_equal(got.gamma, want.gamma) and np.array_equal(got.v, want.v)
        # a CG chunk of 2303 samples: the hub's 1296 rows still fit it, the two other runs
        # (users 1 and 2; 3 and 4 are their twins) each submit 2 CG chunks, which run the
        # grid stage themselves
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", 2 * 5 * 2303)
        want = interim_curves(hub5, 201, engine)
        got = interim_curves(hub5, 201, engine, threads=2)
        assert len(submitted) == 2 * 2
        assert np.array_equal(got.gamma, want.gamma) and np.array_equal(got.v, want.v)

    def test_user_peak_independent_of_the_sample_count(self, hub5, monkeypatch):
        """Each CG chunk takes its samples through the grid stage to weighted sums, so one
        user holds one chunk's arrays per worker at any sample count, and no array of its
        samples: whole-user per-sample stacks would read 17.0 MiB at 200k samples and 76.3 MiB
        at 1M. The run is admitted under a budget of 2**22 floats, below the 1M x 5 a whole
        draw would hold."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(mechanism, "MAX_ARRAY_FLOATS", 2**22)
        for threads in (1, 2):
            peaks = []
            for samples in (200_000, 1_000_000):
                peaks.append(traced_peak(lambda: interim_curves(
                    hub5, 9, MonteCarloEngine(samples=samples, seed=3), users=[0], threads=threads))[1])
            # about 6 MiB on one thread and 12 MiB on two
            assert max(peaks) <= 16 * 2**20, (threads, peaks)
            assert abs(peaks[1] - peaks[0]) <= 2**20, (threads, peaks)

    def test_pool_holds_one_user_at_a_time(self, hub5, monkeypatch):
        """Users run in turn and nothing of one outlives its turn: at two workers, three users
        peak where user 0 alone does."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        engine = MonteCarloEngine(samples=200_000, seed=3)
        peaks = []
        for users in ([0], [0, 1, 2]):
            peaks.append(traced_peak(lambda: interim_curves(hub5, 9, engine, users=users, threads=2))[1])
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_user_peak_within_ten_and_a_half_floats_per_sample(self, hub5):
        """One user's 1M Monte Carlo samples hold a chunk's arrays and no array of the samples,
        so the peak is far inside the ten floats per sample that whole-user stacks and grid
        arrays of a two-pass kernel would hold."""
        samples = 1_000_000
        peak = traced_peak(lambda: interim_curves(hub5, 9, MonteCarloEngine(samples=samples, seed=3), users=[0]))[1]
        assert peak <= 10.5 * 8 * samples + 2**20

    def test_chunk_holds_seven_stacks(self):
        """One CG chunk on the two-GEMM path holds phi and the solve's six stacks, each
        (n, 2m) floats, and per-column arrays of 2m floats: its right-hand sides are a
        zero-stride view, CG's temporary is the operator's scratch and its virtual values are
        dropped before the solve. At n = 50, 7.31 stacks read, against 9.80 with the
        right-hand sides, the virtual values and CG's temporary held."""
        n = 50
        sc = Scenario(scaled_random_half_network(n, n, CASE_PARAMS, UNIFORM.upper)[0], CASE_PARAMS, UNIFORM)
        assert sc.network.weights.size <= market._CHUNK_FLOATS  # the two-GEMM path
        m = mechanism._CHUNK_FLOATS // (2 * n)  # 655 samples, the whole user in one chunk
        peak = traced_peak(lambda: interim_curves(sc, 9, MonteCarloEngine(samples=m, seed=1), users=[0]))[1]
        stack, column = 8 * n * 2 * m, 8 * 2 * m
        assert peak <= 7 * stack + 24 * column, peak / stack

    def test_pool_holds_a_window_of_chunks(self, hub5, monkeypatch):
        """A user's chunks go to the pool two per worker at a time, so no bookkeeping grows
        with the chunk count: from 50 to 500 chunks of 16 samples the peak grows by the
        counted sums (4 x 9 floats and a weight sum per chunk) and the standard error's two
        arrays of 9 floats per chunk, about 480 B per chunk; futures, contexts and slices of
        every chunk took 2.3 KB per chunk at two workers. The runs are bit-identical at one
        and two threads."""
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", 2 * 5 * 16)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pending, peaks = [], {}

        class Spy(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                future = super().submit(fn, *args, **kwargs)
                live.add(future)
                future.add_done_callback(live.discard)
                pending.append(len(live))
                return future

        live = set()
        monkeypatch.setattr(mechanism, "ThreadPoolExecutor", Spy)
        for threads in (1, 2):
            for samples in (800, 8000):
                engine = MonteCarloEngine(samples=samples, seed=3)
                peaks[threads, samples] = traced_peak(
                    lambda: interim_curves(hub5, 9, engine, users=[0], threads=threads))
        assert len(pending) == 50 + 500 and max(pending) <= 2 * 2
        for threads in (1, 2):
            grown = (peaks[threads, 8000][1] - peaks[threads, 800][1]) / 450
            assert grown <= 2 * 8 * (4 * 9 + 1), (threads, grown)
        for samples in (800, 8000):
            got, want = peaks[2, samples][0], peaks[1, samples][0]
            for field in ("gamma", "v", "c", "gamma_se"):
                assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field

    def test_pool_tasks_keep_the_callers_errstate(self, hub5, monkeypatch):
        """numpy's error state is a contextvar: a pool chunk runs under the caller's, so an
        inf in S raises FloatingPointError at any thread count, not a guard's SolverError."""
        tamper_factors(monkeypatch, lambda s, big_s, start: (s, with_entry(big_s, start, (5, 0, 0), np.inf)))
        # chunks of 25 samples and one grid point put every user's chunks on the pool
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", 2**8)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        for threads in (1, 2):
            with pytest.raises(FloatingPointError), np.errstate(invalid="raise"):
                interim_curves(hub5, 9, QuadratureEngine(order=8), threads=threads)

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

    def test_panel_chunks_bit_identical_across_threads(self, monkeypatch):
        """n = 300 with symmetric G: each CG chunk's stack runs on the row-panel product, and
        250 samples take three chunks of up to 109, on the pool at two threads."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        sc = large_scenario(True)
        engine = MonteCarloEngine(samples=250, seed=6)
        want, got = (interim_curves(sc, 9, engine, users=[0], threads=t) for t in (1, 2))
        for field in ("gamma", "v", "c", "gamma_se"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field

    @pytest.mark.parametrize("threads", [1, 2])
    def test_chunk_factors_match_the_whole_array(self, hub5, monkeypatch, threads):
        """The chunks of 64 samples that the kernel reads from ``SampleRows``, each numbered
        from its first sample, give the factors of one call on the user's whole array."""
        monkeypatch.setattr(mechanism, "_CHUNK_FLOATS", 2 * 5 * 64)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        chunks = tamper_factors(monkeypatch, lambda s, big_s, start: (s, big_s))
        engine = MonteCarloEngine(samples=700, seed=2)
        interim_curves(hub5, 9, engine, users=[3], threads=threads)
        assert sorted(chunks) == list(range(0, 700, 64))
        values, _ = whole_samples(engine, hub5.dist, 5, 3)
        monkeypatch.undo()
        phis = np.asarray(hub5.dist.virtual_value(values), dtype=float)
        whole = mechanism._rank2_factors(hub5, 3, phis, slice(0, len(phis)))
        for got, want in zip(joined(chunks), whole):
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

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
        assert sc.network.weights.size <= market._CHUNK_FLOATS  # the two-GEMM path
        (x, iterations, _, _), peak = traced_peak(lambda: mechanism._solve(sc, phi, rhs, "base system"))
        assert iterations > 5
        # the solve's one workspace of six stack-sized arrays, then per-column arrays and
        # numpy's 64 KiB buffer for broadcast products; one more (n, 2m) array in any
        # iteration would add phi.nbytes
        assert peak < 6 * rhs.nbytes + phi.nbytes / 3
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
        "from netmech import MarketParams, MonteCarloEngine, Scenario, Uniform, interim_curves\n"
        "from netmech.market import scaled_random_half_network\n"
        "params = MarketParams(a=0.5, b=6.0, s=1.0, t=1.0, p=0.1)\n"
        "dist = Uniform(0.4, 0.8)\n"
        "net, _ = scaled_random_half_network(60, 60, params, dist.upper)\n"
        "interim_curves(Scenario(net, params, dist), 9, MonteCarloEngine(20_000, seed=0), users=[0])\n"
        # the child's own high-water mark: ru_maxrss carries the parent's over fork and exec
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    peak_mb = int(done.stdout.strip()) / 1024  # VmHWM is in kB
    assert peak_mb < 400
