"""The rank-2 interim-curve kernel against the stacked per-grid-point solve.

The oracle below is the direct algorithm: stack the full (grid, samples, n)
virtual-value array and solve every system with ``solve_profiles``. The
kernel must agree with it to 1e-12 of each quantity's largest magnitude.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from netmech import MonteCarloEngine, QuadratureEngine, SolverError, interim_curves
from netmech import mechanism
from netmech.mechanism import solve_profiles
from conftest import random_valid_scenario

SRC = str(Path(__file__).resolve().parents[1] / "src")


def oracle_curves(sc, grid_size, engine, users):
    """gamma, V, C and the MC standard error of gamma by one full solve per (grid, sample)."""
    n, dist, p = sc.n, sc.dist, sc.params
    grid = np.linspace(dist.lower, dist.upper, grid_size)
    out = {key: np.full((n, grid_size), np.nan) for key in ("gamma", "v", "c", "se")}
    for i in users:
        values, weights = engine.others_samples(dist, n, i)
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


class TestGuards:
    def test_residual_of_base_solve(self, complete5, monkeypatch):
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: -solve(a, b))
        with pytest.raises(SolverError, match=r"user 0: base system .* residual .* exceeds tolerance"):
            interim_curves(complete5, 9, QuadratureEngine(order=4))

    # phi(0.4) = 0 on Uniform(0.4, 0.8), so det = 1 there and first fails at 0.45
    @pytest.mark.parametrize("theta,quantity,tamper", [
        ("0.45", "det(I - phi S)", lambda s, big_s: (s, big_s * np.array([[1e6, 1.0], [1.0, 1.0]]))),
        ("0.4", "x_2", lambda s, big_s: (-s, big_s)),
        ("0.4", "g_2.x", lambda s, big_s: (s * np.array([-1.0, 1.0]), big_s)),
    ])
    def test_m_matrix_signs(self, complete5, monkeypatch, theta, quantity, tamper):
        factors = mechanism._rank2_factors
        monkeypatch.setattr(mechanism, "_rank2_factors", lambda *args: tamper(*factors(*args)))
        with pytest.raises(SolverError) as err:
            interim_curves(complete5, 9, QuadratureEngine(order=4), users=[2])
        message = str(err.value)
        assert message.startswith(f"user 2 at theta {theta}: {quantity} = ")
        assert "Assumption 2" in message


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
