import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

from netmech import (
    MonteCarloEngine,
    QuadratureEngine,
    Scenario,
    SupportError,
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
    distribution_from_config,
    interim_curves,
    validate_regularity,
)
from oracles import virtual_value_slope

SRC = str(Path(__file__).resolve().parents[1] / "src")

ALL_FAMILIES = [
    Uniform(0.4, 0.8),
    TruncatedExponential(0.5, 1.5, rate=2.0),
    TruncatedNormal(0.4, 0.8, mu=0.3, sigma=0.3),
]


class TestVirtualValue:
    def test_uniform_closed_form(self):
        dist = Uniform(0.4, 0.8)
        assert dist.virtual_value(0.6) == pytest.approx(2 * 0.6 - 0.8)
        assert dist.virtual_value(0.4) == 0.0

    def test_truncated_exponential_numeric_cdf_oracle(self):
        # independent oracle: survival/pdf built from numerical integration of
        # the unnormalized density, no closed-form cdf involved
        rate, lo, hi, theta = 2.0, 0.5, 1.5, 1.0
        raw = lambda y: rate * np.exp(-rate * y)
        mass, _ = integrate.quad(raw, lo, hi)
        upper_tail, _ = integrate.quad(raw, theta, hi)
        expected = theta - (upper_tail / mass) / (raw(theta) / mass)
        assert expected == pytest.approx(0.6839397205857212, abs=1e-10)

        dist = TruncatedExponential(lo, hi, rate=rate)
        assert dist.virtual_value(theta) == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_upper_endpoint_limit(self, dist):
        assert dist.virtual_value(dist.upper) == pytest.approx(dist.upper, abs=1e-12)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_dominated_by_type(self, dist):
        grid = np.linspace(dist.lower, dist.upper, 101)
        assert np.all(dist.virtual_value(grid) <= grid + 1e-12)

    def test_out_of_support_raises(self):
        dist = Uniform(0.4, 0.8)
        with pytest.raises(SupportError):
            dist.virtual_value(0.39)
        with pytest.raises(SupportError):
            dist.virtual_value(0.81)
        with pytest.raises(SupportError):
            dist.hazard(0.8)  # hazard pole at the upper endpoint

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_support_test_by_reductions(self, dist):
        # n = 1 Monte Carlo types are (m, 0): an empty array passes
        assert dist.virtual_value(np.empty((3, 0))).shape == (3, 0)
        assert dist.hazard(np.empty(0)).shape == (0,)
        inside = np.linspace(dist.lower, dist.upper, 5)
        for bad in (np.nan, -np.inf, np.inf, np.nextafter(dist.lower, -1.0), np.nextafter(dist.upper, 2.0)):
            for at in (0, 2, 4):
                theta = inside.copy()
                theta[at] = bad
                with pytest.raises(SupportError, match=r"type value outside support \["):
                    dist.virtual_value(theta)
                with pytest.raises(SupportError):
                    dist.virtual_value(theta.reshape(5, 1))
        assert np.all(np.isfinite(dist.virtual_value(inside)))
        assert np.all(np.isfinite(dist.hazard(inside[:-1])))
        with pytest.raises(SupportError, match=r"\)$"):
            dist.hazard(inside)

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_slope_matches_differences(self, dist):
        grid = np.linspace(dist.lower + 0.01, dist.upper - 0.01, 21)
        h = 1e-6 * (dist.upper - dist.lower)
        fd = (dist.virtual_value(grid + h) - dist.virtual_value(grid - h)) / (2 * h)
        assert np.allclose(virtual_value_slope(dist, grid), fd, rtol=1e-5, atol=1e-7)


class TestRegularity:
    def test_uniform_passes(self):
        assert validate_regularity(Uniform(0.4, 0.8)).passed

    def test_uniform_wide_support_fails(self):
        # virtual value at the lower endpoint is 2*1 - 3 = -1
        report = validate_regularity(Uniform(1.0, 3.0))
        assert not report.passed
        assert report.min_virtual_value == pytest.approx(-1.0)
        assert report.hazard_monotone

    def test_truncated_normal_dense_grid_oracle(self):
        # oracle: scipy.stats.truncnorm on 1e4 points, entirely separate code path
        mu, sigma, lo, hi = 0.6, 0.1, 0.4, 0.8
        a, b = (lo - mu) / sigma, (hi - mu) / sigma
        tn = stats.truncnorm(a, b, loc=mu, scale=sigma)
        grid = np.linspace(lo, hi, 10_000)
        hazard = tn.pdf(grid[:-1]) / tn.sf(grid[:-1])
        phi = grid - tn.sf(grid) / tn.pdf(grid)
        oracle_monotone = bool(np.min(np.diff(hazard)) >= -1e-12)
        oracle_nonneg = bool(np.min(phi) >= -1e-12)

        report = validate_regularity(TruncatedNormal(lo, hi, mu=mu, sigma=sigma), 10_000)
        assert report.hazard_monotone == oracle_monotone
        assert report.virtual_value_nonnegative == oracle_nonneg
        assert report.passed == (oracle_monotone and oracle_nonneg)
        # this particular bell shape leaves phi negative near the lower endpoint
        assert not report.passed

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_denser_grid_agreement(self, dist):
        coarse = validate_regularity(dist, 512)
        fine = validate_regularity(dist, 5120)
        if coarse.passed:
            assert fine.passed

    def test_grid_points_minimum(self):
        with pytest.raises(ValueError):
            validate_regularity(Uniform(0.4, 0.8), grid_points=8)


class TestSampling:
    def test_determinism(self):
        dist = Uniform(0.4, 0.8)
        assert np.array_equal(dist.sample(3, seed=7), dist.sample(3, seed=7))

    def test_uniform_mean_clt_bound(self):
        n = 100_000
        sigma = 0.4 / np.sqrt(12.0)
        assert 3 * sigma / np.sqrt(n) < 0.003
        values = Uniform(0.4, 0.8).sample(n, seed=1)
        assert abs(values.mean() - 0.6) < 0.003

    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_single_draw_inside_support(self, dist):
        value = dist.sample(1, seed=0)
        assert dist.lower <= value[0] <= dist.upper

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Uniform(0.4, 0.8).sample(0, seed=0)


class TestQuantileRoundTrip:
    @pytest.mark.parametrize("dist", ALL_FAMILIES, ids=lambda d: type(d).__name__)
    def test_interior_grid(self, dist):
        grid = np.linspace(dist.lower, dist.upper, 101)[1:-1]
        back = dist.quantile(dist.cdf(grid))
        assert np.max(np.abs(back - grid)) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(lo=st.floats(0.1, 2.0), width=st.floats(0.05, 1.5), u=st.floats(0.01, 0.99))
    def test_uniform_any_support(self, lo, width, u):
        dist = Uniform(lo, lo + width)
        theta = dist.quantile(u)
        assert dist.cdf(theta) == pytest.approx(u, abs=1e-12)


class TestUniformExactness:
    def test_phi_grid_exact(self):
        dist = Uniform(0.4, 0.8)
        grid = np.linspace(0.4, 0.8, 257)
        assert np.array_equal(dist.virtual_value(grid), 2.0 * grid - 0.8)


class TestConfig:
    def test_round_trip(self):
        dist = distribution_from_config(
            {"family": "truncated_exponential", "lower": 0.5, "upper": 1.5, "params": {"rate": 2}}
        )
        assert isinstance(dist, TruncatedExponential)
        assert dist.rate == 2.0

    def test_unknown_family(self):
        with pytest.raises(ValueError, match=r"key 'family' must be one of \['truncated_exponential', "
                           r"'truncated_normal', 'uniform'\], got 'beta'"):
            distribution_from_config({"family": "beta", "lower": 0, "upper": 1})

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing key"):
            distribution_from_config({"family": "uniform", "lower": 0.4})

    def test_bad_support(self):
        with pytest.raises(ValueError, match="lower < upper"):
            Uniform(0.8, 0.4)

    @pytest.mark.parametrize("family", [Uniform, TruncatedNormal, TruncatedExponential])
    @pytest.mark.parametrize("lower,upper,field", [
        (0.4, float("inf"), "upper"),
        (float("-inf"), 0.8, "lower"),
        (float("nan"), 0.8, "lower"),
    ])
    def test_non_finite_support_bound(self, family, lower, upper, field):
        with pytest.raises(ValueError, match=f"support bound {field} must be finite"):
            family(lower, upper)


NORMAL_LAWS = [
    TruncatedNormal(0.4, 0.8, mu=0.3, sigma=0.3),
    TruncatedNormal(0.5, 0.9, mu=0.7, sigma=0.1),
    TruncatedNormal(-1.0, 2.0, mu=0.5, sigma=1.5),
]


def direct_normal(dist):
    """The truncated-normal formulas written against scipy.special directly."""
    z = lambda t: (np.asarray(t, dtype=float) - dist.mu) / dist.sigma
    mass = float(ndtr(z(dist.upper)) - ndtr(z(dist.lower)))
    pdf = lambda t: np.exp(-(z(t) ** 2) / 2.0) / np.sqrt(2 * np.pi) / (dist.sigma * mass)
    survival = lambda t: (ndtr(-z(t)) - ndtr(-z(dist.upper))) / mass
    return {
        "_mass": mass,
        "pdf": pdf,
        "cdf": lambda t: (ndtr(z(t)) - ndtr(z(dist.lower))) / mass,
        "survival": survival,
        "quantile": lambda u: dist.mu + dist.sigma * ndtri(ndtr(z(dist.lower))
                                                           + np.asarray(u, dtype=float) * mass),
        "virtual_value": lambda t: t - survival(t) / pdf(t),
    }


class TestDeferredNormalLaw:
    """Importing scipy.special on first use changes no bit of the truncated normal."""

    @pytest.mark.parametrize("dist", NORMAL_LAWS, ids=str)
    @pytest.mark.parametrize("shape", ["scalar", "array"])
    def test_bit_identical_to_direct_formulas(self, dist, shape):
        want = direct_normal(dist)
        assert dist._mass == want["_mass"]
        thetas = np.linspace(dist.lower, dist.upper, 33)
        us = np.linspace(0.0, 1.0, 33)
        if shape == "scalar":
            thetas, us = float(thetas[11]), float(us[11])
        for name in ("pdf", "cdf", "survival", "virtual_value"):
            assert np.array_equal(getattr(dist, name)(thetas), want[name](thetas)), name
        assert np.array_equal(dist.quantile(us), want["quantile"](us))

    @pytest.mark.parametrize("engine", [QuadratureEngine(order=4), MonteCarloEngine(300, seed=2)],
                             ids=["quadrature", "mc"])
    def test_first_use_in_threaded_curves(self, hub5, engine, tmp_path):
        """A fresh process whose first truncated-normal call is inside interim_curves(threads=2)
        gets the curves of a threads=1 run, byte for byte."""
        sc = Scenario(hub5.network, hub5.params, TruncatedNormal(0.4, 0.8, mu=0.4, sigma=0.3))
        assert sc.valid
        # unpickling skips Scenario.__post_init__, so no law function runs before the curves
        (tmp_path / "in.pkl").write_bytes(pickle.dumps((sc, engine)))
        script = (
            "import pickle, sys\n"
            "import numpy as np\n"
            "from netmech import interim_curves\n"
            f"sc, engine = pickle.loads(open({str(tmp_path / 'in.pkl')!r}, 'rb').read())\n"
            "assert 'scipy.special' not in sys.modules\n"
            "curves = interim_curves(sc, 9, engine, threads=2)\n"
            "assert 'scipy.special' in sys.modules\n"
            f"np.savez({str(tmp_path / 'out.npz')!r}, gamma=curves.gamma, v=curves.v, c=curves.c,\n"
            "         se=np.zeros(0) if curves.gamma_se is None else curves.gamma_se)\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        got = np.load(tmp_path / "out.npz")
        want = interim_curves(sc, 9, engine, threads=1)
        for key, value in (("gamma", want.gamma), ("v", want.v), ("c", want.c),
                           ("se", np.zeros(0) if want.gamma_se is None else want.gamma_se)):
            assert got[key].tobytes() == value.tobytes(), key
