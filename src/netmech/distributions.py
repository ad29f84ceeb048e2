"""Continuous type distributions on a bounded support [lower, upper].

A user's private type is drawn from one of the families below. Beyond the
usual pdf/cdf/quantile surface, each family exposes the two derived objects
the allocation rule is built from:

    hazard(theta)        = pdf(theta) / (1 - cdf(theta))
    virtual_value(theta) = theta - (1 - cdf(theta)) / pdf(theta)

The mechanism is only well behaved for *regular* distributions: hazard
non-decreasing and virtual value non-negative over the whole support.
``validate_regularity`` checks both on a dense grid and reports the worst
slack instead of raising, so irregular inputs can be diagnosed.

The hazard rate has a pole at ``upper`` (survival goes to zero); the virtual
value stays finite there and equals ``upper`` in the limit, which is how it
is evaluated. Hazard grids must therefore exclude the upper endpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri


class SupportError(ValueError):
    """A type value lies outside the distribution's support."""


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the regularity (monotone hazard + nonnegative virtual value) check."""

    grid_points: int
    min_hazard_step: float
    min_virtual_value: float
    tolerance: float = 1e-12

    @property
    def hazard_monotone(self) -> bool:
        return self.min_hazard_step >= -self.tolerance

    @property
    def virtual_value_nonnegative(self) -> bool:
        return self.min_virtual_value >= -self.tolerance

    @property
    def passed(self) -> bool:
        return self.hazard_monotone and self.virtual_value_nonnegative

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"regularity {status}: min hazard step {self.min_hazard_step:.6g}, "
            f"min virtual value {self.min_virtual_value:.6g} "
            f"(grid {self.grid_points}, tol {self.tolerance:g})"
        )


@dataclass(frozen=True)
class TypeDistribution:
    """Base class: a continuous law on [lower, upper] with positive density inside."""

    lower: float
    upper: float

    def __post_init__(self) -> None:
        for name in ("lower", "upper"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"support bound {name} must be finite, got {value}")
        if not (self.lower < self.upper):
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")

    # -- family surface -------------------------------------------------

    def pdf(self, theta):
        raise NotImplementedError

    def cdf(self, theta):
        raise NotImplementedError

    def survival(self, theta):
        """1 - cdf, overridden where a cancellation-free form exists."""
        return 1.0 - self.cdf(theta)

    def quantile(self, u):
        raise NotImplementedError

    def _slope(self, theta: np.ndarray):
        """d(virtual value)/d(theta) on a float array inside the support."""
        raise NotImplementedError

    # -- derived objects -------------------------------------------------

    def hazard(self, theta):
        """pdf / survival; defined for theta in [lower, upper)."""
        theta = self._check_support(theta, allow_upper=False)
        return self.pdf(theta) / self.survival(theta)

    def virtual_value(self, theta):
        """theta - survival/pdf; equals upper at the upper endpoint (limit)."""
        theta = self._check_support(theta)
        return theta - self.survival(theta) / self.pdf(theta)

    def virtual_value_slope(self, theta):
        """d(virtual value)/d(theta); a float for scalar input."""
        out = self._slope(np.asarray(self._check_support(theta), dtype=float))
        return float(out) if out.ndim == 0 else out

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n iid draws by inverse-cdf sampling; deterministic given seed."""
        if n < 1:
            raise ValueError("need n >= 1")
        rng = np.random.default_rng(seed)
        return np.asarray(self.quantile(rng.random(n)), dtype=float)

    # -- helpers ----------------------------------------------------------

    def _check_support(self, theta, allow_upper: bool = True):
        arr = np.asarray(theta, dtype=float)
        top_ok = arr <= self.upper if allow_upper else arr < self.upper
        if not np.all((arr >= self.lower) & top_ok):
            interval = "[{}, {}{}".format(self.lower, self.upper, "]" if allow_upper else ")")
            raise SupportError(f"type value outside support {interval}")
        return theta


@dataclass(frozen=True)
class Uniform(TypeDistribution):
    """Uniform law on [lower, upper]; virtual value is exactly 2*theta - upper."""

    def pdf(self, theta):
        self._check_support(theta)
        return np.full_like(np.asarray(theta, dtype=float), 1.0 / (self.upper - self.lower))[()]

    def cdf(self, theta):
        self._check_support(theta)
        return (np.asarray(theta, dtype=float) - self.lower) / (self.upper - self.lower)

    def survival(self, theta):
        return (self.upper - np.asarray(theta, dtype=float)) / (self.upper - self.lower)

    def quantile(self, u):
        return self.lower + np.asarray(u, dtype=float) * (self.upper - self.lower)

    def virtual_value(self, theta):
        self._check_support(theta)
        return 2.0 * np.asarray(theta, dtype=float) - self.upper

    def _slope(self, theta):
        return np.full_like(theta, 2.0)


@dataclass(frozen=True)
class TruncatedNormal(TypeDistribution):
    """Normal(mu, sigma) conditioned on [lower, upper]."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def _z(self, theta):
        return (np.asarray(theta, dtype=float) - self.mu) / self.sigma

    @property
    def _mass(self) -> float:
        # probability the untruncated normal assigns to [lower, upper]
        return float(ndtr(self._z(self.upper)) - ndtr(self._z(self.lower)))

    def pdf(self, theta):
        self._check_support(theta)
        z = self._z(theta)
        return np.exp(-(z**2) / 2.0) / np.sqrt(2 * np.pi) / (self.sigma * self._mass)

    def cdf(self, theta):
        self._check_support(theta)
        return (ndtr(self._z(theta)) - ndtr(self._z(self.lower))) / self._mass

    def survival(self, theta):
        # sf-based form stays accurate in the upper tail
        return (ndtr(-self._z(theta)) - ndtr(-self._z(self.upper))) / self._mass

    def quantile(self, u):
        base = ndtr(self._z(self.lower)) + np.asarray(u, dtype=float) * self._mass
        return self.mu + self.sigma * ndtri(base)

    def _slope(self, theta):
        return 2.0 - self.survival(theta) * self._z(theta) / (self.sigma * self.pdf(theta))


@dataclass(frozen=True)
class TruncatedExponential(TypeDistribution):
    """Exponential(rate) conditioned on [lower, upper]."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    @property
    def _mass(self) -> float:
        return float(-math.exp(-self.rate * self.lower) * math.expm1(-self.rate * (self.upper - self.lower)))

    def pdf(self, theta):
        self._check_support(theta)
        return self.rate * np.exp(-self.rate * np.asarray(theta, dtype=float)) / self._mass

    def cdf(self, theta):
        self._check_support(theta)
        t = np.asarray(theta, dtype=float)
        return -np.expm1(-self.rate * (t - self.lower)) * math.exp(-self.rate * self.lower) / self._mass

    def survival(self, theta):
        t = np.asarray(theta, dtype=float)
        return -np.exp(-self.rate * t) * np.expm1(-self.rate * (self.upper - t)) / self._mass

    def quantile(self, u):
        lo = math.exp(-self.rate * self.lower)
        hi = math.exp(-self.rate * self.upper)
        return -np.log(lo - np.asarray(u, dtype=float) * (lo - hi)) / self.rate

    def virtual_value(self, theta):
        self._check_support(theta)
        t = np.asarray(theta, dtype=float)
        # survival/pdf collapses to (1 - exp(-rate*(upper-theta))) / rate
        return t + np.expm1(-self.rate * (self.upper - t)) / self.rate

    def _slope(self, theta):
        return 1.0 + np.exp(-self.rate * (self.upper - theta))


def validate_regularity(dist: TypeDistribution, grid_points: int = 512) -> RegularityReport:
    """Check monotone hazard and nonnegative virtual value on a dense grid.

    Failures are report content, not exceptions: the report carries the worst
    hazard step and the smallest virtual value seen. The hazard is evaluated
    on a grid that stops short of the upper endpoint (pole).
    """
    if grid_points < 16:
        raise ValueError("need grid_points >= 16")
    grid = np.linspace(dist.lower, dist.upper, grid_points)
    hazard = dist.hazard(grid[:-1])
    phi = dist.virtual_value(grid)
    return RegularityReport(
        grid_points=grid_points,
        min_hazard_step=float(np.min(np.diff(hazard))),
        min_virtual_value=float(np.min(phi)),
    )


_FAMILIES = {
    "uniform": Uniform,
    "truncated_normal": TruncatedNormal,
    "truncated_exponential": TruncatedExponential,
}


def distribution_from_config(cfg: dict) -> TypeDistribution:
    """Build a distribution from ``{family, lower, upper, params}``."""
    try:
        family = cfg["family"]
        lower = float(cfg["lower"])
        upper = float(cfg["upper"])
    except KeyError as exc:
        raise ValueError(f"distribution config missing key: {exc}") from exc
    try:
        cls = _FAMILIES[str(family).lower()]
    except KeyError:
        raise ValueError(
            f"unknown distribution family {family!r}; expected one of {sorted(_FAMILIES)}"
        ) from None
    params = {k: float(v) for k, v in cfg.get("params", {}).items()}
    return cls(lower=lower, upper=upper, **params)
