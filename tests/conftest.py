import tracemalloc

import numpy as np
import pytest

from netmech import (
    MarketParams,
    Network,
    Scenario,
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
)
from netmech.market import scaled_random_half_network

CASE_PARAMS = MarketParams(a=0.5, b=6.0, s=1.0, t=1.0, p=0.1)
UNIFORM = Uniform(0.4, 0.8)


def traced_peak(fn):
    """fn() and the tracemalloc peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def complete_network(n: int) -> Network:
    return Network(np.ones((n, n)) - np.eye(n))


def large_scenario(symmetric: bool, n: int = 300) -> Scenario:
    """A feasible random-half scenario whose G holds more than the operator's row-panel
    budget of 2**16 floats (n > 256); halving the weights below the diagonal makes G asymmetric."""
    w = scaled_random_half_network(n, 5, CASE_PARAMS, UNIFORM.upper)[0].weights
    if not symmetric:
        w = w * np.where(np.tri(n, k=-1) > 0, 0.5, 1.0)
    return Scenario(Network(w), CASE_PARAMS, UNIFORM)


def zero_network(n: int) -> Network:
    return Network(np.zeros((n, n)))


def path_network(n: int) -> Network:
    """The path 0 - 1 - ... - n-1: for n >= 4 no two users are twins."""
    w = np.zeros((n, n))
    for a in range(n - 1):
        w[a, a + 1] = w[a + 1, a] = 1.0
    return Network(w)


def alone(n: int) -> tuple:
    """The classes of a twin-free network of n users: every user alone."""
    return tuple((u,) for u in range(n))


def whole_samples(engine, dist, n: int, i: int):
    """(types, weights) of user i's whole sample set with no twins, read as one slice of
    ``others_rows``."""
    rows = engine.others_rows(dist, n, i, alone(n))
    return rows.types(slice(0, rows.shape[0])), rows.weights


def random_valid_scenario(rng: np.random.Generator, n: int | None = None,
                          families=("uniform", "truncated_exponential", "truncated_normal")) -> Scenario:
    """Random scenario passing both validators, deterministic in rng state."""
    if n is None:
        n = int(rng.integers(2, 21))
    for _ in range(20):
        family = families[int(rng.integers(len(families)))]
        if family == "uniform":
            lo = rng.uniform(0.3, 0.7)
            hi = lo + rng.uniform(0.05, min(lo, 0.5))
            dist = Uniform(lo, hi)
        elif family == "truncated_exponential":
            lo = rng.uniform(0.4, 0.8)
            hi = lo + rng.uniform(0.05, min(lo, 0.4))
            dist = TruncatedExponential(lo, hi, rate=rng.uniform(0.5, 3.0))
        else:
            lo = rng.uniform(0.5, 0.8)
            hi = lo + rng.uniform(0.1, 0.3)
            dist = TruncatedNormal(lo, hi, mu=lo, sigma=rng.uniform(0.5, 1.5) * (hi - lo))
        a = rng.uniform(0.1, 1.0)
        b = rng.uniform(1.0, 8.0)
        s = rng.uniform(0.5, 2.0)
        t = rng.uniform(0.5, 2.0)
        p = rng.uniform(0.0, s + a - 0.1)
        params = MarketParams(a=a, b=b, s=s, t=t, p=p)
        weights = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(weights, 0.0)
        coupling = float((weights.sum(axis=1) + weights.sum(axis=0)).max())
        if coupling > 0:
            weights *= rng.uniform(0.2, 0.8) * (t + b) / (dist.upper * coupling)
        sc = Scenario(Network(weights), params, dist)
        if sc.valid:
            return sc
    raise RuntimeError("could not build a valid random scenario")


@pytest.fixture
def case_params() -> MarketParams:
    return CASE_PARAMS


@pytest.fixture
def uniform_dist() -> Uniform:
    return UNIFORM


@pytest.fixture
def complete5(case_params, uniform_dist) -> Scenario:
    return Scenario(complete_network(5), case_params, uniform_dist)


@pytest.fixture
def zero5(case_params, uniform_dist) -> Scenario:
    return Scenario(zero_network(5), case_params, uniform_dist)


@pytest.fixture
def path5(case_params, uniform_dist) -> Scenario:
    return Scenario(path_network(5), case_params, uniform_dist)


@pytest.fixture
def hub5(case_params, uniform_dist) -> Scenario:
    w = np.zeros((5, 5))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    return Scenario(Network(w), case_params, uniform_dist)


@pytest.fixture
def scenario_factory():
    return random_valid_scenario
