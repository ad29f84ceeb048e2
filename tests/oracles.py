"""Independent reference forms of the paper's results, for the tests to compare against.

``bruteforce_oracle`` maximizes the virtual surplus directly and shares no code with
the demand solve it checks, so a fault in the solve cannot make both sides agree. It
needs no concavity guard: after ``require_valid``, 0 <= phi <= theta_bar leaves every
row slack of A(theta) at least (t+b) - theta_bar sum_j (g_ij + g_ji) > 0.
"""

from __future__ import annotations

import math
from itertools import chain, combinations_with_replacement

import numpy as np

from netmech import (
    InterimCurves,
    RewardSchedule,
    Scenario,
    TruncatedExponential,
    TruncatedNormal,
    Uniform,
    mechanism,
    system_matrix,
)


def virtual_surplus(sc: Scenario, theta, x: np.ndarray) -> np.ndarray:
    """Pointwise virtual-surplus objective, vectorized over stacked x rows."""
    th = sc.check_profile(theta)
    phi = np.asarray(sc.dist.virtual_value(th), dtype=float)
    g = sc.network.weights
    p = sc.params
    x = np.atleast_2d(np.asarray(x, dtype=float))
    linear = (p.s + p.a - p.p) * x.sum(axis=-1)
    quad = 0.5 * (p.t + p.b) * (x**2).sum(axis=-1)
    cross = ((phi * x) * (x @ g.T)).sum(axis=-1)
    return linear - quad + cross


def _x_upper_bound(sc: Scenario) -> float:
    slack = float(np.min(sc.assumption2.row_slack))
    return (sc.params.s + sc.params.a - sc.params.p) / slack


def bruteforce_oracle(sc: Scenario, theta, method: str = "grid") -> np.ndarray:
    """Maximize the virtual surplus directly; test oracle for the linear solve.

    ``grid``: full grid search with window refinement, n <= 3 only.
    ``ascent``: projected gradient ascent with a conservative step size.
    """
    sc.require_valid()
    theta = sc.check_profile(theta)
    if method == "grid":
        return _grid_maximize(sc, theta)
    if method == "ascent":
        return _ascent_maximize(sc, theta)
    raise ValueError(f"unknown oracle method {method!r}")


def _grid_maximize(sc: Scenario, theta, points: int = 21, rounds: int = 6) -> np.ndarray:
    n = sc.n
    if n > 3:
        raise ValueError("grid search oracle limited to n <= 3")
    lo = np.zeros(n)
    hi = np.full(n, _x_upper_bound(sc))
    best = None
    for _ in range(rounds):
        axes = [np.linspace(lo[d], hi[d], points) for d in range(n)]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, n)
        values = virtual_surplus(sc, theta, mesh)
        best = mesh[int(np.argmax(values))]
        span = (hi - lo) / (points - 1)
        lo = np.maximum(best - span, 0.0)
        hi = best + span
    return best


def _ascent_maximize(sc: Scenario, theta, tol: float = 1e-11, max_iter: int = 200_000) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    phi = np.asarray(sc.dist.virtual_value(th), dtype=float)
    g = sc.network.weights
    p = sc.params
    tb = p.t + p.b
    coupling = (phi[:, None] * g + g.T * phi[None, :]).sum(axis=1).max()
    step = 1.0 / (tb + coupling)  # below 2/L for the concave quadratic
    x = np.full(sc.n, (p.s + p.a - p.p) / tb)
    for _ in range(max_iter):
        grad = (p.s + p.a - p.p) - tb * x + phi * (g @ x) + g.T @ (phi * x)
        x_new = np.maximum(x + step * grad, 0.0)
        if np.max(np.abs(x_new - x)) < tol:
            return x_new
        x = x_new
    return x


def virtual_value_slope(dist, theta):
    """d(virtual value)/d(theta) of a type law at theta inside its support; a float for scalar input."""
    t = np.asarray(theta, dtype=float)
    if isinstance(dist, Uniform):
        out = np.full_like(t, 2.0)
    elif isinstance(dist, TruncatedNormal):
        z = (t - dist.mu) / dist.sigma
        out = 2.0 - dist.survival(t) * z / (dist.sigma * dist.pdf(t))
    elif isinstance(dist, TruncatedExponential):
        out = 1.0 + np.exp(-dist.rate * (dist.upper - t))
    else:
        raise TypeError(f"no virtual-value slope for {type(dist).__name__}")
    return float(out) if out.ndim == 0 else out


def k_matrix(sc: Scenario, theta) -> np.ndarray:
    """Explicit inverse of the system matrix."""
    return np.linalg.inv(system_matrix(sc, theta))


def k_sensitivity(sc: Scenario, theta, i: int) -> np.ndarray:
    """Derivative of K = A^{-1} with respect to user i's type: K (E_i G + G^T E_i) K.

    E_i carries d(phi)/d(theta_i) at entry (i, i) and zeros elsewhere; under
    regularity the result is entrywise nonnegative.
    """
    sc.require_valid()
    th = sc.check_profile(theta)
    if not 0 <= i < sc.n:
        raise IndexError(f"user index {i} out of range for n={sc.n}")
    k = k_matrix(sc, th)
    slope = float(virtual_value_slope(sc.dist, th[i]))
    g = sc.network.weights
    b = np.zeros((sc.n, sc.n))
    b[i, :] += slope * g[i, :]
    b[:, i] += slope * g[i, :]
    return k @ b @ k


def cp_expected_utility(sc: Scenario, curves: InterimCurves, rewards: RewardSchedule) -> float:
    """Expected provider utility: sum_i integral of (C_i - r_i) against the pdf."""
    if tuple(curves.users) != tuple(range(sc.n)):
        raise ValueError("provider utility needs curves for every user")
    if rewards.grid.shape != curves.grid.shape or np.any(rewards.grid != curves.grid):
        raise ValueError("curves and rewards must share one grid")
    f = np.asarray(sc.dist.pdf(curves.grid), dtype=float)
    integrand = (curves.c - rewards.rewards) * f[None, :]
    return float(np.sum(np.trapezoid(integrand, curves.grid, axis=1)))


def cp_expected_utility_virtual(sc: Scenario, curves: InterimCurves) -> float:
    """Expected provider utility through the virtual-surplus form: sum_i E[C_i + V_i + phi*gamma_i]."""
    if tuple(curves.users) != tuple(range(sc.n)):
        raise ValueError("provider utility needs curves for every user")
    phi = np.asarray(sc.dist.virtual_value(curves.grid), dtype=float)
    f = np.asarray(sc.dist.pdf(curves.grid), dtype=float)
    integrand = (curves.c + curves.v + phi[None, :] * curves.gamma) * f[None, :]
    return float(np.sum(np.trapezoid(integrand, curves.grid, axis=1)))


def user_utility(sc: Scenario, x, rewards, true_theta, i: int) -> float:
    """Ex-post utility of user i under demand x, rewards R, and true types."""
    x = np.asarray(x, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    theta = np.asarray(true_theta, dtype=float)
    n = sc.n
    if x.shape != (n,) or rewards.shape != (n,) or theta.shape != (n,):
        raise ValueError("x, rewards, and true_theta must all have length n")
    if not 0 <= i < n:
        raise IndexError(f"user index {i} out of range for n={n}")
    p = sc.params
    internal = p.a * x[i] - 0.5 * p.b * x[i] ** 2
    network = theta[i] * x[i] * float(sc.network.weights[i] @ x)
    return float(internal + network - p.p * x[i] + rewards[i])


def tensor_rule(dist, n: int, order: int):
    """(types, weights) of the full order**(n-1) Gauss-Legendre tensor over n-1 users, in C
    order, each weight the product of its nodes' weights, left to right."""
    x, w = np.polynomial.legendre.leggauss(order)
    half = 0.5 * (dist.upper - dist.lower)
    nodes = dist.lower + (x + 1.0) * half
    node_weights = w * half * np.asarray(dist.pdf(nodes), dtype=float)
    idx = np.indices((order,) * (n - 1)).reshape(n - 1, order ** (n - 1)).T
    return nodes[idx], np.prod(node_weights[idx], axis=1)


def tensor_curves(sc: Scenario, grid_size: int, order: int, users) -> dict:
    """gamma, V and C of ``users`` on the full tensor rule: the kernel's factors of every
    node (``_rank2_factors`` on the whole array, one chunk) and one LAPACK 2x2 solve per
    (grid point, node)."""
    n, dist, p = sc.n, sc.dist, sc.params
    types, weights = tensor_rule(dist, n, order)
    phis = np.asarray(dist.virtual_value(types), dtype=float)
    grid = np.linspace(dist.lower, dist.upper, grid_size)
    phi = np.asarray(dist.virtual_value(grid), dtype=float)[:, None, None, None]
    out = {key: np.full((n, grid_size), np.nan) for key in ("gamma", "v", "c")}
    for i in users:
        s, big_s = mechanism._rank2_factors(sc, i, phis, slice(0, len(phis)))
        m = np.eye(2) - phi * big_s
        x = np.linalg.solve(m, np.broadcast_to(s[..., None], m.shape[:-1] + (1,)))[..., 0]
        gx, xi = x[..., 0], x[..., 1]
        out["gamma"][i] = (xi * gx) @ weights
        out["v"][i] = ((p.a - p.p) * xi - 0.5 * p.b * xi**2) @ weights
        out["c"][i] = (p.s * xi - 0.5 * p.t * xi**2) @ weights
    return out


def multisets(order: int, k: int, node_weights: np.ndarray):
    """The k-node multisets of range(order) from itertools, in its lexicographic order, and
    their weights: the product of a row's node weights, left to right, times k! / prod m!."""
    flat = chain.from_iterable(combinations_with_replacement(range(order), k))
    rows = np.fromiter(flat, dtype=np.intp).reshape(-1, k)
    # run[:, j] counts the equal nodes up to j of a sorted multiset, so prod(run) = prod m!
    run = np.ones(rows.shape)
    for j in range(1, k):
        run[:, j] += (rows[:, j] == rows[:, j - 1]) * run[:, j - 1]
    return rows, np.prod(node_weights[rows], axis=1) * (math.factorial(k) / np.prod(run, axis=1))


def network_weights(kind: str, n: int, seed=None, edges=(), weight: float = 1.0) -> np.ndarray:
    """The generators' weights built the plain way, in separate float arrays: each random_k
    row draws from the array of the other users, and the adjacency is symmetrized by a maximum."""
    if kind == "complete":
        w = np.ones((n, n)) - np.eye(n)
    elif kind in ("star", "hub_plus_edge"):
        w = np.zeros((n, n))
        w[0, 1:] = 1.0
        w[1:, 0] = 1.0
        if kind == "hub_plus_edge":
            w[2, 3] = w[3, 2] = 1.0
    elif kind == "random_k":
        rng = np.random.default_rng(seed)
        w = np.zeros((n, n))
        for i in range(n):
            w[i, rng.choice(np.delete(np.arange(n), i), size=n // 2, replace=False)] = 1.0
        w = np.maximum(w, w.T)
    elif kind == "edges":
        w = np.zeros((n, n))
        for i, j, g in edges:
            w[i, j] = w[j, i] = g
    else:
        raise ValueError(f"no reference for network kind {kind!r}")
    return w * weight


def scaled_random_half_weights(n: int, seed: int, params, theta_max: float, edge_weight=None):
    """random_k's weights times the edge weight that leaves a factor-2 margin on the worst
    dominance row (or ``edge_weight``), and that weight."""
    w = network_weights("random_k", n, seed)
    if edge_weight is None:
        coupling = float((w.sum(axis=1) + w.sum(axis=0)).max())
        edge_weight = 0.5 * (params.t + params.b) / (theta_max * coupling) if coupling else 1.0
    return w * edge_weight, edge_weight
