"""The optimal mechanism: demand allocation, interim curves, reward schedule.

For a type profile theta the optimal content demand solves the linear system

    A(theta) x = (s+a-p) * 1,      A = (t+b) I - (M G + G^T M),

where M = diag(phi(theta_1), ..., phi(theta_n)) holds the virtual values.
Under the feasibility assumption A is strictly diagonally dominant with
positive diagonal and nonpositive off-diagonal entries (an M-matrix), so the
solve is well posed and the solution is entrywise positive.

A single profile is solved matrix-free by conjugate gradients, which needs
only products with G. Regularity (Assumption 1) gives 0 <= phi <= theta_bar,
so with s = min row slack of Assumption 2 every A(theta) in the support is
symmetric with its spectrum and ||A||_inf inside [s, 2(t+b) - s]
(Gershgorin), and ||A^{-1}||_inf <= 1/s (Varah). Both bounds are known before
the first iteration: the condition bound caps the iteration count, and a
residual r turns into the forward-error bound ||x - x*||_inf <= ||r||_inf / s.
Batched solves (``solve_profiles``, the curve kernel) stay on direct LU.

Interim quantities are expectations over the other users' types as a function
of one user's own reported type v:

    gamma_i(v) = E[ x_i * sum_j g_ij x_j ]
    V_i(v)     = E[ (a-p) x_i - (b/2) x_i^2 ]
    C_i(v)     = E[ s x_i - (t/2) x_i^2 ]

estimated either by tensor Gauss-Legendre quadrature (tight, small n) or by
Monte Carlo with common random numbers: one sample set of the other users'
types is reused across the whole type grid so the grid structure of the
curves is not drowned by independent noise.

Along the grid only user i's virtual value moves, and it enters A through a
symmetric rank-2 term: with g_i = G[i, :],

    A(v) = B - phi_i(v) (e_i g_i^T + g_i e_i^T),

where B is A with phi_i = 0 (the finite-update form of the K-sensitivity
lemma dK/dtheta_i = K (E_i G + G^T E_i) K). One factorization per sample
solves B [y z w] = [c 1, e_i, g_i], and the Sherman-Morrison-Woodbury
identity turns every grid point into a 2x2 solve for (g_i.x, x_i), which is
all that gamma, V and C need. The cost is one O(n^3) factorization per
sample, not per sample and grid point. Memory is bounded by the float budget
``_CHUNK_FLOATS``: stacked B matrices are solved in chunks of samples, and the
grid stage runs in chunks of grid points, so each array of a chunk holds about
that many floats whatever the sample count (at least one n x n matrix).

The interim reward schedule that makes truth-telling optimal is

    r_i(v) = integral_{lower}^{v} gamma_i(y) dy - v * gamma_i(v) - V_i(v)

discretized with a cumulative trapezoid on the curve grid and interpolated
linearly between grid points. The ex-post reward paid to user i depends on
the own report only: R_i(theta_hat) = r_i(theta_hat_i).
"""

from __future__ import annotations

import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv
from .distributions import SupportError, TypeDistribution
from .market import Scenario


class SolverError(RuntimeError):
    """The demand system is singular or too ill-conditioned to trust."""


class EngineError(ValueError):
    """An expectation engine cannot serve the requested configuration."""


class NegativeRewardWarning(UserWarning):
    """The reward formula produced negative values somewhere on the grid."""


# maximum a-priori condition bound (2(t+b) - s) / s accepted by demand_solve
_COND_LIMIT = 1e12
# residual accepted from a demand or base-system solve, relative to the right-hand side
_RESIDUAL_TOL = 1e-10
# tensor quadrature needs order**(n-1) nodes per user; beyond this, use Monte Carlo
_MAX_QUADRATURE_USERS = 7
# floats per array in one chunk of the curve kernel: the stacked n x n matrices
# of a chunk of samples, or the (grid points x samples) arrays of a grid chunk
_CHUNK_FLOATS = 2**20


def _assemble(sc: Scenario, phis: np.ndarray) -> np.ndarray:
    """A = (t+b) I - (M G + G^T M) for a stack of virtual-value profiles (..., n)."""
    g = sc.network.weights
    tb = sc.params.t + sc.params.b
    return tb * np.eye(sc.n) - phis[..., :, None] * g - g.T * phis[..., None, :]


def system_matrix(sc: Scenario, theta) -> np.ndarray:
    """Assemble A = (t+b) I - (M G + G^T M) for one type profile."""
    th = sc.check_profile(theta)
    return _assemble(sc, np.asarray(sc.dist.virtual_value(th), dtype=float))


def dominance_slack(a: np.ndarray) -> np.ndarray:
    """Per-row diagonal dominance slack a_ii - sum_{j != i} |a_ij|."""
    return np.diag(a) - (np.abs(a).sum(axis=1) - np.abs(np.diag(a)))


@dataclass(frozen=True)
class DemandSolution:
    """A guarded single-profile demand solve.

    ``error_bound`` bounds ||x - x*||_inf by Varah's ||A^{-1}||_inf <= 1 / min
    row slack, which holds on the whole support: it is ||c 1 - A x||_inf,
    recomputed from x, plus the rounding bound of that evaluation, divided by
    the min row slack.
    """

    x: np.ndarray
    iterations: int
    error_bound: float


def _cg(apply_a, rhs: np.ndarray, x: np.ndarray, floor, cap: int):
    """Unpreconditioned conjugate gradients from x until ||r||_inf <= floor(x).

    Returns (x, iterations); raises SolverError after ``cap`` iterations.
    """
    r = rhs - apply_a(x)
    d = r.copy()
    rr = r @ r
    iterations = 0
    while np.abs(r).max() > floor(x):
        if iterations == cap:
            worst = int(np.argmax(np.abs(r)))
            raise SolverError(
                f"user {worst}: CG residual |r_{worst}| = {abs(r[worst]):.3g} still above "
                f"the backward-error floor {floor(x):.3g} after {cap} iterations"
            )
        q = apply_a(d)
        alpha = rr / (d @ q)
        x = x + alpha * d
        r = r - alpha * q
        rr, rr_old = r @ r, rr
        d = r + (rr / rr_old) * d
        iterations += 1
    return x, iterations


def demand_solution(sc: Scenario, theta) -> DemandSolution:
    """Optimal demand for one type profile by matrix-free CG, with its error bound.

    Every bound comes from the scenario: with s = min row slack,
    kappa(A) <= (2(t+b) - s) / s sets the iteration cap, and the stop rule is
    the backward-error floor ||r||_inf <= 8 eps (||A||_inf ||x||_inf + c) with
    ||A||_inf <= 2(t+b) - s. Raises SolverError naming the user when a virtual
    value leaves [0, theta_bar], a demand is not positive, or the recomputed
    residual misses ``_RESIDUAL_TOL`` * c.
    """
    sc.require_valid()
    th = sc.check_profile(theta)
    phi = np.asarray(sc.dist.virtual_value(th), dtype=float)
    theta_bar = sc.assumption2.theta_max
    bad = ~((phi >= 0) & (phi <= theta_bar))
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverError(
            f"user {i}: virtual value phi_{i} = {phi[i]:.6g} leaves [0, theta_bar = "
            f"{theta_bar:g}], the premise of the a-priori bounds (Assumption 1)"
        )
    g = sc.network.weights
    p = sc.params
    tb = p.t + p.b
    c = p.s + p.a - p.p
    row_slack = sc.assumption2.row_slack
    slack = float(np.min(row_slack))
    norm_a = 2.0 * tb - slack
    kappa = norm_a / slack
    if not kappa <= _COND_LIMIT:
        worst = int(np.argmin(row_slack))
        raise SolverError(
            f"demand system ill-conditioned: a-priori bound cond <= {kappa:.3g} exceeds "
            f"{_COND_LIMIT:g} (min row slack {slack:g} at user {worst})"
        )
    # Chebyshev: ||r_k||_2 <= 2 sqrt(kappa) exp(-2k / sqrt(kappa)) ||r_0||_2, and
    # ||r_0||_2 <= sqrt(n) c from x0 = c / (t+b), while the floor is >= 8 eps c
    eps = np.finfo(float).eps
    root = np.sqrt(kappa)
    cap = int(np.ceil(0.5 * root * np.log(root * np.sqrt(sc.n) / (4.0 * eps))))

    def apply_a(v):
        return tb * v - phi * (g @ v) - g.T @ (phi * v)

    def floor(x):
        return 8.0 * eps * (norm_a * np.abs(x).max() + c)

    rhs = np.full(sc.n, c)
    x, iterations = _cg(apply_a, rhs, np.full(sc.n, c / tb), floor, cap)
    bad = ~(x > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverError(
            f"user {i}: demand x_{i} = {x[i]:.6g} is not positive, "
            f"which Assumption 2 promises"
        )
    residual = np.abs(rhs - apply_a(x))
    worst = int(np.argmax(residual))
    if not residual[worst] <= _RESIDUAL_TOL * c:
        raise SolverError(
            f"user {worst}: demand residual |r_{worst}| = {residual[worst]:.3g} "
            f"exceeds tolerance {_RESIDUAL_TOL * c:.3g}"
        )
    # the evaluated residual is within (n+3) eps (||A|| ||x|| + c) of the exact one
    rounding = (sc.n + 3) * eps * (norm_a * x.max() + c)
    return DemandSolution(x, iterations, float(residual[worst] + rounding) / slack)


def demand_solve(sc: Scenario, theta) -> np.ndarray:
    """Optimal demand profile for one type profile (guarded matrix-free CG)."""
    return demand_solution(sc, theta).x


def foc_residual(sc: Scenario, theta, x) -> float:
    """Max absolute first-order-condition violation of a candidate demand."""
    # matrix-free on purpose: an independent check on _assemble and the solve
    th = sc.check_profile(theta)
    x = np.asarray(x, dtype=float)
    phi = np.asarray(sc.dist.virtual_value(th), dtype=float)
    g = sc.network.weights
    p = sc.params
    term = (p.s + p.a - p.p) - (p.t + p.b) * x + phi * (g @ x) + g.T @ (phi * x)
    return float(np.max(np.abs(term)))


def k_matrix(sc: Scenario, theta) -> np.ndarray:
    """Explicit inverse of the system matrix (tests and sensitivity only)."""
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
    slope = float(sc.dist.virtual_value_slope(th[i]))
    g = sc.network.weights
    b = np.zeros((sc.n, sc.n))
    b[i, :] += slope * g[i, :]
    b[:, i] += slope * g[i, :]
    return k @ b @ k


def solve_profiles(sc: Scenario, phis: np.ndarray) -> np.ndarray:
    """Batched demand solve for a stack of virtual-value profiles (..., n)."""
    rhs = np.full(phis.shape + (1,), sc.params.s + sc.params.a - sc.params.p)
    return np.linalg.solve(_assemble(sc, phis), rhs)[..., 0]


# ---------------------------------------------------------------------------
# expectation engines
# ---------------------------------------------------------------------------


class QuadratureEngine:
    """Tensor Gauss-Legendre expectation over the other users' types.

    The node count grows as order**(n-1); refuse networks beyond
    ``_MAX_QUADRATURE_USERS`` and point to the Monte Carlo engine instead.
    """

    kind = "quadrature"

    def __init__(self, order: int = 8):
        if order < 1:
            raise EngineError("quadrature order must be >= 1")
        self.order = order
        self._cache: dict = {}

    @property
    def metadata(self) -> dict:
        return {"method": "quadrature", "order": self.order}

    def _rule(self, dist: TypeDistribution):
        key = ("rule", dist)
        if key not in self._cache:
            x, w = np.polynomial.legendre.leggauss(self.order)
            half = 0.5 * (dist.upper - dist.lower)
            nodes = dist.lower + (x + 1.0) * half
            weights = w * half * np.asarray(dist.pdf(nodes), dtype=float)
            self._cache[key] = (nodes, weights)
        return self._cache[key]

    def others_samples(self, dist: TypeDistribution, n: int, i: int):
        """(values, weights) for the n-1 other coordinates; independent of i."""
        if n > _MAX_QUADRATURE_USERS:
            raise EngineError(
                f"tensor quadrature limited to n <= {_MAX_QUADRATURE_USERS} users "
                f"(got n={n}); use MonteCarloEngine"
            )
        n_others = n - 1
        key = ("tensor", dist, n_others)
        if key not in self._cache:
            nodes, weights = self._rule(dist)
            if n_others == 0:
                self._cache[key] = (np.zeros((1, 0)), np.ones(1))
            else:
                idx = np.indices((self.order,) * n_others).reshape(n_others, -1).T
                self._cache[key] = (nodes[idx], np.prod(weights[idx], axis=1))
        return self._cache[key]


class MonteCarloEngine:
    """Monte Carlo expectation with common random numbers.

    One uniform matrix is drawn per (distribution, n) and mapped through the
    quantile function; user i's sample set is the columns other than i, so it
    is identical across grid points and heavily shared across users.
    """

    kind = "mc"

    def __init__(self, samples: int = 20_000, seed: int = 0):
        if samples < 1:
            raise EngineError("need at least one Monte Carlo sample")
        self.samples = samples
        self.seed = seed
        self._cache: dict = {}

    @property
    def metadata(self) -> dict:
        return {"method": "mc", "samples": self.samples, "seed": self.seed}

    def _values(self, dist: TypeDistribution, n: int) -> np.ndarray:
        key = (dist, n)
        if key not in self._cache:
            rng = np.random.default_rng(self.seed)
            self._cache[key] = np.asarray(
                dist.quantile(rng.random((self.samples, n))), dtype=float
            )
        return self._cache[key]

    def others_samples(self, dist: TypeDistribution, n: int, i: int):
        values = self._values(dist, n)
        others = np.delete(np.arange(n), i)
        return values[:, others], np.full(self.samples, 1.0 / self.samples)


# ---------------------------------------------------------------------------
# interim curves and rewards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterimCurves:
    """Per-user interim quantities on a common type grid.

    Rows of users that were not requested are NaN; ``users`` lists the
    computed ones. ``gamma_se`` is the Monte Carlo standard error of gamma
    (None for quadrature).
    """

    grid: np.ndarray
    gamma: np.ndarray
    v: np.ndarray
    c: np.ndarray
    users: tuple
    method: str
    detail: dict
    gamma_se: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.gamma.shape[0]


def _on_grid(grid: np.ndarray, theta, what: str) -> np.ndarray:
    """theta as a float array; SupportError naming ``what`` if any value is off the grid."""
    theta = np.asarray(theta, dtype=float)
    outside = ~((theta >= grid[0]) & (theta <= grid[-1]))
    if outside.any():
        raise SupportError(
            f"{what} {theta[outside].flat[0]} outside grid [{grid[0]}, {grid[-1]}]"
        )
    return theta


@dataclass(frozen=True)
class RewardSchedule:
    """Interim reward r_i on the curve grid, linear interpolation in between."""

    grid: np.ndarray
    rewards: np.ndarray
    users: tuple

    def reward(self, i: int, theta):
        """r_i at the reports theta (any shape); a float for scalar input."""
        r = np.interp(_on_grid(self.grid, theta, "report"), self.grid, self.rewards[i])
        return float(r) if r.ndim == 0 else r

    def rewards_for_profile(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return np.array([self.reward(i, theta[i]) for i in range(len(theta))])


def _chunk_slices(m: int, chunk: int):
    for start in range(0, m, chunk):
        yield slice(start, min(start + chunk, m))


def _rank2_factors(sc: Scenario, i: int, phis_others: np.ndarray):
    """Per-sample SMW factors of user i's curve: s = [g_i.y, y_i] and S (2 x 2).

    Solves B [y z w] = [c 1, e_i, g_i] for every sample of the other users'
    virtual values, where B is A with phi_i = 0; returns s with shape
    (samples, 2) and S with shape (samples, 2, 2), rows (g_i.[z w], [z_i w_i]).
    """
    n = sc.n
    n_samples = phis_others.shape[0]
    others = np.delete(np.arange(n), i)
    g_i = sc.network.weights[i]
    rhs = np.zeros((n, 3))
    rhs[:, 0] = sc.params.s + sc.params.a - sc.params.p
    rhs[i, 1] = 1.0
    rhs[:, 2] = g_i
    rhs_scale = np.abs(rhs).max(axis=0)
    g_sol = np.empty((n_samples, 3))
    i_sol = np.empty((n_samples, 3))
    for sl in _chunk_slices(n_samples, max(1, _CHUNK_FLOATS // (n * n))):
        phis = np.zeros((sl.stop - sl.start, n))
        phis[:, others] = phis_others[sl]
        b = _assemble(sc, phis)
        sol = np.linalg.solve(b, rhs)
        residual = np.abs(b @ sol - rhs).max(axis=1)
        bad = ~(residual <= _RESIDUAL_TOL * rhs_scale)
        if bad.any():
            k, col = np.argwhere(bad)[0]
            raise SolverError(
                f"user {i}: base system (phi_{i} = 0) residual {residual[k, col]:.3g} "
                f"exceeds tolerance in right-hand side {('c*1', 'e_i', 'g_i')[col]} "
                f"at sample {sl.start + k}"
            )
        g_sol[sl] = g_i @ sol
        i_sol[sl] = sol[:, i, :]
    s = np.stack([g_sol[:, 0], i_sol[:, 0]], axis=1)
    big_s = np.stack([g_sol[:, 1:], i_sol[:, 1:]], axis=1)
    return s, big_s


def interim_curves(
    sc: Scenario,
    grid_size: int,
    engine,
    users=None,
    threads: int = 1,
) -> InterimCurves:
    """Estimate gamma_i, V_i, C_i on a uniform type grid for the given users.

    Deterministic for a fixed engine configuration regardless of ``threads``:
    each user is one independent task whose outputs land in preallocated
    rows, chunk sizes depend only on the problem, and every reduction runs in
    a fixed order. Raises SolverError naming the user, the grid type and the
    quantity when a solve breaks the M-matrix promises of Assumption 2
    (det(I - phi S) > 0, x_i > 0, g_i.x >= 0) or misses the residual tolerance.
    """
    if grid_size < 9:
        raise ValueError("need grid_size >= 9")
    sc.require_valid()
    n = sc.n
    user_list = list(range(n)) if users is None else sorted(set(int(u) for u in users))
    if any(u < 0 or u >= n for u in user_list):
        raise IndexError("user index out of range")
    if not user_list:
        raise ValueError("need at least one user")
    dist = sc.dist
    p = sc.params
    grid = np.linspace(dist.lower, dist.upper, grid_size)
    phi_grid = np.asarray(dist.virtual_value(grid), dtype=float)

    gamma = np.full((n, grid_size), np.nan)
    v = np.full((n, grid_size), np.nan)
    c = np.full((n, grid_size), np.nan)
    track_se = engine.kind == "mc"
    gamma_se = np.full((n, grid_size), np.nan) if track_se else None

    samples_lock = threading.Lock()

    def run_user(i):
        with samples_lock:  # engines fill their sample caches on first use
            values, weights = engine.others_samples(dist, n, i)
        n_samples = values.shape[0]
        s, big_s = _rank2_factors(sc, i, np.asarray(dist.virtual_value(values), dtype=float))
        for sl in _chunk_slices(grid_size, max(1, _CHUNK_FLOATS // n_samples)):
            ph = phi_grid[sl][:, None]
            # (I - phi S) [g_i.x, x_i] = s, solved in closed form
            d00 = 1.0 - ph * big_s[:, 0, 0]
            d11 = 1.0 - ph * big_s[:, 1, 1]
            det = d00 * d11 - ph * ph * big_s[:, 0, 1] * big_s[:, 1, 0]
            gx = (d11 * s[:, 0] + ph * big_s[:, 0, 1] * s[:, 1]) / det
            xi = (d00 * s[:, 1] + ph * big_s[:, 1, 0] * s[:, 0]) / det
            for name, value, ok in (
                ("det(I - phi S)", det, det > 0),
                (f"x_{i}", xi, xi > 0),
                (f"g_{i}.x", gx, gx >= 0),
            ):
                if not ok.all():
                    k, j = np.argwhere(~ok)[0]
                    raise SolverError(
                        f"user {i} at theta {grid[sl][k]:.12g}: {name} = {value[k, j]:.6g} "
                        f"at sample {j} breaks the sign that Assumption 2 promises"
                    )
            gamma_samples = xi * gx
            v_samples = (p.a - p.p) * xi - 0.5 * p.b * xi**2
            c_samples = p.s * xi - 0.5 * p.t * xi**2
            gamma[i, sl] = gamma_samples @ weights
            v[i, sl] = v_samples @ weights
            c[i, sl] = c_samples @ weights
            if track_se:
                resid = gamma_samples - gamma[i, sl][:, None]
                var = (resid**2 @ weights) * n_samples / max(1, n_samples - 1)
                gamma_se[i, sl] = np.sqrt(var / n_samples)

    if threads > 1 and len(user_list) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(run_user, user_list))
    else:
        for i in user_list:
            run_user(i)

    return InterimCurves(
        grid=grid,
        gamma=gamma,
        v=v,
        c=c,
        users=tuple(user_list),
        method=engine.kind,
        detail=engine.metadata,
        gamma_se=gamma_se,
    )


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral along the last axis, zero at the first node."""
    steps = np.diff(x)
    partial = 0.5 * (y[..., 1:] + y[..., :-1]) * steps
    out = np.zeros(y.shape)
    out[..., 1:] = np.cumsum(partial, axis=-1)
    return out


def truthful_interim_utility(curves: InterimCurves) -> np.ndarray:
    """Interim utility of truthful reporting on the grid: cumulative integral of gamma."""
    return cumulative_trapezoid(curves.gamma, curves.grid)


def reward_schedule(curves: InterimCurves) -> RewardSchedule:
    """Build the reward schedule from interim curves.

    Negative rewards are legal output of the formula; they are reported with
    a warning rather than clipped, because clipping would break incentive
    compatibility.
    """
    grid = curves.grid
    if np.any(np.diff(grid) <= 0):
        raise ValueError("curve grid must be strictly ascending")
    integral = cumulative_trapezoid(curves.gamma, grid)
    rewards = integral - grid[None, :] * curves.gamma - curves.v
    negative = []
    for i in curves.users:
        idx = np.flatnonzero(rewards[i] < 0)
        if idx.size:
            negative.append(f"user {i} at theta in [{grid[idx[0]]:g}, {grid[idx[-1]]:g}]")
    if negative:
        warnings.warn(
            "negative rewards on grid: " + "; ".join(negative),
            NegativeRewardWarning,
            stacklevel=2,
        )
    return RewardSchedule(grid=grid, rewards=rewards, users=curves.users)


def cp_expected_utility(sc: Scenario, curves: InterimCurves, rewards: RewardSchedule) -> float:
    """Expected provider utility: sum_i integral of (C_i - r_i) against the pdf."""
    _require_all_users(sc, curves)
    if rewards.grid.shape != curves.grid.shape or np.any(rewards.grid != curves.grid):
        raise ValueError("curves and rewards must share one grid")
    f = np.asarray(sc.dist.pdf(curves.grid), dtype=float)
    integrand = (curves.c - rewards.rewards) * f[None, :]
    return float(np.sum(np.trapezoid(integrand, curves.grid, axis=1)))


def cp_expected_utility_virtual(sc: Scenario, curves: InterimCurves) -> float:
    """Same quantity through the virtual-surplus form: sum_i E[C_i + V_i + phi*gamma_i]."""
    _require_all_users(sc, curves)
    phi = np.asarray(sc.dist.virtual_value(curves.grid), dtype=float)
    f = np.asarray(sc.dist.pdf(curves.grid), dtype=float)
    integrand = (curves.c + curves.v + phi[None, :] * curves.gamma) * f[None, :]
    return float(np.sum(np.trapezoid(integrand, curves.grid, axis=1)))


def _require_all_users(sc: Scenario, curves: InterimCurves) -> None:
    if tuple(curves.users) != tuple(range(sc.n)):
        raise ValueError("provider utility needs curves for every user")


def export_interim_csv(curves: InterimCurves, rewards: RewardSchedule, path) -> None:
    """Write user, theta, gamma, V, C, r rows (12 significant digits)."""
    rows = []
    for i in curves.users:
        for k, theta in enumerate(curves.grid):
            rows.append(
                (
                    i,
                    float(theta),
                    float(curves.gamma[i, k]),
                    float(curves.v[i, k]),
                    float(curves.c[i, k]),
                    float(rewards.rewards[i, k]),
                )
            )
    write_csv(path, ("user", "theta", "gamma", "V", "C", "r"), rows)
