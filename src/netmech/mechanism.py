"""The optimal mechanism: demand allocation, interim curves, reward schedule.

For a type profile theta the optimal content demand solves the linear system

    A(theta) x = (s+a-p) * 1,      A = (t+b) I - (M G + G^T M),

where M = diag(phi(theta_1), ..., phi(theta_n)) holds the virtual values.
Under the feasibility assumption A is strictly diagonally dominant with
positive diagonal and nonpositive off-diagonal entries (an M-matrix), so the
solve is well posed and the solution is entrywise positive.

Every solve in the mechanism goes through ``_solve``, the one guarded solve:
matrix-free conjugate gradients (``_cg``) on the products with A that
``Network.operator`` makes, and every check that decides whether its result
can be trusted. Regularity (Assumption 1) gives 0 <= phi <= theta_bar, so with
s = min row slack of Assumption 2 every A(theta) in the support, and every A
with some phi_j set to 0, is symmetric with its spectrum and ||A||_inf inside
[s, 2(t+b) - s] (Gershgorin), and ||A^{-1}||_inf <= 1/s (Varah). These bounds
are known before the first iteration (``_a_priori``): the condition bound caps
the iteration count, and a residual r turns into the forward-error bound
||x - x*||_inf <= ||r||_inf / s. A solve is refused when its recomputed
residual misses the backward-error test ||r||_inf <= ``_RESIDUAL_TOL``
(||A||_inf ||x||_inf + ||rhs||_inf), the form of CG's stop rule; the
forward-error bound is what it certifies. Only ``solve_profiles`` (table2's
timing and the test oracles) stays on direct LU, unguarded.

Interim quantities are expectations over the other users' types as a function
of one user's own reported type v:

    gamma_i(v) = E[ x_i * sum_j g_ij x_j ]
    V_i(v)     = E[ (a-p) x_i - (b/2) x_i^2 ]
    C_i(v)     = E[ s x_i - (t/2) x_i^2 ]

estimated either by Gauss-Legendre quadrature over the other users' twin
classes (tight, while the rule fits its budgets) or by Monte Carlo with common
random numbers: one sample set of the other users' types is reused across the
whole type grid so the grid structure of the curves is not drowned by
independent noise. Both engines are plain values:
``others_rows(dist, n, i, classes)`` is a pure function that rebuilds the
rule, or reseeds the generator, on each call, and hands out the sample set a
slice of rows at a time: quadrature computes the rows' node indices, and Monte
Carlo advances the generator past the earlier rows, so any slicing gives the
rows of the one (samples, n) uniform draw. Users share their common columns,
and threads share an engine without a lock. Each engine also states its own
error: ``standard_error(values, means, weights)`` is Monte Carlo's i.i.d.
standard error of the means, and None for quadrature, which states none.

An engine's ``classes(network)`` partitions the users, and ``interim_curves``
uses the partition at two levels. Only the first requested user of each class
is computed, and its rows are copied to the class's other requested users.
And user i's rule runs over the classes of the other users. Quadrature's
classes are the twins of ``market.twin_classes``, users whose swap leaves G
unchanged: the types are i.i.d. and the Gauss-Legendre rule is symmetric in
its coordinates, so k others of one class take the C(order+k-1, k) multisets
of k nodes, weighted by the multinomial k! / prod m!, not the order**k tuples,
and the rule has prod_c C(order+k_c-1, k_c) rows. At order 8, hub5 needs 1296
rows for its hub and 2304 for each other user, against 4096; complete5 needs
330. On a twin-free network every class is one user, and the rule is the
tensor, bit for bit. Monte Carlo gives each user other columns of its matrix,
so its sample sets are not symmetric, and its classes are single users.

Along the grid only user i's virtual value moves, and it enters A through a
symmetric rank-2 term: with g_i = G[i, :],

    A(v) = B - phi_i(v) (e_i g_i^T + g_i e_i^T),

where B is A with phi_i = 0 (the finite-update form of the K-sensitivity
lemma dK/dtheta_i = K (E_i G + G^T E_i) K). With y = B^-1 c 1,
z = B^-1 e_i and w = B^-1 g_i per sample, the Sherman-Morrison-Woodbury
identity turns every grid point into the 2x2 solve

    (I - phi_i S) [g_i.x, x_i] = s,   s = [g_i.y, y_i],   S = [g_i.[z w]; [z_i w_i]],

which is all that gamma, V and C need; B is symmetric, so y never has to be
solved. All samples' z and w are solved by one matrix-free CG on a stack with
one system per column, at O(n^2) per iteration and system, not per sample and
grid point. Cramer's rule then runs on four coefficients formed once per
sample, ca = S10 s0 - S00 s1, cb = S01 s1 - S11 s0, tr = S00 + S11 and
dt = det S, held as three (2, samples) stacks tr_dt = [tr, -dt],
x_num = [ca, s1] and g_num = [cb, s0]. A chunk of grid points makes each
quantity by one K=2 product (a BLAS GEMM) of its rows of [phi_i, phi_i^2]
or [phi_i, 1] with a stack:

    det = 1 - [phi_i, phi_i^2] tr_dt,  x_i = [phi_i, 1] x_num / det,  g_i.x = [phi_i, 1] g_num / det,

six passes per (grid point, sample) element (three products, a subtraction
and two divisions), then each sign guard one min-reduction. gamma is
E[x_i g_i.x]; V and C are quadratics in x_i, so both come from E[x_i] and
E[x_i^2], one product with the weights each. Memory is chunked under the
float budget ``_CHUNK_FLOATS``. The CG stack runs in chunks of samples, each
array about that many floats (at least one system). A CG chunk draws only its
own rows of the sample set, and its solve allocates one workspace up front,
so its iterations allocate nothing of the stack's size. The grid stage runs
in chunks of at least one grid point, so each of its arrays holds at most
max(``_CHUNK_FLOATS``, samples) floats: past 2^16 samples, one float per
sample. What grows with the sample count is therefore the per-sample
factors, stacks and weights, and the grid stage's arrays. The stacks are
filled in place, s freed once copied and S once read, so at most eleven
floats per sample are held: s, S, the weights and four rows of stacks, then
S, the weights and all six. The grid stage holds seven (stacks and weights)
plus three arrays per running chunk (det, x_i and g_i.x; the standard
error's temporary takes det's place), times the pool's workers, at most
``os.cpu_count()``. With one user, its chunks are the parallel tasks.

The interim reward schedule that makes truth-telling optimal is

    r_i(v) = integral_{lower}^{v} gamma_i(y) dy - v * gamma_i(v) - V_i(v)

discretized with a cumulative trapezoid on the curve grid. Between grid points
gamma and V are linear, and r follows the exact integral of that
piecewise-linear gamma: at fraction t of cell k, of width h, it is the linear
interpolant of the node rewards plus t (1 - t) h (gamma_{k+1} - gamma_k) / 2,
a term that is exactly 0 at every node. With I the integral of that gamma
from lower,

    U_i(theta, theta_hat) = I(theta_hat) + (theta - theta_hat) gamma_i(theta_hat),

so a misreport gains integral_{theta}^{theta_hat} (gamma_i(y) - gamma_i(theta_hat)) dy,
which is <= 0 for every pair on the interval exactly when the node gammas are
non-decreasing, and truth-telling earns I(theta) >= 0: a passed monotonicity
check certifies IC and IR on the continuum, not only on the nodes. The
ex-post reward paid to user i depends on the own report only:
R_i(theta_hat) = r_i(theta_hat_i).
"""

from __future__ import annotations

import math
import os
import warnings
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, combinations_with_replacement

import numpy as np

from .csvio import write_csv
from .distributions import SupportError, TypeDistribution
from .market import Network, Scenario, twin_classes


class SolverError(RuntimeError):
    """The demand system is singular or too ill-conditioned to trust."""


class EngineError(ValueError):
    """An expectation engine cannot serve the requested configuration."""


class NegativeRewardWarning(UserWarning):
    """The reward formula produced negative values somewhere on the grid."""


# maximum a-priori condition bound (2(t+b) - s) / s accepted by demand_solve
_COND_LIMIT = 1e12
# backward error accepted from a demand or base-system solve: the recomputed residual
# relative to ||A||_inf ||x||_inf + ||rhs||_inf
_RESIDUAL_TOL = 1e-10
# the smallest type grid of the interim curves and the IC sweeps
MIN_GRID = 9
# rows of one user's quadrature rule, prod_c C(order+k_c-1, k_c) over the classes of the
# other users (order**(n-1) on a twin-free network); beyond these, use Monte Carlo
_MAX_QUADRATURE_NODES = 2**20
# floats of one user's sample set (128 MiB), refused before any draw or multiset: the
# samples * n uniforms a Monte Carlo set draws, or the (rows, n-1) types of a quadrature
# rule; the curve kernel reads either in row chunks, so neither is held whole
_MAX_MC_FLOATS = 2**24
# floats per array in one chunk of the curve kernel (512 KiB, cache-sized): the
# (n, 2 samples) CG stack of a chunk of samples, or the (grid points, samples)
# arrays of a grid chunk, which has at least one grid point: past 2**16 samples, one row
_CHUNK_FLOATS = 2**16


def _assemble(sc: Scenario, phis: np.ndarray) -> np.ndarray:
    """A = (t+b) I - (M G + G^T M) for a stack of virtual-value profiles (..., n)."""
    g = sc.network.weights
    tb = sc.params.t + sc.params.b
    return tb * np.eye(sc.n) - phis[..., :, None] * g - g.T * phis[..., None, :]


def system_matrix(sc: Scenario, theta) -> np.ndarray:
    """Assemble A = (t+b) I - (M G + G^T M) for one type profile."""
    th = sc.check_profile(theta)
    return _assemble(sc, np.asarray(sc.dist.virtual_value(th), dtype=float))


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


@dataclass(frozen=True)
class _APriori:
    """Bounds that every system matrix of a valid scenario meets, known before a solve.

    ``slack`` is s = min row slack, ``norm`` = 2(t+b) - s bounds ||A||_inf and
    ``cap`` is the CG iteration cap from the Chebyshev bound on kappa(A).
    """

    slack: float
    norm: float
    cap: int


def _a_priori(sc: Scenario, system: str) -> _APriori:
    """The a-priori bounds of the scenario's system matrices; SolverError if too ill-conditioned.

    With s = min row slack, kappa <= (2(t+b) - s) / s. Chebyshev gives
    ||r_k||_2 <= 2 sqrt(kappa) exp(-2k / sqrt(kappa)) ||r_0||_2; from x0 =
    rhs / (t+b), ||r_0||_2 <= sqrt(n) ||rhs||_inf, while the stop floor is
    >= 8 eps ||rhs||_inf, which sets the cap. ``system`` names the matrix in
    the refusal.
    """
    tb = sc.params.t + sc.params.b
    row_slack = sc.assumption2.row_slack
    slack = float(np.min(row_slack))
    norm = 2.0 * tb - slack
    kappa = norm / slack
    if not kappa <= _COND_LIMIT:
        worst = int(np.argmin(row_slack))
        raise SolverError(
            f"{system} ill-conditioned: a-priori bound cond <= {kappa:.3g} exceeds "
            f"{_COND_LIMIT:g} (min row slack {slack:g} at user {worst})"
        )
    root = np.sqrt(kappa)
    cap = int(np.ceil(0.5 * root * np.log(root * np.sqrt(sc.n) / (4.0 * np.finfo(float).eps))))
    return _APriori(slack, norm, cap)


def _dots(u: np.ndarray, v: np.ndarray):
    """Column-wise inner products of two (n, ...) stacks."""
    # a 1-D BLAS dot: einsum's call overhead costs a single solve about 5%
    return u @ v if u.ndim == 1 else np.einsum("i...,i...->...", u, v)


def _cg(apply_a, rhs: np.ndarray, x: np.ndarray, floor, cap: int,
        name=lambda system, entry: f"user {entry}", work=None):
    """Unpreconditioned conjugate gradients on every column of an (n, ...) stack from x.

    Systems are columns, so the per-system dots and maxima reduce along the
    leading axis, which stays fast when n is small. Each system runs its own
    recurrence (its own rr, alpha and beta) until ||r||_inf <= floor(||x||_inf)
    in its column; a system at its floor is frozen, so a zero right-hand side
    costs no 0/0. x is updated in place, and ``work``, three arrays of x's
    shape (allocated if None), holds r, d and a temporary, so an iteration
    allocates nothing of the stack's size beyond what ``apply_a`` does.
    Returns (x, iterations); raises SolverError, prefixed by
    ``name(system, entry)``, after ``cap`` iterations.
    """
    r, d, t = (np.empty(x.shape) for _ in range(3)) if work is None else work
    np.subtract(rhs, apply_a(x), out=r)
    np.copyto(d, r)
    rr = _dots(r, r)
    iterations = 0
    while True:
        fl = floor(np.abs(x, out=t).max(axis=0))
        active = np.abs(r, out=t).max(axis=0) > fl
        if not np.count_nonzero(active):
            return x, iterations
        if iterations == cap:
            system = int(np.argmax(active))
            r_sys = r.reshape(len(r), -1)[:, system]
            entry = int(np.argmax(np.abs(r_sys)))
            bound = np.broadcast_to(fl, active.shape).ravel()[system]
            raise SolverError(
                f"{name(system, entry)}: CG residual |r_{entry}| = {abs(r_sys[entry]):.3g} "
                f"still above the backward-error floor {bound:.3g} after {cap} iterations"
            )
        # frozen systems get alpha = beta = 0 / (. + 1); active ones rr / (. + 0)
        frozen = np.logical_not(active)
        q = apply_a(d)
        alpha = rr * active / (_dots(d, q) + frozen)
        x += np.multiply(alpha, d, out=t)
        r -= np.multiply(alpha, q, out=t)
        rr, rr_old = _dots(r, r), rr
        np.add(r, np.multiply(rr * active / (rr_old + frozen), d, out=t), out=d)
        iterations += 1


def _solve(sc: Scenario, phi: np.ndarray, rhs: np.ndarray, system: str,
           name=lambda column, entry: f"user {entry}"):
    """The one guarded solve: A(phi) X = rhs on every column of an (n,) or (n, k) stack.

    Column k of phi holds system k's virtual values; ``Network.operator`` makes the
    products with A(phi), and its one allocation also holds X and CG's three vectors.
    The checks: every phi in [0, theta_bar], the premise of ``_a_priori``, whose
    condition refusal names ``system``; CG from X0 = rhs / (t+b) until each column
    meets the backward-error floor 8 eps (||A||_inf ||x||_inf + ||rhs||_inf), within
    the a-priori cap; and the recomputed residual within ``_RESIDUAL_TOL`` times the
    same scale in each column. A SolverError is prefixed by ``name(column, entry)``.
    Returns (X, iterations, residual, bounds), residual = ||rhs - A X||_inf per column.
    """
    theta_bar = sc.assumption2.theta_max
    # min and max carry a NaN, which fails the test too
    if not (phi.min() >= 0 and phi.max() <= theta_bar):
        bad = ~((phi >= 0) & (phi <= theta_bar))
        bad = bad.reshape(len(bad), -1)
        column = int(np.argmax(bad.any(axis=0)))
        entry = int(np.argmax(bad[:, column]))
        raise SolverError(
            f"{name(column, entry)}: virtual value phi_{entry} = "
            f"{phi.reshape(len(phi), -1)[entry, column]:.6g} leaves [0, theta_bar = "
            f"{theta_bar:g}], the premise of the a-priori bounds (Assumption 1)"
        )
    bounds = _a_priori(sc, system)
    tb = sc.params.t + sc.params.b
    apply_a, (x, r, d, t) = sc.network.operator(phi, tb, spare=4)
    scale = np.abs(rhs, out=r).max(axis=0)

    def floor(x_norm):
        return 8.0 * np.finfo(float).eps * (bounds.norm * x_norm + scale)

    x, iterations = _cg(apply_a, rhs, np.divide(rhs, tb, out=x), floor, bounds.cap, name, (r, d, t))
    residual = np.abs(np.subtract(rhs, apply_a(x), out=r), out=r)
    worst = residual.max(axis=0)
    # backward error, as in the stop rule: an absolute bound in ||rhs|| alone sits below
    # the rounding of A x once ||x|| >> ||rhs|| / ||A||, which no solver can meet
    tolerance = _RESIDUAL_TOL * (bounds.norm * np.abs(x, out=d).max(axis=0) + scale)
    bad = np.ravel(~(worst <= tolerance))
    if bad.any():
        column = int(np.argmax(bad))
        entry = int(np.argmax(residual.reshape(len(residual), -1)[:, column]))
        raise SolverError(
            f"{name(column, entry)}: residual |r_{entry}| = {np.ravel(worst)[column]:.3g} "
            f"exceeds backward-error tolerance {np.ravel(tolerance)[column]:.3g}"
        )
    return x, iterations, worst, bounds


def demand_solution(sc: Scenario, theta) -> DemandSolution:
    """Optimal demand for one type profile by the guarded solve, with its error bound.

    ``_solve`` runs every check on the CG result; here x must also be
    positive, which Assumption 2 promises. Raises SolverError naming the user
    when a virtual value leaves [0, theta_bar], a demand is not positive, or
    the recomputed residual misses ``_RESIDUAL_TOL`` (||A||_inf ||x||_inf + c).
    """
    sc.require_valid()
    th = sc.check_profile(theta)
    phi = np.asarray(sc.dist.virtual_value(th), dtype=float)
    p = sc.params
    c = p.s + p.a - p.p
    x, iterations, residual, bounds = _solve(sc, phi, np.full(sc.n, c), "demand system")
    bad = ~(x > 0)
    if bad.any():
        i = int(np.argmax(bad))
        raise SolverError(
            f"user {i}: demand x_{i} = {x[i]:.6g} is not positive, "
            f"which Assumption 2 promises"
        )
    # the evaluated residual is within (n+3) eps (||A|| ||x|| + c) of the exact one
    rounding = (sc.n + 3) * np.finfo(float).eps * (bounds.norm * x.max() + c)
    return DemandSolution(x, iterations, float(residual + rounding) / bounds.slack)


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


def solve_profiles(sc: Scenario, phis: np.ndarray) -> np.ndarray:
    """Batched demand solve for a stack of virtual-value profiles (..., n), by direct LU.

    Unguarded: no premise, condition or residual check. It serves only
    table2's timing of the O(n^3) solve and the test oracles; every certified
    number comes from the guarded ``_solve``.
    """
    rhs = np.full(phis.shape + (1,), sc.params.s + sc.params.a - sc.params.p)
    return np.linalg.solve(_assemble(sc, phis), rhs)[..., 0]


# ---------------------------------------------------------------------------
# expectation engines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampleRows:
    """One user's sample set of the other users' types, made a slice of rows at a time.

    ``types(rows)`` is the (rows, n-1) block of types of a slice of samples,
    the same values whether the set is made whole or in consecutive slices,
    and ``self[rows]`` their virtual values, so the curve kernel indexes it
    like the (samples, n-1) virtual-value array it never builds. ``weights``
    are every sample's weights.
    """

    dist: TypeDistribution
    weights: np.ndarray
    types: Callable[[slice], np.ndarray]
    shape: tuple

    def __getitem__(self, rows: slice) -> np.ndarray:
        return np.asarray(self.dist.virtual_value(self.types(rows)), dtype=float)


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """The Gauss-Legendre nodes and weights on [-1, 1], computed once per order and read-only."""
    rule = np.polynomial.legendre.leggauss(order)
    for a in rule:
        a.flags.writeable = False
    return rule


@dataclass(frozen=True)
class QuadratureEngine:
    """Gauss-Legendre expectation over the other users' types, reduced by their twin classes.

    User i's rule has prod_c C(order+k_c-1, k_c) rows over the classes of the
    other users; refuse more than ``_MAX_QUADRATURE_NODES`` rows, or a
    (rows, n-1) set of types over ``_MAX_MC_FLOATS`` floats, before any
    multiset is built, and point to the Monte Carlo engine instead. The types
    are i.i.d. and the rule is symmetric in its coordinates, so nodes that
    differ by a permutation within a class of twins give equal integrands,
    and twin users get equal curves: ``classes`` are the twin classes. A
    deterministic rule, it states no ``standard_error``.
    """

    order: int = 8
    standard_error = None

    def __post_init__(self):
        if self.order < 1 or self.order**2 > _MAX_MC_FLOATS:
            raise EngineError(f"quadrature order {self.order} needs order >= 1 and an order x order "
                              f"eigenproblem of {self.order**2} floats within the budget of {_MAX_MC_FLOATS}")

    def classes(self, network: Network) -> tuple:
        """``twin_classes(network)``, after refusing n users before their classes are known:
        no partition of the n-1 others gives fewer rows than the C(order+n-2, n-1) of one
        class of all of them."""
        n = network.n
        self._refuse_over_budget(n, math.comb(self.order + n - 2, n - 1), "at least ")
        return twin_classes(network)

    def _refuse_over_budget(self, n: int, count: int, least: str = "") -> None:
        floats = count * (n - 1)
        if count > _MAX_QUADRATURE_NODES or floats > _MAX_MC_FLOATS:
            raise EngineError(
                f"quadrature of order {self.order} at n={n} needs {least}{count} nodes "
                f"(budget {_MAX_QUADRATURE_NODES}) and {least}{floats} floats of types "
                f"(budget {_MAX_MC_FLOATS}); lower the order or use MonteCarloEngine"
            )

    def others_rows(self, dist: TypeDistribution, n: int, i: int, classes) -> SampleRows:
        """User i's rule as ``SampleRows`` over ``classes``, a partition of the users into
        classes of twins (``twin_classes``).

        The k other users of a class take the C(order+k-1, k) multisets of k
        nodes, in lexicographic order, each weighted by the product of its
        node weights, left to right, times the multinomial k! / prod m!. Row
        numbers are mixed-radix over these classes, in the order of
        ``classes``, the last the fastest. With every class a single user, in
        user order, this is the order**(n-1) tensor in C order, row k's
        weight the product of its nodes' weights, left to right."""
        # per class of the others: its columns (user u's is u, or u - 1 past i) and its
        # number of multisets, counted before any is built
        columns = [[u - (u > i) for u in members if u != i] for members in classes]
        columns = [c for c in columns if c]
        radices = [math.comb(self.order + len(c) - 1, len(c)) for c in columns]
        self._refuse_over_budget(n, math.prod(radices))
        x, w = _gauss_legendre(self.order)
        half = 0.5 * (dist.upper - dist.lower)
        nodes = dist.lower + (x + 1.0) * half
        node_weights = w * half * np.asarray(dist.pdf(nodes), dtype=float)
        parts, class_weights = [], []
        for cols in columns:
            k = len(cols)
            flat = chain.from_iterable(combinations_with_replacement(range(self.order), k))
            multisets = np.fromiter(flat, dtype=np.intp).reshape(-1, k)
            # run[:, j] counts the equal nodes up to j of a sorted multiset, so prod(run) = prod m!
            run = np.ones(multisets.shape)
            for j in range(1, k):
                run[:, j] += (multisets[:, j] == multisets[:, j - 1]) * run[:, j - 1]
            parts.append(multisets)
            class_weights.append(np.prod(node_weights[multisets], axis=1)
                                 * (math.factorial(k) / np.prod(run, axis=1)))
        strides = np.cumprod([1] + radices[:0:-1])[::-1]

        def types(rows):
            # digit k of the row number, in the mixed radix, picks class k's multiset
            r = np.arange(rows.start, rows.stop)
            out = np.empty((r.size, n - 1))
            for cols, multisets, stride, radix in zip(columns, parts, strides, radices):
                out[:, cols] = nodes[multisets[r // stride % radix]]
            return out

        weights = reduce(np.multiply.outer, class_weights, np.ones(())).ravel()
        return SampleRows(dist, weights, types, (weights.size, n - 1))


@dataclass(frozen=True)
class MonteCarloEngine:
    """Monte Carlo expectation with common random numbers.

    The sample set is the rows of one (samples, n) uniform matrix drawn from
    ``seed``; user i's samples are its columns other than i through the
    quantile function, so they are identical across grid points and shared
    between users. A slice of rows is drawn alone, from the generator
    advanced past the rows before it, so the matrix is never held whole.
    Refuse a set that draws more than ``_MAX_MC_FLOATS`` floats, before any
    draw. Twins see different columns, so every user is its own class.
    """

    samples: int = 20_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 1:
            raise EngineError("need at least one Monte Carlo sample")

    def classes(self, network: Network) -> tuple:
        return tuple((u,) for u in range(network.n))

    @staticmethod
    def standard_error(values: np.ndarray, means: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """The i.i.d. standard error of each row's mean: the sample variance about
        ``means``, over m - 1, divided by the m samples (Glasserman 2003, sec. 1.1)."""
        m = weights.size
        var = ((values - means[:, None])**2 @ weights) * m / max(1, m - 1)
        return np.sqrt(var / m)

    def others_rows(self, dist: TypeDistribution, n: int, i: int, classes) -> SampleRows:
        if self.samples * n > _MAX_MC_FLOATS:
            raise EngineError(
                f"Monte Carlo with {self.samples} samples at n={n} draws {self.samples * n} "
                f"floats, over the budget of {_MAX_MC_FLOATS}; lower the sample count"
            )

        def types(rows):
            # a float takes one 64-bit draw, so rows.start rows take rows.start * n of them
            bits = np.random.PCG64(self.seed)
            bits.advance(rows.start * n)
            uniforms = np.random.Generator(bits).random((rows.stop - rows.start, n))
            others = np.delete(uniforms, i, axis=1)
            del uniforms  # not held through the quantile
            return np.asarray(dist.quantile(others), dtype=float)

        return SampleRows(dist, np.full(self.samples, 1.0 / self.samples), types, (self.samples, n - 1))


def make_engine(name: str, quad_order: int, mc_samples: int, seed: int):
    """The expectation engine ``name``: quadrature of ``quad_order``, or Monte
    Carlo with ``mc_samples`` draws from ``seed``. The one place an engine name is read."""
    if name == "quadrature":
        return QuadratureEngine(order=quad_order)
    if name == "mc":
        return MonteCarloEngine(samples=mc_samples, seed=seed)
    raise EngineError(f"unknown engine {name!r}; expected quadrature or mc")


# ---------------------------------------------------------------------------
# interim curves and rewards
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InterimCurves:
    """Per-user interim quantities on a common type grid.

    Rows of users that were not requested are NaN; ``users`` lists the
    computed ones. ``gamma_se`` is the engine's standard error of gamma;
    None when it states none.
    """

    grid: np.ndarray
    gamma: np.ndarray
    v: np.ndarray
    c: np.ndarray
    users: tuple
    gamma_se: np.ndarray | None = None


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
    """Interim reward r_i: ``rewards`` on the curve grid, the exact integral in between.

    ``cell_term[i, k]`` is h (gamma_{k+1} - gamma_k) / 2 for cell k of width
    h; at fraction t of the cell, r is the linear interpolant of the node
    rewards plus t (1 - t) times it.
    """

    grid: np.ndarray
    rewards: np.ndarray
    cell_term: np.ndarray

    def reward(self, i: int, theta):
        """r_i at the reports theta (any shape); a float for scalar input."""
        grid = self.grid
        theta = _on_grid(grid, theta, "report")
        k = np.clip(np.searchsorted(grid, theta, side="right") - 1, 0, grid.size - 2)
        t = (theta - grid[k]) / (grid[k + 1] - grid[k])
        r = np.interp(theta, grid, self.rewards[i]) + t * (1.0 - t) * self.cell_term[i, k]
        return float(r) if r.ndim == 0 else r

    def rewards_for_profile(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        return np.array([self.reward(i, theta[i]) for i in range(len(theta))])


def _chunk_slices(m: int, chunk: int):
    for start in range(0, m, chunk):
        yield slice(start, min(start + chunk, m))


def _map(pool, fn, items) -> None:
    """fn on every item in order, on the pool if there is one; the earliest item's error propagates."""
    if pool is None:
        for item in items:
            fn(item)
    else:
        list(pool.map(fn, items))


def _rank2_factors(sc: Scenario, i: int, phis_others, pool=None):
    """Per-sample SMW factors of user i's curve: s = [g_i.y, y_i] and S (2 x 2).

    For every sample of the other users' virtual values, B is A with
    phi_i = 0, y = B^-1 c 1, z = B^-1 e_i and w = B^-1 g_i. B is symmetric for
    any G, so g_i.y = c 1.w and y_i = c 1.z, and only z and w are solved: by
    the guarded ``_solve`` on the (n, 2 samples) stack [z w], in chunks of
    samples, mapped over ``pool`` if given. ``phis_others`` is a
    (samples, n-1) array or ``SampleRows``; a chunk reads only its own rows
    and builds its own phi and right-hand side, so running chunks share
    nothing but disjoint rows of the outputs, and at most as many chunks'
    arrays are held as chunks run at once. B meets the bounds of
    ``_a_priori``, since phi_i = 0 only raises row slack.
    Returns s with shape (samples, 2) and S with shape (samples, 2, 2), rows
    (g_i.[z w], [z_i w_i]). A SolverError names the user, the right-hand side
    and the sample.
    """
    n = sc.n
    system = f"user {i}: base system (phi_{i} = 0)"
    p = sc.params
    g_i = sc.network.weights[i]
    others = np.delete(np.arange(n), i)
    c = p.s + p.a - p.p
    n_samples = phis_others.shape[0]
    s = np.empty((n_samples, 2))
    big_s = np.empty((n_samples, 2, 2))
    chunk = max(1, _CHUNK_FLOATS // (2 * n))

    def factor(sl):
        m = sl.stop - sl.start
        phi = np.empty((n, 2 * m))
        phi[i] = 0.0
        phi[others, :m] = phis_others[sl].T
        phi[:, m:] = phi[:, :m]
        rhs = np.zeros((n, 2 * m))
        rhs[i, :m] = 1.0
        rhs[:, m:] = g_i[:, None]

        def where(column, entry):
            return (f"{system} right-hand side {('e_i', 'g_i')[column // m]} "
                    f"at sample {sl.start + column % m}")

        x = _solve(sc, phi, rhs, system, where)[0]
        z, w = x[:, :m], x[:, m:]
        s[sl] = c * np.stack([w.sum(axis=0), z.sum(axis=0)], axis=1)
        big_s[sl] = np.stack([g_i @ z, g_i @ w, z[i], w[i]], axis=1).reshape(m, 2, 2)

    _map(pool, factor, _chunk_slices(n_samples, chunk))
    return s, big_s


def interim_curves(
    sc: Scenario,
    grid_size: int,
    engine,
    users=None,
    threads: int = 1,
) -> InterimCurves:
    """Estimate gamma_i, V_i, C_i on a uniform type grid for the given users.

    ``threads`` > 1 runs one pool, of at most ``os.cpu_count()`` workers (live
    memory grows with the workers), at one of two levels. With more than one
    user, the pool maps users and each user runs its chunks in turn; with one
    (fig6 asks for one user), its CG chunks, then its grid chunks, are mapped
    over the pool, so the earliest chunk's SolverError is the one raised, as
    in a serial run. The sample set is read a chunk of rows at a time
    (``others_rows``), so no (samples, n-1) array of types or virtual values
    is built.

    The first requested user of each of the engine's ``classes`` is computed
    and its rows are copied to the class's other requested users; ``threads``
    then applies to the computed users. ``gamma_se`` is filled by the engine's
    ``standard_error`` where it has one.

    Deterministic for a fixed engine configuration regardless of ``threads``:
    every chunk's outputs land in preallocated rows or columns, chunk sizes
    depend only on the problem, and every reduction runs in a fixed order.
    Raises SolverError naming the user, the grid type and the quantity when a
    solve breaks the M-matrix promises of Assumption 2 (det(I - phi S) > 0,
    x_i > 0, g_i.x >= 0) or misses the residual tolerance.
    """
    if grid_size < MIN_GRID:
        raise ValueError(f"need grid_size >= {MIN_GRID}")
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
    # the (grid, 2) left factors of the grid stage's products: [phi, phi^2] and [phi, 1]
    phi_det = np.stack([phi_grid, phi_grid * phi_grid], axis=1)
    phi_num = np.stack([phi_grid, np.ones(grid_size)], axis=1)

    gamma = np.full((n, grid_size), np.nan)
    v = np.full((n, grid_size), np.nan)
    c = np.full((n, grid_size), np.nan)
    gamma_se = None if engine.standard_error is None else np.full((n, grid_size), np.nan)
    classes = engine.classes(sc.network)
    copies = {}
    for members in classes:
        requested = [u for u in members if u in user_list]
        if requested:
            copies[requested[0]] = requested[1:]
    runs = sorted(copies)

    def run_user(i, pool):
        rows = engine.others_rows(dist, n, i, classes)
        weights = rows.weights
        s, big_s = _rank2_factors(sc, i, rows, pool)
        # (I - phi S) [g_i.x, x_i] = s by Cramer's rule: x_num = [ca, s1], g_num = [cb, s0]
        # and tr_dt = [tr, -dt], filled in place with tr_dt[0] as the one temporary
        x_num, g_num = np.empty((2, 2, len(s)))
        g_num[1], x_num[1] = s.T
        del s
        s00, s01, s10, s11 = big_s.reshape(-1, 4).T
        tr_dt = np.empty((2, len(big_s)))
        # -dt = S01 S10 - S00 S11, the exact negation of S00 S11 - S01 S10
        np.multiply(s01, s10, out=tr_dt[1])
        tr_dt[1] -= np.multiply(s00, s11, out=tr_dt[0])
        # ca = S10 s0 - S00 s1 and cb = S01 s1 - S11 s0
        np.multiply(s10, g_num[1], out=x_num[0])
        x_num[0] -= np.multiply(s00, x_num[1], out=tr_dt[0])
        np.multiply(s01, x_num[1], out=g_num[0])
        g_num[0] -= np.multiply(s11, g_num[1], out=tr_dt[0])
        np.add(s00, s11, out=tr_dt[0])
        del big_s, s00, s01, s10, s11

        def grid_chunk(sl):
            # det = 1 - [phi, phi^2] . [tr, -dt], x_i = [phi, 1] . x_num / det and
            # g_i.x = [phi, 1] . g_num / det: three K=2 products
            det = phi_det[sl] @ tr_dt
            np.subtract(1.0, det, out=det)
            xi = phi_num[sl] @ x_num
            xi /= det
            gx = phi_num[sl] @ g_num
            gx /= det
            for name, value, holds in (
                ("det(I - phi S)", det, np.greater),
                (f"x_{i}", xi, np.greater),
                (f"g_{i}.x", gx, np.greater_equal),
            ):
                # one min-reduction: a NaN carries through min and fails the test too
                if not holds(value.min(), 0.0):
                    k, j = np.argwhere(~holds(value, 0.0))[0]
                    raise SolverError(
                        f"user {i} at theta {grid[sl][k]:.12g}: {name} = {value[k, j]:.6g} "
                        f"at sample {j} breaks the sign that Assumption 2 promises"
                    )
            del det, value  # spent: the standard error's temporary takes its place
            gamma_samples = np.multiply(xi, gx, out=gx)
            gamma[i, sl] = gamma_samples @ weights
            # V and C are quadratics in x_i: both come from E[x_i] and E[x_i^2]
            mean = xi @ weights
            xi *= xi
            square = xi @ weights
            v[i, sl] = (p.a - p.p) * mean - 0.5 * p.b * square
            c[i, sl] = p.s * mean - 0.5 * p.t * square
            if gamma_se is not None:
                gamma_se[i, sl] = engine.standard_error(gamma_samples, gamma[i, sl], weights)

        _map(pool, grid_chunk, _chunk_slices(grid_size, max(1, _CHUNK_FLOATS // weights.size)))

    workers = min(threads, os.cpu_count() or 1)
    # one worker stays in this thread, under the caller's np.errstate (pool threads lack it)
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        if len(runs) == 1:
            run_user(runs[0], pool)
        else:
            _map(pool, lambda i: run_user(i, None), runs)
    for i, twins in copies.items():
        for out in (gamma, v, c) + (() if gamma_se is None else (gamma_se,)):
            out[twins] = out[i]

    return InterimCurves(
        grid=grid,
        gamma=gamma,
        v=v,
        c=c,
        users=tuple(user_list),
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
    cell_term = 0.5 * np.diff(grid) * np.diff(curves.gamma, axis=1)
    return RewardSchedule(grid=grid, rewards=rewards, cell_term=cell_term)


def export_interim_csv(curves: InterimCurves, rewards: RewardSchedule, path) -> None:
    """Write user, theta, gamma, V, C, r rows (12 significant digits)."""
    grid = curves.grid.tolist()
    columns = (curves.gamma, curves.v, curves.c, rewards.rewards)
    rows = chain.from_iterable(
        zip([i] * len(grid), grid, *(a[i].tolist() for a in columns)) for i in curves.users
    )
    write_csv(path, ("user", "theta", "gamma", "V", "C", "r"), rows)
