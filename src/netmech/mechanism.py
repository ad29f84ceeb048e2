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
classes (tight, while the rule fits the budget) or by Monte Carlo with common
random numbers: one sample set of the other users' types is reused across the
whole type grid so the grid structure of the curves is not drowned by
independent noise. Both engines are plain values:
``others_rows(dist, n, i, classes)`` is a pure function that rebuilds the
rule, or reseeds the generator, on each call, and hands out the sample set a
slice of rows at a time: quadrature computes the rows' node indices, and Monte
Carlo advances the generator past the earlier rows, so any slicing gives the
rows of the one (samples, n) uniform draw. Users share their common columns,
and threads share an engine without a lock. Each engine also states its own
error: ``standard_error(squares)`` is Monte Carlo's i.i.d. standard error of
the means, from the samples' weighted squares about them, and None for
quadrature, which states none.

An engine's ``classes(network, users)`` partitions the users, and
``interim_curves`` uses the partition at two levels. Only the first requested
user of each class is computed, and its rows are copied to the class's other
requested users.
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
solved. The samples' z and w are solved by matrix-free CG on a stack with
one system per column, at O(n^2) per iteration and system, not per sample and
grid point. Cramer's rule then runs on four coefficients formed once per
sample, ca = S10 s0 - S00 s1, cb = S01 s1 - S11 s0, tr = S00 + S11 and
dt = det S, held per chunk of samples as three (2, samples) stacks
tr_dt = [tr, -dt], x_num = [ca, s1] and g_num = [cb, s0]. A block of grid
points makes each quantity by one K=2 product (a BLAS GEMM) of its rows of
[phi_i, phi_i^2] or [phi_i, 1] with a stack:

    det = 1 - [phi_i, phi_i^2] tr_dt,  x_i = [phi_i, 1] x_num / det,  g_i.x = [phi_i, 1] g_num / det,

six passes per (grid point, sample) element (three products, a subtraction
and two divisions), then each sign guard one min-reduction. gamma is
E[x_i g_i.x]; V and C are quadratics in x_i, so both come from E[x_i] and
E[x_i^2], one product with the weights each.

Working memory is bounded by the float budget ``_CHUNK_FLOATS``, not by the
sample count; it is market's one working-array budget, which also sizes the row
panels of ``Network.operator``. A user's samples run in CG chunks, each stack
about that many floats (at least one system), and each chunk takes its own
samples all the way: it draws only its rows of the sample set, solves their s
and S on seven stacks (its virtual values phi, read into phi's two halves and
then dropped, and the solve's one workspace of six, allocated up front, so CG
iterations allocate nothing of the stack's size; the right-hand sides are a
zero-stride view of one pair), fills its own three small stacks, and runs the
grid stage on them in blocks of at least one grid point, each block's arrays
at most ``_CHUNK_FLOATS`` floats and freed before the next. What leaves a
chunk is its weighted sums of x_i g_i.x, x_i and x_i^2 at every grid point
(and, for a standard error, of the squares about the chunk's mean), added to
the user's running total as it arrives, in chunk order; the squares merge by
the pairwise update of Chan, Golub & LeVeque (1983). Beside a quadrature rule
(its weights and multiset tables), no array grows with the sample count: live
memory is one chunk's seven stacks per worker, at most ``os.cpu_count()`` of
them, and a few grid-sized sums per worker, which ``interim_curves`` counts
with the curves against the refusal budget ``market.MAX_ARRAY_FLOATS``. Users
run in turn, and the pool's tasks are the chunks of one user, submitted two
per worker at a time, so neither do its futures; a user whose samples fit one
CG chunk runs on the calling thread alone, and its sums are its values, bit
for bit.

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

import contextvars
import math
import os
import warnings
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain

import numpy as np

from .csvio import write_csv
from .distributions import SupportError, TypeDistribution
from .market import _CHUNK_FLOATS, MAX_ARRAY_FLOATS, Network, Scenario, twin_classes


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


def _cg(apply_a, rhs: np.ndarray, x: np.ndarray, floor, cap: int, name, work):
    """Unpreconditioned conjugate gradients on every column of an (n, ...) stack from x.

    Systems are columns, so the per-system dots and maxima reduce along the
    leading axis, which stays fast when n is small. Each system runs its own
    recurrence (its own rr, alpha and beta) until ||r||_inf <= floor(||x||_inf)
    in its column; a system at its floor is frozen, so a zero right-hand side
    costs no 0/0. rhs may be any array that broadcasts to x's shape (the curve
    kernel's is a zero-stride view of one column pair). x is updated in place,
    and ``work``, three arrays of x's shape, holds r, d and a temporary, which
    ``apply_a`` may overwrite (it is the operator's scratch), so an iteration
    allocates nothing of the stack's size beyond what ``apply_a`` does.
    Returns (x, iterations); raises SolverError, prefixed by
    ``name(system, entry)``, after ``cap`` iterations.
    """
    r, d, t = work
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
    """The one guarded solve: A(phi) X = rhs on every column of an (n, ...) stack.

    Each column of phi holds one system's virtual values, and rhs broadcasts to phi's
    shape; ``Network.operator`` makes the products with A(phi), and its one allocation
    also holds X and CG's r and d, while CG's temporary is the operator's scratch stack:
    six stacks of phi's shape on the two-GEMM path, eight by panels.
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
    apply_a, (x, r, d, t) = sc.network.operator(phi, tb, spare=3)
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
    and ``self[rows]`` their virtual values, which ``interim_curves`` reads
    one CG chunk at a time in place of the (samples, n-1) virtual-value array
    it never builds. ``weights`` are every sample's weights, which the kernel
    also reads a chunk's slice at a time; Monte Carlo's one weight 1/samples
    is a zero-stride view, not an array of the samples.
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


def _multisets(order: int, k: int, node_weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The C(order+k-1, k) multisets of k of the ``order`` nodes, each ascending, as the rows
    of an intp array in lexicographic order (the rows of combinations_with_replacement), and
    their weights: the product of a row's node weights, left to right, times k! / prod m!.

    Level j holds the multisets of j nodes: each of level j-1, in order, extended by every
    node from its last one up. A level keeps each row's last node and its prefix's row, and
    carries the weights and prod m! forward (exact in floats: it divides j!). The columns
    are read back through the prefixes, ``_CHUNK_FLOATS`` entries at a time, so each block
    of rows stays in cache."""
    last, weights, levels = np.arange(order), node_weights, []
    run = perms = np.ones(order)
    for _ in range(1, k):
        counts = order - last
        parent = np.repeat(np.arange(last.size), counts)
        levels.append((last, parent))
        prefix_last = last[parent]
        last = prefix_last + np.arange(parent.size) - (np.cumsum(counts) - counts)[parent]
        # run counts the equal nodes at the end of a row, so the product of the runs is prod m!
        run = np.where(last == prefix_last, run[parent] + 1, 1)
        perms = perms[parent] * run
        weights = weights[parent] * node_weights[last]
    out = np.empty((last.size, k), dtype=np.intp)
    for block in _chunk_slices(last.size, max(1, _CHUNK_FLOATS // k)):
        rows = np.arange(block.start, block.stop)
        out[block, -1] = last[block]
        for column, (prefix_last, parent) in zip(range(k - 2, -1, -1), reversed(levels)):
            rows = parent[rows]
            out[block, column] = prefix_last[rows]
    return out, weights * (math.factorial(k) / perms)


@dataclass(frozen=True)
class QuadratureEngine:
    """Gauss-Legendre expectation over the other users' types, reduced by their twin classes.

    User i's rule has prod_c C(order+k_c-1, k_c) rows over the classes of the
    other users, and holds their (rows,) weights and, per class of k_c
    others, its (C(order+k_c-1, k_c), k_c) multiset table; the types are made
    a CG chunk at a time. A rule that holds more entries than the refusal
    budget ``market.MAX_ARRAY_FLOATS`` is refused before any multiset is
    built, pointing to the Monte Carlo engine instead (``classes`` counts the
    rule of every user the kernel is asked for before it computes any), and
    so is an order whose order x order Gauss-Legendre eigenproblem is over
    that budget, when the engine is built. The types are i.i.d. and the rule
    is symmetric in its coordinates, so nodes that differ by a permutation
    within a class of twins give equal integrands, and twin users get equal
    curves: ``classes`` are the twin classes. A deterministic rule, it states
    no ``standard_error``.
    """

    order: int = 8
    standard_error = None

    def __post_init__(self):
        if self.order < 1 or self.order**2 > MAX_ARRAY_FLOATS:
            raise EngineError(f"quadrature order {self.order} needs order >= 1 and an order x order "
                              f"eigenproblem of {self.order**2} floats within the budget of {MAX_ARRAY_FLOATS}")

    def classes(self, network: Network, users) -> tuple:
        """``twin_classes(network)``, after refusing n users before their classes are known:
        no partition of the n-1 others gives fewer rows, and so fewer weights, than the
        C(order+n-2, n-1) of one class of all of them. Then the rule of each of ``users``
        is counted over the classes (``sample_count``), so an over-budget rule is refused,
        naming its user, before any user's curves are computed."""
        n = network.n
        self._refuse_over_budget(n, math.comb(self.order + n - 2, n - 1))
        classes = twin_classes(network)
        for i in users:
            self.sample_count(n, i, classes)
        return classes

    def _class_columns(self, i: int, classes) -> tuple[list, list]:
        """Per class of the others: its columns (user u's is u, or u - 1 past i) and its
        number of multisets, counted before any is built."""
        columns = [[u - (u > i) for u in members if u != i] for members in classes]
        columns = [c for c in columns if c]
        return columns, [math.comb(self.order + len(c) - 1, len(c)) for c in columns]

    def sample_count(self, n: int, i: int, classes) -> int:
        """The rows of user i's rule, after refusing a rule whose weights and multiset tables
        hold more than ``MAX_ARRAY_FLOATS`` entries."""
        columns, radices = self._class_columns(i, classes)
        count = math.prod(radices)
        self._refuse_over_budget(n, count + sum(len(c) * r for c, r in zip(columns, radices)), i)
        return count

    def _refuse_over_budget(self, n: int, entries: int, user=None) -> None:
        """Refuse ``entries`` over the budget: user ``user``'s rule, or without a user, the
        least that any user's rule can hold."""
        if entries > MAX_ARRAY_FLOATS:
            whose, least = ("", "at least ") if user is None else (f"user {user}: ", "")
            raise EngineError(
                f"{whose}quadrature of order {self.order} at n={n} holds {least}{entries} weights "
                f"and multiset entries, over the budget of {MAX_ARRAY_FLOATS}; lower the order or "
                f"use MonteCarloEngine"
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
        self.sample_count(n, i, classes)
        columns, radices = self._class_columns(i, classes)
        x, w = _gauss_legendre(self.order)
        half = 0.5 * (dist.upper - dist.lower)
        nodes = dist.lower + (x + 1.0) * half
        node_weights = w * half * np.asarray(dist.pdf(nodes), dtype=float)
        rules = [_multisets(self.order, len(cols), node_weights) for cols in columns]
        strides = np.cumprod([1] + radices[:0:-1])[::-1]

        def types(rows):
            # digit k of the row number, in the mixed radix, picks class k's multiset
            r = np.arange(rows.start, rows.stop)
            out = np.empty((r.size, n - 1))
            for cols, (multisets, _), stride, radix in zip(columns, rules, strides, radices):
                out[:, cols] = nodes[multisets[r // stride % radix]]
            return out

        weights = reduce(np.multiply.outer, [rule[1] for rule in rules], np.ones(())).ravel()
        return SampleRows(dist, weights, types, (weights.size, n - 1))


@dataclass(frozen=True)
class MonteCarloEngine:
    """Monte Carlo expectation with common random numbers.

    The sample set is the rows of one (samples, n) uniform matrix drawn from
    ``seed``; user i's samples are its columns other than i through the
    quantile function, so they are identical across grid points and shared
    between users. A slice of rows is drawn alone, from the generator
    advanced past the rows before it, so the matrix is never held whole,
    and no memory grows with the sample count; only a count whose weight
    view numpy cannot index is refused. Twins see different columns, so
    every user is its own class.
    """

    samples: int = 20_000
    seed: int = 0

    def __post_init__(self):
        # numpy sizes even the zero-stride weight view by its bytes
        if not 1 <= self.samples <= np.iinfo(np.intp).max // 8:
            raise EngineError(f"{self.samples} Monte Carlo samples: need at least 1, and at most the "
                              f"{np.iinfo(np.intp).max // 8} that one array can index")

    def classes(self, network: Network, users) -> tuple:
        """Every user alone; the draws stream, so no user's sample set is refused and
        ``users`` is not read."""
        return tuple((u,) for u in range(network.n))

    def standard_error(self, squares: np.ndarray) -> np.ndarray:
        """The i.i.d. standard error of each column's mean, from ``squares``, the samples'
        weighted squares about that mean: over m - 1 and divided by the m samples, they are
        the variance of the mean (Glasserman 2003, sec. 1.1)."""
        m = self.samples
        var = squares * m / max(1, m - 1)
        return np.sqrt(var / m)

    def others_rows(self, dist: TypeDistribution, n: int, i: int, classes) -> SampleRows:
        def types(rows):
            # a float takes one 64-bit draw, so rows.start rows take rows.start * n of them
            bits = np.random.PCG64(self.seed)
            bits.advance(rows.start * n)
            uniforms = np.random.Generator(bits).random((rows.stop - rows.start, n))
            others = np.delete(uniforms, i, axis=1)
            del uniforms  # not held through the quantile
            return np.asarray(dist.quantile(others), dtype=float)

        weights = np.broadcast_to(1.0 / self.samples, (self.samples,))
        return SampleRows(dist, weights, types, (self.samples, n - 1))


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


def _map(pool, fn, items, window: int):
    """fn on every item, its results yielded in item order; on the pool if there is one.

    The pool holds at most ``window`` items at a time, submitted in order as the earliest
    is collected, so its futures and contexts do not grow with the items. The earliest
    item's error propagates, and the items submitted after it are cancelled. A pool task
    runs in a copy of the caller's context, taken here: numpy keeps ``np.errstate`` in a
    contextvar, and pool threads start from an empty context."""
    if pool is None:
        yield from map(fn, items)
        return
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(contextvars.copy_context().run, fn, item))
            if len(pending) == window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


def _rank2_factors(sc: Scenario, i: int, rows, sl: slice):
    """The SMW factors of user i's curve on one chunk of samples: s = [g_i.y, y_i] and S (2 x 2).

    For every sample of the other users' virtual values, B is A with
    phi_i = 0, y = B^-1 c 1, z = B^-1 e_i and w = B^-1 g_i. B is symmetric for
    any G, so g_i.y = c 1.w and y_i = c 1.z, and only z and w are solved: by
    the guarded ``_solve`` on the (n, 2, m) stack [z w] of the chunk's m
    samples. ``rows[sl]`` is the chunk's (m, n-1) virtual values (``SampleRows``,
    or an array of them), read here and dropped once phi holds them, and
    ``sl.start`` the user's number of its first sample. The right-hand sides are
    a zero-stride view of the one pair [e_i, g_i], so the chunk holds phi and the
    solve's six stacks. B meets the bounds of ``_a_priori``, since phi_i = 0 only
    raises row slack.
    Returns s with shape (m, 2) and S with shape (m, 2, 2), rows
    (g_i.[z w], [z_i w_i]). A SolverError names the user, the right-hand side
    and the sample, numbered from ``sl.start``.
    """
    n = sc.n
    system = f"user {i}: base system (phi_{i} = 0)"
    p = sc.params
    g_i = sc.network.weights[i]
    values = rows[sl]
    m = len(values)
    phi = np.empty((n, 2, m))
    phi[i] = 0.0
    phi[np.delete(np.arange(n), i), 0] = values.T
    del values  # not held through the solve
    phi[:, 1] = phi[:, 0]
    pair = np.zeros((n, 2, 1))
    pair[i, 0] = 1.0
    pair[:, 1, 0] = g_i

    def where(column, entry):
        return (f"{system} right-hand side {('e_i', 'g_i')[column // m]} "
                f"at sample {sl.start + column % m}")

    x = _solve(sc, phi, np.broadcast_to(pair, phi.shape), system, where)[0]
    z, w = x[:, 0], x[:, 1]
    s = (p.s + p.a - p.p) * np.stack([w.sum(axis=0), z.sum(axis=0)], axis=1)
    return s, np.stack([g_i @ z, g_i @ w, z[i], w[i]], axis=1).reshape(m, 2, 2)


def interim_curves(
    sc: Scenario,
    grid_size: int,
    engine,
    users=None,
    threads: int = 1,
) -> InterimCurves:
    """Estimate gamma_i, V_i, C_i on a uniform type grid for the given users.

    Users run in turn. ``threads`` > 1 opens one pool, of at most
    ``os.cpu_count()`` workers (live memory grows with the workers by one
    chunk, seven stacks of about ``_CHUNK_FLOATS`` floats, each), and each
    user maps its CG chunks over it once, two per worker at a time, so the
    earliest chunk's CG SolverError is the one raised, as in a serial
    run. This is the one place that chunks a user and picks the pool: a CG
    chunk holds about ``_CHUNK_FLOATS`` floats of stack and at least one
    sample, and a user whose samples fit one CG chunk submits nothing: it runs
    on the calling thread. Each CG chunk reads its own rows of the sample set
    (``others_rows``), solves their factors (``_rank2_factors``), and takes
    them through the grid stage to weighted sums over the whole grid, so no
    array of a user's whole sample set is built.

    The engine's ``classes`` of the requested users, which may refuse one of
    them before any is computed, are taken first. The first requested user of
    each class is computed and its rows are copied to the class's other
    requested users; ``threads`` then applies to the computed users.
    ``gamma_se`` is filled by the engine's ``standard_error`` where it has
    one. Before any array of the grid, an EngineError refuses a grid whose
    curves (3 per user, 4 with a standard error, ``grid_size`` floats each)
    and the chunk sums held at once (as many for the user's running total,
    the chunk added last and each chunk the pool holds, or the one in flight
    without a pool) are more floats than the refusal budget
    ``market.MAX_ARRAY_FLOATS``.

    Deterministic for a fixed engine configuration regardless of ``threads``:
    chunk sizes depend only on the problem, and each chunk's sums are added to
    the running total in chunk order. Raises SolverError naming the user, the
    grid type and the quantity when a solve breaks the M-matrix promises of
    Assumption 2 (det(I - phi S) > 0, x_i > 0, g_i.x >= 0) or misses the
    residual tolerance. Of the sign breaks, the one named is at the lowest
    type; there, the first of det, x_i and g_i.x that breaks; then the lowest
    sample, whatever the chunks.
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
    classes = engine.classes(sc.network, user_list)
    copies = {}
    for members in classes:
        requested = [u for u in members if u in user_list]
        if requested:
            copies[requested[0]] = requested[1:]
    runs = sorted(copies)
    # samples in one CG chunk: its (n, 2 samples) stack holds about _CHUNK_FLOATS floats
    chunk = max(1, _CHUNK_FLOATS // (2 * n))
    workers = min(threads, os.cpu_count() or 1)
    # per grid point, the sums of x_i g_i.x, x_i and x_i^2 and, for a standard error, of
    # squares: one curve of each per user, and one sum of each per chunk held: the user's
    # running total, the one added last and the pool's window of two per worker (one without)
    quantities = 3 if engine.standard_error is None else 4
    floats = quantities * grid_size * (n + 2 + (2 * workers if workers > 1 else 1))
    if floats > MAX_ARRAY_FLOATS:
        raise EngineError(f"a curve grid of {grid_size} points holds {floats} floats of curves and "
                          f"chunk sums, over the budget of {MAX_ARRAY_FLOATS}; lower the grid size")
    grid = np.linspace(dist.lower, dist.upper, grid_size)
    phi_grid = np.asarray(dist.virtual_value(grid), dtype=float)
    # the (grid, 2) left factors of the grid stage's products: [phi, phi^2] and [phi, 1]
    phi_det = np.stack([phi_grid, phi_grid * phi_grid], axis=1)
    phi_num = np.stack([phi_grid, np.ones(grid_size)], axis=1)

    gamma = np.full((n, grid_size), np.nan)
    v = np.full((n, grid_size), np.nan)
    c = np.full((n, grid_size), np.nan)
    gamma_se = None if engine.standard_error is None else np.full((n, grid_size), np.nan)

    def run_user(i, pool):
        rows = engine.others_rows(dist, n, i, classes)

        def coefficients(sl):
            # (I - phi S) [g_i.x, x_i] = s by Cramer's rule: tr_dt = [tr, -dt], x_num = [ca, s1]
            # and g_num = [cb, s0], one column per sample of the chunk
            factors = _rank2_factors(sc, i, rows, sl)
            (s0, s1), (s00, s01, s10, s11) = (f.reshape(len(f), -1).T for f in factors)
            tr_dt, x_num, g_num = np.empty((3, 2, len(s0)))
            np.add(s00, s11, out=tr_dt[0])
            # -dt = S01 S10 - S00 S11, the exact negation of S00 S11 - S01 S10
            np.subtract(s01 * s10, s00 * s11, out=tr_dt[1])
            # ca = S10 s0 - S00 s1 and cb = S01 s1 - S11 s0
            np.subtract(s10 * s0, s00 * s1, out=x_num[0])
            np.subtract(s01 * s1, s11 * s0, out=g_num[0])
            x_num[1], g_num[1] = s1, s0
            return tr_dt, x_num, g_num

        def run_chunk(sl):
            """The chunk's first sign break, (grid index, guard, sample, value), or None; its
            weight sum; and per grid point its weighted sums of x_i g_i.x, x_i and x_i^2 and,
            for a standard error, of (x_i g_i.x - the chunk's mean)^2."""
            weights = np.ascontiguousarray(rows.weights[sl])
            weight = weights.sum()
            sums = np.empty((quantities, grid_size))
            tr_dt, x_num, g_num = coefficients(sl)

            def grid_block(block):
                # det = 1 - [phi, phi^2] . [tr, -dt], x_i = [phi, 1] . x_num / det and
                # g_i.x = [phi, 1] . g_num / det: three K=2 products
                det = phi_det[block] @ tr_dt
                np.subtract(1.0, det, out=det)
                xi = phi_num[block] @ x_num
                xi /= det
                gx = phi_num[block] @ g_num
                gx /= det
                guards = ((det, np.greater), (xi, np.greater), (gx, np.greater_equal))
                # one min-reduction each: a NaN carries through min and fails the test too
                if not all(holds(value.min(), 0.0) for value, holds in guards):
                    # the lowest type, then the first guard in order, then the lowest sample
                    bad = np.stack([~holds(value, 0.0) for value, holds in guards], axis=1)
                    t, q, j = np.argwhere(bad)[0]
                    return block.start + t, q, sl.start + j, guards[q][0][t, j]
                gamma_samples = np.multiply(xi, gx, out=gx)
                sums[0, block] = gamma_samples @ weights
                # V and C are quadratics in x_i: both come from E[x_i] and E[x_i^2]
                sums[1, block] = xi @ weights
                xi *= xi
                sums[2, block] = xi @ weights
                if gamma_se is not None:
                    # the squares about the chunk's own mean, in det's place
                    np.subtract(gamma_samples, (sums[0, block] / weight)[:, None], out=det)
                    sums[3, block] = np.square(det, out=det) @ weights

            # block by block, each block's arrays freed before the next; a break ends the chunk
            blocks = _chunk_slices(grid_size, max(1, _CHUNK_FLOATS // weights.size))
            return next(filter(None, map(grid_block, blocks)), None), weight, sums

        def fold(total, part):
            """The chunks so far with the next one added, into the total's own sums; of sign
            breaks, only the least is kept."""
            (first, w_a, a), (brk, w_b, b) = total, part
            if first or brk:
                return min(filter(None, (first, brk))), None, None
            if gamma_se is not None:
                # the squares about the mean of both (Chan, Golub & LeVeque 1983)
                delta = b[0] / w_b - a[0] / w_a
                a[3] += b[3] + delta * delta * (w_a * w_b / (w_a + w_b))
            a[:3] += b[:3]
            return None, w_a + w_b, a

        # one CG chunk: the user runs on this thread; more go to the pool two per worker at a
        # time, and each is added as it arrives, in chunk order: a one-chunk user's sums are its
        # own, and every user's are the same bits at any thread count
        first, _, total = reduce(fold, _map(pool if rows.shape[0] > chunk else None, run_chunk,
                                            _chunk_slices(rows.shape[0], chunk), 2 * workers))
        if first:
            t, q, j, value = first
            name = ("det(I - phi S)", f"x_{i}", f"g_{i}.x")[q]
            raise SolverError(f"user {i} at theta {grid[t]:.12g}: {name} = {value:.6g} "
                              f"at sample {j} breaks the sign that Assumption 2 promises")
        gamma[i], mean, square = total[:3]
        v[i] = (p.a - p.p) * mean - 0.5 * p.b * square
        c[i] = p.s * mean - 0.5 * p.t * square
        if gamma_se is not None:
            gamma_se[i] = engine.standard_error(total[3])

    # the pool starts a thread only when a chunk is submitted to it
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        for i in runs:
            run_user(i, pool)
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
