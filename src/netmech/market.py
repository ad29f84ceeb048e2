"""Market primitives: influence network, scalar parameters, ex-post utilities.

A user's ex-post utility from demand profile x and reward R_i is

    a*x_i - (b/2)*x_i**2  +  theta_i * x_i * sum_j g_ij x_j  -  p*x_i  +  R_i

and the content provider's ex-post utility is

    sum_i [ s*x_i - (t/2)*x_i**2 - R_i ].

Feasibility of the allocation rule needs, per user i,

    t + b > theta_max * sum_{j != i} (g_ij + g_ji)      and      s + a > p,

which makes the allocation problem strictly concave (diagonally dominant
quadratic form). ``validate_assumption2`` checks this and reports the slack
per user; solving an invalid scenario raises ``InvalidScenarioError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distributions import RegularityReport, TypeDistribution, validate_regularity


# floats (128 MiB), the one refusal budget of the package: each array below is refused where it
# is sized, naming its count and this budget, before it is allocated
#   - a dense network's n x n weights (check_dense_size, and experiment's --sizes). A generator
#     builds, checks and freezes each network in that one float array, with at most n^2 bytes
#     beside it (random_k's bool adjacency) and 2 n^2 bytes before it (the adjacency and its
#     transpose while it is symmetrized); the comparison of G with G^T holds one panel's bools
#   - a quadrature rule's (rows,) weights, rows = prod_c C(order+k_c-1, k_c) over the classes of
#     the other users, plus each class's (C(order+k_c-1, k_c), k_c) multiset table
#     (mechanism.QuadratureEngine, every requested user before any curve); its types are made one
#     CG chunk at a time
#   - the order x order Gauss-Legendre eigenproblem (mechanism.QuadratureEngine)
#   - the curve kernel's curves, 3 x n x grid (4 with a standard error), plus as many sums per
#     chunk held at once: a user's running total, the chunk added last and the pool's two per
#     worker (one in flight without it) (mechanism.interim_curves). Beside them it holds six
#     floats per grid point (the grid, its virtual values and their two factors) and a few
#     grid-sized temporaries, and nothing that grows with the sample count
#   - verify's IC sweep, --grid x --report-grid utilities of one user at a time plus 2 x n x
#     --grid bests and gains of every user (cli.cmd_verify); beside them the sweep holds the
#     ties and distances of a block of truths, about _CHUNK_FLOATS floats each
MAX_ARRAY_FLOATS = 2**24
# floats of one working array (512 KiB, cache-sized), the one such budget of the package: a row
# panel of G here (a symmetric G past it is read by panels), and in the curve kernel a CG chunk's
# stack or a grid block's arrays. A worker of the curve kernel holds seven stacks of a chunk: its
# virtual values phi and the guarded solve's six (X, CG's r and d, the product's output and two
# of scratch, one of them CG's temporary; two more by panels), its right-hand sides a zero-stride
# view, so live memory is about 7 x this budget per worker, beside the refusals above
_CHUNK_FLOATS = 2**16


class InvalidScenarioError(ValueError):
    """The scenario fails a feasibility or regularity requirement."""


@dataclass(frozen=True)
class Network:
    """Nonnegative weighted influence graph over n users (zero diagonal).

    ``weights`` is a float64 C-order array that is read-only. A read-only
    float64 C-order array that owns its memory, as the generators below build
    it, is kept as it is (a writable view taken before it was frozen would
    still write to it); anything else, a caller's writable array above all,
    is copied and the copy frozen, so the caller's array stays writable and
    the network does not follow it. ``symmetric`` is G == G^T exactly,
    computed once with the frozen weights, a row panel of ``_CHUNK_FLOATS``
    floats against its column panel at a time.
    """

    weights: np.ndarray
    symmetric: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = self.weights
        if not (isinstance(w, np.ndarray) and w.dtype == np.float64 and w.flags.c_contiguous
                and not w.flags.writeable and w.base is None):
            w = np.array(w, dtype=float, order="C")
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be a square matrix, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError("need at least one user")
        # two passes and no n x n temporaries: a NaN fails both comparisons
        if not (w.min() >= 0 and w.max() < np.inf):
            raise ValueError("influence weights g_ij must be finite and nonnegative")
        if np.any(np.diag(w) != 0):
            raise ValueError("self-influence g_ii must be zero")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        rows = max(1, _CHUNK_FLOATS // len(w))
        object.__setattr__(self, "symmetric", all(
            np.array_equal(w[k:k + rows], w[:, k:k + rows].T) for k in range(0, len(w), rows)))

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def operator(self, phi: np.ndarray, tb: float, spare: int):
        """v -> A(phi) v = tb v - phi o (G v) - G^T (phi o v) on (n, ...) stacks shaped like phi,
        one system per column, and ``spare`` more such stacks, from one allocation.

        Two GEMMs while G holds at most ``_CHUNK_FLOATS`` floats, the one working-array
        budget that also sizes the curve kernel's chunks, or is not ``symmetric`` (read here
        alone); otherwise G^T = G, and one GEMM per row panel of
        ``_CHUNK_FLOATS // n`` rows times the block [v | phi o v] gives both products
        from one read of G. A GEMM reads a stack of more than two axes as (n, -1). The spares
        come first, then the product's output and two stacks of scratch (four by panels);
        each product overwrites the output and all of its scratch, and holds none of it
        between products. Returns (apply, stacks): the spares, then the first scratch stack,
        which the caller may use as a temporary between products.
        """
        g, n, size = self.weights, self.n, phi.size
        by_panels = g.size > _CHUNK_FLOATS and self.symmetric
        work = np.empty((spare + (5 if by_panels else 3)) * size)
        stacks = [work[k * size:(k + 1) * size].reshape(phi.shape) for k in range(spare + 3)]
        q, u, w = stacks[spare:]
        if by_panels:
            # u and w hold the block [v | phi o v], the last two stacks [G v | G (phi o v)]
            block, product = (work[k * size:(k + 2) * size].reshape((n, 2) + phi.shape[1:])
                              for k in (spare + 1, spare + 3))
            flat_block, flat_product = block.reshape(n, -1), product.reshape(n, -1)
            panels = [slice(k, k + _CHUNK_FLOATS // n) for k in range(0, n, _CHUNK_FLOATS // n)]

            def apply(v):
                np.copyto(block[:, 0], v)
                np.multiply(phi, v, out=block[:, 1])
                for rows in panels:
                    np.matmul(g[rows], flat_block, out=flat_product[rows])
                phi_gv = np.multiply(phi, product[:, 0], out=product[:, 0])
                np.subtract(np.multiply(v, tb, out=q), phi_gv, out=q)
                return np.subtract(q, product[:, 1], out=q)
        else:
            def flat(a):
                # a vector stays one, for a GEMV
                return a if a.ndim == 1 else a.reshape(n, -1)

            flat_u, flat_w = flat(u), flat(w)

            def apply(v):
                np.matmul(g, flat(v), out=flat_u)
                phi_gv = np.multiply(phi, u, out=u)
                np.subtract(np.multiply(v, tb, out=q), phi_gv, out=q)
                np.multiply(phi, v, out=u)
                np.matmul(g.T, flat_u, out=flat_w)
                return np.subtract(q, w, out=q)
        return apply, stacks[:spare] + [u]


def check_dense_size(n: int) -> None:
    """ValueError naming n, its n^2 floats and the budget if a dense network of n users is too large."""
    if n * n > MAX_ARRAY_FLOATS:
        raise ValueError(
            f"a dense network of n={n} users holds {n * n} weights, "
            f"over the budget of {MAX_ARRAY_FLOATS} floats"
        )


def twin_classes(network: Network) -> tuple:
    """The network's classes of twins, each ascending, in the order of their first users.

    Users j and k are twins when swapping them leaves G unchanged: G[j, l] =
    G[k, l] and G[l, j] = G[l, k] for every l outside {j, k}, and G[j, k] =
    G[k, j] (structural equivalence). Twinship is an equivalence relation,
    so each user is compared with the first user of every class so far, no
    search over permutations. A comparison reads a row and a column, O(n), so
    a twin-free network, whose classes are all single users, costs O(n^3):
    on twin-free ``random_k`` networks 0.4 / 1.4 / 8.1 s at n = 300 / 600 /
    1200 on a 2-vCPU x86 host.
    """
    g = network.weights
    classes: list[list[int]] = []
    for j in range(network.n):
        for members in classes:
            k = members[0]
            # row j with entries j and k exchanged is row k exactly when j and k are twins
            swap = np.arange(network.n)
            swap[[j, k]] = k, j
            if np.array_equal(g[j, swap], g[k]) and np.array_equal(g[swap, j], g[:, k]):
                members.append(j)
                break
        else:
            classes.append([j])
    return tuple(tuple(members) for members in classes)


@dataclass(frozen=True)
class MarketParams:
    """Scalars of the linear-quadratic utilities.

    a: max internal demand willingness rate, b: willingness elasticity,
    s/t: ad-revenue concavity Q(x) = s*x - (t/2)*x**2, p: per-unit data price.
    """

    a: float
    b: float
    s: float
    t: float
    p: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "s", "t", "p"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ValueError(f"parameter {name} must be finite and nonnegative")
        if self.b <= 0 and self.t <= 0:
            raise ValueError("need b > 0 or t > 0 (strict concavity)")


@dataclass(frozen=True)
class Assumption2Report:
    """Per-user dominance slack (t+b) - theta_max*sum(g_ij+g_ji) and price slack s+a-p."""

    row_slack: np.ndarray
    price_slack: float
    theta_max: float
    tb: float
    price_sum: float

    @property
    def passed(self) -> bool:
        return not self._messages()

    def _messages(self) -> list[str]:
        """One message per violated inequality; a NaN slack counts as violated."""
        msgs = []
        for i in np.flatnonzero(~(self.row_slack > 0)):
            bound = self.tb - self.row_slack[i]  # theta_bar * sum(g_ij + g_ji)
            msgs.append(
                f"user {i}: t+b > theta_bar*sum(g_ij+g_ji) fails: {self.tb:g} <= {bound:g}"
            )
        if not self.price_slack > 0:
            msgs.append(f"s+a > p fails: {self.price_sum:g} <= {self.price_sum - self.price_slack:g}")
        return msgs

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"assumption 2 {status}: min row slack {float(np.min(self.row_slack)):.6g}, "
            f"price slack {self.price_slack:.6g}"
        )


@dataclass(frozen=True)
class Scenario:
    """Bundle of network, market parameters, and the type law.

    Feasibility and regularity reports are computed eagerly; construction does
    not raise on failure so invalid scenarios can still be inspected, but
    solving one is an error (``require_valid``).
    """

    network: Network
    params: MarketParams
    dist: TypeDistribution
    assumption2: Assumption2Report = field(init=False, compare=False, repr=False)
    regularity: RegularityReport = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "assumption2", validate_assumption2(self))
        object.__setattr__(self, "regularity", validate_regularity(self.dist))

    @property
    def n(self) -> int:
        return self.network.n

    @property
    def valid(self) -> bool:
        return self.assumption2.passed and self.regularity.passed

    def require_valid(self) -> None:
        if self.valid:
            return
        problems = []
        if not self.regularity.passed:
            problems.append("assumption 1 (regular distribution): " + self.regularity.summary())
        problems.extend(self.assumption2._messages())
        raise InvalidScenarioError("; ".join(problems))

    def check_profile(self, theta) -> np.ndarray:
        """Validate a type profile against n, then against the support by the law's own test
        (SupportError); returns an array."""
        arr = np.asarray(theta, dtype=float)
        if arr.shape != (self.n,):
            raise ValueError(f"type profile must have shape ({self.n},), got {arr.shape}")
        return self.dist._check_support(arr)


def dominance_coupling(weights: np.ndarray) -> np.ndarray:
    """sum_j (g_ij + g_ji) per user i, the coupling that Assumption 2 bounds (the diagonal is zero)."""
    return weights.sum(axis=1) + weights.sum(axis=0)


def validate_assumption2(sc: Scenario) -> Assumption2Report:
    """Feasibility check: per-row coupling bound and s+a > p."""
    tb = sc.params.t + sc.params.b
    row_slack = tb - sc.dist.upper * dominance_coupling(sc.network.weights)
    row_slack.setflags(write=False)
    return Assumption2Report(
        row_slack=row_slack,
        price_slack=sc.params.s + sc.params.a - sc.params.p,
        theta_max=sc.dist.upper,
        tb=tb,
        price_sum=sc.params.s + sc.params.a,
    )


def make_network(kind: str, n: int, seed: int | None = None, *, edges=(), weight: float = 1.0) -> Network:
    """Symmetric benchmark graphs, every weight scaled by ``weight``.

    complete: all pairs; star: node 0 to all others; hub_plus_edge: star plus
    the extra tie (2, 3); random_k: every user picks n//2 partners uniformly
    from ``seed``, then the adjacency is symmetrized; edges: g_ij = g_ji = g
    for each (i, j, g) of ``edges``, a later entry overwriting an earlier one.
    The weights are built in the one n x n float array the network keeps.
    """
    if kind == "random_k":
        return _frozen(np.multiply(_random_half(n, seed), weight, dtype=float))
    w = _zeros(n)
    if kind == "complete":
        w.fill(1.0)
        np.fill_diagonal(w, 0.0)
    elif kind == "star":
        w[0, 1:] = w[1:, 0] = 1.0
    elif kind == "hub_plus_edge":
        if n < 4:
            raise ValueError("hub_plus_edge needs n >= 4")
        w[0, 1:] = w[1:, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
    elif kind == "edges":
        for i, j, g in edges:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise ValueError(f"edge ({i}, {j}) invalid for n={n}")
            w[i, j] = w[j, i] = g
    else:
        raise ValueError(f"unknown network kind {kind!r}")
    w *= weight
    return _frozen(w)


def _zeros(n: int, dtype=float) -> np.ndarray:
    """An n x n array of zeros, after refusing n < 1 and a network over the dense budget."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_dense_size(n)
    return np.zeros((n, n), dtype)


def _random_half(n: int, seed: int | None) -> np.ndarray:
    """random_k's symmetrized bool adjacency. Row i's partners are ``choice(n - 1, ...)``
    shifted past i, the same draws as ``choice`` over the array of the others."""
    if seed is None:
        raise ValueError("network kind 'random_k' needs 'seed': two unseeded draws differ")
    adj = _zeros(n, bool)
    rng = np.random.default_rng(seed)
    for i in range(n):
        picked = rng.choice(n - 1, size=n // 2, replace=False)
        adj[i, picked + (picked >= i)] = True
    adj |= adj.T
    return adj


def _frozen(w: np.ndarray) -> Network:
    """The network that keeps ``w``, a float64 C-order array no one else holds, frozen first."""
    w.setflags(write=False)
    return Network(w)


def scaled_random_half_network(n: int, seed: int, params: MarketParams, theta_max: float,
                               edge_weight: float | None = None) -> tuple[Network, float]:
    """random_k graph with a common edge weight that keeps the scenario feasible.

    The default weight leaves a factor-2 margin on the worst dominance row.
    """
    w = _random_half(n, seed)
    if edge_weight is None:
        coupling = float(dominance_coupling(w).max())
        edge_weight = 0.5 * (params.t + params.b) / (theta_max * coupling) if coupling else 1.0
    # rebinding w drops the bool adjacency before Network compares G with G^T
    w = np.multiply(w, edge_weight, dtype=float)
    return _frozen(w), edge_weight


def cp_ex_post_utility(sc: Scenario, x, rewards) -> float:
    """Content provider's ex-post utility: ad revenue minus rewards paid."""
    x = np.asarray(x, dtype=float)
    rewards = np.asarray(rewards, dtype=float)
    if x.shape != (sc.n,) or rewards.shape != (sc.n,):
        raise ValueError("x and rewards must have length n")
    p = sc.params
    return float(np.sum(p.s * x - 0.5 * p.t * x**2 - rewards))
