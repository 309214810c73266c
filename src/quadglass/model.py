"""Finite-size realizations of the sparse rank-one interaction ensemble.

A realization on N sites is the symmetric positive definite matrix

    A = I_N + 2*beta * sum_k v_k v_k^T,        k = 1..M,

where M is Poisson(alpha*N), each v_k is supported on an ordered
p-tuple of distinct sites drawn uniformly, and the p nonzero entries
are i.i.d. draws from a symmetric disorder law.  The induced Gibbs
measure is Gaussian with mean h*A^{-1}*1 and covariance A^{-1}, so all
thermodynamic observables reduce to linear algebra on A:

    F_N = (h^2/2) * (1^T A^{-1} 1)/N + log det A / (2N).

Each realization is factored once by :class:`Factorization`, every
observable is a query on that one factor, and :func:`over_realizations`
fans a query out over independent realizations.  With V the N x M
matrix of clause vectors, A = I + 2*beta * V V^T is assembled from V
as a sparse matrix of at most min(N^2, N + p*(p-1)*M) nonzeros and
factored by a fill-reducing symmetric sparse LU, A = P^T L D L^T P.
A >= I makes the factorization unconditionally well posed, so it needs
no pivoting off the diagonal; when A = I (no clauses or beta = 0) every
pivot is exactly 1 and every query is exact.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dpotri
from scipy.sparse import csc_matrix, csr_matrix, identity
from scipy.sparse.linalg import splu

from .disorder import DisorderSpec, _sample_shape
from .parallel import parallel_map

# entries of the Z[S_j, S_j] blocks that Factorization.inverse_diagonal
# gathers in one pass, at a peak of about 40 bytes each; a depth of the
# elimination tree with more is split into column chunks (a column never is)
INVERSE_DIAGONAL_PAIRS = 2**18


class NumericalError(RuntimeError):
    """A computation failed in floating point on input that passed its checks.

    A factorization failing on a matrix that is >= I by construction is a
    bug signal; an overflow or nan under :func:`_float_range`, such as an
    RDE generation at an extreme beta, is not.
    """


@contextmanager
def _float_range(what):
    """Turn an overflow or a nan made inside the block into a :class:`NumericalError`."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalError(f"{what} left the float range: {exc}") from exc


@dataclass(frozen=True)
class ModelParams:
    """Ensemble parameters: edge density, inverse temperature, field, arity."""

    alpha: float
    beta: float
    h: float
    p: int

    def __post_init__(self):
        if not 0 < self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha!r}")
        if not self.beta >= 0:
            raise ValueError(f"beta must be nonnegative, got {self.beta!r}")
        if not 2.0 * self.beta < math.inf:
            raise ValueError(f"2*beta must be finite, got beta={self.beta!r}")
        if not math.isfinite(self.h * self.h):
            raise ValueError(f"h*h must be finite, got h={self.h!r}")
        if self.p < 1:
            raise ValueError("p must be at least 1")


class FactorModel:
    """One sampled realization: N sites plus M weighted site tuples.

    ``sites`` is an (M, p) integer array of 0-based site indices (each
    row pairwise distinct); ``weights`` the matching (M, p) float array.
    Instances are immutable after construction; all operations on them
    are pure.
    """

    __slots__ = ("n_sites", "sites", "weights", "params", "disorder")

    def __init__(self, n_sites, sites, weights, params, disorder):
        sites = np.asarray(sites, dtype=np.int64).reshape(-1, params.p)
        weights = np.asarray(weights, dtype=float).reshape(sites.shape)
        if n_sites < params.p:
            raise ValueError(
                f"n_sites={n_sites} is smaller than the clause arity p={params.p}"
            )
        if sites.size and (sites.min() < 0 or sites.max() >= n_sites):
            raise ValueError("site index out of range")
        self.n_sites = int(n_sites)
        self.sites = sites
        self.weights = weights
        self.params = params
        self.disorder = disorder
        sites.setflags(write=False)
        weights.setflags(write=False)

    @property
    def n_clauses(self) -> int:
        return self.sites.shape[0]


@dataclass(frozen=True)
class CavitySplit:
    """Thinning decomposition of a realization around the last site.

    ``bulk`` is a full realization on sites 0..N-2 whose clause count is
    Poisson(alpha*(N-p)); the boundary holds the Poisson(alpha*p) clauses
    through site N-1, each with one weight ``site_weights[k]`` at the
    last site and p-1 interior weights at distinct interior sites.
    """

    n_sites: int
    bulk: FactorModel
    interior_sites: np.ndarray      # (R, p-1) indices into 0..N-2
    interior_weights: np.ndarray    # (R, p-1)
    site_weights: np.ndarray        # (R,) weights at the last site

    @property
    def n_boundary(self) -> int:
        return self.site_weights.shape[0]


class WoodburyResidual(NamedTuple):
    residual: float
    bound: float


# ---------------------------------------------------------------------------
# sampling


def _distinct_tuples(rng, n_sites, m, p):
    """Uniform ordered distinct p-tuples from 0..n_sites-1, shape (m, p).

    Vectorized rejection when collisions are rare; falls back to per-row
    partial shuffles when p is comparable to n_sites.  Both routes give
    the exact uniform law on ordered distinct tuples.
    """
    if p == 1:
        return rng.integers(0, n_sites, size=(m, 1))
    accept = np.prod(1.0 - np.arange(p) / n_sites)
    if accept < 0.5:
        out = np.empty((m, p), dtype=np.int64)
        for i in range(m):
            out[i] = rng.permutation(n_sites)[:p]
        return out
    out = rng.integers(0, n_sites, size=(m, p))
    bad = _rows_with_duplicates(out)
    while bad.size:
        out[bad] = rng.integers(0, n_sites, size=(bad.size, p))
        bad = bad[_rows_with_duplicates(out[bad])]
    return out


def _rows_with_duplicates(rows):
    srt = np.sort(rows, axis=1)
    dup = (np.diff(srt, axis=1) == 0).any(axis=1)
    return np.nonzero(dup)[0]


def _clauses(disorder, mean, n_sites, width, rng):
    """Poisson(mean) clauses: the count m, then (m, width) distinct sites, then weights.

    Besides realizations, ``rde.step``, ``rde.find_contractive_q`` and
    ``rde.pair_step`` draw their clauses here at width 1: the one site is
    the clause's owner among ``n_sites`` outputs.
    """
    m = int(rng.poisson(mean))
    sites = _distinct_tuples(rng, n_sites, m, width)
    return sites, _sample_shape(disorder, (m, width), rng)


def sample_model(
    params: ModelParams,
    disorder: DisorderSpec,
    n_sites: int,
    rng: np.random.Generator,
) -> FactorModel:
    """Draw one realization: Poisson(alpha*N) clauses, uniform site tuples."""
    if n_sites < params.p:
        raise ValueError(
            f"n_sites={n_sites} is smaller than the clause arity p={params.p}"
        )
    sites, weights = _clauses(
        disorder, params.alpha * n_sites, n_sites, params.p, rng
    )
    return FactorModel(n_sites, sites, weights, params, disorder)


def over_realizations(
    query,
    params: ModelParams,
    disorder: DisorderSpec,
    n_sites: int,
    n_replicates: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> list:
    """``query`` of each of ``n_replicates`` independent realizations, in order.

    The child streams are split off ``rng`` up front and child i draws
    replicate i, so the result does not depend on ``workers``.
    """
    return parallel_map(
        lambda child: query(sample_model(params, disorder, n_sites, child)),
        rng.spawn(n_replicates),
        workers,
    )


# ---------------------------------------------------------------------------
# linear algebra


def _clause_rows(model: FactorModel) -> csr_matrix:
    """V^T as an M x N CSR matrix: row k holds clause k's p weights at its p sites."""
    m, p = model.sites.shape
    return csr_matrix(
        (model.weights.ravel(), model.sites.ravel(), np.arange(0, m * p + 1, p)),
        shape=(m, model.n_sites),
    )


def _assemble(model: FactorModel) -> csc_matrix:
    """A = I + 2*beta * V V^T as a sparse CSC matrix with sorted rows.

    The sparse product forms each entry's sum of weight products once.
    No sum that is exactly zero is stored (+-1 clauses that cancel, and
    all of them at beta = 0), so none costs the factorization fill.  An
    entry past the float range raises :class:`NumericalError`.
    """
    rows = _clause_rows(model)
    gram = (rows.T.tocsr() @ rows).tocsc()                   # CSR to CSC sorts the rows
    with _float_range("assembly"):
        gram.data *= 2.0 * model.params.beta
    matrix = gram + identity(model.n_sites, format="csc")
    if not np.all(np.isfinite(matrix.data)):  # a sum of finite products overflowed
        raise NumericalError("assembly left the float range: a summed entry overflowed")
    return matrix


def _factorize(matrix):
    """Symmetric sparse LU of A, P A P^T = L U, and the pivots diag(U).

    ``SymmetricMode`` with no threshold pivoting keeps the pivots on the
    diagonal of the symmetrically permuted matrix, so U = D L^T with
    D = diag(U) and A = P^T L D L^T P.  The row and column permutations
    must agree and every pivot must be finite and positive.
    """
    try:
        lu = splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        raise NumericalError(f"sparse LU factorization failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise NumericalError("sparse LU pivoted off the diagonal")
    pivots = lu.U.diagonal()
    if not np.all((pivots > 0) & (pivots < math.inf)):
        raise NumericalError("sparse LU produced a pivot that is not finite and positive")
    return lu, pivots


def _column_structure(pattern):
    """(ptr, rows, below, keys, parent) of a lower triangular CSC pattern with sorted rows.

    ``below`` is |S_j|, the number of rows under column j's diagonal;
    the entry (r, c) has key c*n + r, so ``keys`` is sorted; parent(j) =
    min S_j, or j itself at a root of the elimination forest.
    """
    n = pattern.shape[0]
    ptr = pattern.indptr.astype(np.int64)
    rows = pattern.indices.astype(np.int64)
    below = np.diff(ptr) - 1
    keys = np.repeat(np.arange(n, dtype=np.int64) * n, below + 1) + rows
    parent = np.where(below > 0, rows[np.minimum(ptr[:-1] + 1, ptr[1:] - 1)], np.arange(n))
    return ptr, rows, below, keys, parent


def _closed_pattern(lower):
    """L's values on its pattern closed under elimination, and that pattern's structure.

    In the closed pattern, given by :func:`_column_structure`, the rows
    below each column j's diagonal form a clique: (l, k) is stored for
    k < l both in S_j.  That holds exactly when every S_j without
    parent(j) lies in S_parent(j) (then S_j is a clique because
    S_parent(j) is, from the last column down), which one key search
    over the entries checks.  The entries it finds missing are added,
    with value 0, and the check is repeated; L is nearly always closed.
    """
    pattern = csc_matrix(lower, copy=True)
    pattern.sum_duplicates()
    n = pattern.shape[0]
    while True:
        ptr, rows, below, keys, parent = structure = _column_structure(pattern)
        cols = np.repeat(np.arange(n, dtype=np.int64), below + 1)
        past = rows > parent[cols]                            # S_j without parent(j)
        need_rows, need_cols = rows[past], parent[cols[past]]
        need = need_cols * n + need_rows
        at = np.minimum(np.searchsorted(keys, need), keys.size - 1)
        missing = keys[at] != need
        if not missing.any():
            return pattern.data, structure
        pattern = csc_matrix(
            (np.concatenate([pattern.data, np.zeros(np.count_nonzero(missing))]),
             (np.concatenate([rows, need_rows[missing]]),
              np.concatenate([cols, need_cols[missing]]))),
            shape=(n, n),
        )
        pattern.sum_duplicates()


def _root_clique(below: np.ndarray) -> int:
    """First column c0 of the root clique of a closed pattern with ``below`` = |S_j|.

    The root clique is the trailing columns c0..n-1 whose rows below the
    diagonal are every later column.  In a closed pattern a full column's
    parent j+1 is full too, so the full columns are exactly c0..n-1; the
    last column always is one.
    """
    return int(np.flatnonzero(below == np.arange(below.size - 1, -1, -1))[0])


def _clique_inverse(lval: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """Z22 = L22^{-T} D2^{-1} L22^{-1} on the lower triangle, column by column.

    ``lval`` holds the k x k unit lower triangular L22 the same way.
    Its transpose scaled by D2^{1/2} is the Cholesky factor R of
    L22 D2 L22^T = R^T R, so LAPACK's ``dpotri`` inverts it in k^3/3
    multiply-adds.  The upper triangle of a row-major array lists a
    column-major lower triangle in order, which is how both are read.
    """
    k = pivots.size
    upper = np.triu(np.ones((k, k), dtype=bool))
    factor = np.zeros((k, k))
    factor[upper] = lval
    factor *= np.sqrt(pivots)[:, None]
    inverse, info = dpotri(factor)
    if info:
        raise NumericalError(f"dense inverse of the root clique failed: dpotri info {info}")
    return inverse[upper]


def _tree_depth(parent: np.ndarray) -> np.ndarray:
    """Depth of every node of a forest given by ``parent`` (a root is its own).

    Pointer jumping: ``dist`` is the distance from each node to ``jump``,
    which moves twice as far up per pass, until every jump is a root.
    """
    dist = (parent != np.arange(parent.size)).astype(np.int64)
    jump = parent
    while True:
        further = jump[jump]
        if np.array_equal(further, jump):
            return dist
        dist = dist + dist[jump]
        jump = further


def _selected_inverse_diagonal(lower, pivots: np.ndarray) -> np.ndarray:
    """diag((L D L^T)^{-1}): the root clique densely, then Takahashi's recurrence.

    Z is held on the closed pattern of L, column by column in CSC order,
    so the entry (r, c), r >= c, sits at ``searchsorted(keys, c*n + r)``,
    or at ``ptr[c] + r - c`` when c is in the root clique, whose columns
    are full.  The clique's block of Z is filled in by LAPACK first.  A
    column whose parent lies in the clique then becomes a root, and the
    other columns follow one depth of that forest at a time.  Z[S_j, S_j] is
    symmetric, so each column gathers its lower triangle once, pair
    (a, b) with a < b adding to both Z[s_a, j] and Z[s_b, j].  Every
    per-entry index is set up once; a pass reads slices of them.
    """
    n = pivots.size
    lval, (ptr, rows, below, keys, parent) = _closed_pattern(lower)  # 0 where closure added
    z = np.zeros(rows.size)
    z[ptr[:-1]] = 1.0 / pivots                                # final at the roots
    clique = _root_clique(below)                              # its first column
    z[ptr[clique]:] = _clique_inverse(lval[ptr[clique]:], pivots[clique:])
    depth = _tree_depth(np.where(parent < clique, parent, np.arange(n)))
    todo = np.flatnonzero(below[:clique] > 0)
    order = todo[np.argsort(depth[todo], kind="stable")]
    # the other columns' below-diagonal entries, column by column in depth order
    count = below[order]
    col_bound = np.concatenate([[0], np.cumsum(count)])
    ent = np.arange(col_bound[-1]) + np.repeat(ptr[order] + 1 - col_bound[:-1], count)
    later = np.repeat(ptr[order + 1], count) - 1 - ent        # entries after it in S_j
    pair_bound = np.concatenate([[0], np.cumsum(later)])
    shift = np.arange(ent.size) + 1 - pair_bound[:-1]
    rent, lent = rows[ent], lval[ent]
    # a pass covers one depth, or a run of its columns within one pair chunk
    level = depth[order]
    gathered = count * (count + 1) // 2
    before = np.cumsum(gathered) - gathered
    piece = (before - before[np.searchsorted(level, level)]) // INVERSE_DIAGONAL_PAIRS
    cuts = np.append(
        np.flatnonzero(np.diff(level, prepend=0) | np.diff(piece, prepend=-1)), order.size
    )
    ecut = col_bound[cuts]
    pcut = pair_bound[ecut]
    for c0, c1, e0, e1, p0, p1 in zip(
        cuts[:-1], cuts[1:], ecut[:-1], ecut[1:], pcut[:-1], pcut[1:]
    ):
        ia = np.repeat(np.arange(e0, e1), later[e0:e1])
        ib = np.arange(p0, p1) + np.repeat(shift[e0:e1], later[e0:e1])
        sa, sb = rent[ia], rent[ib]
        at = ptr[sa] + sb - sa                                # Z[s_b, s_a] if s_a in the clique
        out = sa < clique
        at[out] = np.searchsorted(keys, sa[out] * n + sb[out])
        zab = z[at]
        x = -(
            z[ptr[rent[e0:e1]]] * lent[e0:e1]
            + np.bincount(ia - e0, zab * lent[ib], e1 - e0)
            + np.bincount(ib - e0, zab * lent[ia], e1 - e0)
        )
        z[ent[e0:e1]] = x
        z[ptr[order[c0:c1]]] -= np.add.reduceat(lent[e0:e1] * x, col_bound[c0:c1] - e0)
    return z[ptr[:-1]]


class Factorization:
    """One realization's matrix A, factored once and queried many times.

    The sparse A is factored once by a symmetric sparse LU,
    A = P^T L D L^T P: P a fill-reducing permutation, L unit lower
    triangular, D = diag(U) > 0.  Solves go through SuperLU; only
    :meth:`inverse_diagonal` reads L itself.
    """

    def __init__(self, model: FactorModel):
        self.model = model
        self._lu, self._pivots = _factorize(_assemble(model))

    @cached_property
    def log_det(self) -> float:
        """log det A = sum of log pivots; always >= 0 since A >= I."""
        return float(np.sum(np.log(self._pivots)))

    def solve(self, rhs) -> np.ndarray:
        """A^{-1} rhs for a vector or a matrix of right-hand-side columns."""
        return self._lu.solve(np.asarray(rhs, dtype=float))

    def inverse_diagonal(self, sites=None) -> np.ndarray:
        """A^{-1}_{ii} at the given 0-based sites (default: every site).

        Selected inversion (Takahashi, Fagan and Chin 1973) on the factor
        P A P^T = L D L^T.  Z = (L D L^T)^{-1} satisfies
        Z = D^{-1} L^{-1} + (I - L^T) Z, so for each column j with rows S_j
        below the diagonal of L

            Z[S_j, j] = -Z[S_j, S_j] L[S_j, j],
            Z[j, j]   = 1/d_j - L[S_j, j]^T Z[S_j, j],

        and A^{-1}_{ii} = Z[perm_c[i], perm_c[i]].  Every row of S_j is an
        ancestor of j in the elimination tree, parent(j) = min S_j.
        SuperLU leaves out entries of L that are exactly zero, and +-1
        weights cancel fill exactly, so Z[S_j, S_j] could reach outside
        that pattern; the pattern is closed under elimination first,
        which is checked with one key search in O(nnz(L)) and grown only
        where it is not, carrying L's values along (0 where it grew), so
        L is read once.  The root clique, the trailing columns c0..n-1
        whose rows are every later column, is inverted densely with
        LAPACK, Z22 = L22^{-T} D2^{-1} L22^{-1} (c0 = n-1 at beta = 0,
        c0 = 0 for a dense A).  The columns under it follow on L's
        pattern, one vectorized pass per depth of the forest left when
        the clique is cut off, so the number of passes is that forest's
        height, not the elimination tree's.  For a clique of k columns
        the work is about k^3/3 + sum_j |S_j|^2 / 2 over the other
        columns, the order of the factorization's own flop count.  The
        one dense array is the clique's k x k block, which L already
        holds half of; no N x N array is formed unless L is dense.  All
        values lie in (0, 1] because A >= I.
        """
        sites = self._sites(np.arange(self.model.n_sites) if sites is None else sites)
        return _selected_inverse_diagonal(self._lu.L, self._pivots)[self._lu.perm_c[sites]]

    def inverse_block(self, sites) -> np.ndarray:
        """A^{-1}[sites][:, sites] from one solve on the sites' unit columns.

        A few unit columns cost less than the whole selected-inverse diagonal.
        """
        sites = self._sites(sites)
        units = np.zeros((self.model.n_sites, sites.size))
        units[sites, np.arange(sites.size)] = 1.0
        return self.solve(units)[sites]

    def _sites(self, sites) -> np.ndarray:
        """``sites`` as int64 indices, once they are checked to be integers in 0..N-1."""
        sites = np.asarray(sites)
        if sites.size and sites.dtype.kind not in "iu":
            raise ValueError("site indices must be integers")
        if sites.size and (sites.min() < 0 or sites.max() >= self.model.n_sites):
            raise ValueError("site index out of range")
        return sites.astype(np.int64)

    @cached_property
    def ones_quadratic_form(self) -> float:
        """(1^T A^{-1} 1) / N."""
        ones = np.ones(self.model.n_sites)
        return float(ones @ self.solve(ones) / self.model.n_sites)

    @cached_property
    def free_energy(self) -> float:
        """F_N = (h^2/2) * (1^T A^{-1} 1)/N + log det A / (2N)."""
        h = self.model.params.h
        return h * h / 2.0 * self.ones_quadratic_form + self.log_det / (
            2.0 * self.model.n_sites
        )

    def sample_spins(self, n_samples: int, rng: np.random.Generator) -> np.ndarray:
        """(n_samples, N) i.i.d. Gibbs draws: mean h*A^{-1}*1, covariance A^{-1}.

        Perturbation sampling (Papandreou and Yuille 2010) from A's own
        clause matrix V, in one solve: with g ~ N(0, I_N) and
        eta ~ N(0, I_M), the draw A^{-1} (h*1 + g + sqrt(2*beta) V eta)
        has noise covariance A^{-1} (I + 2*beta V V^T) A^{-1} = A^{-1}.
        """
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        model = self.model
        g = rng.standard_normal((model.n_sites, n_samples))
        eta = rng.standard_normal((model.n_clauses, n_samples))
        perturbation = math.sqrt(2.0 * model.params.beta) * (_clause_rows(model).T @ eta)
        return self.solve(model.params.h + g + perturbation).T


def log_det(model: FactorModel) -> float:
    """log det A via symmetric factorization; always >= 0 since A >= I."""
    return Factorization(model).log_det


def inverse_diagonal(model: FactorModel, sites=None) -> np.ndarray:
    """Exact diagonal entries of A^{-1} at ``sites`` (default: every site)."""
    return Factorization(model).inverse_diagonal(sites)


def ones_quadratic_form(model: FactorModel) -> float:
    """(1^T A^{-1} 1) / N via a single linear solve."""
    return Factorization(model).ones_quadratic_form


def finite_free_energy(model: FactorModel) -> float:
    """F_N = (h^2/2) * (1^T A^{-1} 1)/N + log det A / (2N)."""
    return Factorization(model).free_energy


# ---------------------------------------------------------------------------
# cavity split and the rank-R update check


def cavity_split(
    params: ModelParams,
    disorder: DisorderSpec,
    n_sites: int,
    rng: np.random.Generator,
) -> CavitySplit:
    """Split the ensemble at the last site by Poisson thinning.

    The clause list of a full realization decomposes in law into a bulk
    part avoiding the last site (count Poisson(alpha*(N-p))) and a
    boundary part through it (count Poisson(alpha*p)); the two lists
    together are a realization of the original ensemble, exactly in law.
    """
    if n_sites <= params.p:
        raise ValueError("n_sites must exceed p to split off one site")
    p = params.p
    bulk_sites, bulk_weights = _clauses(
        disorder, params.alpha * (n_sites - p), n_sites - 1, p, rng
    )
    bulk = FactorModel(n_sites - 1, bulk_sites, bulk_weights, params, disorder)
    interior_sites, interior_weights = _clauses(
        disorder, params.alpha * p, n_sites - 1, p - 1, rng
    )
    site_weights = _sample_shape(disorder, (interior_sites.shape[0],), rng)
    return CavitySplit(n_sites, bulk, interior_sites, interior_weights, site_weights)


def woodbury_residual(split: CavitySplit) -> WoodburyResidual:
    """Two-sided check of the rank-R cavity approximation at the last site.

    With B the bulk matrix, Xi the interior parts of the R boundary
    clauses and z their weights at the last site, K = I + 2*beta G with
    G = Xi^T B^{-1} Xi gives A^{-1}_{NN} = 1/(1 + 2*beta z^T K^{-1} z)
    exactly, by the Schur complement and Xi^T (B + 2*beta Xi Xi^T)^{-1} Xi
    = G (I + 2*beta G)^{-1}.  Returns

        residual = | A^{-1}_{NN} - (1 + sum_k 2*beta*z_k^2 / d_k)^{-1} |,
        d_k      = 1 + 2*beta * sum_r xi_{k,r}^2 * Binv[s_{k,r}, s_{k,r}],

    with the product ||z||^2 * ||E||, E = K - diag(d_k) being made of the
    off-diagonal bulk-inverse entries between boundary interior sites
    (cross-clause entries everywhere, same-clause entries off its
    diagonal).  The residual is controlled by a constant multiple of the
    bound; the constant is left to the caller to fit.  B is the only
    matrix factored, and only with an interior site: with none (R = 0 or
    p = 1), d_k = 1, E = 0 and the bound is exactly 0.
    """
    two_beta = 2.0 * split.bulk.params.beta
    r = split.n_boundary
    zeta = split.site_weights
    xi = split.interior_weights
    unique_sites, col_of = np.unique(split.interior_sites, return_inverse=True)
    col_of = col_of.reshape(split.interior_sites.shape)
    # B^{-1} restricted to the grid of distinct interior sites; with none, nothing to factor
    grid = (Factorization(split.bulk).inverse_block(unique_sites)
            if unique_sites.size else np.zeros((0, 0)))
    d_k = 1.0 + two_beta * np.sum(xi**2 * np.diag(grid)[col_of], axis=1)
    # Gram of the interior parts through B^{-1}: (R x R), includes 2*beta.
    # A clause's interior sites are distinct, so the scatter writes each entry once.
    profile = np.zeros((unique_sites.size, r))
    profile[col_of, np.arange(r)[:, None]] = xi
    e_matrix = two_beta * profile.T @ grid @ profile
    e_matrix[np.arange(r), np.arange(r)] -= d_k - 1.0  # drop the r = s terms
    e_norm = float(np.linalg.svd(e_matrix, compute_uv=False).max(initial=0.0))  # ||E||_2

    exact = 1.0 / (1.0 + two_beta * float(zeta @ np.linalg.solve(e_matrix + np.diag(d_k), zeta)))
    approx = 1.0 / (1.0 + float(np.sum(two_beta * zeta**2 / d_k)))
    bound = float(zeta @ zeta) * e_norm
    return WoodburyResidual(abs(exact - approx), bound)


# ---------------------------------------------------------------------------
# portable text format


def dump_model(model: FactorModel, path) -> None:
    """Write a realization as rows of :func:`write_rows`.

    Header row: N M alpha beta h p family param truncation.  Then one
    row per clause: p 1-based site indices followed by the p weights.
    """
    params, spec = model.params, model.disorder
    head = (model.n_sites, model.n_clauses, float(params.alpha), float(params.beta),
            float(params.h), params.p, spec.family, float(spec.param), float(spec.truncation))
    clauses = ((*(row + 1), *wrow) for row, wrow in zip(model.sites, model.weights))
    write_rows(path, [head, *clauses])


def load_model(path) -> FactorModel:
    """Read a realization written by :func:`dump_model`.

    Non-finite weights are rejected, as is a clause that repeats a site:
    the ensemble never draws either.  :class:`ModelParams` and
    :class:`DisorderSpec` reject a header they would not accept.
    """
    head, *body = read_rows(path, "model", 9)
    n_sites, m = int(np.int64(head[0])), int(head[1])  # sites are int64 indices
    params = ModelParams(float(head[2]), float(head[3]), float(head[4]), int(head[5]))
    spec = DisorderSpec(head[6], float(head[7]), float(head[8]))
    if len(body) != m:
        raise ValueError(f"{path}: header promises {m} clauses, found {len(body)}")
    p = params.p
    for i, fields in enumerate(body):
        if len(fields) != 2 * p:
            raise ValueError(f"{path}: clause line {i + 2} has {len(fields)} fields")
    sites = np.array([fields[:p] for fields in body], dtype=np.int64).reshape(m, p) - 1
    weights = np.array([fields[p:] for fields in body], dtype=float).reshape(m, p)
    bad = np.flatnonzero(~np.isfinite(weights).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: clause line {bad[0] + 2} has a non-finite weight")
    repeats = _rows_with_duplicates(sites)
    if repeats.size:
        raise ValueError(f"{path}: clause line {repeats[0] + 2} repeats a site")
    return FactorModel(n_sites, sites, weights, params, spec)


def format_float(x: float) -> str:
    """Decimal text of a float with 17 significant digits (lossless float64)."""
    return format(float(x), ".17g")


def write_rows(path, rows, sep=" ") -> None:
    """Write each row as one line of fields: the text format of every non-JSON output.

    UTF-8, LF line ends and a trailing newline.  Floats are written by
    :func:`format_float` (17 significant digits, so float64 values
    round-trip; ``inf`` and ``nan`` as such), ints and strings through
    ``str``.  Fields are joined by ``sep``: a space in model and
    population files, a comma in CSV outputs.
    """
    lines = (
        sep.join(format_float(f) if isinstance(f, float) else str(f) for f in row) + "\n"
        for row in rows
    )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(lines)


def read_rows(path, what, head_width) -> list:
    """The nonblank lines of a space-separated :func:`write_rows` file, split into fields.

    Raises ValueError naming ``path`` when the file holds no line, or
    when its first line, the header, is not ``head_width`` fields wide.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split() for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty {what} file")
    if len(rows[0]) != head_width:
        raise ValueError(f"{path}: malformed header (expected {head_width} fields)")
    return rows
