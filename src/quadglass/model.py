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

This module imports numpy alone.  The assembly, the sparse LU and the
selected inversion live in :mod:`quadglass.linalg`, which
:class:`Factorization` imports when it first factors, so scipy loads
only in a process that forms a matrix: the fixed-point and limit routes
never do.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .disorder import DisorderSpec, _sample_shape
from .parallel import parallel_map


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

    Column k draws a rank r uniform on 0..n_sites-k-1 and takes the r-th
    site its row has not used yet.  With the row's used sites sorted,
    u_0 < ... < u_{k-1}, u_i - i sites lie unused below u_i, so that site
    is r plus the number of i with u_i - i <= r.  Each column is uniform
    on the unused sites given the earlier ones, so the tuple is exactly
    uniform at every arity, from one draw of m ranks per column.
    """
    out = rng.integers(0, n_sites, size=(m, min(p, 1)))
    for k in range(1, p):
        r = rng.integers(0, n_sites - k, size=(m, 1))
        r += np.count_nonzero(np.sort(out, axis=1) - np.arange(k) <= r, axis=1, keepdims=True)
        out = np.hstack([out, r])
    return out


def _rows_with_duplicates(rows):
    srt = np.sort(rows, axis=1)
    dup = (np.diff(srt, axis=1) == 0).any(axis=1)
    return np.nonzero(dup)[0]


def _clauses(disorder, mean, n_sites, width, rng):
    """Poisson(mean) clauses: the count m, then (m, width) distinct sites, then weights.

    Besides realizations, ``rde._push`` (behind ``rde.step`` and the
    fixed-point solve), ``rde.find_contractive_q`` and ``rde.pair_step``
    draw their clauses here at width 1: the one site is the clause's
    owner among ``n_sites`` outputs.
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
# factorization: the queries here, the kernels in quadglass.linalg


class Factorization:
    """One realization's matrix A, factored once and queried many times.

    The sparse A is factored once by a symmetric sparse LU,
    A = P^T L D L^T P: P a fill-reducing permutation, L unit lower
    triangular, D = diag(U) > 0.  Solves go through SuperLU; only
    :meth:`inverse_diagonal` reads L itself.
    """

    def __init__(self, model: FactorModel):
        from . import linalg  # scipy loads at the first factorization

        self.model = model
        self._lu, self._pivots = linalg._factorize(linalg._assemble(model))

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
        from . import linalg

        sites = self._sites(np.arange(self.model.n_sites) if sites is None else sites)
        return linalg._selected_inverse_diagonal(self._lu.L, self._pivots)[self._lu.perm_c[sites]]

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
        from . import linalg

        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        model = self.model
        g = rng.standard_normal((model.n_sites, n_samples))
        eta = rng.standard_normal((model.n_clauses, n_samples))
        perturbation = math.sqrt(2.0 * model.params.beta) * (linalg._clause_rows(model).T @ eta)
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
