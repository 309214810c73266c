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
fans a query out over independent realizations.  The roughly
N + alpha*N*p^2 nonzeros of A are assembled as a sparse matrix and
factored by a fill-reducing symmetric sparse LU, A = P^T L D L^T P.
A >= I makes the factorization unconditionally well posed, so it needs
no pivoting off the diagonal; when A = I (no clauses or beta = 0) every
pivot is exactly 1 and every query is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu, spsolve_triangular

from .disorder import DisorderSpec, _sample_shape
from .estimate import Estimate, mc_estimate
from .parallel import parallel_map
from .streams import substreams

# unit right-hand sides solved together by Factorization.inverse_diagonal
INVERSE_DIAGONAL_BLOCK = 64


class NumericalError(RuntimeError):
    """Factorization failed on a matrix that is >= I by construction.

    This cannot happen for a correctly assembled realization; treat it
    as a bug signal, not an input problem.
    """


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
        if not math.isfinite(self.h):
            raise ValueError(f"h must be finite, got {self.h!r}")
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

    Besides realizations, ``rde.step``, ``rde.contraction_factor`` and
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
        substreams(rng, n_replicates),
        workers,
    )


# ---------------------------------------------------------------------------
# linear algebra


def _assemble(model: FactorModel) -> csc_matrix:
    """A = I + 2*beta * sum_k v_k v_k^T as a sparse CSC matrix.

    Each clause contributes its p x p block of weight products; entries
    that land on the same (row, column) are summed.  Products that are
    exactly zero (all of them at beta = 0) are not stored, so they cost
    the factorization no fill.
    """
    n = model.n_sites
    contrib = (
        2.0 * model.params.beta * model.weights[:, :, None] * model.weights[:, None, :]
    )
    keep = contrib != 0
    rows = np.broadcast_to(model.sites[:, :, None], contrib.shape)[keep]
    cols = np.broadcast_to(model.sites[:, None, :], contrib.shape)[keep]
    diag = np.arange(n)
    return csc_matrix(
        (
            np.concatenate([np.ones(n), contrib[keep]]),
            (np.concatenate([diag, rows]), np.concatenate([diag, cols])),
        ),
        shape=(n, n),
    )


def coupling_matrix(model: FactorModel) -> np.ndarray:
    """The dense N x N matrix I + 2*beta * sum_k v_k v_k^T (for inspection).

    The same assembly that :class:`Factorization` factors, densified.
    """
    return _assemble(model).toarray()


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


class Factorization:
    """One realization's matrix A, factored once and queried many times.

    The sparse A is factored once by a symmetric sparse LU, A = C C^T
    with C = P^T L D^{1/2}: P a fill-reducing permutation, L unit lower
    triangular, D = diag(U) > 0.
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

    def solve_transposed_factor(self, rhs) -> np.ndarray:
        """C^{-T} rhs; standard normal columns map to N(0, A^{-1}) draws.

        With A = C C^T, C^{-T} g = P^T L^{-T} D^{-1/2} g has covariance
        (C C^T)^{-1} = A^{-1}.
        """
        rhs = np.asarray(rhs, dtype=float)
        scale = np.sqrt(self._pivots).reshape((-1,) + (1,) * (rhs.ndim - 1))
        x = spsolve_triangular(
            self._lu.L.T, rhs / scale, lower=False, unit_diagonal=True
        )
        return x[self._lu.perm_c]

    def inverse_diagonal(self, sites=None) -> np.ndarray:
        """A^{-1}_{ii} at the given 0-based sites (default: every site).

        All values lie in (0, 1] because A >= I.  Unit right-hand sides
        are solved INVERSE_DIAGONAL_BLOCK at a time, so no N x N array
        is formed.
        """
        n = self.model.n_sites
        sites = np.arange(n) if sites is None else np.asarray(sites, dtype=np.int64)
        if sites.size and (sites.min() < 0 or sites.max() >= n):
            raise ValueError("site index out of range")
        out = np.empty(sites.size)
        for start in range(0, sites.size, INVERSE_DIAGONAL_BLOCK):
            block = sites[start : start + INVERSE_DIAGONAL_BLOCK]
            cols = np.arange(block.size)
            rhs = np.zeros((n, block.size))
            rhs[block, cols] = 1.0
            out[start : start + block.size] = self.solve(rhs)[block, cols]
        return out

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

        The noise is z = C^{-T} g, whose covariance is (C C^T)^{-1} = A^{-1}.
        """
        if n_samples < 1:
            raise ValueError("n_samples must be at least 1")
        n = self.model.n_sites
        mean = self.solve(np.full(n, self.model.params.h))
        noise = self.solve_transposed_factor(rng.standard_normal((n, n_samples)))
        return mean[None, :] + noise.T


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
# off-diagonal statistics


@dataclass(frozen=True)
class OffDiagReport:
    """Replicated moments of selected off-diagonal entries of A^{-1}."""

    entry_12: Estimate            # mean of A^{-1}_{12}
    product_12_13: Estimate       # mean of A^{-1}_{12} A^{-1}_{13}
    product_12_34: Estimate       # mean of A^{-1}_{12} A^{-1}_{34}
    scaled_square: Estimate       # mean of (N-1) (A^{-1}_{12})^2


def offdiag_moments(
    params: ModelParams,
    disorder: DisorderSpec,
    n_sites: int,
    n_replicates: int,
    rng: np.random.Generator,
) -> OffDiagReport:
    """Sample means and errors of A^{-1} cross moments over replicates."""
    if n_sites < 4:
        raise ValueError("n_sites must be at least 4 for the (1,2)(3,4) moment")
    if n_replicates < 1:
        raise ValueError("n_replicates must be at least 1")
    rhs = np.zeros((n_sites, 3))
    rhs[[1, 2, 3], [0, 1, 2]] = 1.0

    def entries(model):
        sol = Factorization(model).solve(rhs)
        return sol[0, 0], sol[0, 1], sol[2, 2]

    a12, a13, a34 = np.array(
        over_realizations(entries, params, disorder, n_sites, n_replicates, rng)
    ).T
    return OffDiagReport(
        entry_12=mc_estimate(a12),
        product_12_13=mc_estimate(a12 * a13),
        product_12_34=mc_estimate(a12 * a34),
        scaled_square=mc_estimate((n_sites - 1) * a12**2),
    )


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
    boundary part through it (count Poisson(alpha*p)); reassembling the
    two reproduces the original ensemble exactly.
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


def reassemble(split: CavitySplit) -> FactorModel:
    """Merge bulk and boundary clauses into a full N-site realization."""
    last = split.n_sites - 1
    r = split.n_boundary
    boundary_sites = np.hstack(
        [split.interior_sites, np.full((r, 1), last, dtype=np.int64)]
    )
    boundary_weights = np.hstack([split.interior_weights, split.site_weights[:, None]])
    sites = np.vstack([split.bulk.sites, boundary_sites])
    weights = np.vstack([split.bulk.weights, boundary_weights])
    return FactorModel(
        split.n_sites, sites, weights, split.bulk.params, split.bulk.disorder
    )


def woodbury_residual(split: CavitySplit) -> WoodburyResidual:
    """Two-sided check of the rank-R cavity approximation at the last site.

    Computes exactly, by independent factorizations,

        residual = | A^{-1}_{NN} - (1 + sum_k 2*beta*z_k^2 / d_k)^{-1} |,
        d_k      = 1 + 2*beta * sum_r xi_{k,r}^2 * Binv[s_{k,r}, s_{k,r}],

    where B is the bulk matrix, and returns it with the product
    ||z||^2 * ||E||, E being the R x R interaction matrix built from the
    off-diagonal bulk-inverse entries between boundary interior sites
    (cross-clause entries everywhere, same-clause entries off its
    diagonal).  The residual is controlled by a constant multiple of the
    bound; the constant is left to the caller to fit.  One arithmetic
    covers every R and p: with no interior site (R = 0 or p = 1) the
    bulk is not factored, d_k = 1, E = 0 and the bound is exactly 0.
    """
    two_beta = 2.0 * split.bulk.params.beta
    rhs = np.zeros(split.n_sites)
    rhs[-1] = 1.0
    exact = float(Factorization(reassemble(split)).solve(rhs)[-1])

    r = split.n_boundary
    zeta = split.site_weights
    xi = split.interior_weights
    unique_sites, col_of = np.unique(split.interior_sites, return_inverse=True)
    col_of = col_of.reshape(split.interior_sites.shape)
    cols = np.zeros((split.n_sites - 1, unique_sites.size))
    cols[unique_sites, np.arange(unique_sites.size)] = 1.0
    if unique_sites.size:  # with no interior site there is nothing to solve
        cols = Factorization(split.bulk).solve(cols)  # columns of B^{-1}
    # B^{-1} restricted to the grid of distinct interior sites:
    grid = cols[unique_sites, :]
    d_k = 1.0 + two_beta * np.sum(xi**2 * np.diag(grid)[col_of], axis=1)
    # Gram of the interior parts through B^{-1}: (R x R), includes 2*beta.
    # A clause's interior sites are distinct, so the scatter writes each entry once.
    profile = np.zeros((unique_sites.size, r))
    profile[col_of, np.arange(r)[:, None]] = xi
    e_matrix = two_beta * profile.T @ grid @ profile
    e_matrix[np.arange(r), np.arange(r)] -= d_k - 1.0  # drop the r = s terms
    e_norm = float(np.linalg.svd(e_matrix, compute_uv=False).max(initial=0.0))  # ||E||_2

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
