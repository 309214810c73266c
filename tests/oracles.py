"""Independent oracle implementations used to pin expected values.

Everything here deliberately avoids the code paths it is used to check:
quadrature instead of closed forms, eigenvalues instead of Cholesky,
hand-rolled conjugate gradients instead of library solves, direct
samplers instead of population dynamics.
"""

import copy
import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad
from scipy.sparse import csc_matrix, tril

from quadglass.model import CavitySplit, FactorModel


class Clause(NamedTuple):
    """One interaction term: p distinct sites and their weights."""

    sites: tuple[int, ...]
    weights: tuple[float, ...]


def model_clauses(model):
    """A realization's clauses, one per row of ``sites`` and ``weights``."""
    return tuple(
        Clause(tuple(int(s) for s in row), tuple(float(w) for w in wrow))
        for row, wrow in zip(model.sites, model.weights)
    )


def boundary_clauses(split):
    """The boundary clauses of a cavity split, each ending at the last site."""
    last = split.n_sites - 1
    return tuple(
        Clause(
            tuple(int(s) for s in row) + (last,),
            tuple(float(w) for w in wrow) + (float(z),),
        )
        for row, wrow, z in zip(
            split.interior_sites, split.interior_weights, split.site_weights
        )
    )


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


def truncated_gaussian_second_moment(sigma, c):
    """E[g^2 1(|g| <= c)] for g ~ N(0, sigma^2) by adaptive quadrature."""

    def integrand(x):
        return x * x * np.exp(-0.5 * (x / sigma) ** 2) / (sigma * np.sqrt(2 * np.pi))

    value, err = quad(integrand, -c, c, epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-11
    return value


def second_moment(spec):
    """Exact second moment of a (possibly truncated) disorder law.

    Closed forms exist for every family.  For a truncated centered
    Gaussian with std s and level c, with u = c/s:

        E[g^2 1(|g| <= c)] = s^2 * ((2 Phi(u) - 1) - 2 u phi(u)).
    """
    c = spec.truncation
    if spec.family == "rademacher":
        return 1.0
    if spec.family == "two_point_symmetric":
        return spec.param**2
    if spec.family == "uniform_symmetric":
        a = spec.param
        if c >= a:
            return a * a / 3.0
        return c**3 / (3.0 * a)
    # gaussian
    s = spec.param
    if not math.isfinite(c):
        return s * s
    u = c / s
    mass = math.erf(u / math.sqrt(2.0))
    density = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    return s * s * (mass - 2.0 * u * density)


def dense_coupling_matrix(model):
    """A = I + 2*beta * sum_k v_k v_k^T, added into a dense array clause by clause."""
    a = np.eye(model.n_sites)
    for row, wrow in zip(model.sites, model.weights):
        a[np.ix_(row, row)] += 2.0 * model.params.beta * np.outer(wrow, wrow)
    return a


def dense_clause_matrix(model):
    """V, the N x M matrix whose column k is clause k's vector v_k, written clause by clause."""
    v = np.zeros((model.n_sites, model.n_clauses))
    for k, (row, wrow) in enumerate(zip(model.sites, model.weights)):
        v[row, k] = wrow
    return v


def dense_woodbury_residual(split):
    """(residual, bound) of the rank-R cavity check from dense numpy inverses.

    Builds the full matrix from the bulk and the boundary clauses, then
    writes d_k, E, the approximation and the bound clause by clause.
    """
    two_beta = 2.0 * split.bulk.params.beta
    n = split.n_sites
    full = np.eye(n)
    full[: n - 1, : n - 1] = dense_coupling_matrix(split.bulk)
    clauses = boundary_clauses(split)
    for clause in clauses:
        full[np.ix_(clause.sites, clause.sites)] += two_beta * np.outer(
            clause.weights, clause.weights
        )
    exact = np.linalg.inv(full)[-1, -1]
    b_inv = np.linalg.inv(dense_coupling_matrix(split.bulk))
    # interior (site, weight) pairs of each clause; its last site is N-1
    interior = [list(zip(c.sites[:-1], c.weights[:-1])) for c in clauses]
    d = [1.0 + two_beta * sum(w * w * b_inv[s, s] for s, w in pairs) for pairs in interior]
    r = len(clauses)
    e = np.zeros((r, r))
    for k in range(r):
        for l in range(r):
            e[k, l] = two_beta * sum(
                wa * wb * b_inv[sa, sb]
                for sa, wa in interior[k]
                for sb, wb in interior[l]
                if k != l or sa != sb
            )
    zeta = [c.weights[-1] for c in clauses]
    approx = 1.0 / (1.0 + sum(two_beta * z * z / dk for z, dk in zip(zeta, d)))
    e_norm = np.linalg.norm(e, 2) if r else 0.0
    return abs(exact - approx), sum(z * z for z in zeta) * e_norm


def logdet_via_eigenvalues(matrix):
    """log det through a dense eigen-decomposition."""
    return float(np.sum(np.log(np.linalg.eigvalsh(matrix))))


def log_det_incremental(model):
    """log det A by successive rank-one determinant updates.

    Keeps a dense running inverse through rank-one corrections and
    accumulates log(1 + 2*beta * v^T S^{-1} v) clause by clause, at
    O(N^2) per clause.
    """
    n = model.n_sites
    two_beta = 2.0 * model.params.beta
    if model.n_clauses == 0 or two_beta == 0:
        return 0.0
    inv = np.eye(n)
    total = 0.0
    for row, wrow in zip(model.sites, model.weights):
        u = inv[:, row] @ wrow
        s = 1.0 + two_beta * float(wrow @ u[row])
        total += math.log(s)
        inv -= (two_beta / s) * np.outer(u, u)
    return total


def closed_pattern_by_products(lower):
    """Pattern of a lower triangular CSC matrix closed under elimination, by products.

    With B the unit-valued pattern, tril(B B^T) stores (l, k) whenever
    some column holds both rows; it is repeated until the pattern stops
    growing (it never shrinks, since B has a unit diagonal).  The result
    has sorted indices.
    """
    pattern = csc_matrix(lower, copy=True)
    while True:
        pattern.data[:] = 1.0
        grown = tril(pattern @ pattern.T, format="csc")
        if grown.nnz == pattern.nnz:
            pattern.sort_indices()
            return pattern
        pattern = grown


def conjugate_gradient_solve(matrix, rhs, tol=1e-14, max_iter=10_000):
    """Plain conjugate gradients for SPD systems; no library solver."""
    x = np.zeros_like(rhs)
    r = rhs - matrix @ x
    d = r.copy()
    rr = float(r @ r)
    for _ in range(max_iter):
        if np.sqrt(rr) < tol * np.linalg.norm(rhs):
            break
        ad = matrix @ d
        alpha = rr / float(d @ ad)
        x += alpha * d
        r -= alpha * ad
        rr_new = float(r @ r)
        d = r + (rr_new / rr) * d
        rr = rr_new
    return x


def p1_inverse_diagonal(model):
    """For arity 1 the matrix is diagonal: entry i is 1/(1 + 2b sum g_k^2)."""
    acc = np.zeros(model.n_sites)
    np.add.at(acc, model.sites[:, 0], model.weights[:, 0] ** 2)
    return 1.0 / (1.0 + 2.0 * model.params.beta * acc)


def partition_function_mc(model, n_draws, rng, chunk=500_000):
    """Brute-force free energy: (1/N) log E_eta exp(-H(sigma)).

    Averages exp(-H) over standard Gaussian draws in chunks; returns the
    estimate and a delta-method standard error of (1/N) log(mean).
    """
    n = model.n_sites
    beta, h = model.params.beta, model.params.h
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n_draws:
        take = min(chunk, n_draws - done)
        sigma = rng.standard_normal((take, n))
        energy = np.zeros(take)
        for row, wrow in zip(model.sites, model.weights):
            energy += beta * (sigma[:, row] @ wrow) ** 2
        weights_exp = np.exp(-energy + h * sigma.sum(axis=1))
        total += float(weights_exp.sum())
        total_sq += float((weights_exp**2).sum())
        done += take
    mean = total / n_draws
    var = total_sq / n_draws - mean * mean
    se_mean = np.sqrt(max(var, 0.0) / n_draws)
    return np.log(mean) / n, se_mean / mean / n


def numpy_direct_draws(spec, shape, rng):
    """Draws of a disorder law by numpy's own samplers, one call each.

    ``normal(0, param)``, ``uniform(-param, param)`` and a sign bit for the
    two-point families, then truncation by the indicator.
    """
    if spec.family == "gaussian":
        out = rng.normal(0.0, spec.param, size=shape)
    elif spec.family == "uniform_symmetric":
        out = rng.uniform(-spec.param, spec.param, size=shape)
    else:
        magnitude = spec.param if spec.family == "two_point_symmetric" else 1.0
        out = (rng.integers(0, 2, size=shape).astype(float) * 2.0 - 1.0) * magnitude
    return np.where(np.abs(out) > spec.truncation, 0.0, out)


def direct_p1_variance_sampler(rate, beta, spec, n, rng):
    """Sample (1 + 2b sum_{k<=Poisson(rate)} z_k^2)^{-1} directly."""
    from quadglass.disorder import _sample_shape

    counts = rng.poisson(rate, size=n)
    owner = np.repeat(np.arange(n), counts)
    zeta = _sample_shape(spec, (int(counts.sum()),), rng)
    sums = np.bincount(owner, weights=zeta**2, minlength=n)
    return 1.0 / (1.0 + 2.0 * beta * sums)


def direct_conjugate_from_zero_sampler(rate, beta, spec, p, n, rng):
    """Law of log(1 + sum_k z_k^2/(gamma + sum_r x_r^2)) for Y = 0 input."""
    from quadglass.disorder import _sample_shape

    gamma = 1.0 / (2.0 * beta)
    counts = rng.poisson(rate, size=n)
    total = int(counts.sum())
    owner = np.repeat(np.arange(n), counts)
    zeta = _sample_shape(spec, (total,), rng)
    xi = _sample_shape(spec, (total, p - 1), rng)
    denom = gamma + np.sum(xi**2, axis=1)
    return np.log1p(np.bincount(owner, weights=zeta**2 / denom, minlength=n))


def _generation_clauses(params, spec, out_size, rng):
    """One generation's clauses in ``rde.step``'s draw order.

    The total count is one Poisson(rate * out_size) draw, then each clause
    gets a uniform owner, an output-site weight and p-1 interior weights.
    """
    from quadglass.disorder import _sample_shape

    rate = params.alpha * params.p
    total = int(rng.poisson(rate * out_size))
    owner = rng.integers(0, out_size, size=total)
    zeta = _sample_shape(spec, (total,), rng)
    xi = _sample_shape(spec, (total, params.p - 1), rng)
    return owner, zeta, xi


def conjugate_step(values, params, spec, out_size, rng):
    """One generation of the variance map conjugated by y = -log x.

    Array in, array out: each output is
    log(1 + sum_k z_k^2 / (g + sum_r x_{k,r}^2 exp(-Y_{k,r}))) with
    g = 1/(2*beta) and the Y's resampled from ``values``.  Undefined at
    beta = 0.  Draws come in the same order as ``rde.step``'s, so under a
    shared stream it returns -log of that push-forward up to rounding.
    """
    if params.beta == 0:
        raise ValueError("conjugate map undefined at beta = 0")
    gamma = 1.0 / (2.0 * params.beta)
    owner, zeta, xi = _generation_clauses(params, spec, out_size, rng)
    if params.p > 1:
        picks = values[rng.integers(0, values.size, size=xi.shape)]
        denom = gamma + np.sum(xi**2 * np.exp(-picks), axis=1)
    else:
        denom = np.full(zeta.size, gamma)
    return np.log1p(np.bincount(owner, weights=zeta**2 / denom, minlength=out_size))


def rademacher_contraction_series(alpha, p, beta, q, l_max=60):
    """Truncated Poisson series for the contraction factor, +-1 weights.

    With unit weights chi_R = R, so the expectation is
    sum_l (l/(gamma+l))^q * l * (p-1) * e^{-ap} (ap)^l / l!.
    """
    from math import exp, factorial

    gamma = 1.0 / (2.0 * beta)
    lam = alpha * p
    return sum(
        (l / (gamma + l)) ** q * l * (p - 1) * exp(-lam) * lam**l / factorial(l)
        for l in range(1, l_max + 1)
    )


def rademacher_p1_free_energy(alpha, beta, h, l_max=200):
    """Limiting free energy at arity 1 with +-1 weights, as a Poisson series.

    At p = 1 the matrix is diagonal with A_ii = 1 + 2*beta*K_i, K_i ~ Poisson(alpha),
    so F = (h^2/2) E[1/(1+2*beta*K)] + (1/2) E log(1+2*beta*K).
    """
    from math import exp, lgamma, log, log1p

    terms = [exp(-alpha + l * log(alpha) - lgamma(l + 1)) for l in range(l_max + 1)]
    return sum(
        w * (h * h / 2 / (1 + 2 * beta * l) + log1p(2 * beta * l) / 2)
        for l, w in enumerate(terms)
    )


def rademacher_p1_edge_term(rate, beta, l_max=200):
    """The edge term at arity 1 with +-1 weights and clause rate ``rate``, as a Poisson series.

    At p = 1 the fixed point is X = 1/(1+2*beta*K), K ~ Poisson(rate), so the
    edge term is E log(1 + 2*beta/(1+2*beta*K)); over rate = alpha*x, x in
    (0, 1], it integrates to the log-det part of :func:`rademacher_p1_free_energy`.
    """
    from math import exp, lgamma, log, log1p

    return sum(
        exp(-rate + l * log(rate) - lgamma(l + 1)) * log1p(2 * beta / (1 + 2 * beta * l))
        for l in range(l_max + 1)
    )


def balanced_edge_term(pop_values, params, spec, n_mc, rng):
    """Edge-term oracle with balanced (stratified-index) resampling.

    Every population entry is used equally often, permuted, instead of
    iid index draws; the target expectation over the empirical law is
    identical.  Returns (mean, se).
    """
    from quadglass.disorder import _sample_shape

    p = params.p
    size = pop_values.size
    need = n_mc * p
    reps = -(-need // size)
    idx = rng.permuted(np.tile(np.arange(size), reps))[:need].reshape(n_mc, p)
    zeta = _sample_shape(spec, (n_mc, p), rng)
    samples = np.log1p(2.0 * params.beta * np.sum(zeta**2 * pop_values[idx], axis=1))
    return float(samples.mean()), float(samples.std(ddof=1) / np.sqrt(n_mc))


def lstsq_loglog(xs, ys):
    """Log-log straight line by an explicit least-squares solve."""
    design = np.column_stack([np.log(np.asarray(xs, float)), np.ones(len(xs))])
    coef, *_ = np.linalg.lstsq(design, np.log(np.asarray(ys, float)), rcond=None)
    return float(coef[0]), float(coef[1])


def w1_via_cdf_area(x, y):
    """W1 as the area between empirical CDFs over merged breakpoints."""
    x = np.sort(np.asarray(x, float))
    y = np.sort(np.asarray(y, float))
    grid = np.sort(np.concatenate([x, y]))
    fx = np.searchsorted(x, grid, side="right") / x.size
    fy = np.searchsorted(y, grid, side="right") / y.size
    return float(np.sum(np.abs(fx - fy)[:-1] * np.diff(grid)))


def wq_distance(x, y, q):
    """Wasserstein-q between two equal-size samples by the sorted-pair coupling.

    The differences are scaled by their maximum so that a large q cannot
    underflow them all at once.
    """
    diffs = np.abs(np.sort(np.asarray(x, float)) - np.sort(np.asarray(y, float)))
    top = diffs.max(initial=0.0)
    if top == 0.0:
        return 0.0
    return float(top * np.mean((diffs / top) ** q) ** (1.0 / q))


def ks_distance(a, b):
    """Kolmogorov-Smirnov distance, two-sample or against a callable CDF."""
    a = np.sort(np.asarray(a, dtype=float))
    n = a.size
    if callable(b):
        cdf = np.asarray(b(a), dtype=float)
        upper = np.max(np.arange(1, n + 1) / n - cdf)
        lower = np.max(cdf - np.arange(0, n) / n)
        return float(max(upper, lower, 0.0))
    b = np.sort(np.asarray(b, dtype=float))
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / n
    cdf_b = np.searchsorted(b, both, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def poisson_uniform_p_zero(lam):
    """P(index = 0) for the uniform-index construction: series form."""
    from math import exp

    term, total = 1.0, 0.0
    for k in range(1, 200):
        term *= lam / k
        total += term
    return exp(-lam) / lam * total


def out_of_place_step(values, params, spec, out_size, rng):
    """One generation of the variance map as one expression per array.

    Draws in ``rde.step``'s order and evaluates its arithmetic on fresh
    arrays, so the two agree bit for bit.
    """
    owner, zeta, xi = _generation_clauses(params, spec, out_size, rng)
    picks = values[rng.integers(0, values.size, size=xi.shape)]
    two_beta = 2.0 * params.beta
    denom = 1.0 + two_beta * np.sum(picks * xi**2, axis=1)
    contrib = two_beta * zeta**2 / denom
    return 1.0 / (1.0 + np.bincount(owner, weights=contrib, minlength=out_size))


def serial_fixed_point(params, disorder, rng, pop_size, max_gens, init=None):
    """The sandwich solve written out: ``step`` pushes the top chain on
    ``rng``, and the bottom chain, from zeros of the start's size, is
    pushed by :func:`out_of_place_step` through the same draws, replayed
    from a clone of ``rng`` taken before the step.

    The solve stops once mean(top - bottom) is at most ``BRACKET_PER_SE``
    times the top's standard error of the mean.
    """
    from quadglass.rde import BRACKET_PER_SE, RdeReport, delta_population, step

    top = delta_population(1.0, pop_size, params.alpha * params.p) if init is None else init
    bottom = np.zeros(top.size)
    brackets = []
    for _ in range(max_gens):
        replay = copy.deepcopy(rng)
        top = step(top, params, disorder, pop_size, rng)
        bottom = out_of_place_step(bottom, params, disorder, pop_size, replay)
        brackets.append(float(np.mean(top.values - bottom)))
        if brackets[-1] <= BRACKET_PER_SE / math.sqrt(pop_size) * float(top.values.std()):
            return RdeReport(top, tuple(brackets), True)
    return RdeReport(top, tuple(brackets), False)


def load_population(path):
    """Read a population written by :func:`quadglass.rde.dump_population`."""
    from quadglass.model import read_rows
    from quadglass.rde import Population

    head, *body = read_rows(path, "population", 4)
    if head[0] != "unit_interval":
        raise ValueError(f"{path}: unknown population domain {head[0]!r}")
    rate, generation, size = float(head[1]), int(head[2]), int(head[3])
    if any(len(fields) != 1 for fields in body):
        raise ValueError(f"{path}: a value line holds more than one field")
    values = np.array([float(v) for (v,) in body])
    if values.size != size:
        raise ValueError(f"{path}: header promises {size} values, found {values.size}")
    return Population(values, rate, generation)
