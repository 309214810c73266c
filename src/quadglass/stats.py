"""Every Monte Carlo estimator of the package, and the identity checks built on them.

The scalar results carry a value and a standard error: a sample mean
with its iid error (:func:`mc_estimate`), which is also the error of a
population snapshot's mean, since its outputs are independent given
the previous generation; a jackknife error over leave-one-out
estimates (:func:`loo_se`); and the root-sum-square of independent
errors (:func:`combined_se`).  The replicated statistics of
A^{-1} (pooled diagonals, correlations, off-diagonal moments) and the
Poisson index check sit on top of them.

A sampled statistic is "consistent with" a target when it falls within
four standard errors of it in criteria A5, A8, A10 and A12.  The other
criteria set their own margins: A3 and A7 allow three standard errors,
and A4 and A13 allow one combined standard error as slack between
neighbouring levels.  The thresholds are deliberately transparent; no
formal hypothesis testing machinery is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec
from .model import Factorization, ModelParams, inverse_diagonal, over_realizations

DEGENERATE_VARIANCE = 1e-14


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo scalar: value and standard error."""

    value: float
    std_error: float

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")


def mc_estimate(samples: np.ndarray) -> Estimate:
    """Sample mean with the usual sqrt(var/n) standard error."""
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n == 0:
        raise ValueError("need at least one sample")
    se = float(samples.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return Estimate(float(samples.mean()), se)


def loo_se(loo: np.ndarray) -> float:
    """Jackknife standard error from n leave-one-out estimates.

    sqrt((n-1)/n * sum (loo - mean(loo))^2); A4 feeds it its
    leave-one-replicate-out W1 distances.
    """
    n = loo.size
    return float(np.sqrt((n - 1) / n * np.sum((loo - loo.mean()) ** 2)))


def combined_se(*ses: float) -> float:
    """Root-sum-square of independent standard errors."""
    return float(np.sqrt(sum(s * s for s in ses)))


# ---------------------------------------------------------------------------
# replicated statistics of A^{-1}


@dataclass(frozen=True)
class CorrelationReport:
    """Pairwise correlations of selected inverse-diagonal entries.

    ``correlations`` is None when the degenerate flag is set (some entry
    had vanishing variance across replicates, e.g. at beta = 0).
    ``std_error`` is the null scale 1/sqrt(replicates) for each pair.
    """

    correlations: np.ndarray | None
    std_error: float
    degenerate: bool


def pooled_inverse_diagonals(
    params: ModelParams,
    disorder: DisorderSpec,
    n_sites: int,
    n_replicates: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> np.ndarray:
    """All diagonal entries of A^{-1}, pooled over independent replicates."""
    return np.concatenate(over_realizations(
        inverse_diagonal, params, disorder, n_sites, n_replicates, rng, workers
    ))


def independence_check(
    params: ModelParams,
    disorder: DisorderSpec,
    n_sites: int,
    n_entries: int,
    n_replicates: int,
    rng: np.random.Generator,
    workers: int = 1,
) -> CorrelationReport:
    """Pairwise correlations of the first few inverse-diagonal entries.

    Asymptotically these entries are independent, so every off-diagonal
    correlation should sit within a few null standard errors of zero.
    """
    if n_entries < 2:
        raise ValueError("n_entries must be at least 2")
    if n_sites < n_entries:
        raise ValueError("n_sites must be at least n_entries")
    if n_replicates < 2:
        raise ValueError("n_replicates must be at least 2 to estimate a correlation")
    data = np.array(over_realizations(  # (reps, entries)
        lambda model: Factorization(model).inverse_block(np.arange(n_entries)).diagonal(),
        params, disorder, n_sites, n_replicates, rng, workers,
    ))
    std_error = 1.0 / np.sqrt(n_replicates)
    if np.any(data.var(axis=0, ddof=1) < DEGENERATE_VARIANCE):
        return CorrelationReport(None, std_error, True)
    return CorrelationReport(np.corrcoef(data, rowvar=False), std_error, False)


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
    a12, a13, a34 = np.array(over_realizations(  # A^{-1}_12, A^{-1}_13, A^{-1}_34 per replicate
        lambda model: Factorization(model).inverse_block(np.arange(4))[[0, 0, 2], [1, 2, 3]],
        params, disorder, n_sites, n_replicates, rng,
    )).T
    return OffDiagReport(
        entry_12=mc_estimate(a12),
        product_12_13=mc_estimate(a12 * a13),
        product_12_34=mc_estimate(a12 * a34),
        scaled_square=mc_estimate((n_sites - 1) * a12**2),
    )


@dataclass(frozen=True)
class PoissonUniformReport:
    """Empirical comparison of the two equivalent index constructions."""

    tv_distance: float
    p_zero: Estimate
    n_samples: int


def poisson_uniform_check(
    lam: float, n_samples: int, rng: np.random.Generator
) -> PoissonUniformReport:
    """Sample both constructions of the random index and compare PMFs.

    A uniform pick from {0..M} with M Poisson(lam) has the same law as a
    Poisson draw at a uniformly thinned rate lam*U.  Returns the
    empirical total-variation distance between the two PMFs, the
    uniform pick's empirical mass at zero with its binomial standard
    error, and the sample count per construction.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    m = rng.poisson(lam, size=n_samples)
    first = rng.integers(0, m + 1)                       # L | M ~ Unif{0..M}
    second = rng.poisson(lam * rng.random(n_samples))    # L' | U ~ Poisson(lam*U)
    top = int(max(first.max(), second.max())) + 1
    pmf_a = np.bincount(first, minlength=top) / n_samples
    pmf_b = np.bincount(second, minlength=top) / n_samples
    tv = 0.5 * float(np.abs(pmf_a - pmf_b).sum())
    p0 = float(pmf_a[0])
    p0_se = float(np.sqrt(max(p0 * (1.0 - p0), 1e-300) / n_samples))
    return PoissonUniformReport(tv, Estimate(p0, p0_se), n_samples)


def slope_fit(xs, ys) -> float:
    """Slope of the least-squares line through (log x, log y)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 3:
        raise ValueError("need at least 3 matching points")
    if xs.min() <= 0 or ys.min() <= 0:
        raise ValueError("all inputs must be positive for a log-log fit")
    lx, ly = np.log(xs), np.log(ys)
    dx = lx - lx.mean()
    denom = float(dx @ dx)
    if denom == 0:
        raise ValueError("x values must not be all equal")
    return float(dx @ (ly - ly.mean())) / denom
