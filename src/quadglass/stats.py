"""Shared statistical estimators and distributional identity checks.

House convention throughout the validation harness: a sampled statistic
is "consistent with" a target when it falls within four standard errors
of it.  The threshold is deliberately transparent; no formal hypothesis
testing machinery is used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec
from .estimate import Estimate
from .model import ModelParams, inverse_diagonal, over_realizations

DEGENERATE_VARIANCE = 1e-14


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
    idx = np.arange(n_entries)
    data = np.array(over_realizations(  # (reps, entries)
        lambda model: inverse_diagonal(model, idx),
        params, disorder, n_sites, n_replicates, rng, workers,
    ))
    std_error = 1.0 / np.sqrt(n_replicates)
    if np.any(data.var(axis=0, ddof=1) < DEGENERATE_VARIANCE):
        return CorrelationReport(None, std_error, True)
    return CorrelationReport(np.corrcoef(data, rowvar=False), std_error, False)


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
