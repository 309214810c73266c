"""Monte Carlo scalar results and small shared estimator helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

JACKKNIFE_N_BLOCKS = 20  # contiguous blocks of the delete-one-block jackknife


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


def jackknife_se(values: np.ndarray) -> float:
    """Delete-one-block jackknife standard error of the mean.

    Used where samples carry weak internal correlation (population
    snapshots, pooled replicates) and the naive iid error would be
    optimistic.
    """
    values = np.asarray(values, dtype=float)
    n_blocks = min(JACKKNIFE_N_BLOCKS, values.size)
    if n_blocks < 2:
        return 0.0
    blocks = np.array_split(values, n_blocks)
    total_sum = values.sum()
    total_n = values.size
    loo_means = np.array(
        [(total_sum - b.sum()) / (total_n - b.size) for b in blocks]
    )
    center = loo_means.mean()
    return float(np.sqrt((n_blocks - 1) / n_blocks * np.sum((loo_means - center) ** 2)))


def combined_se(*ses: float) -> float:
    """Root-sum-square of independent standard errors."""
    return float(np.sqrt(sum(s * s for s in ses)))
