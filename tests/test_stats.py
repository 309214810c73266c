import math

import numpy as np
import pytest
from scipy.stats import norm

from quadglass.disorder import DisorderSpec
from quadglass.model import ModelParams
from quadglass.rde import Population, delta_population, wasserstein
from quadglass.stats import (
    independence_check,
    poisson_uniform_check,
    pooled_inverse_diagonals,
    slope_fit,
)
from quadglass.streams import stream

from oracles import (
    direct_p1_variance_sampler,
    ks_distance,
    lstsq_loglog,
    poisson_uniform_p_zero,
)

RAD = DisorderSpec("rademacher")


# ---------------------------------------------------------------------------
# diagonal law distance


def diag_law_distance(params, disorder, n_sites, n_replicates, fixed_point, rng):
    """W1 between pooled inverse diagonals and a fixed-point population."""
    pooled = pooled_inverse_diagonals(params, disorder, n_sites, n_replicates, rng)
    return wasserstein(Population(np.minimum(pooled, 1.0)), fixed_point)


def test_distance_to_point_mass_at_zero_temperature():
    par = ModelParams(1.0, 0.0, 0.0, 2)
    dist = diag_law_distance(par, RAD, 50, 4, delta_population(1.0, 1000), stream(0, "d0"))
    assert dist == 0.0


def test_p1_pooled_diagonals_match_direct_sampler():
    par = ModelParams(1.0, 0.5, 0.0, 1)
    oracle = Population(
        direct_p1_variance_sampler(1.0, 0.5, RAD, 10**6, stream(1, "dp1o"))
    )
    dist = diag_law_distance(par, RAD, 2000, 10, oracle, stream(2, "dp1"))
    assert dist < 0.01


def test_self_distance_is_exactly_zero():
    par = ModelParams(1.0, 0.5, 0.0, 2)
    pooled = pooled_inverse_diagonals(par, RAD, 100, 5, stream(3, "dself"))
    pop = Population(np.minimum(pooled, 1.0))
    dist = diag_law_distance(par, RAD, 100, 5, pop, stream(3, "dself"))
    assert dist == 0.0


def test_estimators_are_pure():
    par = ModelParams(1.0, 0.5, 0.0, 2)
    ref = delta_population(1.0, 500)
    a = diag_law_distance(par, RAD, 60, 3, ref, stream(4, "pure"))
    b = diag_law_distance(par, RAD, 60, 3, ref, stream(4, "pure"))
    assert a == b


# ---------------------------------------------------------------------------
# independence of diagonal entries


def test_zero_temperature_is_degenerate():
    par = ModelParams(1.0, 0.0, 0.0, 2)
    report = independence_check(par, RAD, 20, 3, 30, stream(10, "ideg"))
    assert report.degenerate
    assert report.correlations is None


def test_p2_diagonals_decorrelate():
    par = ModelParams(1.0, 0.5, 0.0, 2)
    report = independence_check(par, RAD, 300, 4, 300, stream(11, "ip2"))
    assert not report.degenerate
    off = report.correlations[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 4 * report.std_error)
    assert np.allclose(np.diag(report.correlations), 1.0)


def test_p1_diagonals_independent_at_finite_size():
    par = ModelParams(1.0, 0.5, 0.0, 1)
    report = independence_check(par, RAD, 200, 4, 400, stream(12, "ip1"))
    off = report.correlations[~np.eye(4, dtype=bool)]
    assert np.all(np.abs(off) < 4 * report.std_error)


def test_independence_check_validates_arguments():
    par = ModelParams(1.0, 0.5, 0.0, 2)
    with pytest.raises(ValueError):
        independence_check(par, RAD, 10, 1, 5, stream(13, "iarg"))
    with pytest.raises(ValueError):
        independence_check(par, RAD, 3, 4, 5, stream(13, "iarg"))


# ---------------------------------------------------------------------------
# the two index constructions


def test_vanishing_rate_gives_point_mass_at_zero():
    report = poisson_uniform_check(1e-9, 10**5, stream(20, "pu0"))
    assert report.tv_distance < 1e-6
    assert report.p_zero.value == pytest.approx(1.0)


def test_mass_at_zero_matches_series():
    report = poisson_uniform_check(3.0, 10**6, stream(21, "pu3"))
    target = (1 - math.exp(-3.0)) / 3.0
    assert target == pytest.approx(poisson_uniform_p_zero(3.0), abs=1e-12)
    assert abs(report.p_zero.value - target) < 4 * report.p_zero.std_error


def test_identity_in_law_at_large_sample():
    report = poisson_uniform_check(3.0, 10**6, stream(22, "putv"))
    assert report.tv_distance < 0.01


def test_tv_shrinks_with_sample_size():
    wins = 0
    for seed in range(10):
        small = poisson_uniform_check(3.0, 10**4, stream(23, "pusm", seed))
        large = poisson_uniform_check(3.0, 10**6, stream(24, "pulg", seed))
        wins += large.tv_distance < small.tv_distance
    assert wins >= 9


# ---------------------------------------------------------------------------
# slope fit


def test_exact_power_law_recovered():
    xs = np.array([10.0, 100.0, 1000.0, 10000.0])
    slope = slope_fit(xs, 3.0 * xs**-0.5)
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_constant_series_has_zero_slope():
    slope = slope_fit([1.0, 10.0, 100.0], [2.5, 2.5, 2.5])
    assert slope == pytest.approx(0.0, abs=1e-14)


def test_noisy_power_law_matches_lstsq_oracle():
    rng = stream(30, "slope")
    xs = np.logspace(0, 2, 10)
    ys = xs**-0.5 * (1.0 + rng.uniform(-0.05, 0.05, 10))
    slope = slope_fit(xs, ys)
    oracle_slope, _ = lstsq_loglog(xs, ys)
    assert slope == pytest.approx(oracle_slope, rel=1e-10)
    assert -0.6 < slope < -0.4


def test_slope_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        slope_fit([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        slope_fit([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        slope_fit([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov distance (oracle in tests/oracles.py)


def test_identical_samples_have_zero_distance():
    rng = stream(40, "ks")
    x = rng.standard_normal(500)
    assert ks_distance(x, x.copy()) == 0.0


def test_disjoint_supports_have_unit_distance():
    assert ks_distance([1.0, 2.0, 3.0], [10.0, 11.0]) == 1.0


def test_gaussian_sample_against_exact_cdf():
    draws = stream(41, "ksn").standard_normal(10**5)
    assert ks_distance(draws, norm.cdf) < 0.006  # ~1.36/sqrt(n) threshold


def test_two_sample_matches_known_shift():
    # KS between N(0,1) and N(1,1) tends to 2*Phi(1/2) - 1 ~ 0.383
    rng = stream(42, "kss")
    a = rng.standard_normal(20000)
    b = rng.standard_normal(20000) + 1.0
    assert ks_distance(a, b) == pytest.approx(2 * norm.cdf(0.5) - 1, abs=0.02)
