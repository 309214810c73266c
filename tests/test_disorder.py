import math

import numpy as np
import pytest

from quadglass.disorder import DisorderSpec, _sample_shape
from quadglass.streams import stream

from oracles import numpy_direct_draws, second_moment, truncated_gaussian_second_moment

ALL_FAMILIES = [
    DisorderSpec("rademacher"),
    DisorderSpec("gaussian", 1.0),
    DisorderSpec("gaussian", 0.5),
    DisorderSpec("uniform_symmetric", 2.0),
    DisorderSpec("two_point_symmetric", 3.0),
]


def test_rademacher_support():
    draws = _sample_shape(DisorderSpec("rademacher"), (10,), stream(0, "rad"))
    assert set(np.unique(draws)) <= {-1.0, 1.0}


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: f"{s.family}-{s.param}")
def test_symmetry_and_odd_moments(spec):
    n = 10**6
    draws = _sample_shape(spec, (n,), stream(1, "sym", spec.family, str(spec.param)))
    se = draws.std() / math.sqrt(n)
    assert abs(draws.mean()) < 4 * se
    third = draws**3
    se3 = third.std() / math.sqrt(n)
    assert abs(third.mean()) < 4 * se3


def test_uniform_second_moment_matches_closed_form():
    spec = DisorderSpec("uniform_symmetric", 2.0)
    n = 10**6
    draws = _sample_shape(spec, (n,), stream(2, "u2"))
    sq = draws**2
    se = sq.std() / math.sqrt(n)
    assert abs(sq.mean() - 4.0 / 3.0) < 4 * se
    assert second_moment(spec) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_second_moment_closed_forms():
    assert second_moment(DisorderSpec("rademacher")) == 1.0
    assert second_moment(DisorderSpec("two_point_symmetric", 3.0)) == 9.0
    assert second_moment(DisorderSpec("gaussian", 2.0)) == pytest.approx(4.0)


def test_truncated_gaussian_second_moment_vs_quadrature_oracle():
    for sigma, c in [(1.0, 1.0), (1.0, 2.5), (0.7, 0.3)]:
        spec = DisorderSpec("gaussian", sigma, c)
        assert abs(second_moment(spec) - truncated_gaussian_second_moment(sigma, c)) < 1e-10


def test_truncation_identity_cases():
    assert DisorderSpec("gaussian", 1.0, truncation=math.inf) == DisorderSpec("gaussian", 1.0)
    rad = DisorderSpec("rademacher", truncation=2.0)
    assert rad.truncation == 2.0
    draws = _sample_shape(rad, (1000,), stream(3, "radtr"))
    assert set(np.unique(draws)) <= {-1.0, 1.0}


def test_truncated_gaussian_moment_strictly_below_untruncated():
    truncated = DisorderSpec("gaussian", 1.0, truncation=1.0)
    assert second_moment(truncated) < 1.0
    assert second_moment(truncated) == pytest.approx(
        truncated_gaussian_second_moment(1.0, 1.0), abs=1e-10
    )


def test_truncation_monotone_in_level():
    levels = [0.5, 1.0, 2.0, 4.0, math.inf]
    moments = [second_moment(DisorderSpec("gaussian", 1.0, truncation=c)) for c in levels]
    assert all(a <= b + 1e-15 for a, b in zip(moments, moments[1:]))


def test_truncated_uniform_second_moment():
    # mass outside [-c, c] collapses onto 0: integral of x^2/(2a) over [-c, c]
    spec = DisorderSpec("uniform_symmetric", 2.0, truncation=1.5)
    assert second_moment(spec) == pytest.approx(1.5**3 / (3 * 2.0), rel=1e-14)
    n = 10**6
    draws = _sample_shape(spec, (n,), stream(6, "utr"))
    sq = draws**2
    assert abs(sq.mean() - second_moment(spec)) < 4 * sq.std() / math.sqrt(n)


def test_truncation_zeroes_out_of_range_draws():
    spec = DisorderSpec("gaussian", 1.0, truncation=1.0)
    draws = _sample_shape(spec, (10**5,), stream(4, "trunc"))
    assert np.abs(draws).max() <= 1.0
    assert (draws == 0.0).mean() > 0.25  # two-sided tail mass ~0.317


def test_reproducible_given_stream():
    spec = DisorderSpec("uniform_symmetric", 1.5)
    a = _sample_shape(spec, (1000,), stream(5, "rep"))
    b = _sample_shape(spec, (1000,), stream(5, "rep"))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", [
    DisorderSpec("rademacher"),
    DisorderSpec("rademacher", truncation=1.5),
    *(DisorderSpec("gaussian", scale) for scale in (1.0, 0.3, 2.5, 1e-3)),
    DisorderSpec("gaussian", 1.0, 2.0),
    DisorderSpec("uniform_symmetric", 1.5),
    DisorderSpec("uniform_symmetric", 2.0, 1.5),
    DisorderSpec("two_point_symmetric", 0.7),
    DisorderSpec("two_point_symmetric", 0.7, 1.0),
], ids=lambda s: f"{s.family}-{s.param}-{s.truncation}")
def test_sample_shape_is_the_numpy_direct_draw(spec):
    # the raw generator call then the law's arithmetic in place draws what
    # numpy's own sampler of the law draws, and leaves the same state
    rng, oracle_rng = stream(7, "split"), stream(7, "split")
    got = _sample_shape(spec, (4000, 3), rng)
    want = numpy_direct_draws(spec, (4000, 3), oracle_rng)
    assert got.dtype == want.dtype == float
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_uniform_whose_width_overflows_is_rejected():
    # numpy's uniform(-param, param) cannot draw past a width of 2*param = inf
    DisorderSpec("uniform_symmetric", 8e307)
    with pytest.raises(ValueError, match="2\\*param must be finite"):
        DisorderSpec("uniform_symmetric", 1e308)


def test_degenerate_and_invalid_specs_rejected():
    with pytest.raises(ValueError):
        DisorderSpec("rademacher", truncation=0.5)
    with pytest.raises(ValueError):
        DisorderSpec("two_point_symmetric", 3.0, truncation=1.0)
    with pytest.raises(ValueError):
        DisorderSpec("gaussian", -1.0)
    for param in (math.inf, math.nan):
        with pytest.raises(ValueError, match="param must be finite"):
            DisorderSpec("gaussian", param)
    with pytest.raises(ValueError):
        DisorderSpec("cauchy")
    with pytest.raises(ValueError, match="truncation must be positive"):
        DisorderSpec("gaussian", truncation=0.0)
    # rademacher is +-1 whatever param says, so a param other than 1 is an error
    for param in (3.0, 0.5):
        with pytest.raises(ValueError, match="its param must be 1"):
            DisorderSpec("rademacher", param)
        with pytest.raises(ValueError, match="its param must be 1"):
            DisorderSpec("rademacher", param, truncation=2.0)
