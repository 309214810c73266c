import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from quadglass import rde
from quadglass.disorder import DisorderSpec
from quadglass.model import ModelParams
from quadglass.rde import (
    Population,
    _quantile_distance,
    contraction_factor,
    delta_population,
    dump_population,
    find_contractive_q,
    iterate_pair,
    load_population,
    pair_step,
    solve_fixed_point,
    step,
    wasserstein,
)
from quadglass.streams import stream

from oracles import (
    conjugate_step,
    direct_conjugate_from_zero_sampler,
    direct_p1_variance_sampler,
    out_of_place_step,
    rademacher_contraction_series,
    serial_fixed_point,
    w1_via_cdf_area,
    wq_distance,
)

RAD = DisorderSpec("rademacher")


def params_with(alpha=1.0, beta=1.0, h=0.0, p=2):
    return ModelParams(alpha, beta, h, p)


# ---------------------------------------------------------------------------
# populations


def test_population_domain_validation():
    with pytest.raises(ValueError):
        Population(np.array([0.0, 0.5]))  # 0 excluded on the unit interval
    with pytest.raises(ValueError):
        Population(np.array([0.5, 1.2]))


def test_population_file_round_trip(tmp_path):
    pop = Population(
        stream(99, "file").uniform(0.01, 1.0, 500), rate=1.5, generation=7
    )
    path = tmp_path / "pop.txt"
    dump_population(pop, path)
    assert path.read_text().splitlines()[0] == "unit_interval 1.5 7 500"
    back = load_population(path)
    assert back.rate == pop.rate and back.generation == pop.generation
    assert np.array_equal(back.values, pop.values)


def test_population_file_rejects_other_domains(tmp_path):
    path = tmp_path / "pop.txt"
    path.write_text("log_nonneg 1.5 7 2\n0.5\n0.25\n")
    with pytest.raises(ValueError, match="log_nonneg"):
        load_population(path)


# ---------------------------------------------------------------------------
# one generation of the variance map


def test_step_zero_temperature_is_point_mass_at_one():
    pop = delta_population(0.3, 500)
    out = step(pop, params_with(beta=0.0), RAD, 1.0, 500, stream(1, "b0"))
    assert np.all(out.values == 1.0)


def test_step_outputs_stay_in_unit_interval():
    rng = stream(2, "range")
    pop = Population(rng.uniform(0.01, 1.0, 2000))
    out = step(pop, params_with(beta=4.0), DisorderSpec("gaussian", 2.0), 1.0, 5000, rng)
    assert out.values.min() > 0
    assert out.values.max() <= 1.0


def test_step_mass_at_one_matches_poisson_zero_probability():
    lam = 1.0 * 0.7 * 2  # alpha * rate_scale * p
    n = 10**5
    pop = delta_population(0.5, 1000)
    out = step(pop, params_with(), RAD, 0.7, n, stream(3, "mass"))
    frac = float((out.values == 1.0).mean())
    target = math.exp(-lam)
    se = math.sqrt(target * (1 - target) / n)
    assert abs(frac - target) < 4 * se


def test_step_p1_law_ignores_population():
    par = params_with(beta=0.5, p=1)
    n = 10**5
    pop_a = delta_population(0.9, 100)
    pop_b = delta_population(0.1, 100)
    out_a = step(pop_a, par, RAD, 1.0, n, stream(4, "p1a"))
    out_b = step(pop_b, par, RAD, 1.0, n, stream(5, "p1b"))
    oracle = direct_p1_variance_sampler(1.0, 0.5, RAD, n, stream(6, "p1o"))
    oracle_pop = Population(oracle)
    assert wasserstein(out_a, oracle_pop) < 0.005
    assert wasserstein(out_b, oracle_pop) < 0.005


def test_step_monotone_in_population_under_common_stream():
    # raising every input X raises every output pointwise (shared stream)
    par = params_with(beta=1.0)
    low = Population(np.full(1000, 0.2))
    high = Population(np.full(1000, 0.9))
    out_low = step(low, par, RAD, 1.0, 4000, stream(7, "mono"))
    out_high = step(high, par, RAD, 1.0, 4000, stream(7, "mono"))
    assert np.all(out_high.values >= out_low.values)


@pytest.mark.parametrize("p, spec", [
    (1, DisorderSpec("uniform_symmetric", 1.5)),
    (2, DisorderSpec("gaussian", 1.0, 2.0)),
    (3, RAD),
])
def test_in_place_step_is_the_out_of_place_expression(p, spec):
    pop = Population(stream(33, "pop").uniform(0.05, 1.0, size=700))
    rng, oracle_rng = stream(33, "step", str(p)), stream(33, "step", str(p))
    par = params_with(0.9, 0.7, p=p)
    got = step(pop, par, spec, 0.8, 1500, rng)
    want = out_of_place_step(pop.values, par, spec, 0.8, 1500, oracle_rng)
    assert got.values.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_step_validates_arguments():
    pop = delta_population(1.0, 10)
    with pytest.raises(ValueError):
        step(pop, params_with(), RAD, 0.0, 10, stream(8, "bad"))
    with pytest.raises(ValueError):
        step(pop, params_with(), RAD, 1.0, 0, stream(8, "bad"))


# ---------------------------------------------------------------------------
# wasserstein distance


def test_wasserstein_identity_and_translation():
    rng = stream(10, "w")
    vals = rng.uniform(0.1, 0.9, 1000)
    a = Population(vals)
    assert wasserstein(a, Population(vals.copy())) == 0.0
    b = Population(vals + 0.05)
    assert wasserstein(a, b) == pytest.approx(0.05, rel=1e-12)
    for q in (2.0, 7.0):
        assert wq_distance(a.values, b.values, q) == pytest.approx(0.05, rel=1e-12)


def test_wasserstein_hand_coupling():
    a = Population(np.array([1e-9, 1.0]))
    b = Population(np.array([0.5, 0.5]))
    assert wasserstein(a, b) == pytest.approx(0.5, rel=1e-6)


def test_wasserstein_is_a_metric_on_equal_sizes():
    rng = stream(11, "metric")
    for _ in range(100):
        x = Population(rng.uniform(0.01, 1.0, 50))
        y = Population(rng.uniform(0.01, 1.0, 50))
        z = Population(rng.uniform(0.01, 1.0, 50))
        dxy = wasserstein(x, y)
        assert dxy == wasserstein(y, x)
        assert dxy <= wasserstein(x, z) + wasserstein(z, y) + 1e-12


def test_wasserstein_unequal_sizes_matches_cdf_area():
    rng = stream(12, "uneq")
    x = rng.uniform(0.01, 1.0, 1500)
    y = rng.uniform(0.01, 1.0, 4000)
    approx = _quantile_distance(x, y)
    exact = w1_via_cdf_area(x, y)
    assert approx == pytest.approx(exact, abs=2e-3)


# ---------------------------------------------------------------------------
# fixed point solving


def test_zero_temperature_converges_immediately():
    report = solve_fixed_point(
        params_with(beta=0.0), RAD, 1.0, stream(20, "fp0"), pop_size=2000, max_gens=50
    )
    assert report.converged
    assert np.all(report.population.values == 1.0)
    assert all(g == 0.0 for g in report.gaps[1:])


def test_extreme_initializations_agree():
    # uniqueness probe: the 4e-3 threshold sits well above the two-run
    # sampling floor (~1.5e-3 at this population size) and far below any
    # genuine second fixed point, which would separate at O(0.1)
    par = params_with(alpha=1.0, beta=1.0)
    kw = dict(pop_size=10**5, tol=1e-3, max_gens=120)
    top = solve_fixed_point(
        par, RAD, 1.0, stream(21, "hi"),
        init=delta_population(1.0, 10**5), **kw,
    )
    bottom = solve_fixed_point(
        par, RAD, 1.0, stream(22, "lo"),
        init=delta_population(0.05, 10**5), **kw,
    )
    assert wasserstein(top.population, bottom.population) < 4e-3


def test_fixed_point_p1_matches_direct_sampler():
    par = params_with(beta=0.5, p=1)
    report = solve_fixed_point(
        par, RAD, 0.8, stream(23, "p1fp"), pop_size=10**5, max_gens=60
    )
    oracle = direct_p1_variance_sampler(0.8 * 1.0 * 1, 0.5, RAD, 10**5, stream(24, "p1fpo"))
    assert wasserstein(report.population, Population(oracle)) < 0.005


def test_converged_population_is_stable_under_one_more_step():
    par = params_with(alpha=0.5, beta=0.25)
    report = solve_fixed_point(par, RAD, 1.0, stream(25, "stab"), pop_size=10**5)
    assert report.converged
    pushed = step(report.population, par, RAD, 1.0, report.population.size, stream(26, "push"))
    assert wasserstein(report.population, pushed) < 3 * report.tol


def test_non_convergence_reports_flag_not_exception():
    report = solve_fixed_point(
        params_with(alpha=1.0, beta=1.0), RAD, 1.0, stream(27, "nc"),
        pop_size=500, tol=1e-9, max_gens=12,
    )
    assert not report.converged
    assert report.generations == 12


@pytest.mark.parametrize(
    "par, spec, rate_scale, kw, converges",
    [
        (params_with(0.5, 0.5, p=2), DisorderSpec("gaussian", 1.0, 2.0), 0.7,
         dict(pop_size=4000, tol=1e-2, max_gens=60), True),
        (params_with(0.8, 0.5, p=3), RAD, 1.0,
         dict(pop_size=3000, tol=1e-3, max_gens=25), False),
        (params_with(1.0, 0.5, p=1), DisorderSpec("uniform_symmetric", 1.5), 0.5,
         dict(pop_size=3000, tol=2e-2, max_gens=60), True),
        (params_with(1.0, 1.0, p=2), DisorderSpec("two_point_symmetric", 0.7), 1.0,
         dict(pop_size=2500, tol=1e-9, max_gens=15, init=delta_population(0.3, 4000)),
         False),
    ],
    ids=["gaussian-c2-p2-converges", "rademacher-p3-at-max-gens", "uniform-p1",
         "warm-start-other-size"],
)
def test_look_ahead_solve_is_the_serial_loop(
    monkeypatch, par, spec, rate_scale, kw, converges
):
    draws, n_draws = rde._draws, []

    def counted_draws(*args):
        n_draws.append(None)
        return draws(*args)

    monkeypatch.setattr(rde, "_draws", counted_draws)
    rng, oracle_rng = stream(30, "ahead"), stream(30, "ahead")
    report = solve_fixed_point(par, spec, rate_scale, rng, **kw)
    assert len(n_draws) == report.generations  # no generation drawn in vain
    expected = serial_fixed_point(par, spec, rate_scale, oracle_rng, **kw)
    assert report.converged is expected.converged is converges
    assert report.generations == expected.generations
    assert report.gaps == expected.gaps
    assert report.population.values.tobytes() == expected.population.values.tobytes()
    assert report.population.rate == expected.population.rate
    assert report.population.generation == expected.population.generation
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_look_ahead_solve_exits_cleanly_when_a_push_fails(monkeypatch):
    push, calls = rde._push, []

    def failing_push(*args):
        calls.append(None)
        if len(calls) == 4:
            raise FloatingPointError("push 4 failed")
        return push(*args)

    monkeypatch.setattr(rde, "_push", failing_push)
    par, kw = params_with(0.5, 0.5), dict(pop_size=2000, tol=1e-9, max_gens=30)
    oracle_rng = stream(31, "fail")
    with pytest.raises(FloatingPointError):
        serial_fixed_point(par, RAD, 1.0, oracle_rng, **kw)
    calls.clear()
    baseline = threading.active_count()
    rng = stream(31, "fail")
    with pytest.raises(FloatingPointError):
        solve_fixed_point(par, RAD, 1.0, rng, **kw)
    assert len(calls) == 4
    assert threading.active_count() == baseline
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_concurrent_look_ahead_solves_each_match_the_serial_loop():
    # more solving threads than cores, each with its own helper, under fast
    # thread switching: a draw landing in the wrong solve or generator shows
    par, kw = params_with(0.5, 0.5, p=3), dict(pop_size=1500, tol=1e-9, max_gens=20)

    def solve(i):
        return solve_fixed_point(par, RAD, 1.0, stream(34, str(i)), **kw)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            reports = list(pool.map(solve, range(6), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for i, report in enumerate(reports):
        expected = serial_fixed_point(par, RAD, 1.0, stream(34, str(i)), **kw)
        assert report.gaps == expected.gaps
        assert report.population.values.tobytes() == expected.population.values.tobytes()


def test_look_ahead_solve_leaves_rng_untouched_on_bad_rate_scale():
    rng = stream(32, "bad")
    before = rng.bit_generator.state
    baseline = threading.active_count()
    with pytest.raises(ValueError, match="rate_scale"):
        solve_fixed_point(params_with(), RAD, 1.5, rng, pop_size=100)
    assert threading.active_count() == baseline
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# conjugate map y = -log x (array oracle in tests/oracles.py)


def test_conjugate_step_conjugates_the_variance_map():
    par = params_with(alpha=1.0, beta=1.0)
    n = 10**5
    rng = stream(30, "conj")
    base = Population(rng.uniform(0.2, 1.0, n))
    direct = -np.log(step(base, par, RAD, 1.0, n, stream(31, "cd")).values)
    conjug = conjugate_step(-np.log(base.values), par, RAD, 1.0, n, stream(32, "cc"))
    assert _quantile_distance(direct, conjug) < 0.01


def test_conjugate_step_is_minus_log_of_step_under_a_shared_stream():
    par = params_with(alpha=1.0, beta=0.7, p=3)
    base = Population(stream(37, "shared").uniform(0.2, 1.0, 2000))
    direct = -np.log(step(base, par, RAD, 0.6, 5000, stream(38, "sh")).values)
    conjug = conjugate_step(-np.log(base.values), par, RAD, 0.6, 5000, stream(38, "sh"))
    assert np.allclose(direct, conjug, rtol=1e-12, atol=1e-14)


def test_conjugate_step_from_zero_matches_direct_sampler():
    par = params_with(alpha=1.0, beta=0.7, p=3)
    n = 10**5
    out = conjugate_step(np.zeros(100), par, RAD, 1.0, n, stream(33, "cz"))
    oracle = direct_conjugate_from_zero_sampler(3.0, 0.7, RAD, 3, n, stream(34, "czo"))
    assert _quantile_distance(out, oracle) < 0.01


def test_conjugate_step_zero_mass_matches_poisson():
    par = params_with(alpha=0.9, beta=1.0)
    lam = 0.9 * 0.5 * 2
    n = 10**5
    out = conjugate_step(np.full(1000, 0.3), par, RAD, 0.5, n, stream(35, "cm"))
    frac = float((out == 0.0).mean())
    target = math.exp(-lam)
    se = math.sqrt(target * (1 - target) / n)
    assert abs(frac - target) < 4 * se
    assert out.min() >= 0.0


def test_conjugate_step_rejects_zero_temperature():
    with pytest.raises(ValueError):
        conjugate_step(np.zeros(10), params_with(beta=0.0), RAD, 1.0, 10, stream(36, "c0"))


# ---------------------------------------------------------------------------
# contraction diagnostics


def test_contraction_factor_vanishes_at_arity_one():
    est = contraction_factor(params_with(beta=1.0, p=1), RAD, 5.0, 2000, stream(40, "c1"))
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_contraction_factor_monotone_in_q():
    par = params_with(alpha=1.0, beta=1.0)
    a = contraction_factor(par, RAD, 4.0, 10**5, stream(41, "cq"))
    b = contraction_factor(par, RAD, 8.0, 10**5, stream(42, "cq2"))
    assert b.value <= a.value + 3 * math.sqrt(a.std_error**2 + b.std_error**2)


def test_contraction_factor_matches_poisson_series():
    par = params_with(alpha=1.0, beta=1.0, p=2)
    est = contraction_factor(par, RAD, 10.0, 4 * 10**5, stream(43, "cser"))
    series = rademacher_contraction_series(1.0, 2, 1.0, 10.0)
    assert abs(est.value - series) < 3 * est.std_error


def test_find_contractive_q_certifies_and_cross_checks():
    par = params_with(alpha=1.0, beta=1.0, p=2)
    grid = [1, 2, 4, 8, 16, 32, 64, 128, 256]
    scan = find_contractive_q(par, RAD, grid, 10**5, stream(44, "scan"))
    assert scan.q is not None
    series = rademacher_contraction_series(1.0, 2, 1.0, scan.q, l_max=80)
    assert series < 1.0
    # and the scan's estimate at the certified q agrees with the series
    est = dict((q, e) for q, e in scan.estimates)[scan.q]
    assert abs(est.value - series) < 4 * est.std_error


def test_find_contractive_q_smallest_grid_point_at_arity_one():
    scan = find_contractive_q(
        params_with(beta=2.0, p=1), RAD, [1, 2, 4], 1000, stream(45, "p1scan")
    )
    assert scan.q == 1.0


def test_find_contractive_q_can_return_none():
    # enormous beta with a tiny capped grid: no certified q, no error
    scan = find_contractive_q(
        params_with(alpha=2.0, beta=1e6, p=3), RAD, [1, 2], 4000, stream(46, "none")
    )
    assert scan.q is None
    assert len(scan.estimates) == 2


def test_certified_q_gives_geometric_decay_of_wq_gaps():
    par = params_with(alpha=1.0, beta=1.0, p=2)
    scan = find_contractive_q(par, RAD, [1, 2, 4, 8, 16, 32, 64], 10**5, stream(47, "geo"))
    q = scan.q
    assert q is not None
    pop = np.full(20000, 5.0)
    gaps = []
    rng = stream(48, "geoiter")
    for _ in range(21):
        new = conjugate_step(pop, par, RAD, 1.0, 20000, rng)
        gaps.append(wq_distance(pop, new, q))
        pop = new
    ratios = np.array(gaps[1:]) / np.array(gaps[:-1])
    assert np.median(ratios) < 1.0


# ---------------------------------------------------------------------------
# coupled pair recursion


def test_pair_step_zero_temperature():
    par = params_with(alpha=0.5, beta=0.0, p=2)
    out = pair_step(np.full((100, 2), 0.5), par, RAD, 200, stream(50, "pair0"))
    assert np.all(out == 1.0)


def test_pair_step_symmetric_disorder_keeps_unit_mean():
    par = params_with(alpha=0.5, beta=0.25, p=2)
    pairs = iterate_pair(par, RAD, 50, 50_000, stream(51, "pairu"))
    u = pairs[:, 0]
    se = u.std(ddof=1) / math.sqrt(u.size)
    assert abs(u.mean() - 1.0) < 4 * se


def test_pair_step_marginal_tracks_single_fixed_point():
    par = params_with(alpha=0.5, beta=0.25, p=2)
    pairs = iterate_pair(par, RAD, 200, 10**5, stream(52, "pairx"))
    report = solve_fixed_point(par, RAD, 1.0, stream(53, "pairfp"), pop_size=10**5)
    x_marginal = Population(np.minimum(pairs[:, 1], 1.0))
    assert wasserstein(x_marginal, report.population) < 0.01


def test_pair_step_requires_arity_two():
    with pytest.raises(ValueError):
        pair_step(np.ones((10, 2)), params_with(p=3), RAD, 10, stream(54, "pair3"))
