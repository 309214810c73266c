import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np
import pytest

from quadglass import rde
from quadglass.disorder import DisorderSpec
from quadglass.model import ModelParams, NumericalError
from quadglass.rde import (
    Population,
    _sorted_distance,
    delta_population,
    dump_population,
    find_contractive_q,
    iterate_pair,
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
    load_population,
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
    with pytest.raises(ValueError):
        Population(np.array([0.5, np.nan]))  # nan compares False with both bounds


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


def test_population_file_rejects_a_value_line_with_two_fields(tmp_path):
    path = tmp_path / "pop.txt"
    path.write_text("unit_interval 1.5 7 2\n0.5 0.25\n")
    with pytest.raises(ValueError, match="more than one field"):
        load_population(path)


# ---------------------------------------------------------------------------
# one generation of the variance map


def test_step_zero_temperature_is_point_mass_at_one():
    pop = delta_population(0.3, 500)
    out = step(pop, params_with(beta=0.0), RAD, 500, stream(1, "b0"))
    assert np.all(out.values == 1.0)


def test_step_that_draws_no_clause_returns_ones():
    # Poisson(1e-300) is 0: the generation draws no clause at all
    out = step(delta_population(0.3, 1), params_with(1e-300), RAD, 1, stream(1, "none"))
    assert out.values.dtype == float
    assert np.array_equal(out.values, [1.0])


def test_step_outputs_stay_in_unit_interval():
    rng = stream(2, "range")
    pop = Population(rng.uniform(0.01, 1.0, 2000))
    out = step(pop, params_with(beta=4.0), DisorderSpec("gaussian", 2.0), 5000, rng)
    assert out.values.min() > 0
    assert out.values.max() <= 1.0


def test_step_mass_at_one_matches_poisson_zero_probability():
    # at p = 1 with +-1 weights an output is exactly 1/(1 + 2*beta*K), K its
    # clause count; K must be Poisson(rate) on each half of the outputs,
    # which also checks that clause owners are uniform
    lam = 1.4 * 1  # alpha * p
    n = 2 * 10**5
    pop = delta_population(0.5, 1000)
    out = step(pop, params_with(alpha=1.4, beta=1.0, p=1), RAD, n, stream(3, "mass"))
    counts = np.rint((1.0 / out.values - 1.0) / 2.0).astype(int)
    assert np.array_equal(1.0 / (1.0 + 2.0 * counts), out.values)
    for half in (counts[: n // 2], counts[n // 2:]):
        for k in range(7):
            target = math.exp(-lam) * lam**k / math.factorial(k)
            se = math.sqrt(target * (1 - target) / half.size)
            assert abs(float((half == k).mean()) - target) < 4 * se, k


def test_step_p1_law_ignores_population():
    par = params_with(beta=0.5, p=1)
    n = 10**5
    pop_a = delta_population(0.9, 100)
    pop_b = delta_population(0.1, 100)
    out_a = step(pop_a, par, RAD, n, stream(4, "p1a"))
    out_b = step(pop_b, par, RAD, n, stream(5, "p1b"))
    oracle = direct_p1_variance_sampler(1.0, 0.5, RAD, n, stream(6, "p1o"))
    oracle_pop = Population(oracle)
    assert wasserstein(out_a, oracle_pop) < 0.005
    assert wasserstein(out_b, oracle_pop) < 0.005


def test_step_monotone_in_population_under_common_stream():
    # raising every input X raises every output pointwise (shared stream)
    par = params_with(beta=1.0)
    low = Population(np.full(1000, 0.2))
    high = Population(np.full(1000, 0.9))
    out_low = step(low, par, RAD, 4000, stream(7, "mono"))
    out_high = step(high, par, RAD, 4000, stream(7, "mono"))
    assert np.all(out_high.values >= out_low.values)


@pytest.mark.parametrize("p, spec", [
    (1, DisorderSpec("uniform_symmetric", 1.5)),
    (2, DisorderSpec("gaussian", 1.0, 2.0)),
    (3, RAD),
])
def test_in_place_step_is_the_out_of_place_expression(p, spec):
    pop = Population(stream(33, "pop").uniform(0.05, 1.0, size=700))
    rng, oracle_rng = stream(33, "step", str(p)), stream(33, "step", str(p))
    par = params_with(0.9 * 0.8, 0.7, p=p)
    got = step(pop, par, spec, 1500, rng)
    want = out_of_place_step(pop.values, par, spec, 1500, oracle_rng)
    assert got.values.tobytes() == want.tobytes()
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("chunk", [1, 7, 10**6])  # 10**6: above every clause count here
@pytest.mark.parametrize("p, alpha, spec", [
    (2, 0.9, DisorderSpec("gaussian", 1.0, 2.0)),
    (3, 0.6, RAD),
    (1, 0.9, DisorderSpec("uniform_symmetric", 1.5)),  # xi has no columns
    (2, 1e-300, RAD),  # the generation draws no clause
], ids=["p2", "p3", "p1", "no-clause"])
def test_step_does_not_depend_on_the_gather_chunk(monkeypatch, chunk, p, alpha, spec):
    pop = Population(stream(35, "pop").uniform(0.05, 1.0, size=700))
    par = params_with(alpha, 0.7, p=p)
    rng = stream(35, "chunk", str(p))
    whole = step(pop, par, spec, 1500, rng)
    monkeypatch.setattr(rde, "GATHER_CHUNK", chunk)
    chunked_rng = stream(35, "chunk", str(p))
    assert step(pop, par, spec, 1500, chunked_rng).values.tobytes() == whole.values.tobytes()
    assert chunked_rng.bit_generator.state == rng.bit_generator.state


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p, per_clause", [(2, 36.0), (3, 44.0)])
@pytest.mark.parametrize("spec", [DisorderSpec("gaussian", 1.0, 2.0), RAD],
                         ids=["gaussian-c2", "rademacher"])
def test_step_holds_its_draws_plus_one_gather_chunk(p, per_clause, spec):
    # 16*p bytes per clause: owners, outer weights, the interior weights and
    # their int32 resample indices and one gather chunk, then the denominators
    # once those are gone
    pop, par = Population(np.linspace(0.05, 1.0, 100_000)), params_with(1.0, 0.5, p=p)
    clauses = stream(36, "peak", str(p)).poisson(par.alpha * p * pop.size)  # step's first draw
    peak = _traced_peak(lambda: step(pop, par, spec, pop.size, stream(36, "peak", str(p))))
    assert peak <= per_clause * clauses


@pytest.mark.parametrize("n", [2, 10**5, 2**31 - 1])
def test_int32_indices_are_the_int64_draws(n):
    # numpy draws both dtypes by 32-bit draws below 2**31, which keeps every
    # resample and sign bit on the int64 stream; a numpy that splits the two
    # paths fails here by name, beside the golden digests it moves
    narrow, wide = np.random.default_rng(37), np.random.default_rng(37)
    got = narrow.integers(0, n, size=1000, dtype=np.int32)
    assert np.array_equal(got, wide.integers(0, n, size=1000))
    assert narrow.bit_generator.state == wide.bit_generator.state


def test_resample_indices_stay_int64_past_int32():
    rng = np.random.default_rng(38)
    assert rde._resample_indices(rng, 2**31, 3).dtype == np.int32
    assert rde._resample_indices(rng, 2**31 + 1, 3).dtype == np.int64
    assert rde._resample_indices(rng, 2**33, 1000).max() >= 2**31  # no index wraps


def test_step_validates_arguments():
    with pytest.raises(ValueError):
        step(delta_population(1.0, 10), params_with(), RAD, 0, stream(8, "bad"))


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
    approx = wasserstein(Population(x), Population(y))
    exact = w1_via_cdf_area(x, y)
    assert approx == pytest.approx(exact, abs=2e-3)


# ---------------------------------------------------------------------------
# fixed point solving


def test_zero_temperature_converges_immediately():
    report = solve_fixed_point(
        params_with(beta=0.0), RAD, stream(20, "fp0"), pop_size=2000, max_gens=50
    )
    assert report.converged
    assert np.all(report.population.values == 1.0)
    assert all(g == 0.0 for g in report.gaps[1:])


def test_extreme_initializations_agree():
    # uniqueness probe: the 4e-3 threshold sits well above the two-run
    # sampling floor (~1.5e-3 at this population size) and far below any
    # genuine second fixed point, which would separate at O(0.1)
    par = params_with(alpha=1.0, beta=1.0)
    kw = dict(pop_size=10**5, max_gens=120)
    top = solve_fixed_point(
        par, RAD, stream(21, "hi"),
        init=delta_population(1.0, 10**5), **kw,
    )
    bottom = solve_fixed_point(
        par, RAD, stream(22, "lo"),
        init=delta_population(0.05, 10**5), **kw,
    )
    assert wasserstein(top.population, bottom.population) < 4e-3


def test_fixed_point_p1_matches_direct_sampler():
    par = params_with(alpha=0.8, beta=0.5, p=1)
    report = solve_fixed_point(
        par, RAD, stream(23, "p1fp"), pop_size=10**5, max_gens=60
    )
    oracle = direct_p1_variance_sampler(0.8 * 1, 0.5, RAD, 10**5, stream(24, "p1fpo"))
    assert wasserstein(report.population, Population(oracle)) < 0.005


def test_converged_population_is_stable_under_one_more_step():
    par = params_with(alpha=0.5, beta=0.25)
    report = solve_fixed_point(par, RAD, stream(25, "stab"), pop_size=10**5)
    assert report.converged
    pushed = step(report.population, par, RAD, report.population.size, stream(26, "push"))
    assert wasserstein(report.population, pushed) < 3 * rde.TOL


def test_non_convergence_reports_flag_not_exception():
    # the stopping rule needs a full window, so no stream can stop this solve
    report = solve_fixed_point(
        params_with(alpha=1.0, beta=1.0), RAD, stream(27, "nc"),
        pop_size=500, max_gens=rde.CONVERGENCE_WINDOW - 1,
    )
    assert not report.converged
    assert report.generations == rde.CONVERGENCE_WINDOW - 1


def test_planted_drift_is_not_converged(monkeypatch):
    # every output moves down by `drift` per generation, from a converged
    # start: each gap stays below a cap of 1e-2 (so a rule of ten gaps below
    # the cap in a row would stop), but the population mean moves by far more
    # than its SE across the window
    monkeypatch.setattr(rde, "TOL", 1e-2)
    drift, par, kw = 1e-3, params_with(0.5, 0.25), dict(pop_size=20_000)
    start = solve_fixed_point(par, RAD, stream(36, "drift-start"), **kw).population
    real_step = rde.step

    def drifting_step(pop, *args):
        out = real_step(pop, *args)
        shift = drift * (out.generation - start.generation)
        return Population(out.values - shift, out.rate, out.generation)

    monkeypatch.setattr(rde, "step", drifting_step)
    report = solve_fixed_point(par, RAD, stream(36, "drift"), max_gens=30, init=start, **kw)
    assert all(g < rde.TOL for g in report.gaps)
    assert not report.converged
    assert report.generations == 30


def test_generation_counts_are_stable_across_seeds():
    # the A13 model at c = 2, where the floor (about 2.6e-3 at this size)
    # lies above TOL, so a rule of ten gaps below TOL in a row would run to
    # max_gens
    par, spec = params_with(0.5, 0.5, h=1.0), DisorderSpec("gaussian", 1.0, 2.0)
    reports = [
        solve_fixed_point(par, spec, stream(seed, "seed-stability"), pop_size=20_000)
        for seed in range(12)
    ]
    assert all(r.converged for r in reports)
    generations = [r.generations for r in reports]
    assert max(generations) <= 3 * np.median(generations)


def test_halves_floor_reads_as_a_second_push_of_the_whole_population(monkeypatch):
    # the floor of a second push, W1 from a push of generation g-1 on a
    # jumped generator to generation g, written out beside the solve's
    # halves floor on a stationary chain.  Over 200 generations, 60 seeds
    # read halves/second push in [0.875, 1.095], and without the sqrt(2)
    # in [1.24, 1.55]; at 30 generations the spread is 2.3 times wider
    par, n, gens = params_with(0.5, 0.25, h=1.0), 20_000, 200
    start = solve_fixed_point(par, RAD, stream(38, "sqrt2-start"), pop_size=n).population
    monkeypatch.setattr(rde, "_stops", lambda *args: False)
    report = solve_fixed_point(par, RAD, stream(38, "sqrt2"), pop_size=n,
                               max_gens=gens, init=start)
    rng = stream(38, "sqrt2")
    second_rng = np.random.Generator(rng.bit_generator.jumped())
    current, second_floors = start, []
    for _ in range(gens):
        second = out_of_place_step(current.values, par, RAD, n, second_rng)
        current = step(current, par, RAD, n, rng)
        second_floors.append(wasserstein(Population(second), current))
    assert report.population.values.tobytes() == current.values.tobytes()
    assert 0.85 <= np.mean(report.floors) / np.mean(second_floors) <= 1.2


def test_generation_past_float_range_raises_numerical_error():
    # 2*beta = 2e307 is finite; 2*beta*z^2 overflows for |z| > 3
    with pytest.raises(NumericalError, match="generation 1 "):
        step(delta_population(1.0, 200), params_with(0.5, 1e307), DisorderSpec("gaussian"),
             200, stream(28, "overflow"))


def test_generation_whose_per_output_sum_overflows_raises_numerical_error():
    # at p = 1 every clause adds 2*beta = 1e308 to its owner's total, a finite
    # term; an output owning two clauses sums to inf in bincount, which no
    # floating-point error flag reports
    with pytest.raises(NumericalError, match="per-output sum overflowed"):
        step(delta_population(1.0, 1000), params_with(1.0, 5e307, p=1), RAD,
             1000, stream(28, "sum-overflow"))


@pytest.mark.parametrize(
    "par, spec, tol, kw, converges",
    [
        (params_with(0.5 * 0.7, 0.5, p=2), DisorderSpec("gaussian", 1.0, 2.0), 1e-2,
         dict(pop_size=4000, max_gens=60), True),
        (params_with(0.8, 0.5, p=3), RAD, rde.TOL,
         dict(pop_size=3000, max_gens=rde.CONVERGENCE_WINDOW - 1), False),
        (params_with(1.0 * 0.5, 0.5, p=1), DisorderSpec("uniform_symmetric", 1.5), 2e-2,
         dict(pop_size=3000, max_gens=60), True),
        (params_with(1.0, 1.0, p=2), DisorderSpec("two_point_symmetric", 0.7), rde.TOL,
         dict(pop_size=2500, max_gens=rde.CONVERGENCE_WINDOW - 1,
              init=delta_population(0.3, 4000)),
         False),
        (params_with(0.5, 0.25, h=1.0, p=2), RAD, 1e-2,
         dict(pop_size=3001, max_gens=60), True),
    ],
    ids=["gaussian-c2-p2-converges", "rademacher-p3-at-max-gens", "uniform-p1",
         "warm-start-other-size", "odd-size-drops-the-last-output"],
)
def test_solve_is_the_serial_loop(
    monkeypatch, par, spec, tol, kw, converges
):
    # the solve is the serial loop of step, the gap and the halves' floor, and
    # draws no generation in vain; the unconverged cases stop short of a window
    monkeypatch.setattr(rde, "TOL", tol)
    oracle_rng = stream(30, "ahead")
    expected = serial_fixed_point(par, spec, oracle_rng, tol=tol, **kw)
    real_step, n_steps = rde.step, []
    rng = stream(30, "ahead")

    def counted_step(*args):
        if args[-1] is rng:
            n_steps.append(None)
        return real_step(*args)

    monkeypatch.setattr(rde, "step", counted_step)
    report = solve_fixed_point(par, spec, rng, **kw)
    assert len(n_steps) == report.generations
    assert report.converged is expected.converged is converges
    assert report.generations == expected.generations
    assert report.gaps == expected.gaps
    assert report.floors == expected.floors
    assert report.population.values.tobytes() == expected.population.values.tobytes()
    assert report.population.rate == expected.population.rate
    assert report.population.generation == expected.population.generation
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_solve_exits_cleanly_when_a_push_fails(monkeypatch):
    # generation 2's push fails
    real_step, calls = rde.step, []
    par, kw = params_with(0.5, 0.5), dict(pop_size=2000, max_gens=30)
    oracle_rng = stream(31, "fail")
    monkeypatch.setattr(rde, "step", _failing_at(
        real_step, 2, lambda g: g is oracle_rng, NumericalError))
    with pytest.raises(NumericalError):
        serial_fixed_point(par, RAD, oracle_rng, tol=rde.TOL, **kw)
    baseline = threading.active_count()
    rng = stream(31, "fail")
    failing = _failing_at(real_step, 2, lambda g: g is rng, NumericalError)

    def counted_step(*args):
        calls.append(None)
        return failing(*args)

    monkeypatch.setattr(rde, "step", counted_step)
    with pytest.raises(NumericalError, match="step 2"):
        solve_fixed_point(par, RAD, rng, **kw)
    assert len(calls) == 2  # the pushes of generations 1 and 2, and no more
    assert threading.active_count() == baseline
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _failing_at(draw, n, on, error=MemoryError):
    """``draw`` that fails at its ``n``-th call on a generator that ``on`` picks."""
    calls = []

    def failing(*args):
        if on(args[-1]):
            calls.append(None)
            if len(calls) == n:
                raise error(f"{draw.__name__} {n} failed")
        return draw(*args)

    return failing


@pytest.mark.parametrize("case", ["poisson-mean-too-large", "step"])
def test_solve_raises_as_the_serial_loop_when_a_draw_fails(
    monkeypatch, case
):
    # numpy's Poisson sampler rejects a mean of alpha*p*pop_size = 2e20; the
    # other case fails generation 3's step on rng
    large = case == "poisson-mean-too-large"
    par = params_with(1e15, 0.5) if large else params_with(0.5)
    kw = dict(pop_size=10**5 if large else 2000, max_gens=30)
    real_step = rde.step
    outcomes = []
    for solve in (partial(serial_fixed_point, tol=rde.TOL), solve_fixed_point):
        rng = stream(35, "draw-fails")
        if not large:
            monkeypatch.setattr(rde, "step", _failing_at(real_step, 3, lambda g: g is rng))
        baseline = threading.active_count()
        with pytest.raises(Exception) as info:
            solve(par, RAD, rng, **kw)
        assert threading.active_count() == baseline
        outcomes.append((info.type, str(info.value), rng.bit_generator.state))
    assert outcomes[0][0] is (ValueError if large else MemoryError)
    assert outcomes[1] == outcomes[0]


def test_concurrent_solves_each_match_the_serial_loop():
    # more solving threads than cores under fast thread switching: a draw
    # landing in the wrong solve or generator shows
    par, kw = params_with(0.5, 0.5, p=3), dict(pop_size=1500, max_gens=20)

    def solve(i):
        return solve_fixed_point(par, RAD, stream(34, str(i)), **kw)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            reports = list(pool.map(solve, range(6), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for i, report in enumerate(reports):
        expected = serial_fixed_point(par, RAD, stream(34, str(i)), tol=rde.TOL, **kw)
        assert report.gaps == expected.gaps
        assert report.population.values.tobytes() == expected.population.values.tobytes()


@pytest.mark.parametrize("pop_size", [1, 0])
def test_solve_rejects_a_population_that_cannot_split(pop_size):
    # the floor compares two halves of pop_size // 2 outputs each
    rng = stream(33, "bad-pop")
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="pop_size"):
        solve_fixed_point(params_with(), RAD, rng, pop_size=pop_size, max_gens=40)
    assert rng.bit_generator.state == before


# ---------------------------------------------------------------------------
# conjugate map y = -log x (array oracle in tests/oracles.py)


def test_conjugate_step_conjugates_the_variance_map():
    par = params_with(alpha=1.0, beta=1.0)
    n = 10**5
    rng = stream(30, "conj")
    base = Population(rng.uniform(0.2, 1.0, n))
    direct = -np.log(step(base, par, RAD, n, stream(31, "cd")).values)
    conjug = conjugate_step(-np.log(base.values), par, RAD, n, stream(32, "cc"))
    # the conjugate values leave (0, 1], so no Population holds them
    assert _sorted_distance(np.sort(direct), np.sort(conjug)) < 0.01


def test_conjugate_step_is_minus_log_of_step_under_a_shared_stream():
    par = params_with(alpha=1.0 * 0.6, beta=0.7, p=3)
    base = Population(stream(37, "shared").uniform(0.2, 1.0, 2000))
    direct = -np.log(step(base, par, RAD, 5000, stream(38, "sh")).values)
    conjug = conjugate_step(-np.log(base.values), par, RAD, 5000, stream(38, "sh"))
    assert np.allclose(direct, conjug, rtol=1e-12, atol=1e-14)


def test_conjugate_step_from_zero_matches_direct_sampler():
    par = params_with(alpha=1.0, beta=0.7, p=3)
    n = 10**5
    out = conjugate_step(np.zeros(100), par, RAD, n, stream(33, "cz"))
    oracle = direct_conjugate_from_zero_sampler(3.0, 0.7, RAD, 3, n, stream(34, "czo"))
    assert _sorted_distance(np.sort(out), np.sort(oracle)) < 0.01


def test_conjugate_step_zero_mass_matches_poisson():
    par = params_with(alpha=0.9 * 0.5, beta=1.0)
    lam = 0.9 * 0.5 * 2
    n = 10**5
    out = conjugate_step(np.full(1000, 0.3), par, RAD, n, stream(35, "cm"))
    frac = float((out == 0.0).mean())
    target = math.exp(-lam)
    se = math.sqrt(target * (1 - target) / n)
    assert abs(frac - target) < 4 * se
    assert out.min() >= 0.0


def test_conjugate_step_rejects_zero_temperature():
    with pytest.raises(ValueError):
        conjugate_step(np.zeros(10), params_with(beta=0.0), RAD, 10, stream(36, "c0"))


# ---------------------------------------------------------------------------
# contraction diagnostics


def modulus_at(params, q, n_mc, rng):
    """The scan's estimate at a one-point grid: the draws of a single q."""
    ((_, est),) = find_contractive_q(params, RAD, [q], n_mc, rng).estimates
    return est


def test_contraction_factor_vanishes_at_arity_one():
    est = modulus_at(params_with(beta=1.0, p=1), 5.0, 2000, stream(40, "c1"))
    assert est.value == 0.0
    assert est.std_error == 0.0


def test_contraction_factor_monotone_in_q():
    par = params_with(alpha=1.0, beta=1.0)
    a = modulus_at(par, 4.0, 10**5, stream(41, "cq"))
    b = modulus_at(par, 8.0, 10**5, stream(42, "cq2"))
    assert b.value <= a.value + 3 * math.sqrt(a.std_error**2 + b.std_error**2)


def test_contraction_factor_matches_poisson_series():
    par = params_with(alpha=1.0, beta=1.0, p=2)
    est = modulus_at(par, 10.0, 4 * 10**5, stream(43, "cser"))
    series = rademacher_contraction_series(1.0, 2, 1.0, 10.0)
    assert abs(est.value - series) < 3 * est.std_error


def test_scan_estimates_never_increase_along_the_grid():
    # one draw serves every q, and (chi/(gamma+chi))^q < 1 falls with q
    # sample by sample, so the means fall exactly, however close two grid
    # points are; with a draw per q, the steps of 1e-3 rise by noise
    grid = [1, 1.5, 2, 3, 4, 4.001, 4.002, 4.003, 8, 16, 64]
    scan = find_contractive_q(
        params_with(alpha=1.0, beta=1.0, p=3), RAD, grid, 20_000, stream(49, "mono")
    )
    values = [est.value for _, est in scan.estimates]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert values[0] > values[-1]


def test_scan_rejects_bad_input_before_drawing():
    rng = stream(50, "bad")
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="beta = 0"):
        find_contractive_q(params_with(beta=0.0), RAD, [2], 100, rng)
    with pytest.raises(ValueError, match="q must be at least 1"):
        find_contractive_q(params_with(beta=1.0), RAD, [4, 0.5], 100, rng)
    with pytest.raises(ValueError, match="n_mc"):
        find_contractive_q(params_with(beta=1.0), RAD, [4], 0, rng)
    assert rng.bit_generator.state == before


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
        new = conjugate_step(pop, par, RAD, 20000, rng)
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
    report = solve_fixed_point(par, RAD, stream(53, "pairfp"), pop_size=10**5)
    x_marginal = Population(np.minimum(pairs[:, 1], 1.0))
    assert wasserstein(x_marginal, report.population) < 0.01


@pytest.mark.parametrize("spec", [
    RAD, DisorderSpec("gaussian", 1.0, 2.0), DisorderSpec("uniform_symmetric", 1.5),
], ids=lambda s: s.family)
def test_pair_step_x_column_is_step_on_the_same_draws(spec):
    # A12's premise, one generation at a time: from equal streams the X
    # column of the coupled recursion is the variance map.  Only +-1 weights
    # make (2b x^2) X and (x^2 X) 2b round alike.
    base = stream(55, "pairs")
    pairs = np.column_stack([base.uniform(-1.0, 1.0, 900), base.uniform(0.05, 1.0, 900)])
    par = params_with(0.9, 0.7)
    rng, step_rng = stream(55, "pair-step"), stream(55, "pair-step")
    x = pair_step(pairs, par, spec, 1500, rng)[:, 1]
    want = step(Population(pairs[:, 1]), par, spec, 1500, step_rng).values
    assert rng.bit_generator.state == step_rng.bit_generator.state
    if spec.family == "rademacher":
        assert x.tobytes() == want.tobytes()
    else:
        np.testing.assert_array_max_ulp(x, want, maxulp=4)


def test_pair_step_requires_arity_two():
    with pytest.raises(ValueError):
        pair_step(np.ones((10, 2)), params_with(p=3), RAD, 10, stream(54, "pair3"))
