import gc
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from quadglass import free_energy, rde
from quadglass.disorder import DisorderSpec
from quadglass.free_energy import (
    convergence_study,
    edge_term,
    gauss_radau,
    limiting_free_energy,
)
from quadglass.model import ModelParams
from quadglass.rde import Population, delta_population, solve_fixed_point
from quadglass.stats import combined_se, mc_estimate
from quadglass.streams import stream

from oracles import balanced_edge_term, rademacher_p1_edge_term, rademacher_p1_free_energy

RAD = DisorderSpec("rademacher")
A3ISH = ModelParams(0.5, 0.25, 1.0, 2)


# ---------------------------------------------------------------------------
# quadrature rules


def test_gauss_radau_rule_is_valid():
    nodes, weights = gauss_radau(16)
    assert nodes.size == 16 and weights.size == 16
    assert nodes[0] == 1.0 and nodes[1:].min() > 0 and nodes[1:].max() < 1
    assert np.all(np.diff(nodes) < 0)
    assert weights.min() > 0
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert [a.tolist() for a in gauss_radau(1)] == [[1.0], [1.0]]


@pytest.mark.parametrize("n_nodes", [0, -1])
def test_fewer_than_one_node_is_a_value_error(n_nodes):
    with pytest.raises(ValueError, match="n_nodes must be at least 1"):
        gauss_radau(n_nodes)
    with pytest.raises(ValueError, match="n_nodes must be at least 1"):
        limiting_free_energy(A3ISH, RAD, n_nodes, stream(5, "no-nodes"))
    with pytest.raises(ValueError, match="n_nodes must be at least 1"):
        convergence_study(A3ISH, RAD, [50], 2, n_nodes, stream(5, "no-nodes"))


@pytest.mark.parametrize("n_nodes", [8, 16])
def test_gauss_radau_integrates_polynomials_exactly(n_nodes):
    nodes, weights = gauss_radau(n_nodes)
    for degree in range(2 * n_nodes - 1):
        assert float(weights @ nodes**degree) == pytest.approx(1.0 / (degree + 1), rel=1e-12)


@pytest.mark.parametrize("alpha, beta", [(0.5, 0.25), (1.0, 0.5), (0.5, 50.0)])
def test_gauss_radau_integrates_the_arity_1_edge_term(alpha, beta):
    # at p = 1 with +-1 weights, the edge term at x is a Poisson series in
    # alpha*x, and its integral is the log-det part of the p = 1 free energy
    nodes, weights = gauss_radau(8)
    quadrature = alpha / 2 * sum(
        w * rademacher_p1_edge_term(alpha * x, beta) for x, w in zip(nodes, weights))
    assert quadrature == pytest.approx(rademacher_p1_free_energy(alpha, beta, 0.0),
                                       rel=0, abs=1e-12)


# ---------------------------------------------------------------------------
# edge term


def test_edge_term_zero_temperature_exact():
    pop = delta_population(0.5, 100)
    est = edge_term(pop, ModelParams(1.0, 0.0, 0.0, 2), RAD, 1000, stream(0, "e0"))
    assert est.value == 0.0 and est.std_error == 0.0


def test_edge_term_degenerate_population_has_zero_error():
    pop = delta_population(1.0, 100)
    par = ModelParams(1.0, 0.75, 0.0, 3)
    est = edge_term(pop, par, RAD, 5000, stream(1, "edeg"))
    assert est.value == pytest.approx(math.log(1 + 2 * 0.75 * 3), rel=1e-14)
    assert est.std_error < 1e-14


def test_edge_term_matches_balanced_resampling_oracle():
    rng = stream(2, "epop")
    pop_values = rng.uniform(0.1, 1.0, 50_000)
    pop = Population(pop_values)
    par = ModelParams(1.0, 0.6, 0.0, 2)
    est = edge_term(pop, par, RAD, 10**5, stream(3, "emc"))
    oracle, oracle_se = balanced_edge_term(pop_values, par, RAD, 10**6, stream(4, "eor"))
    assert abs(est.value - oracle) < 3 * combined_se(est.std_error, oracle_se)


@pytest.mark.parametrize("chunk", [1, 7, 10**6])  # 10**6: above n_mc
@pytest.mark.parametrize("p", [1, 2, 3])
def test_edge_term_does_not_depend_on_the_gather_chunk(monkeypatch, chunk, p):
    pop = Population(stream(35, "epop").uniform(0.05, 1.0, size=700))
    par, spec = ModelParams(1.0, 0.6, 0.0, p), DisorderSpec("gaussian", 1.0, 2.0)
    whole = edge_term(pop, par, spec, 3000, stream(35, "echunk", str(p)))
    monkeypatch.setattr(rde, "GATHER_CHUNK", chunk)
    assert edge_term(pop, par, spec, 3000, stream(35, "echunk", str(p))) == whole


@pytest.mark.parametrize("p", [1, 2, 3])
def test_edge_term_holds_its_draws_plus_one_gather_chunk(p):
    # the sums, one column and its int32 resample indices: 20 bytes a draw,
    # plus one gather chunk
    pop, n_mc = Population(np.linspace(0.05, 1.0, 100_000)), 200_000
    par = ModelParams(1.0, 0.5, 0.0, p)
    tracemalloc.start()
    try:
        edge_term(pop, par, DisorderSpec("gaussian", 1.0, 2.0), n_mc, stream(36, "epeak"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 24 * n_mc


# ---------------------------------------------------------------------------
# limiting free energy


def test_zero_temperature_limit_is_exact():
    par = ModelParams(1.0, 0.0, 1.4, 2)
    res = limiting_free_energy(par, RAD, 4, stream(10, "l0"))
    assert res.estimate.value == 1.4**2 / 2
    assert res.estimate.std_error == 0.0
    assert res.converged


def test_small_rate_limit_matches_frozen_population_expansion():
    # at alpha = 0.01 the fixed point is within ~2% of the point mass at 1,
    # so the integral term collapses to its X = 1 evaluation
    par = ModelParams(0.01, 0.5, 0.0, 2)
    res = limiting_free_energy(
        par, RAD, 8, stream(11, "lsmall"),
        pop_size=50_000, n_mc=10**5,
    )
    frozen = par.alpha / 2 * math.log(1 + 2 * par.beta * 2)  # unit weights, X=1
    assert abs(res.estimate.value - frozen) < 5e-4


def test_p1_limit_matches_direct_sampling_route():
    # at arity 1 A is diagonal, so the limit is an exact Poisson series
    par = ModelParams(0.8, 0.5, 1.0, 1)
    res = limiting_free_energy(
        par, RAD, 12, stream(12, "lp1"), pop_size=10**5, n_mc=2 * 10**5
    )
    oracle = rademacher_p1_free_energy(par.alpha, par.beta, par.h)
    assert oracle == pytest.approx(0.581760245906761, abs=1e-14)
    assert abs(res.estimate.value - oracle) < 3 * res.estimate.std_error


def test_monotone_in_field_strength_with_shared_stream():
    values = []
    for h in (0.5, 1.0, 2.0):
        par = ModelParams(0.5, 0.25, h, 2)
        res = limiting_free_energy(
            par, RAD, 6, stream(14, "lh"), pop_size=30_000, n_mc=20_000, max_gens=150
        )
        values.append(res.estimate.value)
    assert values[0] < values[1] < values[2]


def test_quadrature_refinement_is_stable():
    kw = dict(pop_size=10**5, n_mc=10**5, max_gens=200)
    res16 = limiting_free_energy(
        A3ISH, RAD, 16, stream(15, "l16"), **kw
    )
    res32 = limiting_free_energy(
        A3ISH, RAD, 32, stream(16, "l32"), **kw
    )
    tol = 3 * combined_se(res16.estimate.std_error, res32.estimate.std_error)
    assert abs(res16.estimate.value - res32.estimate.value) < tol


def test_thinned_rates_stochastically_dominate():
    # fewer clauses -> larger variances: the population mean at a smaller
    # rate scale cannot sit below the full-rate mean
    par = ModelParams(0.5, 0.25, 0.0, 2)
    low = solve_fixed_point(replace(par, alpha=par.alpha * 0.3), RAD, stream(18, "dom1"),
                            pop_size=10**5)
    high = solve_fixed_point(par, RAD, stream(19, "dom2"), pop_size=10**5)
    se = combined_se(
        mc_estimate(low.population.values).std_error,
        mc_estimate(high.population.values).std_error,
    )
    assert low.population.mean() >= high.population.mean() - 3 * se


def test_unconverged_nodes_are_flagged_not_fatal():
    # one generation cannot close the bracket at beta = 1
    res = limiting_free_energy(
        ModelParams(1.0, 1.0, 1.0, 2), RAD, 3,
        stream(20, "lfail"), pop_size=400, n_mc=5000, max_gens=1,
    )
    assert not res.converged
    assert res.unconverged > 0
    assert math.isfinite(res.estimate.value)


def _state(rng):
    return rng.bit_generator.state["state"]


@pytest.mark.parametrize("h", [1.0, 0.0], ids=["field", "no-field"])
def test_sweep_solves_every_point_cold_on_its_own_stream(monkeypatch, h):
    solves, edges = [], {}
    real_solve, real_edge = free_energy.solve_fixed_point, free_energy.edge_term

    def solve_spy(params, disorder, rng, **kwargs):
        state = _state(rng)
        report = real_solve(params, disorder, rng, **kwargs)
        solves.append((params.alpha, state, kwargs.get("init"), report.population.mean(),
                       _state(rng)))
        return report

    def edge_spy(pop, params, disorder, n_mc, rng):
        edges[pop.rate] = _state(rng)
        return real_edge(pop, params, disorder, n_mc, rng)

    monkeypatch.setattr(free_energy, "solve_fixed_point", solve_spy)
    monkeypatch.setattr(free_energy, "edge_term", edge_spy)
    par = ModelParams(0.5, 0.25, h, 2)
    res = limiting_free_energy(par, RAD, 3, stream(21, "sweep"), pop_size=500, n_mc=500,
                               max_gens=5, workers=2)
    # node j solves the model at edge density alpha * x_j from the point mass
    # at 1 on child j, and then draws its edge term on that same child
    children = stream(21, "sweep").spawn(3)
    xs = gauss_radau(3)[0]
    assert len(solves) == 3
    by_alpha = {alpha: rest for alpha, *rest in solves}
    assert sorted(by_alpha) == sorted(par.alpha * float(x) for x in xs)
    for j, x in enumerate(xs):
        state, init, _, solved_state = by_alpha[par.alpha * float(x)]
        assert init is None and state == _state(children[j])
        assert edges[par.alpha * float(x) * par.p] == solved_state
    assert [node.x for node in res.nodes] == list(xs)
    # the field term reads the x = 1 node's population
    x1_mean = by_alpha[par.alpha][2]
    assert res.nodes[0].x == 1.0
    assert res.h_term == h * h / 2 * x1_mean


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_holds_at_most_one_population_per_worker(monkeypatch, workers):
    # when a point starts its solve, at most workers - 1 other populations
    # are alive, and none outlives the sweep
    real, populations, alive = free_energy.solve_fixed_point, [], []

    def spy(*args, **kwargs):
        gc.collect()
        alive.append(sum(ref() is not None for ref in populations))
        report = real(*args, **kwargs)
        populations.append(weakref.ref(report.population))
        return report

    monkeypatch.setattr(free_energy, "solve_fixed_point", spy)
    limiting_free_energy(
        A3ISH, RAD, 4, stream(22, "hold"), pop_size=500, n_mc=500, max_gens=5, workers=workers
    )
    gc.collect()
    assert len(alive) == 4 and max(alive) <= workers - 1
    assert all(ref() is None for ref in populations)


@pytest.mark.parametrize("h", [1.0, 0.0], ids=["field", "no-field"])
def test_limit_is_the_same_at_any_worker_count(h):
    params, spec = ModelParams(0.5, 0.5, h, 2), DisorderSpec("gaussian", 1.0, 2.0)
    results = [
        limiting_free_energy(params, spec, 3, stream(4, "workers"), pop_size=5000,
                             n_mc=5000, max_gens=60, workers=workers)
        for workers in (1, 2, 3)
    ]
    assert results[0] == results[1] == results[2]


def _limit_peak(n_nodes, workers):
    # A13's model
    params, spec = ModelParams(0.5, 0.5, 1.0, 2), DisorderSpec("gaussian", 1.0, 2.0)
    tracemalloc.start()
    try:
        limiting_free_energy(
            params, spec, n_nodes, stream(23, "peak"), pop_size=20_000,
            n_mc=20_000, max_gens=12, workers=workers,
        )
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_limit_peak_memory_does_not_grow_with_nodes():
    # the sweep's peak is one solve's, whatever the node count
    assert _limit_peak(16, 1) <= 1.1 * _limit_peak(2, 1)


def test_limit_peak_memory_does_not_grow_with_nodes_on_two_workers():
    # two solves at once, whatever the node count; how far their peaks
    # overlap varies run to run, so the bound is two serial sweeps' peak
    assert _limit_peak(16, 2) <= 1.1 * 2 * _limit_peak(2, 1)


# ---------------------------------------------------------------------------
# convergence study


def test_zero_temperature_study_is_exact():
    par = ModelParams(1.0, 0.0, 1.0, 2)
    study = convergence_study(
        par, RAD, [50, 100, 200], 4, 4,
        stream(30, "cs0"), pop_size=1000, n_mc=1000,
    )
    assert all(r.gap == 0.0 and r.std_f == 0.0 for r in study.rows)


def test_study_tracks_the_limit_at_moderate_sizes():
    seeds_per_n = 8
    study = convergence_study(
        A3ISH, RAD, [100, 200], seeds_per_n, 8,
        stream(31, "cs"), pop_size=50_000, n_mc=10**5, workers=2,
    )
    limit_se = study.limit.estimate.std_error
    for row in study.rows:
        se_mean = row.std_f / math.sqrt(seeds_per_n)
        assert row.gap < max(0.02, 4 * combined_se(se_mean, limit_se))
    assert study.rows[0].n_sites == 100
