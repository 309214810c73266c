import itertools
import math
import re

import numpy as np
import pytest
from scipy.stats import norm

from quadglass.disorder import DisorderSpec
from quadglass.linalg import _assemble
from quadglass.model import (
    CavitySplit,
    FactorModel,
    Factorization,
    ModelParams,
    _distinct_tuples,
    cavity_split,
    dump_model,
    finite_free_energy,
    inverse_diagonal,
    load_model,
    log_det,
    ones_quadratic_form,
    sample_model,
    woodbury_residual,
)
from quadglass.stats import offdiag_moments
from quadglass.streams import stream

from oracles import (
    boundary_clauses,
    conjugate_gradient_solve,
    dense_coupling_matrix,
    dense_woodbury_residual,
    ks_distance,
    log_det_incremental,
    logdet_via_eigenvalues,
    model_clauses,
    p1_inverse_diagonal,
    partition_function_mc,
    reassemble,
)

RAD = DisorderSpec("rademacher")


def small_model(seed, n_sites=40, alpha=1.0, beta=0.5, h=1.0, p=2, spec=RAD):
    params = ModelParams(alpha, beta, h, p)
    return sample_model(params, spec, n_sites, stream(seed, "model"))


# ---------------------------------------------------------------------------
# sampling


def test_vanishing_rate_gives_identity():
    params = ModelParams(1e-12, 0.5, 1.0, 2)
    model = sample_model(params, RAD, 20, stream(0, "empty"))
    assert model.n_clauses == 0
    assert np.array_equal(_assemble(model).toarray(), np.eye(20))


def test_clause_count_is_poisson():
    params = ModelParams(1.0, 0.5, 0.0, 2)
    counts = [
        sample_model(params, RAD, 1000, child).n_clauses
        for child in stream(1, "poisson").spawn(200)
    ]
    assert abs(np.mean(counts) - 1000) < 4 * math.sqrt(1000) / math.sqrt(200)


def test_clause_sites_distinct_and_in_range():
    params = ModelParams(2.0, 0.5, 0.0, 3)
    model = sample_model(params, RAD, 10, stream(2, "sites"))
    assert model.n_clauses > 0
    for clause in model_clauses(model):
        assert len(set(clause.sites)) == 3
        assert all(0 <= s < 10 for s in clause.sites)


@pytest.mark.parametrize("n, p", [(5, 2), (5, 3), (4, 4), (6, 5)])
def test_distinct_tuples_uniform_over_ordered_tuples(n, p):
    # each of the n!/(n-p)! ordered distinct tuples about equally likely, also
    # at p near n, where the last columns have one or two sites left to take
    m = 40_000
    tuples = _distinct_tuples(stream(3, "tuples", n, p), n, m, p)
    place = n ** np.arange(p)
    allowed = np.array(list(itertools.permutations(range(n), p))) @ place
    codes = tuples @ place
    assert tuples.shape == (m, p) and np.isin(codes, allowed).all()
    counts = np.bincount(codes, minlength=n**p)[allowed]
    expected = m / allowed.size
    assert np.all(np.abs(counts - expected) < 5 * math.sqrt(expected))


@pytest.mark.parametrize(
    "alpha, beta, h, fault",
    [
        (math.inf, 0.5, 1.0, "alpha must be finite"),
        (0.0, 0.5, 1.0, "alpha must be finite and positive"),
        (0.5, math.nan, 1.0, "beta must be nonnegative"),
        (0.5, -0.1, 1.0, "beta must be nonnegative"),
        (0.5, 1e308, 1.0, "2*beta must be finite"),
        (0.5, 0.5, math.inf, "h must be finite"),
        (0.5, 0.5, math.nan, "h must be finite"),
        (0.5, 0.5, 1e200, "h*h must be finite"),
    ],
    ids=["alpha-inf", "alpha-zero", "beta-nan", "beta-negative", "beta-overflows",
         "h-inf", "h-nan", "h-square-overflows"],
)
def test_params_outside_the_finite_domain_rejected(alpha, beta, h, fault):
    with pytest.raises(ValueError, match=re.escape(fault)):
        ModelParams(alpha, beta, h, 2)


def test_sample_model_rejects_small_n():
    with pytest.raises(ValueError):
        sample_model(ModelParams(1.0, 0.5, 0.0, 3), RAD, 2, stream(5, "bad"))


# ---------------------------------------------------------------------------
# matrix invariants


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_matrix_symmetric_spd_with_unit_floor(seed):
    model = small_model(seed, n_sites=60)
    a = _assemble(model).toarray()
    assert np.array_equal(a, a.T)
    assert np.linalg.eigvalsh(a).min() >= 1.0 - 1e-9


# ---------------------------------------------------------------------------
# log determinant


def test_logdet_empty_is_zero():
    params = ModelParams(1e-12, 0.5, 0.0, 2)
    assert log_det(sample_model(params, RAD, 10, stream(20, "ld"))) == 0.0


def test_logdet_single_clause_closed_form():
    params = ModelParams(1.0, 0.7, 0.0, 3)
    weights = np.array([[0.5, -1.2, 2.0]])
    model = FactorModel(8, np.array([[1, 4, 6]]), weights, params, RAD)
    expected = math.log(1.0 + 2 * 0.7 * float(np.sum(weights**2)))
    assert log_det(model) == pytest.approx(expected, rel=1e-12)


def test_logdet_matches_eigenvalue_oracle():
    model = small_model(21, n_sites=6)
    oracle = logdet_via_eigenvalues(dense_coupling_matrix(model))
    assert log_det(model) == pytest.approx(oracle, rel=1e-9, abs=1e-12)


def test_logdet_incremental_agrees_on_100_instances():
    rng = stream(22, "dual")
    for child in rng.spawn(100):
        n = int(child.integers(5, 201))
        params = ModelParams(0.5, float(child.uniform(0.1, 1.0)), 0.0, 2)
        model = sample_model(params, RAD, n, child)
        a, b = log_det(model), log_det_incremental(model)
        assert a == pytest.approx(b, rel=1e-8, abs=1e-10)


# ---------------------------------------------------------------------------
# inverse diagonal and quadratic form


def test_inverse_diagonal_is_ones_at_zero_temperature():
    params = ModelParams(1.0, 0.0, 1.0, 2)
    model = sample_model(params, RAD, 30, stream(30, "beta0"))
    assert np.array_equal(inverse_diagonal(model), np.ones(30))


def test_inverse_diagonal_p1_matches_accumulation_oracle():
    params = ModelParams(2.0, 0.5, 0.0, 1)
    spec = DisorderSpec("gaussian", 1.0)
    model = sample_model(params, spec, 50, stream(31, "p1"))
    assert inverse_diagonal(model) == pytest.approx(
        p1_inverse_diagonal(model), rel=1e-12
    )


def test_inverse_diagonal_in_unit_interval():
    for seed in (32, 33):
        model = small_model(seed, n_sites=80, beta=2.0)
        diag = inverse_diagonal(model)
        assert diag.min() > 0
        assert diag.max() <= 1.0 + 1e-12


def test_inverse_diagonal_site_subset():
    model = small_model(34, n_sites=25)
    full = inverse_diagonal(model)
    subset = inverse_diagonal(model, [3, 17, 24])
    assert subset == pytest.approx(full[[3, 17, 24]], rel=1e-12)


def test_quadratic_form_trivial_and_scalar_cases():
    params = ModelParams(1.0, 0.0, 1.0, 2)
    assert ones_quadratic_form(sample_model(params, RAD, 12, stream(35, "q0"))) == 1.0
    g = 1.7
    params = ModelParams(1.0, 0.3, 0.0, 1)
    model = FactorModel(1, np.array([[0]]), np.array([[g]]), params, RAD)
    assert ones_quadratic_form(model) == pytest.approx(1.0 / (1.0 + 0.6 * g * g))


def test_quadratic_form_matches_conjugate_gradient_oracle():
    model = small_model(36, n_sites=8)
    a = dense_coupling_matrix(model)
    ones = np.ones(8)
    oracle = float(ones @ conjugate_gradient_solve(a, ones)) / 8
    assert ones_quadratic_form(model) == pytest.approx(oracle, rel=1e-8)


# ---------------------------------------------------------------------------
# finite free energy


def test_free_energy_zero_temperature_exact():
    params = ModelParams(1.0, 0.0, 1.3, 2)
    model = sample_model(params, RAD, 64, stream(40, "f0"))
    assert finite_free_energy(model) == 1.3**2 / 2.0


def test_free_energy_scalar_closed_form():
    g, beta, h = 0.9, 0.4, 1.1
    params = ModelParams(1.0, beta, h, 1)
    model = FactorModel(1, np.array([[0]]), np.array([[g]]), params, RAD)
    expected = h * h / (2 * (1 + 2 * beta * g * g)) + math.log(1 + 2 * beta * g * g) / 2
    assert finite_free_energy(model) == pytest.approx(expected, rel=1e-12)


def test_free_energy_matches_partition_function_oracle():
    # The Gaussian integral (1/N) log E_eta exp(-H) equals the field term
    # MINUS logdet/(2N); the reported free energy flips the logdet sign
    # (both finite and limiting formulas share that convention, so every
    # internal comparison is unaffected).  The brute-force check therefore
    # targets F - logdet/N, which pins both terms independently.
    params = ModelParams(1.0, 0.3, 0.7, 2)
    sites = np.array([[0, 1], [1, 0]])
    weights = np.array([[1.0, -1.0], [0.5, 1.0]])
    model = FactorModel(2, sites, weights, params, RAD)
    oracle, se = partition_function_mc(model, 10**7, stream(41, "zmc"))
    gaussian_integral = finite_free_energy(model) - log_det(model) / model.n_sites
    assert abs(gaussian_integral - oracle) < 3 * se


def test_free_energy_invariant_under_site_relabeling():
    model = small_model(42, n_sites=50)
    perm = stream(43, "perm").permutation(50)
    relabeled = FactorModel(
        50, perm[model.sites], model.weights, model.params, model.disorder
    )
    assert finite_free_energy(relabeled) == pytest.approx(
        finite_free_energy(model), rel=1e-10
    )


# ---------------------------------------------------------------------------
# Gibbs sampling


def test_spins_zero_temperature_ks():
    params = ModelParams(1.0, 0.0, 0.8, 2)
    model = sample_model(params, RAD, 5, stream(50, "spin0"))
    draws = Factorization(model).sample_spins(10**5, stream(51, "spin0d"))[:, 0]
    assert ks_distance(draws, lambda x: norm.cdf(x - 0.8)) < 0.01


def test_spins_match_exact_moments():
    model = small_model(52, n_sites=30)
    n = 10**5
    draws = Factorization(model).sample_spins(n, stream(53, "spins"))
    var_exact = inverse_diagonal(model, [0])[0]
    var_emp = draws[:, 0].var(ddof=1)
    se_var = var_exact * math.sqrt(2.0 / (n - 1))
    assert abs(var_emp - var_exact) < 4 * se_var
    a = dense_coupling_matrix(model)
    mean_exact = model.params.h * np.linalg.solve(a, np.ones(30))
    se_mean = np.sqrt(np.diag(np.linalg.inv(a)) / n)
    assert np.all(np.abs(draws.mean(axis=0) - mean_exact) < 4 * se_mean)


# ---------------------------------------------------------------------------
# off-diagonal moments


def test_offdiag_zero_temperature_exact():
    params = ModelParams(1.0, 0.0, 0.0, 2)
    report = offdiag_moments(params, RAD, 10, 5, stream(60, "od0"))
    assert report.entry_12.value == 0.0
    assert report.scaled_square.value == 0.0


def test_offdiag_means_vanish_and_square_is_bounded():
    params = ModelParams(1.0, 0.5, 0.0, 2)
    report = offdiag_moments(params, RAD, 100, 300, stream(61, "od"))
    for est in (report.entry_12, report.product_12_13, report.product_12_34):
        assert abs(est.value) < 4 * est.std_error
    assert report.scaled_square.value < 1.05


def test_offdiag_requires_four_sites():
    with pytest.raises(ValueError):
        offdiag_moments(ModelParams(1.0, 0.5, 0.0, 2), RAD, 3, 5, stream(62, "odx"))


# ---------------------------------------------------------------------------
# cavity split


def test_split_counts_add_up_to_full_rate():
    params = ModelParams(1.0, 0.5, 0.0, 2)
    totals = [
        s.bulk.n_clauses + s.n_boundary
        for s in (
            cavity_split(params, RAD, 200, child)
            for child in stream(70, "split").spawn(300)
        )
    ]
    se = math.sqrt(200.0 / 300.0)
    assert abs(np.mean(totals) - 200) < 4 * se


def test_split_p1_boundary_touches_only_last_site():
    params = ModelParams(1.0, 0.5, 0.0, 1)
    split = cavity_split(params, RAD, 50, stream(71, "p1split"))
    for clause in boundary_clauses(split):
        assert clause.sites == (49,)


def test_reassembled_free_energy_matches_direct_in_law():
    # two-sample KS floor is ~0.87*sqrt(2/reps) even for identical laws,
    # so the replicate count sets the resolvable threshold
    params = ModelParams(1.0, 0.5, 1.0, 2)
    n, reps = 200, 2000
    rng_a, rng_b = stream(72, "law").spawn(2)
    f_split = np.array(
        [
            finite_free_energy(reassemble(cavity_split(params, RAD, n, c)))
            for c in rng_a.spawn(reps)
        ]
    )
    f_direct = np.array(
        [
            finite_free_energy(sample_model(params, RAD, n, c))
            for c in rng_b.spawn(reps)
        ]
    )
    assert ks_distance(f_split, f_direct) < 0.05


def test_split_requires_room_for_one_site():
    with pytest.raises(ValueError):
        cavity_split(ModelParams(1.0, 0.5, 0.0, 2), RAD, 2, stream(73, "tight"))


# ---------------------------------------------------------------------------
# rank-R cavity residual


def _manual_split(params, spec, n, bulk_sites, bulk_weights, interior, xi, zeta):
    bulk = FactorModel(n - 1, bulk_sites, bulk_weights, params, spec)
    return CavitySplit(
        n,
        bulk,
        np.asarray(interior, dtype=np.int64).reshape(len(zeta), params.p - 1),
        np.asarray(xi, dtype=float).reshape(len(zeta), params.p - 1),
        np.asarray(zeta, dtype=float),
    )


def test_residual_zero_without_boundary():
    params = ModelParams(1.0, 0.5, 0.0, 2)
    rng = stream(80, "nobnd")
    while True:
        split = cavity_split(params, RAD, 30, rng)
        if split.n_boundary == 0:
            break
    res = woodbury_residual(split)
    assert res.residual == 0.0
    assert res.bound == 0.0


def test_residual_negligible_with_identity_bulk():
    params = ModelParams(1.0, 0.5, 0.0, 2)
    empty_sites = np.empty((0, 2), dtype=np.int64)
    split = _manual_split(
        params, RAD, 12,
        empty_sites, np.empty((0, 2)),
        interior=[[0], [5]], xi=[[1.0], [-1.0]], zeta=[1.0, 1.0],
    )
    res = woodbury_residual(split)
    assert res.residual < 1e-12
    assert res.bound < 1e-12


def test_residual_exact_at_arity_one():
    params = ModelParams(1.0, 0.5, 0.0, 1)
    split = cavity_split(params, RAD, 60, stream(81, "p1res"))
    res = woodbury_residual(split)
    assert res.residual < 1e-12


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize(
    "spec", [RAD, DisorderSpec("gaussian", 1.0), DisorderSpec("gaussian", 1.0, 0.8)],
    ids=["rademacher", "gaussian", "truncated-gaussian"],
)
def test_residual_and_bound_match_dense_oracle(p, spec):
    params = ModelParams(0.5, 0.5, 0.0, p)
    splits = [cavity_split(params, spec, 25, child)
              for child in stream(83, "dense", p).spawn(20)]
    assert {s.n_boundary == 0 for s in splits} == {True, False}  # R = 0 is covered
    for split in splits:
        res = woodbury_residual(split)
        residual, bound = dense_woodbury_residual(split)
        assert res.residual == pytest.approx(residual, abs=1e-12)
        assert res.bound == pytest.approx(bound, abs=1e-12)


def test_residual_small_and_dominated_by_bound():
    params = ModelParams(1.0, 0.5, 0.0, 2)
    residuals, ratios = [], []
    for child in stream(82, "res").spawn(40):
        res = woodbury_residual(cavity_split(params, RAD, 400, child))
        residuals.append(res.residual)
        if res.bound > 0:
            ratios.append(res.residual / res.bound)
    assert np.median(residuals) < 0.05
    assert np.quantile(ratios, 0.99) < 10.0  # a single moderate constant suffices


# ---------------------------------------------------------------------------
# portable text format


def test_dump_load_round_trip(tmp_path):
    model = small_model(90, n_sites=17, spec=DisorderSpec("gaussian", 1.0, 2.5))
    path = tmp_path / "model.txt"
    dump_model(model, path)
    back = load_model(path)
    assert back.n_sites == model.n_sites
    assert back.params == model.params
    assert back.disorder == model.disorder
    assert np.array_equal(back.sites, model.sites)
    assert np.array_equal(back.weights, model.weights)


def test_dump_uses_one_based_site_indices(tmp_path):
    params = ModelParams(1.0, 0.5, 0.0, 2)
    model = FactorModel(5, np.array([[0, 4]]), np.array([[1.0, -1.0]]), params, RAD)
    path = tmp_path / "m.txt"
    dump_model(model, path)
    clause_line = path.read_text().splitlines()[1].split()
    assert clause_line[:2] == ["1", "5"]


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("")
    with pytest.raises(ValueError):
        load_model(path)
    path.write_text("5 1 1.0 0.5 0.0 2 rademacher 1 inf\n1 2 1.0\n")
    with pytest.raises(ValueError):
        load_model(path)
