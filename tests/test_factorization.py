"""One factorization per realization, exact when A = I.

Every finite-size observable is a query on a single ``Factorization``;
these tests count the sparse LU calls behind each entry point by
wrapping the ``splu`` binding that ``quadglass.linalg`` uses, and check
every query against dense numpy linear algebra.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import quadglass.linalg
from quadglass import cli
from quadglass.disorder import DisorderSpec
from quadglass.linalg import _assemble
from quadglass.model import (
    FactorModel,
    Factorization,
    ModelParams,
    cavity_split,
    finite_free_energy,
    inverse_diagonal,
    log_det,
    ones_quadratic_form,
    sample_model,
    woodbury_residual,
)
from quadglass.stats import offdiag_moments
from quadglass.streams import stream

from oracles import (
    closed_pattern_by_products,
    dense_clause_matrix,
    dense_coupling_matrix,
    logdet_via_eigenvalues,
)

RAD = DisorderSpec("rademacher")
MODEL_KEYS = """
model.alpha=0.8
model.beta=0.5
model.h=1.0
model.p=2
disorder.family=rademacher
"""


@pytest.fixture
def factor_calls(monkeypatch):
    calls = []

    def counting(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return splu(matrix, *args, **kwargs)

    monkeypatch.setattr(quadglass.linalg, "splu", counting)
    return calls


def noise_map(fac):
    """A^{-1} [I | sqrt(2*beta) V]: the map sample_spins applies to (g, eta)."""
    model = fac.model
    scaled = math.sqrt(2.0 * model.params.beta) * dense_clause_matrix(model)
    return fac.solve(np.hstack([np.eye(model.n_sites), scaled]))


def write_cfg(path, text):
    path.write_text(text.strip() + "\n", encoding="utf-8")
    return str(path)


def test_simulate_factors_each_replicate_once(tmp_path, factor_calls):
    cfg = write_cfg(
        tmp_path / "sim.txt",
        MODEL_KEYS + "simulate.n_sites=60\nsimulate.replicates=3\n",
    )
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == 0
    assert len(factor_calls) == 3


def test_load_factors_once(tmp_path, factor_calls):
    dump_cfg = write_cfg(tmp_path / "dump.txt", MODEL_KEYS + "dump.n_sites=60\n")
    assert cli.main(["dump", "--config", dump_cfg, "--out", str(tmp_path / "d")]) == 0
    assert factor_calls == []
    load_cfg = write_cfg(
        tmp_path / "load.txt", f"load.path={tmp_path / 'd' / 'model.txt'}\n"
    )
    assert cli.main(["load", "--config", load_cfg, "--out", str(tmp_path / "l")]) == 0
    assert len(factor_calls) == 1


def test_finite_free_energy_factors_once(factor_calls):
    model = sample_model(ModelParams(0.8, 0.5, 1.0, 2), RAD, 60, stream(1, "fe"))
    assert model.n_clauses > 0
    finite_free_energy(model)
    assert len(factor_calls) == 1


def _beta_zero():
    return sample_model(ModelParams(1.0, 0.0, 0.7, 2), RAD, 30, stream(2, "b0"))


def _no_clauses():
    empty = np.empty((0, 2))
    return FactorModel(30, empty, empty, ModelParams(1.0, 0.5, 0.7, 2), RAD)


@pytest.mark.parametrize("make", [_beta_zero, _no_clauses])
def test_identity_realization_queries_are_exact(make):
    model = make()
    assert _assemble(model).nnz == 30  # zero clause blocks are not stored
    assert log_det(model) == 0.0
    assert ones_quadratic_form(model) == 1.0
    assert finite_free_energy(model) == 0.7 * 0.7 / 2.0
    assert np.array_equal(inverse_diagonal(model), np.ones(30))
    spins = Factorization(model).sample_spins(4, stream(3, "spins"))
    assert spins.shape == (4, 30)
    if model.params.beta == 0:
        report = offdiag_moments(model.params, RAD, 30, 3, stream(4, "od"))
        assert report.entry_12.value == 0.0
        assert report.product_12_34.value == 0.0


def _cancelling_pair():
    # the two clauses' products at (0, 1) are 1 and -1
    sites, weights = np.array([[0, 1], [1, 0]]), np.array([[1.0, 1.0], [1.0, -1.0]])
    return FactorModel(4, sites, weights, ModelParams(1.0, 0.5, 0.0, 2), RAD)


@pytest.mark.parametrize(
    "make",
    [
        lambda: sample_model(ModelParams(1.0, 0.5, 0.0, 2), RAD, 300, stream(113, "asm")),
        lambda: sample_model(ModelParams(0.8, 0.25, 0.0, 5), RAD, 60, stream(114, "asm")),
        lambda: sample_model(ModelParams(0.8, 0.5, 0.0, 3), DisorderSpec("gaussian"), 300,
                             stream(115, "asm")),
        lambda: sample_model(ModelParams(1.0, 0.0, 0.0, 3), RAD, 50, stream(116, "asm")),
        _cancelling_pair,
    ],
    ids=["moment", "rademacher-p5", "gaussian-p3", "beta-zero", "cancelling-pair"],
)
def test_assembly_matches_clause_by_clause_oracle(make):
    # A from V V^T holds exactly the oracle's nonzeros: no stored zero where
    # +-1 clauses cancel, only the diagonal at beta = 0
    model = make()
    matrix = _assemble(model)
    oracle = dense_coupling_matrix(model)
    assert matrix.has_canonical_format
    assert np.array_equal(matrix.toarray() != 0, oracle != 0)
    assert np.count_nonzero(matrix.data) == matrix.nnz
    if model.disorder.family == "rademacher":
        assert np.array_equal(matrix.toarray(), oracle)
    else:
        assert matrix.toarray() == pytest.approx(oracle, rel=1e-14, abs=0)
    if model.params.beta == 0:
        assert matrix.nnz == model.n_sites
    if make is _cancelling_pair:
        assert matrix.nnz == 4 and oracle[0, 1] == 0.0


def test_assembly_memory_follows_the_entries_of_a_not_the_products():
    # M*p^2 = 400 * 40^2 = 640000 weight products land on at most N^2 = 40000
    # entries; the assembly's peak stays within 40 bytes per entry of A
    rng = stream(117, "asm-memory")
    model = FactorModel(
        200, np.array([rng.permutation(200)[:40] for _ in range(400)]),
        rng.choice([-1.0, 1.0], size=(400, 40)), ModelParams(2.0, 0.5, 0.0, 40), RAD,
    )
    tracemalloc.start()
    try:
        matrix = _assemble(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.n_clauses * 40**2 > 10 * matrix.nnz
    assert peak < 40 * matrix.nnz


def test_queries_share_one_factor_and_match_dense_linear_algebra(factor_calls):
    model = sample_model(ModelParams(1.0, 0.5, 0.3, 3), RAD, 40, stream(5, "q"))
    fac = Factorization(model)
    a = dense_coupling_matrix(model)
    inv = np.linalg.inv(a)
    ones = np.ones(40)
    assert fac.log_det == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-12)
    assert fac.ones_quadratic_form == pytest.approx(ones @ inv @ ones / 40, rel=1e-12)
    assert fac.solve(np.eye(40)) == pytest.approx(inv, abs=1e-12)
    sites = [31, 4, 17, 0]
    assert fac.inverse_block(sites) == pytest.approx(inv[np.ix_(sites, sites)], abs=1e-12)
    noise = noise_map(fac)  # covariance A^{-1} (I + 2*beta V V^T) A^{-1}
    assert noise @ noise.T == pytest.approx(inv, abs=1e-12)
    assert fac.free_energy == (
        0.3 * 0.3 / 2.0 * fac.ones_quadratic_form + fac.log_det / 80.0
    )
    assert len(factor_calls) == 1


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("family", ["rademacher", "gaussian"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_sparse_factor_matches_dense_oracle(p, family, alpha):
    # at N = 130 the p >= 2 factors carry fill (nnz(L) up to 3.6 times that of
    # A's lower triangle) and the dense oracle stays cheap
    n = 130
    model = sample_model(
        ModelParams(alpha, 0.5, 0.3, p), DisorderSpec(family), n,
        stream(6, "oracle", p, family, str(alpha)),
    )
    assert model.n_clauses > 0
    a = dense_coupling_matrix(model)
    inv = np.linalg.inv(a)
    rhs = stream(7, "rhs").standard_normal((n, 3))
    fac = Factorization(model)
    assert fac.log_det == pytest.approx(logdet_via_eigenvalues(a), rel=1e-12)
    assert fac.solve(rhs) == pytest.approx(np.linalg.solve(a, rhs), abs=1e-12)
    assert fac.inverse_diagonal() == pytest.approx(np.diag(inv), abs=1e-12)
    noise = noise_map(fac)
    assert noise @ noise.T == pytest.approx(inv, abs=1e-12)


def test_woodbury_residual_factors_the_bulk_only_with_interior_sites(factor_calls):
    # the bulk is the only matrix factored, and only when there is an interior
    # site to solve for (p >= 2 and R >= 1); A^{-1}_NN comes from the R x R K
    seen = set()
    for p in (1, 2, 3):
        params = ModelParams(0.5, 0.5, 0.0, p)
        for child in stream(9, "wcount", p).spawn(10):
            split = cavity_split(params, RAD, 30, child)
            del factor_calls[:]
            woodbury_residual(split)
            has_interior = split.interior_sites.size > 0
            assert factor_calls == ([(29, 29)] if has_interior else [])
            seen.add((p > 1, has_interior))
    assert seen == {(False, False), (True, False), (True, True)}


@pytest.mark.parametrize(
    "sites, message",
    [
        ([-1], "site index out of range"),
        ([40], "site index out of range"),
        ([3, 40], "site index out of range"),
        ([1.7], "site indices must be integers"),
        (np.array([2.9]), "site indices must be integers"),
        ([True, False], "site indices must be integers"),
    ],
    ids=["negative", "N", "mixed", "float", "numpy-float", "bool"],
)
def test_factor_inverse_diagonal_rejects_sites_out_of_range(sites, message):
    model = sample_model(ModelParams(1.0, 0.5, 0.3, 2), RAD, 40, stream(8, "range"))
    fac = Factorization(model)
    for query in (fac.inverse_diagonal, fac.inverse_block):
        with pytest.raises(ValueError, match=message):
            query(sites)


def test_inverse_diagonal_exact_where_cancellation_drops_fill_from_l():
    # +-1 weights cancel fill exactly; on this 4-cycle L lacks entries that
    # Z[S_j, S_j] needs, so reading Z off L's own pattern would be wrong
    pinned = FactorModel(
        4, [[0, 2], [2, 3], [0, 1], [1, 3]], [[1, -1], [-1, 1], [-1, -1], [1, -1]],
        ModelParams(1.0, 0.5, 0.0, 2), RAD,
    )
    models = [pinned]
    for params in (
        ModelParams(0.5, 0.25, 1.0, 2), ModelParams(1.0, 0.5, 0.0, 2),
        ModelParams(0.8, 0.5, 0.0, 3),
    ):
        for child in stream(110, "zero-fill", params.p, str(params.alpha)).spawn(30):
            models.append(sample_model(params, RAD, 60, child))
    dropped = []  # whether SuperLU left entries the elimination needs out of L
    for model in models:
        fac = Factorization(model)
        lower = fac._lu.L
        values, (ptr, rows, *_) = quadglass.linalg._closed_pattern(lower)
        reference = closed_pattern_by_products(lower)
        assert np.array_equal(ptr, reference.indptr)
        assert np.array_equal(rows, reference.indices)
        # L's own values where it has entries, 0 where the closure added one
        cols = np.repeat(np.arange(model.n_sites), np.diff(reference.indptr))
        assert np.array_equal(values, lower.toarray()[reference.indices, cols])
        dropped.append(rows.size > lower.nnz)
        inv = np.linalg.inv(dense_coupling_matrix(model))
        assert fac.inverse_diagonal() == pytest.approx(np.diag(inv), abs=1e-12)
    assert dropped[0] and sum(dropped) > 1


@pytest.mark.parametrize(
    "params, family, n, clique",
    [
        (ModelParams(1.0, 0.0, 0.0, 2), "rademacher", 200, "last column"),
        (ModelParams(1.0, 0.5, 0.0, 6), "gaussian", 6, "every column"),
        (ModelParams(1.0, 0.5, 0.0, 2), "rademacher", 500, "trailing block"),
        (ModelParams(0.5, 0.25, 1.0, 2), "rademacher", 500, "trailing block"),
    ],
    ids=["beta-zero", "tiny-dense", "moment", "base-forest"],
)
def test_inverse_diagonal_matches_dense_inverse_whatever_the_root_clique(
    params, family, n, clique
):
    # the root clique c0..n-1 is inverted densely and the forest under it by
    # Takahashi's recurrence; each case covers another split between the two
    model = sample_model(params, DisorderSpec(family), n, stream(112, "clique", n, family))
    fac = Factorization(model)
    _, (_, _, below, _, _) = quadglass.linalg._closed_pattern(fac._lu.L)
    c0 = quadglass.linalg._root_clique(below)
    assert clique == {n - 1: "last column", 0: "every column"}.get(c0, "trailing block")
    if clique == "trailing block":
        assert np.count_nonzero(below == 0) > 1  # a forest: the clique hangs off one root
    inv = np.linalg.inv(dense_coupling_matrix(model))
    assert fac.inverse_diagonal() == pytest.approx(np.diag(inv), abs=1e-12)


@pytest.mark.parametrize(
    "params, n",
    [(ModelParams(1.0, 0.5, 0.0, 2), 500), (ModelParams(0.8, 0.5, 0.0, 3), 200)],
    ids=["moment", "p3"],
)
def test_inverse_diagonal_does_not_depend_on_the_pair_chunk(monkeypatch, params, n):
    fac = Factorization(sample_model(params, RAD, n, stream(111, "chunk", params.p)))
    whole = fac.inverse_diagonal()
    monkeypatch.setattr(quadglass.linalg, "INVERSE_DIAGONAL_PAIRS", 1)  # one column a chunk
    assert np.array_equal(fac.inverse_diagonal(), whole)


def test_failed_factorization_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    def singular(matrix, *args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(quadglass.linalg, "splu", singular)
    cfg = write_cfg(
        tmp_path / "sim.txt",
        MODEL_KEYS + "simulate.n_sites=60\nsimulate.replicates=1\n",
    )
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
