"""One factorization per realization, exact when A = I.

Every finite-size observable is a query on a single ``Factorization``;
these tests count the sparse LU calls behind each entry point by
wrapping the ``splu`` binding that ``quadglass.model`` uses, and check
every query against dense numpy linear algebra.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

import quadglass.model
from quadglass import cli
from quadglass.disorder import DisorderSpec
from quadglass.model import (
    FactorModel,
    Factorization,
    ModelParams,
    _assemble,
    coupling_matrix,
    finite_free_energy,
    inverse_diagonal,
    log_det,
    offdiag_moments,
    ones_quadratic_form,
    sample_model,
)
from quadglass.streams import stream

from oracles import dense_coupling_matrix, logdet_via_eigenvalues

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

    monkeypatch.setattr(quadglass.model, "splu", counting)
    return calls


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


def test_queries_share_one_factor_and_match_dense_linear_algebra(factor_calls):
    model = sample_model(ModelParams(1.0, 0.5, 0.3, 3), RAD, 40, stream(5, "q"))
    fac = Factorization(model)
    a = coupling_matrix(model)
    inv = np.linalg.inv(a)
    ones = np.ones(40)
    assert fac.log_det == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-12)
    assert fac.ones_quadratic_form == pytest.approx(ones @ inv @ ones / 40, rel=1e-12)
    assert fac.solve(np.eye(40)) == pytest.approx(inv, abs=1e-12)
    whiten = fac.solve_transposed_factor(np.eye(40))  # C^{-T}, A = C C^T
    assert whiten @ whiten.T == pytest.approx(inv, abs=1e-12)
    assert fac.free_energy == (
        0.3 * 0.3 / 2.0 * fac.ones_quadratic_form + fac.log_det / 80.0
    )
    assert len(factor_calls) == 1


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("family", ["rademacher", "gaussian"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_sparse_factor_matches_dense_oracle(p, family, alpha):
    # N = 130 leaves a partial last block of unit right-hand sides
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
    whiten = fac.solve_transposed_factor(np.eye(n))
    assert whiten @ whiten.T == pytest.approx(inv, abs=1e-12)


@pytest.mark.parametrize("sites", [[-1], [40], [3, 40]], ids=["negative", "N", "mixed"])
def test_factor_inverse_diagonal_rejects_sites_out_of_range(sites):
    model = sample_model(ModelParams(1.0, 0.5, 0.3, 2), RAD, 40, stream(8, "range"))
    with pytest.raises(ValueError, match="site index out of range"):
        Factorization(model).inverse_diagonal(sites)


def test_failed_factorization_exits_4_without_traceback(tmp_path, monkeypatch, capsys):
    def singular(matrix, *args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(quadglass.model, "splu", singular)
    cfg = write_cfg(
        tmp_path / "sim.txt",
        MODEL_KEYS + "simulate.n_sites=60\nsimulate.replicates=1\n",
    )
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out, "--workers", "1"]) == 4
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
