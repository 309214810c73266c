import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from quadglass import acceptance, cli, free_energy
from quadglass.disorder import DisorderSpec
from quadglass.model import FactorModel, ModelParams, dump_model, finite_free_energy, load_model
from quadglass.rde import Population, dump_population, solve_fixed_point

from oracles import load_population

BASE_SIM = """
experiment.kind=simulate
experiment.seed=11
model.alpha=0.8
model.beta=0.5
model.h=1.0
model.p=2
disorder.family=rademacher
simulate.n_sites=100
simulate.replicates=4
"""


def write_cfg(tmp_path, text, name="config.txt"):
    path = tmp_path / name
    path.write_text(text.strip() + "\n", encoding="utf-8")
    return path


def run_cli(args):
    return cli.main([str(a) for a in args])


def run_python(code, *args):
    """The last stdout line of ``code`` run with ``args`` in a fresh interpreter on the
    package's sources."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# determinism and manifests


def test_outputs_byte_identical_across_worker_counts(tmp_path):
    cfg = write_cfg(tmp_path, BASE_SIM)
    for workers, name in ((1, "a"), (4, "b")):
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / name,
                        "--workers", workers]) == 0
    a = (tmp_path / "a" / "simulate.csv").read_bytes()
    b = (tmp_path / "b" / "simulate.csv").read_bytes()
    assert a == b
    ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
    ma.pop("wall_time_s"), mb.pop("wall_time_s")
    assert ma == mb


RDE_SMALL = """
experiment.seed=12
model.alpha=0.5
model.beta=0.5
model.h=1.0
model.p=2
disorder.family=gaussian
disorder.truncation=2.0
rde.pop_size=2000
rde.max_gens=40
"""


@pytest.mark.parametrize(
    "kind, extra",
    [("rde", ""), ("free-energy", "quadrature.nodes=2\nfree_energy.n_mc=2000\n")],
)
def test_fixed_point_outputs_byte_identical_across_worker_counts(tmp_path, kind, extra):
    cfg = write_cfg(tmp_path, RDE_SMALL + extra)
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert run_cli([kind, "--config", cfg, "--out", out, "--workers", workers]) == 0
        outputs.append({
            f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"
        })
    assert outputs[0] and outputs[0] == outputs[1]


# SHA-256 of every output but the manifest at four small configs.  A
# change that moves the streams on purpose records new digests and names
# the moved outputs.  The validate subset leaves out A1, whose detail
# depends on its wall time.
GOLDEN = {
    "rde": (
        """
        experiment.seed=12
        model.alpha=0.6
        model.beta=0.5
        model.h=1.0
        model.p=3
        disorder.family=uniform_symmetric
        disorder.param=1.5
        disorder.truncation=1.2
        rde.pop_size=2000
        rde.max_gens=40
        """,
        {
            "population.txt":
                "166b28d323671f7be1f8f3e1e7fdea79c2536c1d0f09ee5cad779fea52a088aa",
            "rde_summary.json":
                "b8649408e0dcbca997184132e34cd40b7ce4c605f4fffe79081488300b7d88aa",
            "rde_trajectory.csv":
                "09ff94c8a177cc0912bc1c608c27e5c85531852dd26d63139aaa17b8322c1a03",
        },
    ),
    "free-energy": (
        RDE_SMALL + "quadrature.nodes=2\nfree_energy.n_mc=2000\n",
        {
            "free_energy.json":
                "afd21aa43dee1e0340496e498be35429d6921963c72fb4a48fedbe38dacc119e",
        },
    ),
    "dump": (
        """
        experiment.seed=12
        model.alpha=0.8
        model.beta=0.5
        model.h=1.0
        model.p=3
        disorder.family=two_point_symmetric
        disorder.param=0.7
        disorder.truncation=1.0
        dump.n_sites=200
        """,
        {
            "model.txt":
                "9f0507e3d7552f9d659b1b964ef64466ff7d6280cff3a3fe585261393c38e86d",
        },
    ),
    "validate": (
        "experiment.seed=20260808\nvalidate.criteria=A2,A8,A11\n",
        {
            "validate.csv":
                "3f07e5b691fddc3c4bf8ac16e99d4ddae4aa81e1060923f2ccc2eef2a0d81356",
            "validate.json":
                "44f45b41af7eb9bc447b3037aa36a04ffe92d21a706fb113b91fd180713eea54",
        },
    ),
}


@pytest.mark.parametrize("kind", GOLDEN)
def test_outputs_match_the_recorded_digests(tmp_path, kind):
    text, digests = GOLDEN[kind]
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert run_cli([kind, "--config", cfg, "--out", out]) == 0
    got = {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in out.iterdir() if f.name != "manifest.json"
    }
    assert got == digests


def test_manifest_lists_every_output_with_correct_hash(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        experiment.kind=rde
        experiment.seed=5
        model.alpha=0.5
        model.beta=0.25
        model.h=0.0
        model.p=2
        disorder.family=rademacher
        rde.pop_size=2000
        rde.max_gens=15
        """,
        name="rde.txt",
    )
    out = tmp_path / "out"
    assert run_cli(["rde", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    emitted = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
    listed = sorted(entry["path"] for entry in manifest["outputs"])
    assert emitted == listed
    for entry in manifest["outputs"]:
        digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, BASE_SIM)
    run_cli(["simulate", "--config", cfg, "--out", tmp_path / "s1"])
    run_cli(["simulate", "--config", cfg, "--out", tmp_path / "s2", "--seed", 99])
    assert (tmp_path / "s1" / "simulate.csv").read_bytes() != (
        tmp_path / "s2" / "simulate.csv"
    ).read_bytes()


def test_csv_floats_round_trip_float64(tmp_path):
    cfg = write_cfg(tmp_path, BASE_SIM)
    out = tmp_path / "rt"
    run_cli(["simulate", "--config", cfg, "--out", out])
    lines = (out / "simulate.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["replicate", "n_clauses", "log_det",
                      "ones_quadratic_form", "free_energy"]
    first = lines[1].split(",")
    ld, quad, f = map(float, first[2:])
    n = 100
    assert f == 1.0**2 / 2 * quad + ld / (2 * n)  # exact float identity


# ---------------------------------------------------------------------------
# config validation


def test_invalid_p_names_offending_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE_SIM.replace("model.p=2", "model.p=0"))
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "model.p" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, old, new",
    [
        ("model.alpha", "model.alpha=0.8", "model.alpha=inf"),
        ("model.beta", "model.beta=0.5", "model.beta=inf"),
        ("model.alpha", "model.alpha=0.8", "model.alpha=1e300"),
        ("model.beta", "model.beta=0.5", "model.beta=1e308"),
        ("disorder.param", "disorder.family=rademacher",
         "disorder.family=gaussian\ndisorder.param=inf"),
        ("model.p='abc'", "model.p=2", "model.p=abc"),
        pytest.param("simulate.n_sites", "simulate.n_sites=100",
                     "simulate.n_sites=" + "9" * 400, id="simulate.n_sites-400-digits"),
    ],
)
def test_non_finite_model_input_names_offending_key(tmp_path, capsys, key, old, new):
    cfg = write_cfg(tmp_path, BASE_SIM.replace(old, new))
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, key)


def test_uniform_width_past_float_range_exits_2(tmp_path, capsys):
    # numpy's uniform(-param, param) cannot draw a width 2*param of inf
    cfg = write_cfg(tmp_path, BASE_SIM.replace(
        "disorder.family=rademacher", "disorder.family=uniform_symmetric\ndisorder.param=1e308"))
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, "2*param")


@pytest.mark.parametrize("kind, extra", [("rde", ""), ("free-energy", "quadrature.nodes=2\n")])
def test_population_that_cannot_split_names_pop_size(tmp_path, capsys, kind, extra):
    # the stop compares the bracket with the population's SE of the mean
    cfg = write_cfg(tmp_path, RDE_SMALL.replace("rde.pop_size=2000", "rde.pop_size=1") + extra)
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, "rde.pop_size", "at least 2")


@pytest.mark.parametrize(
    "setting",
    [
        "model.gamma=1",
        "free_energy.warm_start=false",
        "rde.init=0.5",
        "quadrature.kind=midpoint",
    ],
)
def test_unknown_key_rejected(tmp_path, capsys, setting):
    cfg = write_cfg(tmp_path, BASE_SIM + setting + "\n")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, setting.split("=")[0])


def test_malformed_line_reports_line_number(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment.seed=1\nthis is not a setting\n")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_kind_mismatch_rejected(tmp_path):
    cfg = write_cfg(tmp_path, BASE_SIM)
    assert run_cli(["rde", "--config", cfg, "--out", tmp_path / "o"]) == 2


def test_missing_required_keys_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "experiment.kind=simulate\nmodel.alpha=1.0\n")
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert "missing required" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert run_cli(["simulate", "--config", tmp_path / "nope.txt",
                    "--out", tmp_path / "o"]) == 2


def test_n_sites_must_cover_arity(tmp_path):
    cfg = write_cfg(tmp_path, BASE_SIM.replace("simulate.n_sites=100",
                                               "simulate.n_sites=1"))
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 2


def assert_one_config_error(err, *keys):
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    for key in keys:
        assert key in err


# each kind's config adds the keys only it reads to the one before
BASE_RDE = """
experiment.seed=10
model.alpha=0.5
model.beta=0.25
model.h=1.0
model.p=2
disorder.family=rademacher
rde.pop_size=2000
"""
BASE_LIMIT = BASE_RDE + "quadrature.nodes=2\nfree_energy.n_mc=1000\n"
BASE_CONV = BASE_LIMIT + "convergence.n_grid=20,40\nconvergence.seeds_per_n=2\n"


def test_convergence_n_grid_must_cover_arity(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the study started")

    monkeypatch.setattr(cli, "convergence_study", never)
    cfg = write_cfg(tmp_path, BASE_CONV.replace("=20,40", "=1,50"))
    assert run_cli(["convergence", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, "convergence.n_grid")


class StopAfterLimitCall(Exception):
    pass


@pytest.mark.parametrize(
    "extra, max_gens", [("", 500), ("rde.max_gens=7\n", 7)], ids=["defaults", "set"]
)
def test_convergence_passes_max_gens(tmp_path, monkeypatch, extra, max_gens):
    seen = {}

    def spy(*args, **kwargs):
        seen.update(kwargs)
        raise StopAfterLimitCall

    monkeypatch.setattr(free_energy, "limiting_free_energy", spy)
    cfg = write_cfg(tmp_path, BASE_CONV + extra)
    with pytest.raises(StopAfterLimitCall):
        run_cli(["convergence", "--config", cfg, "--out", tmp_path / "o"])
    assert seen["max_gens"] == max_gens


VALID_MODEL_FILE = "10 2 0.5 0.5 1 2 rademacher 1 inf\n1 2 1 -1\n3 4 1 1\n"


@pytest.mark.parametrize(
    "text, fault",
    [
        (None, "No such file"),
        (VALID_MODEL_FILE.replace("10 2 ", "10 3 ", 1), "promises 3 clauses, found 2"),
        (VALID_MODEL_FILE.replace("3 4 1 1", "99 4 1 1"), "site index out of range"),
        (VALID_MODEL_FILE.replace("0.5 0.5 1 2", "0.5 0.5 nan 2"), "h must be finite"),
        (VALID_MODEL_FILE.replace("0.5 0.5 1 2", "inf 0.5 1 2"), "alpha must be finite"),
        (VALID_MODEL_FILE.replace("0.5 0.5 1 2", "0.5 1e308 1 2"),
         "2*beta must be finite"),
        (VALID_MODEL_FILE.replace("0.5 0.5 1 2", "0.5 0.5 1e200 2"), "h*h must be finite"),
        (VALID_MODEL_FILE.replace("1 2 1 -1", "1 2 nan -1"),
         "clause line 2 has a non-finite weight"),
        ("4 1 0.5 0.25 1 2 rademacher 1 inf\n1 1 1 1\n", "clause line 2 repeats a site"),
        (VALID_MODEL_FILE.replace("10 2 ", "100000000000 2 ", 1), "physical memory"),
        (VALID_MODEL_FILE.replace("10 2 ", "9" * 30 + " 2 ", 1), "too large"),
    ],
    ids=["missing", "clause-count-mismatch", "site-out-of-range", "h-nan",
         "alpha-inf", "beta-overflows", "h-square-overflows", "weight-nan", "site-repeated",
         "n-beyond-memory", "n-beyond-int64"],
)
def test_bad_load_file_exits_2_without_traceback(tmp_path, capsys, text, fault):
    model_path = tmp_path / "model.txt"
    if text is not None:
        model_path.write_text(text, encoding="utf-8")
    cfg = write_cfg(tmp_path, f"load.path={model_path}", name="load.txt")
    assert run_cli(["load", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, "load.path", fault)


@pytest.mark.parametrize(
    "kind, text, keys",
    [
        ("simulate", BASE_SIM.replace("model.alpha=0.8", "model.alpha=1e15")
         .replace("simulate.n_sites=100", "simulate.n_sites=50"),
         ("simulate.n_sites", "model.alpha")),
        ("rde", BASE_SIM.replace("experiment.kind=simulate", "experiment.kind=rde")
         .replace("model.alpha=0.8", "model.alpha=1e12").replace("simulate.n_sites=100\n", "")
         .replace("simulate.replicates=4\n", "") + "rde.pop_size=1000\n",
         ("rde.pop_size", "model.alpha")),
        ("free-energy", BASE_LIMIT.replace("free_energy.n_mc=1000",
                                           "free_energy.n_mc=100000000000000"),
         ("free_energy.n_mc",)),
        ("free-energy", BASE_LIMIT.replace("quadrature.nodes=2",
                                           "quadrature.nodes=100000000000"),
         ("quadrature.nodes",)),
        ("free-energy", BASE_LIMIT.replace("free_energy.n_mc=1000",
                                           "free_energy.n_mc=" + "9" * 400),
         ("free_energy.n_mc", "64 bits")),
        ("simulate", BASE_SIM.replace("model.alpha=0.8", "model.alpha=1e-9")
         .replace("simulate.n_sites=100", "simulate.n_sites=100000000000"),
         ("simulate.n_sites", "factored")),
        ("simulate", BASE_SIM.replace("simulate.n_sites=100", "simulate.n_sites=2")
         .replace("simulate.replicates=4", "simulate.replicates=1000000000000"),
         ("simulate.replicates", "fan-out")),
    ],
    ids=["simulate", "rde", "free-energy-n_mc", "free-energy-nodes",
         "free-energy-n_mc-400-digits", "simulate-factor-workspace", "simulate-replicates"],
)
def test_config_beyond_physical_memory_rejected(tmp_path, capsys, kind, text, keys):
    cfg = write_cfg(tmp_path, text)
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, *keys)


def test_memory_guard_counts_one_generation(tmp_path, capsys, monkeypatch):
    # ((12*p + 16)*alpha*p + 44) * pop_size bytes: one generation's clause
    # draws with its gather and the bottom chain's sums, plus the chains
    need = ((12 * 2 + 16) * 0.5 * 2 + 44) * 1000
    cfg = write_cfg(tmp_path, RDE_SMALL.replace("disorder.truncation=2.0", "")
                    .replace("rde.pop_size=2000", "rde.pop_size=1000"))
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    assert run_cli(["rde", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, "rde.pop_size", "an RDE generation's draws")
    monkeypatch.setattr(cli, "_physical_memory", lambda: need + 1)
    assert run_cli(["rde", "--config", cfg, "--out", tmp_path / "o"]) == 0
    capsys.readouterr()

    # min(workers, replicates) = 2 realizations factored at once, each
    # SITE_BYTES per site plus 16*p bytes per clause at alpha*N clauses
    need = 2 * (cli.SITE_BYTES + 16 * 2 * 0.8) * 100
    cfg = write_cfg(tmp_path, BASE_SIM)
    args = ["simulate", "--config", cfg, "--out", tmp_path / "s", "--workers", 2]
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    assert run_cli(args) == 2
    assert_one_config_error(capsys.readouterr().err, "simulate.n_sites", "2 factored")
    monkeypatch.setattr(cli, "_physical_memory", lambda: need + 1)
    assert run_cli(args) == 0


def _guarded(kind, text, setting, workers=1):
    """A config's options and the bytes the guard counts on the row of ``setting``."""
    raw = cli.parse_config_text(text)
    options = cli.build_config(kind, raw).options
    (need,) = [need for key, _, _, need in cli._allocations(kind, options, raw, workers)
               if key.startswith(setting + "=")]
    return options, need


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_guard_counts_one_push():
    # the RDE row counts a whole solve from the cold start within a quarter
    # of what it holds, clause-heavy at p = 2 and 3 and at p = 10
    for p, alpha in ((2, 1.0), (3, 1.0), (10, 0.5)):
        options, need = _guarded(
            "rde", RDE_SMALL.replace("model.alpha=0.5", f"model.alpha={alpha}")
            .replace("model.p=2", f"model.p={p}").replace("disorder.truncation=2.0", "")
            .replace("rde.pop_size=2000", "rde.pop_size=100000"),
            "rde.pop_size",
        )
        params, spec = cli._model_pieces(options)
        peak = _traced_peak(lambda: solve_fixed_point(
            params, spec, np.random.default_rng(25), pop_size=100_000, max_gens=12))
        assert peak <= need <= 1.25 * peak, p


@pytest.mark.parametrize("p", [1, 2, 3])
def test_memory_guard_counts_one_edge_term(p):
    # 24 * n_mc bytes at any p, within a quarter of the 21 that the sums,
    # one column's weights and its int32 resample indices hold
    options, need = _guarded(
        "free-energy", RDE_SMALL.replace("model.p=2", f"model.p={p}")
        + "quadrature.nodes=2\nfree_energy.n_mc=200000\n", "free_energy.n_mc",
    )
    params, spec = cli._model_pieces(options)
    pop, rng = Population(np.linspace(0.1, 1.0, 1000)), np.random.default_rng(24)
    peak = _traced_peak(lambda: free_energy.edge_term(pop, params, spec, 200_000, rng))
    assert peak <= need <= 1.25 * peak


def test_memory_guard_counts_what_a_limit_holds():
    # at vanishing rate each solve of a limit holds about five arrays per
    # output: the two chains and one new chain with its bincount;
    # min(workers, 4 nodes) solves run at once
    for workers in (1, 2):
        options, need = _guarded(
            "free-energy", BASE_RDE.replace("model.alpha=0.5", "model.alpha=0.02")
            .replace("model.p=2", "model.p=1").replace("rde.pop_size=2000", "rde.pop_size=200000")
            + "quadrature.nodes=4\nfree_energy.n_mc=2000\n", "rde.pop_size", workers,
        )
        params, spec = cli._model_pieces(options)
        peak = _traced_peak(lambda: free_energy.limiting_free_energy(
            params, spec, 4, np.random.default_rng(24), pop_size=200_000, n_mc=2000,
            workers=workers,
        ))
        assert peak <= need + 64 * 1024, workers


def test_memory_guard_counts_the_population_an_edge_term_reads():
    # the edge term's 24 bytes per draw come on top of the node's
    # population, 8 bytes per output
    options, need = _guarded(
        "free-energy", BASE_RDE.replace("model.alpha=0.5", "model.alpha=0.02")
        .replace("rde.pop_size=2000", "rde.pop_size=200000")
        + "quadrature.nodes=2\nfree_energy.n_mc=1000000\n", "free_energy.n_mc",
    )
    params, spec = cli._model_pieces(options)
    peak = _traced_peak(lambda: free_energy.limiting_free_energy(
        params, spec, 2, np.random.default_rng(24), pop_size=200_000, n_mc=1_000_000
    ))
    assert peak <= need + 64 * 1024


@pytest.mark.parametrize(
    "n_sites, entries",
    [(200, 200 + 20 * 19 * 0.5 * 200), (100, 100**2)],
    ids=["clause-bound", "dense"],
)
def test_memory_guard_counts_the_matrix_entries(tmp_path, capsys, monkeypatch,
                                                n_sites, entries):
    # 2 realizations held at once, each with at most min(N^2, N + p*(p-1)*alpha*N)
    # entries of A; the SITE_BYTES and 16*p clause row stays far below that
    need = 2 * cli.ENTRY_BYTES * entries
    cfg = write_cfg(tmp_path, BASE_SIM.replace("model.alpha=0.8", "model.alpha=0.5")
                    .replace("model.p=2", "model.p=20")
                    .replace("simulate.n_sites=100", f"simulate.n_sites={n_sites}"))
    args = ["simulate", "--config", cfg, "--out", tmp_path / "s", "--workers", 2]
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    assert run_cli(args) == 2
    assert_one_config_error(capsys.readouterr().err, "simulate.n_sites", "matrix entries")
    monkeypatch.setattr(cli, "_physical_memory", lambda: need + 1)
    assert run_cli(args) == 0


def test_load_guard_counts_the_matrix_entries(tmp_path, capsys, monkeypatch):
    # 10 clauses of 20 sites on 40 sites: A may be dense, 40^2 entries, while
    # SITE_BYTES per site and 16*p per clause come to less than a third of that
    sites = (np.arange(20) + 2 * np.arange(10)[:, None]) % 40
    model = FactorModel(40, sites, np.ones((10, 20)), ModelParams(0.5, 0.5, 1.0, 20),
                        DisorderSpec("rademacher"))
    dump_model(model, tmp_path / "model.txt")
    need = cli.ENTRY_BYTES * 40**2
    cfg = write_cfg(tmp_path, f"load.path={tmp_path / 'model.txt'}", name="load.txt")
    monkeypatch.setattr(cli, "_physical_memory", lambda: need - 1)
    assert run_cli(["load", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, "load.path", "matrix entries")
    monkeypatch.setattr(cli, "_physical_memory", lambda: need + 1)
    assert run_cli(["load", "--config", cfg, "--out", tmp_path / "o"]) == 0


def test_memory_guard_counts_what_the_quadrature_rule_holds():
    # the eigenvalue routine's copy and workspace are LAPACK's own, which
    # tracemalloc does not see, so the peak RSS is read; a smaller rule
    # first pays BLAS's one-off buffers, which do not grow with the rule.
    # A child's ru_maxrss starts at its parent's peak on Linux, so the
    # child reads the peak of its own address space, VmHWM.
    _, need = _guarded("free-energy", BASE_LIMIT.replace("quadrature.nodes=2",
                                                         "quadrature.nodes=1000"),
                       "quadrature.nodes")
    grown = run_python(
        "from quadglass.free_energy import gauss_radau\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        kib = next(line.split()[1] for line in fh if line.startswith('VmHWM:'))\n"
        "    return 1024 * int(kib)\n"
        "gauss_radau(300)\n"
        "before = peak()\n"
        "gauss_radau(1000)\n"
        "print(peak() - before)\n"
    )
    assert 8 * 1000**2 < int(grown) <= need


# each (kind, config, out) triple of argv in one process; after each run,
# whether any scipy module is loaded
RUNS_THEN_SCIPY = """
import json, sys
import quadglass, quadglass.cli as cli
seen = []
for kind, cfg, out in zip(*[iter(sys.argv[1:])] * 3):
    code = cli.main([kind, "--config", cfg, "--out", out, "--workers", "1"])
    seen.append([kind, code, any(name.split(".")[0] == "scipy" for name in sys.modules)])
print(json.dumps(seen))
"""


def test_fixed_point_kinds_never_load_scipy(tmp_path):
    # the limit route never forms a matrix, so scipy loads only with the
    # first factorization; the simulate run shows the check can see it load
    rde = write_cfg(tmp_path, RDE_SMALL.replace("rde.max_gens=40", "rde.max_gens=20"), "rde.txt")
    limit = write_cfg(tmp_path, rde.read_text() + "quadrature.nodes=2\nfree_energy.n_mc=2000\n",
                      "limit.txt")
    sim = write_cfg(tmp_path, BASE_SIM.replace("simulate.n_sites=100", "simulate.n_sites=50")
                    .replace("simulate.replicates=4", "simulate.replicates=1"), "sim.txt")
    seen = run_python(RUNS_THEN_SCIPY, "rde", rde, tmp_path / "r", "free-energy", limit,
                      tmp_path / "f", "simulate", sim, tmp_path / "s")
    assert json.loads(seen) == [["rde", 0, False], ["free-energy", 0, False],
                                ["simulate", 0, True]]


def test_dump_never_factors_so_only_its_clauses_count(tmp_path):
    # 100 clauses on 1e11 sites: a factor would not fit, the clause arrays do
    cfg = write_cfg(tmp_path, BASE_SIM.replace("model.alpha=0.8", "model.alpha=1e-9")
                    .replace("simulate.n_sites=100", "dump.n_sites=100000000000")
                    .replace("simulate.replicates=4", "").replace("simulate", "dump"))
    assert run_cli(["dump", "--config", cfg, "--out", tmp_path / "o"]) == 0


def test_rde_poisson_mean_past_numpy_limit_names_pop_size(tmp_path, capsys, monkeypatch):
    # alpha*p*pop_size = 2e19 is past numpy's limit though alpha*p = 2e17 is not
    monkeypatch.setattr(cli, "_physical_memory", lambda: math.inf)
    cfg = write_cfg(tmp_path, RDE_SMALL.replace("model.alpha=0.5", "model.alpha=1e17")
                    .replace("rde.pop_size=2000", "rde.pop_size=100"))
    assert run_cli(["rde", "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, "rde.pop_size", "Poisson mean")


@pytest.mark.parametrize(
    "kind, config, out, flags, keys",
    [
        ("validate", b"validate.criteria=\n", "o", (), ("validate.criteria",)),
        ("validate", b"validate.criteria= , \n", "o", (), ("validate.criteria",)),
        ("validate", b"validate.criteria=A1,A1\n", "o", (),
         ("validate.criteria", "A1 more than once")),
        ("validate", b"validate.scale=0.2\n", "o", (), ("unknown config keys: validate.scale",)),
        ("rde", (BASE_RDE + "rde.tol=1e-3\n").encode(), "o", (),
         ("unknown config keys: rde.tol",)),
        ("rde", (BASE_RDE + "rde.rate_scale=0.3\n").encode(), "o", (),
         ("unknown config keys: rde.rate_scale",)),
        ("free-energy", (BASE_CONV + "rde.rate_scale=0.3\n").encode(), "o", (),
         ("unknown config keys: rde.rate_scale",)),
        ("convergence", (BASE_CONV + "rde.rate_scale=0.3\n").encode(), "o", (),
         ("unknown config keys: rde.rate_scale",)),
        ("convergence", BASE_CONV.replace("=20,40", "=20,20,20").encode(), "o", (),
         ("convergence.n_grid", "distinct")),
        ("convergence", BASE_CONV.replace("=20,40", "=20,20,40").encode(), "o", (),
         ("convergence.n_grid", "distinct")),
        ("simulate", BASE_SIM.encode() + b"# caf\xe9\n", "o", (), ("config.txt",)),
        ("simulate", BASE_SIM.encode(), "blocker", (), ("--out", "blocker")),
        ("simulate", BASE_SIM.encode(), "blocker/sub", (), ("--out", "blocker/sub")),
        ("simulate", BASE_SIM.encode(), "o", ("--workers", 0), ("--workers",)),
        ("simulate", BASE_SIM.encode(), "o", ("--workers", -4), ("--workers",)),
        ("free-energy", BASE_LIMIT.replace("model.h=1.0", "model.h=1e200").encode(), "o", (),
         ("model.h", "h*h finite")),
        ("simulate", (BASE_SIM + "disorder.param=3\n").encode(), "o", (),
         ("rademacher", "param must be 1", "two_point_symmetric")),
    ],
    ids=["criteria-empty", "criteria-only-commas", "criteria-repeated", "scale-is-unknown",
         "tol-is-unknown", "rate-scale-is-unknown", "free-energy-rate-scale",
         "convergence-rate-scale", "n-grid-all-equal", "n-grid-repeats", "config-not-utf8",
         "out-is-a-file", "out-under-a-file", "workers-zero", "workers-negative",
         "h-square-overflows", "rademacher-param-is-not-1"],
)
def test_unusable_cli_input_exits_2_naming_it(tmp_path, capsys, kind, config, out, flags,
                                              keys):
    cfg = tmp_path / "config.txt"
    cfg.write_bytes(config)
    (tmp_path / "blocker").write_text("a file, not a directory\n", encoding="utf-8")
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / out, *flags]) == 2
    assert_one_config_error(capsys.readouterr().err, *keys)


def test_readme_model_passes_memory_guard():
    raw = cli.parse_config_text(
        """
        experiment.kind=free-energy
        experiment.seed=42
        model.alpha=0.5
        model.beta=0.25
        model.h=1.0
        model.p=2
        disorder.family=rademacher
        rde.pop_size=100000
        quadrature.nodes=16
        free_energy.n_mc=200000
        """
    )
    for kind in ("free-energy", "convergence", "rde"):
        if kind == "rde":  # it reads no quadrature or edge-term key
            del raw["quadrature.nodes"], raw["free_energy.n_mc"]
        raw["experiment.kind"] = kind
        assert cli.build_config(kind, raw).kind == kind


# a valid value for every settable key
VALID = {
    "experiment.seed": "1", "model.alpha": "0.5", "model.beta": "0.25", "model.h": "1.0",
    "model.p": "2", "disorder.family": "rademacher", "disorder.param": "1.0",
    "disorder.truncation": "inf", "simulate.n_sites": "10", "simulate.replicates": "2",
    "rde.pop_size": "100", "rde.max_gens": "5",
    "quadrature.kind": "gauss", "quadrature.nodes": "2", "free_energy.n_mc": "100",
    "convergence.n_grid": "10,20", "convergence.seeds_per_n": "2", "validate.criteria": "A1",
    "dump.n_sites": "10", "load.path": "model.txt",
}
UNREAD = [(kind, key) for kind in cli.KINDS for key in cli.KEY_SPECS
          if key != "experiment.kind" and key not in cli.KIND_KEYS[kind]]


@pytest.mark.parametrize("kind, key", UNREAD, ids=[f"{kind}-{key}" for kind, key in UNREAD])
def test_key_the_kind_does_not_read_is_rejected(tmp_path, capsys, kind, key):
    required = [k for k in cli.KIND_KEYS[kind] if cli.KEY_SPECS[k][1] is None]
    cfg = write_cfg(tmp_path, "".join(f"{k}={VALID[k]}\n" for k in [*required, key]))
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / "o"]) == 2
    assert_one_config_error(capsys.readouterr().err, key, repr(kind))


def test_every_key_is_read_by_some_kind_and_digested_by_exactly_its_kinds(monkeypatch):
    assert set(VALID) == set(cli.KEY_SPECS) - {"experiment.kind"}
    assert set(VALID) == {key for keys in cli.KIND_KEYS.values() for key in keys}
    payloads = []

    def sha256(data):
        payloads.append(data.decode("utf-8"))
        return hashlib.sha256(data)

    monkeypatch.setattr(cli, "hashlib", SimpleNamespace(sha256=sha256))
    for kind in cli.KINDS:
        config = cli.build_config(kind, {k: VALID[k] for k in cli.KIND_KEYS[kind]})
        config.digest()
        keys = [line.split("=", 1)[0] for line in payloads[-1].splitlines()]
        assert keys == ["experiment.kind", *sorted(cli.KIND_KEYS[kind])]


# ---------------------------------------------------------------------------
# subcommand outputs


def test_dump_then_load_round_trip(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        experiment.seed=21
        model.alpha=1.0
        model.beta=0.5
        model.h=1.0
        model.p=2
        disorder.family=gaussian
        disorder.param=1.0
        dump.n_sites=60
        """,
        name="dump.txt",
    )
    out = tmp_path / "dumped"
    assert run_cli(["dump", "--config", cfg, "--out", out]) == 0
    model = load_model(out / "model.txt")
    assert model.n_sites == 60

    load_cfg = write_cfg(
        tmp_path, f"load.path={out / 'model.txt'}", name="load.txt"
    )
    out2 = tmp_path / "loaded"
    assert run_cli(["load", "--config", load_cfg, "--out", out2]) == 0
    row = (out2 / "loaded.csv").read_text().splitlines()[1].split(",")
    assert int(row[0]) == 60
    assert float(row[4]) == pytest.approx(finite_free_energy(model), rel=1e-12)


def test_text_files_match_golden_bytes(tmp_path):
    # ints, 17-digit floats, inf, LF line ends and a trailing newline
    params = ModelParams(0.5, 0.0, 0.1, 2)
    model = FactorModel(5, [[0, 4], [1, 2], [3, 0]], [[1.0, -0.1], [2.5, 1 / 3], [-1e-20, 7.0]],
                        params, DisorderSpec("gaussian", 1.0, math.inf))
    dump_model(model, tmp_path / "model.txt")
    assert (tmp_path / "model.txt").read_bytes() == (
        b"5 3 0.5 0 0.10000000000000001 2 gaussian 1 inf\n"
        b"1 5 1 -0.10000000000000001\n"
        b"2 3 2.5 0.33333333333333331\n"
        b"4 1 -9.9999999999999995e-21 7\n"
    )
    dump_population(Population([0.5, 0.25, 1 / 3, 1.0], rate=1.5, generation=7),
                    tmp_path / "pop.txt")
    assert (tmp_path / "pop.txt").read_bytes() == (
        b"unit_interval 1.5 7 4\n0.5\n0.25\n0.33333333333333331\n1\n"
    )
    # at beta = 0, A = I: log det 0, quadratic form 1, F_N = h^2/2
    cfg = write_cfg(tmp_path, f"load.path={tmp_path / 'model.txt'}", name="load.txt")
    assert run_cli(["load", "--config", cfg, "--out", tmp_path / "o"]) == 0
    assert (tmp_path / "o" / "loaded.csv").read_bytes() == (
        b"n_sites,n_clauses,log_det,ones_quadratic_form,free_energy\n"
        b"5,3,0,1,0.005000000000000001\n"
    )


def test_rde_outputs_trajectory_and_population(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        experiment.seed=8
        model.alpha=0.5
        model.beta=0.25
        model.h=0.0
        model.p=2
        disorder.family=rademacher
        rde.pop_size=3000
        rde.max_gens=20
        """,
        name="rde.txt",
    )
    out = tmp_path / "rde"
    assert run_cli(["rde", "--config", cfg, "--out", out]) == 0
    lines = (out / "rde_trajectory.csv").read_text().splitlines()
    summary = json.loads((out / "rde_summary.json").read_text())
    generations = summary["generations"]
    assert lines[0] == "generation,bracket"
    assert len(lines) == generations + 1
    brackets = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b >= 0 for b in brackets)
    assert summary["bracket"] == brackets[-1]
    assert summary["converged"] is True
    pop = load_population(out / "population.txt")
    assert pop.size == 3000
    assert pop.generation == generations


def test_free_energy_json_schema(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        experiment.seed=9
        model.alpha=0.5
        model.beta=0.25
        model.h=1.0
        model.p=2
        disorder.family=rademacher
        rde.pop_size=5000
        rde.max_gens=60
        quadrature.nodes=4
        free_energy.n_mc=5000
        """,
        name="fe.txt",
    )
    out = tmp_path / "fe"
    assert run_cli(["free-energy", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "free_energy.json").read_text())
    assert set(payload) == {
        "value", "std_error", "nodes", "h_term", "converged", "config_digest",
    }
    # the x = 1 solve behind h_term is the first node, reported as every node is
    assert len(payload["nodes"]) == 4
    assert payload["nodes"][0]["x"] == 1.0
    for node in payload["nodes"]:
        assert set(node) == {"x", "rate", "edge_term", "se", "converged", "bracket"}
        assert isinstance(node["converged"], bool)
        assert node["bracket"] >= 0
    assert math.isfinite(payload["value"])


def test_free_energy_survives_a_generation_without_clauses(tmp_path, capsys):
    # the README model at a small population: node 1 (x ~ 0.0053) draws
    # Poisson(0.27) clauses per generation, none at all in some of them
    cfg = write_cfg(
        tmp_path,
        """
        experiment.seed=1
        model.alpha=0.5
        model.beta=0.25
        model.h=1.0
        model.p=2
        disorder.family=rademacher
        rde.pop_size=50
        quadrature.nodes=16
        free_energy.n_mc=200000
        """,
    )
    assert run_cli(["free-energy", "--config", cfg, "--out", tmp_path / "fe"]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("h", ["1.0", "0.0"], ids=["field", "no-field"])
def test_unconverged_free_energy_reports_the_x1_solve(tmp_path, capsys, h):
    # x = 1 is a node at any h, and the warning names it with the others
    cfg = write_cfg(tmp_path, BASE_LIMIT.replace("model.h=1.0", f"model.h={h}")
                    + "rde.max_gens=1\n")
    out = tmp_path / "fe"
    assert run_cli(["free-energy", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "free_energy.json").read_text())
    assert payload["converged"] is False
    assert [n["converged"] for n in payload["nodes"]] == [False, False]
    assert payload["nodes"][0]["x"] == 1.0
    err = capsys.readouterr().err
    assert "unconverged quadrature nodes: 2 of 2)" in err
    assert "x=1: bracket" in err and f"x={payload['nodes'][1]['x']:.4g}: bracket" in err


def test_convergence_csv_schema(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
        experiment.seed=10
        model.alpha=0.5
        model.beta=0.25
        model.h=1.0
        model.p=2
        disorder.family=rademacher
        rde.pop_size=5000
        rde.max_gens=60
        quadrature.nodes=4
        free_energy.n_mc=5000
        convergence.n_grid=60,120
        convergence.seeds_per_n=3
        """,
        name="conv.txt",
    )
    out = tmp_path / "conv"
    assert run_cli(["convergence", "--config", cfg, "--out", out]) == 0
    lines = (out / "convergence.csv").read_text().splitlines()
    assert lines[0] == "N,mean_F,std_F,limit,gap,limit_converged"
    assert len(lines) == 3
    assert [int(line.split(",")[0]) for line in lines[1:]] == [60, 120]
    assert {line.split(",")[-1] for line in lines[1:]} in ({"true"}, {"false"})


@pytest.mark.parametrize("kind", ["rde", "convergence"])
def test_unconverged_fixed_point_warns_once(tmp_path, capsys, kind):
    # one generation leaves the chains far apart at any seed
    cfg = write_cfg(tmp_path, {"rde": BASE_RDE, "convergence": BASE_CONV}[kind]
                    + "rde.max_gens=1\n")
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / "o"]) == 0
    err = capsys.readouterr().err
    assert err.startswith(f"warning: {kind} did not converge") and err.count("\n") == 1
    flag = {"rde": "converged=false", "convergence": "limit_converged=false"}[kind]
    assert flag in err


@pytest.mark.parametrize("kind, p", [
    *((kind, p) for kind in ("rde", "free-energy", "convergence") for p in (2, 3)),
    ("rde", 1), ("free-energy", 1),
])
def test_rde_generation_past_float_range_exits_4_without_traceback(tmp_path, capsys, kind, p):
    base = {"rde": BASE_RDE, "free-energy": BASE_LIMIT, "convergence": BASE_CONV}[kind]
    if p == 1:
        # each +-1 clause adds a finite 2*beta = 1e308 to its owner's total,
        # and an owner of two clauses sums past the float range
        edits = {"model.beta=0.25": "model.beta=5e307", "model.alpha=0.5": "model.alpha=1.0",
                 "model.p=2": "model.p=1", "rde.pop_size=2000": "rde.pop_size=1000"}
    else:
        # 2*beta is finite, but gaussian weights push 2*beta*z^2 past the float range
        edits = {"model.beta=0.25": "model.beta=1e307", "model.p=2": f"model.p={p}",
                 "rademacher": "gaussian", "rde.pop_size=2000": "rde.pop_size=200"}
    for old, new in edits.items():
        base = base.replace(old, new)
    cfg = write_cfg(tmp_path, base + "rde.max_gens=5\n")
    assert run_cli([kind, "--config", cfg, "--out", tmp_path / "o"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"numerical failure in {kind}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_numerical_failure_in_a_pooled_sweep_point_exits_4(tmp_path, capsys):
    # 2*beta*z^2 overflows in a generation or in the edge term of a sweep
    # point, an item of a 2-worker pool; the error reaches the caller's thread
    cfg = write_cfg(tmp_path, BASE_LIMIT.replace("model.beta=0.25", "model.beta=1e307")
                    .replace("rademacher", "gaussian")
                    .replace("rde.pop_size=2000", "rde.pop_size=200") + "rde.max_gens=5\n")
    args = ["free-energy", "--config", cfg, "--out", tmp_path / "o", "--workers", 2]
    assert run_cli(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in free-energy: ") and "left the float range" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_thinned_edge_density_that_underflows_exits_4(tmp_path, capsys):
    # alpha = 5e-324 is positive, but alpha*x rounds to 0 at every node
    cfg = write_cfg(tmp_path, BASE_LIMIT.replace("model.alpha=0.5", "model.alpha=5e-324"))
    assert run_cli(["free-energy", "--config", cfg, "--out", tmp_path / "o"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in free-energy: the edge density alpha*x underflows")
    assert err.count("\n") == 1


@pytest.mark.parametrize("param", ["1e200", "1e154"])
def test_weights_past_float_range_fail_in_the_assembly(tmp_path, capsys, param):
    # disorder.param is finite, but the products 2*beta*w_i*w_j of its weights are not;
    # numpy's overflow warning on the way would be an error under the pytest settings
    cfg = write_cfg(tmp_path, BASE_SIM.replace("rademacher", f"gaussian\ndisorder.param={param}")
                    .replace("simulate.n_sites=100", "simulate.n_sites=50"))
    assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in simulate: assembly left the float range")
    assert err.count("\n") == 1


def test_summed_entry_past_float_range_fails_in_the_assembly(tmp_path, capsys):
    # each product 2*beta*w*w = 1e308 is finite; site 1's diagonal sums two of them
    model_path = tmp_path / "model.txt"
    model_path.write_text("4 2 0.5 0.5 0 2 rademacher 1 inf\n1 2 1e154 1\n1 3 1e154 1\n",
                          encoding="utf-8")
    cfg = write_cfg(tmp_path, f"load.path={model_path}", name="load.txt")
    assert run_cli(["load", "--config", cfg, "--out", tmp_path / "o"]) == 4
    err = capsys.readouterr().err
    assert err == ("numerical failure in load: assembly left the float range: "
                   "a summed entry overflowed\n")


def test_validate_subset_passes_and_writes_table(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        """
        experiment.seed=20260808
        validate.criteria=A1,A8,A11
        """,
        name="val.txt",
    )
    out = tmp_path / "val"
    assert run_cli(["validate", "--config", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "A1" in stdout and "pass" in stdout
    lines = (out / "validate.csv").read_text().splitlines()
    assert len(lines) == 4
    payload = json.loads((out / "validate.json").read_text())
    assert payload["config_digest"]
    assert [c["criterion"] for c in payload["criteria"]] == ["A1", "A8", "A11"]
    assert all(c["passed"] for c in payload["criteria"])


def test_validate_outputs_repeat_byte_for_byte(tmp_path):
    # A1 gates on its wall time; the outputs must not record it
    cfg = write_cfg(tmp_path, "experiment.seed=3\nvalidate.criteria=A1", name="val.txt")
    runs = []
    for name in ("a", "b"):
        assert run_cli(["validate", "--config", cfg, "--out", tmp_path / name]) == 0
        runs.append([(tmp_path / name / f).read_bytes()
                     for f in ("validate.csv", "validate.json")])
    assert runs[0] == runs[1]


def test_validate_json_holds_numpy_comparisons(tmp_path):
    # A10 compares against a numpy float, so its pass flag is a numpy bool
    cfg = write_cfg(tmp_path, "experiment.seed=20260808\nvalidate.criteria=A10", name="val.txt")
    out = tmp_path / "val"
    assert run_cli(["validate", "--config", cfg, "--out", out]) == 0
    payload = json.loads((out / "validate.json").read_text())
    assert [type(c["passed"]) for c in payload["criteria"]] == [bool]


def test_validate_reports_failure_with_exit_3(tmp_path, capsys, monkeypatch):
    description = acceptance.CRITERIA["A2"][0]
    monkeypatch.setitem(acceptance.CRITERIA, "A2", (
        description, lambda seed, workers: (1.0, 0.01, False, "planted")))
    cfg = write_cfg(tmp_path, "validate.criteria=A2", name="valfail.txt")
    out = tmp_path / "vf"
    assert run_cli(["validate", "--config", cfg, "--out", out]) == 3
    row = (out / "validate.csv").read_text().splitlines()[1]
    assert row.split(",") == ["A2", description, "1", "0.01", "FAIL", "planted"]
    assert "FAILED: A2" in capsys.readouterr().out


def test_validate_crash_row_keeps_the_criterion_description(tmp_path, monkeypatch):
    description = acceptance.CRITERIA["A1"][0]
    exc = RuntimeError("criterion broke")

    def broken(seed, workers):
        raise exc

    monkeypatch.setitem(acceptance.CRITERIA, "A1", (description, broken))
    cfg = write_cfg(tmp_path, "validate.criteria=A1", name="val.txt")
    out = tmp_path / "val"
    assert run_cli(["validate", "--config", cfg, "--out", out]) == 3
    row = (out / "validate.csv").read_text().splitlines()[1]
    assert row.split(",") == ["A1", description, "nan", "nan", "FAIL", repr(exc)]
    payload = json.loads((out / "validate.json").read_text())
    assert payload["criteria"] == [{
        "criterion": "A1", "description": description, "measured": None,
        "threshold": None, "passed": False, "detail": repr(exc),
    }]


def test_validate_rejects_unknown_criterion(tmp_path):
    cfg = write_cfg(tmp_path, "validate.criteria=A99", name="valbad.txt")
    assert run_cli(["validate", "--config", cfg, "--out", tmp_path / "vb"]) == 2
