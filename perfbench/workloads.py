"""The benchmark's workloads, their correctness checks and the layer map.

Each workload has a fixed *job*: a list of ops whose inputs derive from
the benchmark seed, the same on every repetition within a run.  An op
records its latency (timed here, around the benchmark's own call), how
many units of work it attempted, how many of those completed cleanly,
and any hard failure (exception, non-zero exit code, failed output
check).  Calls go through module attributes (``model.log_det``, not a
name imported at load time) so the traced run sees them.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from quadglass import cli, model, parallel, stats, streams
from quadglass.disorder import DisorderSpec
from quadglass.model import ModelParams

RADEMACHER = DisorderSpec("rademacher")
BASE_PARAMS = ModelParams(0.5, 0.25, 1.0, 2)     # README model, A3/A6
MOMENT_PARAMS = ModelParams(1.0, 0.5, 0.0, 2)    # A2/A4/A9/A10 regime

GATE_RTOL = 1e-10
GATE_SITES = 64
# Limiting free energy of the A13 model at c=2: 12 nodes gave 0.57164 and
# 0.57243 (seeds 1, 2; SE 3.7e-4), 3 nodes gave 0.5714-0.5724 over seeds
# 1-12.  The band is about 20 SE wide on each side, so new random streams
# alone cannot leave it; a wrong integrand or quadrature does.
LIMIT_BAND = (0.565, 0.580)


@dataclass
class Op:
    latency_s: float
    attempted: int = 1
    ok: int = 0
    problems: list[str] = field(default_factory=list)
    output_bytes: int = 0


def _cli_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"perfbench:{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _config_text(options: dict) -> str:
    return "".join(f"{key}={value}\n" for key, value in options.items())


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir() if p.is_file())


def _invoke(kind, config: Path, out: Path, seed: int, workers: int, check) -> Op:
    """One CLI invocation, timed; ``check(out)`` returns (ok units, problems)."""
    if out.exists():
        shutil.rmtree(out)
    start = time.perf_counter()
    try:
        code = cli.run_command(kind, config, out_dir=out, seed=seed, workers=workers)
    except Exception as exc:  # a crash is one failed op; the run goes on and reports it
        return Op(time.perf_counter() - start, problems=[f"{kind} raised {exc!r}"])
    latency = time.perf_counter() - start
    if code != 0:
        return Op(latency, problems=[f"{kind} exited with code {code}"])
    ok, problems = check(out)
    return Op(latency, ok=ok, problems=problems, output_bytes=_dir_bytes(out))


def _close(value, ref) -> bool:
    return math.isfinite(value) and abs(value - ref) <= GATE_RTOL * max(abs(ref), 1e-300)


def model_gate(params, disorder, n_sites, rng) -> list[str]:
    """Check the model observables on one realization against numpy.

    ``A`` is assembled here, clause by clause, from ``sites`` and
    ``weights``.  The reference inverse diagonal is read off columns of
    A^{-1} from ``numpy.linalg.solve`` with unit right-hand sides at a
    seeded set of sites (the same entries ``inv`` gives, at a fraction
    of its cost at N=4000).
    """
    realization = model.sample_model(params, disorder, n_sites, rng)
    a = np.eye(n_sites)
    two_beta = 2.0 * params.beta
    for sites, weights in zip(realization.sites, realization.weights):
        a[np.ix_(sites, sites)] += two_beta * np.outer(weights, weights)
    sign, ref_log_det = np.linalg.slogdet(a)
    picked = np.sort(rng.choice(n_sites, size=min(GATE_SITES, n_sites), replace=False))
    rhs = np.zeros((n_sites, picked.size + 1))
    rhs[:, 0] = 1.0
    rhs[picked, np.arange(1, picked.size + 1)] = 1.0
    cols = np.linalg.solve(a, rhs)
    ref_quad = float(cols[:, 0].sum() / n_sites)
    ref_diag = cols[picked, np.arange(1, picked.size + 1)]
    ref_free = params.h**2 / 2.0 * ref_quad + ref_log_det / (2.0 * n_sites)

    problems = []
    if sign != 1.0:
        problems.append(f"numpy slogdet sign {sign}: A is not positive definite")
    for name, got, ref in (
        ("log_det", model.log_det(realization), ref_log_det),
        ("ones_quadratic_form", model.ones_quadratic_form(realization), ref_quad),
        ("finite_free_energy", model.finite_free_energy(realization), ref_free),
    ):
        if not _close(got, ref):
            problems.append(f"{name}: {got!r} vs numpy {ref!r}")
    diag = model.inverse_diagonal(realization, picked)
    bad = [i for i, (g, r) in enumerate(zip(diag, ref_diag)) if not _close(g, r)]
    if bad:
        i = bad[0]
        problems.append(
            f"inverse_diagonal: {len(bad)} of {picked.size} sites off; "
            f"site {picked[i]}: {diag[i]!r} vs numpy {ref_diag[i]!r}"
        )
    return problems


class Workload:
    name = ""
    why = ""
    idle_layer = ""          # layer whose per-layer metrics must all read zero
    note = ""

    def __init__(self, workdir: Path, seed: int, workers: int):
        self.workdir = workdir
        self.seed = seed
        self.workers = workers
        workdir.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Write and validate configs and warm every code path the job uses."""

    def job(self) -> list[Op]:
        raise NotImplementedError

    def gate(self) -> list[str]:
        """Post-timing correctness checks; returns the problems found."""
        return []

    def _write_config(self, name: str, kind: str, options: dict) -> Path:
        path = self.workdir / name
        path.write_text(_config_text(options), encoding="utf-8")
        # the CLI validates again on every run; this makes a bad config fail set-up
        cli.build_config(kind, cli.parse_config_text(path.read_text()), workers=self.workers)
        return path

    def _warm(self, kind: str, config: Path) -> None:
        code = cli.run_command(kind, config, out_dir=self.workdir / "warm", workers=self.workers)
        if code != 0:
            raise RuntimeError(f"warm-up {kind} exited with code {code}")


_MODEL_OPTIONS = {"model.alpha": BASE_PARAMS.alpha, "model.beta": BASE_PARAMS.beta,
                  "model.h": BASE_PARAMS.h, "model.p": BASE_PARAMS.p,
                  "disorder.family": RADEMACHER.family}


class SimulateSub4k(Workload):
    name = "simulate-sub4k"
    why = ("A3/A6 path: dense F_N at N=4000, alpha=0.5 (subcritical); model does the work, "
           "two assemblies and factorizations per realization; rde idle")
    idle_layer = "rde"
    n_sites = 4000
    invocations = 2

    def setup(self):
        reps = self.workers       # one realization per worker and invocation
        self.config = self._write_config("simulate.cfg", "simulate", {
            **_MODEL_OPTIONS, "simulate.n_sites": self.n_sites, "simulate.replicates": reps})
        self._warm("simulate", self._write_config("warm.cfg", "simulate", {
            **_MODEL_OPTIONS, "simulate.n_sites": 200, "simulate.replicates": reps}))

    def job(self):
        return [
            _invoke("simulate", self.config, self.workdir / f"op{k}",
                    _cli_seed(self.name, self.seed, k), self.workers, self._check_csv)
            for k in range(self.invocations)
        ]

    def _check_csv(self, out: Path):
        lines = (out / "simulate.csv").read_text().splitlines()
        header = "replicate,n_clauses,log_det,ones_quadratic_form,free_energy"
        if lines[0] != header or len(lines) != self.workers + 1:
            return 0, [f"simulate.csv: bad header or row count in {out}"]
        h = BASE_PARAMS.h
        for line in lines[1:]:
            _, _, ld, quad, free = (float(x) for x in line.split(","))
            ref = h * h / 2.0 * quad + ld / (2.0 * self.n_sites)
            if not (ld >= 0 and 0 < quad <= 1 and _close(free, ref)):
                return 0, [f"simulate.csv row {line!r} breaks F = h^2/2*q + log_det/(2N)"]
        return 1, []

    def gate(self):
        return model_gate(BASE_PARAMS, RADEMACHER, self.n_sites,
                          streams.stream(self.seed, "perfbench", self.name, "gate"))


class CavitySuper2k(Workload):
    name = "cavity-super2k"
    why = ("A2/A4/A9/A10 path: full inverse diagonal and cavity residual at N=2000, alpha=1.0 "
           "(supercritical, fill-heavy); model used with N right-hand sides; rde idle")
    idle_layer = "rde"
    n_sites = 2000
    batches = 3

    def setup(self):
        self._batch(200, "warm")

    def _batch(self, n_sites, label):
        """nproc pooled realizations, then nproc cavity splits, all on the pool."""
        diags = stats.pooled_inverse_diagonals(
            MOMENT_PARAMS, RADEMACHER, n_sites, self.workers,
            streams.stream(self.seed, "perfbench", self.name, label, "pool"), self.workers)

        def split(i):
            rng = streams.stream(self.seed, "perfbench", self.name, label, "split", i)
            return model.woodbury_residual(
                model.cavity_split(MOMENT_PARAMS, RADEMACHER, n_sites, rng))

        return diags, parallel.parallel_map(split, range(self.workers), self.workers)

    def job(self):
        ops = []
        for k in range(self.batches):
            start = time.perf_counter()
            try:
                diags, residuals = self._batch(self.n_sites, k)
            except Exception as exc:  # a crash is one failed op; the run goes on and reports it
                ops.append(Op(time.perf_counter() - start, problems=[f"batch raised {exc!r}"]))
                continue
            latency = time.perf_counter() - start
            problems = []
            if diags.size != self.workers * self.n_sites or not (
                np.all(diags > 0) and np.all(diags <= 1.0 + 1e-12)
            ):
                problems.append("pooled inverse diagonals not all in (0, 1]")
            for res in residuals:
                if not (math.isfinite(res.residual) and res.residual >= 0
                        and math.isfinite(res.bound) and res.bound >= 0):
                    problems.append(f"woodbury_residual {res!r} not finite and nonnegative")
            ops.append(Op(latency, ok=0 if problems else 1, problems=problems))
        return ops

    def gate(self):
        return model_gate(MOMENT_PARAMS, RADEMACHER, self.n_sites,
                          streams.stream(self.seed, "perfbench", self.name, "gate"))


class LimitGaussStall(Workload):
    name = "limit-gauss-stall"
    why = ("A13 limit: Gaussian c=2 free energy with RDE defaults; rde does the work and "
           "nodes stall at the W1 sampling floor until max_gens; model idle")
    idle_layer = "model"
    note = ("free_energy.json has no converged flag for the x=1 solve that h != 0 adds, so "
            "ok_ratio counts quadrature nodes only; that solve shows in the traced rde metrics")
    nodes = 3
    # The fixed-point generation count is heavy-tailed in the stream (3-node
    # invocations took 5-18 s over CLI seeds 1-12, IQR/median 0.5), which no
    # run length the budget allows can average away.  So the RDE streams are
    # pinned to a CLI seed on which one quadrature node and the x=1 solve
    # stall at max_gens; the benchmark seed does not reach them.
    stream_seed = 4

    def setup(self):
        options = {"model.alpha": 0.5, "model.beta": 0.5, "model.h": 1.0, "model.p": 2,
                   "disorder.family": "gaussian", "disorder.param": 1.0,
                   "disorder.truncation": 2.0, "quadrature.kind": "gauss"}
        self.config = self._write_config(
            "free_energy.cfg", "free-energy", {**options, "quadrature.nodes": self.nodes})
        self._warm("free-energy", self._write_config("warm.cfg", "free-energy", {
            **options, "quadrature.nodes": 2, "rde.pop_size": 2000, "rde.max_gens": 20,
            "free_energy.n_mc": 2000}))

    def job(self):
        op = _invoke("free-energy", self.config, self.workdir / "op0", self.stream_seed,
                     self.workers, self._check_json)
        op.attempted = self.nodes
        if op.problems:
            op.ok = 0
        return [op]

    def _check_json(self, out: Path):
        result = json.loads((out / "free_energy.json").read_text())
        value, nodes = result["value"], result["nodes"]
        problems = []
        if len(nodes) != self.nodes:
            problems.append(f"free_energy.json has {len(nodes)} nodes, expected {self.nodes}")
        if not (math.isfinite(value) and LIMIT_BAND[0] <= value <= LIMIT_BAND[1]):
            problems.append(f"limiting free energy {value!r} outside {LIMIT_BAND}")
        return sum(1 for n in nodes if n["converged"]), problems


WORKLOADS = {w.name: w for w in (SimulateSub4k, CavitySuper2k, LimitGaussStall)}

# per-layer metric -> (unit, end-to-end metrics it should move, workloads where)
_SIM, _CAV, _LIM = SimulateSub4k.name, CavitySuper2k.name, LimitGaussStall.name
LAYER_MAP = {
    "model.coupling_matrix.calls": ("count", ("wall_s", "cpu_s", "peak_rss_mb"), (_SIM,)),
    "model.factorizations_per_realization": ("ratio", ("wall_s", "cpu_s", "peak_rss_mb"), (_SIM,)),
    "model.log_det.self_s": ("s", ("wall_s",), (_SIM,)),
    "model.ones_quadratic_form.self_s": ("s", ("wall_s",), (_SIM,)),
    "model.coupling_matrix.self_s": ("s", ("wall_s",), (_SIM,)),
    "model.inverse_diagonal.self_s": ("s", ("wall_s",), (_CAV,)),
    "model.cavity_split.self_s": ("s", ("wall_s",), (_CAV,)),
    "model.woodbury_residual.self_s": ("s", ("wall_s",), (_CAV,)),
    "model.sample_model.self_s": ("s", ("wall_s",), (_SIM, _CAV)),
    "model.clauses": ("count", ("wall_s",), (_SIM, _CAV)),
    "model.dense_bytes_computed": ("B", ("cpu_s", "peak_rss_mb"), (_SIM, _CAV)),
    "model.factor_flops_computed": ("flop", ("cpu_s", "peak_rss_mb"), (_SIM, _CAV)),
    "rde.step.calls": ("count", ("wall_s", "ok_ratio"), (_LIM,)),
    "rde.step.values": ("count", ("wall_s", "ok_ratio"), (_LIM,)),
    "rde.step.self_s": ("s", ("wall_s", "ok_ratio"), (_LIM,)),
    "rde.wasserstein.calls": ("count", ("wall_s", "ok_ratio"), (_LIM,)),
    "rde.wasserstein.self_s": ("s", ("wall_s", "ok_ratio"), (_LIM,)),
    "rde.solve_fixed_point.self_s": ("s", ("wall_s", "ok_ratio"), (_LIM,)),
    "rde.solves_at_cap": ("count", ("wall_s", "ok_ratio"), (_LIM,)),
    "rde.converged_ratio": ("ratio", ("wall_s", "ok_ratio"), (_LIM,)),
    "disorder.draws": ("count", ("wall_s",), (_LIM,)),
    "disorder.sample.self_s": ("s", ("wall_s",), (_LIM,)),
    "free_energy.edge_term.calls": ("count", ("wall_s",), (_LIM,)),
    "free_energy.edge_term.self_s": ("s", ("wall_s",), (_LIM,)),
    "free_energy.limiting_free_energy.self_s": ("s", ("wall_s",), (_LIM,)),
    "stats.pooled_inverse_diagonals.self_s": ("s", ("wall_s",), (_CAV,)),
    "parallel.parallel_map.calls": ("count", ("wall_s", "cpu_s"), (_SIM, _CAV)),
    "parallel.items": ("count", ("wall_s", "cpu_s"), (_SIM, _CAV)),
    "parallel.busy_ratio": ("ratio", ("wall_s", "cpu_s"), (_SIM, _CAV)),
    "cli.run.self_s": ("s", ("wall_s",), (_SIM, _LIM)),
    "cli.output_bytes": ("B", ("wall_s",), (_SIM, _LIM)),
    "trace.overhead_ratio": ("ratio", (), ()),
}
