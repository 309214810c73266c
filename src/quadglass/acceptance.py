"""Validation criteria: every structural claim the package rests on.

Each criterion is a pure function of (seed, scale, workers) returning
what it measures, ``(measured, threshold, passed, detail)``; its id and
description are written once, in :data:`CRITERIA`.  ``scale`` in (0, 1]
shrinks replicate counts and population sizes proportionally for smoke
runs; scale 1 is the full desk-scale configuration with the tolerances
pinned below.  The same implementations back the pytest acceptance
module and the command-line ``validate`` subcommand.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec
from .estimate import combined_se, jackknife_se
from .free_energy import convergence_study, limiting_free_energy
from .model import (
    ModelParams,
    cavity_split,
    finite_free_energy,
    inverse_diagonal,
    offdiag_moments,
    over_realizations,
    sample_model,
    woodbury_residual,
)
from .parallel import parallel_map
from .rde import (
    Population,
    delta_population,
    find_contractive_q,
    iterate_pair,
    solve_fixed_point,
    step,
    wasserstein,
)
from .stats import independence_check, poisson_uniform_check, pooled_inverse_diagonals, slope_fit
from .streams import stream, substreams

RADEMACHER = DisorderSpec("rademacher")
BASE_PARAMS = ModelParams(0.5, 0.25, 1.0, 2)      # shared by A3, A4, A6, A12
MOMENT_PARAMS = ModelParams(1.0, 0.5, 0.0, 2)     # shared by A5, A9, A10
DEFAULT_SEED = 20260808


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    description: str
    measured: float
    threshold: float
    passed: bool
    detail: str


def _count(n, scale, floor=2):
    return max(floor, int(round(n * scale)))


def a1(seed, scale=1.0, workers=1):
    """Exact trivial limit at zero temperature."""
    t0 = time.perf_counter()
    params = ModelParams(1.0, 0.0, 1.3, 3)
    target = params.h**2 / 2
    model = sample_model(params, RADEMACHER, 300, stream(seed, "A1", "model"))
    f_fin = finite_free_energy(model)
    res = limiting_free_energy(params, RADEMACHER, 4, stream(seed, "A1", "lim"))
    diff = max(abs(f_fin - target), abs(res.estimate.value - target))
    elapsed = time.perf_counter() - t0
    passed = diff < 1e-12 and elapsed < 1.0
    # the wall time itself would make validate outputs differ run to run
    return diff, 1e-12, passed, "runtime under 1s" if elapsed < 1.0 else "runtime 1s or more"


def a2(seed, scale=1.0, workers=1):
    """Arity-1 inverse diagonals reproduce the direct clause-sum law."""
    params = ModelParams(1.0, 0.5, 0.0, 1)
    n_sites = _count(2000, scale, floor=200)
    n_seeds = _count(10, scale)
    pooled = pooled_inverse_diagonals(
        params, RADEMACHER, n_sites, n_seeds, stream(seed, "A2", "pool"), workers
    )
    # at p = 1 one push of any population draws the exact per-site law
    # (matrix-free route)
    n_draws = _count(10**6, scale, floor=10**5)
    direct = step(
        delta_population(1.0, 1), params, RADEMACHER, 1.0, n_draws,
        stream(seed, "A2", "direct"),
    )
    dist = wasserstein(Population(np.minimum(pooled, 1.0)), direct)
    return dist, 0.01, dist < 0.01, f"{pooled.size} pooled vs {n_draws} direct"


def a3(seed, scale=1.0, workers=1):
    """Finite-size free energy meets the limiting estimate."""
    n_seeds = _count(20, scale)
    study = convergence_study(
        BASE_PARAMS, RADEMACHER, [_count(2000, scale, floor=100)], n_seeds, 16,
        stream(seed, "A3"), pop_size=_count(100_000, scale, floor=5000),
        n_mc=_count(200_000, scale, floor=10_000), workers=workers,
    )
    row, limit = study.rows[0], study.limit.estimate
    se = combined_se(row.std_f / math.sqrt(n_seeds), limit.std_error)
    threshold = max(0.01, 3 * se)
    return (
        row.gap, threshold, row.gap < threshold,
        f"mean_F={row.mean_f:.6f} limit={limit.value:.6f} se={se:.2e}",
    )


def a4(seed, scale=1.0, workers=1):
    """Pooled inverse diagonals converge to the fixed-point law in W1."""
    grid = [250, 500, 1000, 2000]
    fixed = solve_fixed_point(
        BASE_PARAMS, RADEMACHER, 1.0, stream(seed, "A4", "fp"),
        pop_size=_count(100_000, scale, floor=5000),
    ).population
    distances, slacks = [], []
    for n_sites in grid:
        reps = _count(20_000 // n_sites, scale)
        per_rep = over_realizations(
            lambda model: np.minimum(inverse_diagonal(model), 1.0),
            BASE_PARAMS, RADEMACHER, n_sites, reps,
            stream(seed, "A4", "pool", n_sites), workers,
        )
        pooled = np.concatenate(per_rep)
        dist = wasserstein(Population(pooled), fixed)
        # leave-one-replicate-out jackknife for the W1 standard error
        loo = np.array(
            [
                wasserstein(
                    Population(np.concatenate(per_rep[:i] + per_rep[i + 1:])), fixed
                )
                for i in range(reps)
            ]
        )
        se = math.sqrt(max((reps - 1) / reps * np.sum((loo - loo.mean()) ** 2), 0.0))
        distances.append(dist)
        slacks.append(se)
    decreasing = all(
        distances[i + 1] < distances[i] + combined_se(slacks[i], slacks[i + 1])
        for i in range(len(grid) - 1)
    )
    passed = decreasing and distances[-1] < 0.02
    detail = " ".join(
        f"W1(N={n})={d:.4f}±{s:.4f}" for n, d, s in zip(grid, distances, slacks)
    )
    return distances[-1], 0.02, passed, detail


def a5(seed, scale=1.0, workers=1):
    """Off-diagonal inverse entries are centered and square-bounded."""
    report = offdiag_moments(
        MOMENT_PARAMS, RADEMACHER, _count(500, scale, floor=50),
        _count(500, scale, floor=50), stream(seed, "A5"),
    )
    zs = []
    for est in (report.entry_12, report.product_12_13, report.product_12_34):
        zs.append(abs(est.value) / est.std_error if est.std_error > 0 else 0.0)
    passed = all(z < 4 for z in zs) and report.scaled_square.value <= 1.05
    return (
        report.scaled_square.value, 1.05, passed,
        f"z-scores {zs[0]:.2f}/{zs[1]:.2f}/{zs[2]:.2f}",
    )


def a6(seed, scale=1.0, workers=1):
    """Free-energy fluctuations shrink like N^{-1/2}."""
    grid = [250, 1000, 4000]
    seeds_per_n = _count(50, scale, floor=8)
    stds = []
    for n_sites in grid:
        values = np.array(over_realizations(
            finite_free_energy, BASE_PARAMS, RADEMACHER, n_sites, seeds_per_n,
            stream(seed, "A6", n_sites), workers,
        ))
        stds.append(values.std(ddof=1))
    slope = slope_fit(np.array(grid, dtype=float), np.array(stds))
    passed = -0.65 <= slope <= -0.35
    return slope, -0.5, passed, " ".join(f"std(N={n})={s:.2e}" for n, s in zip(grid, stds))


def a7(seed, scale=1.0, workers=1):
    """Fixed point unique: extreme starts meet; a contractive q exists."""
    params = ModelParams(1.0, 1.0, 0.0, 2)
    pop_size = _count(400_000, scale, floor=20_000)
    kw = dict(pop_size=pop_size, tol=1e-3, max_gens=200)
    top = solve_fixed_point(
        params, RADEMACHER, 1.0, stream(seed, "A7", "top"),
        init=delta_population(1.0, pop_size), **kw,
    )
    bottom = solve_fixed_point(
        params, RADEMACHER, 1.0, stream(seed, "A7", "bottom"),
        init=delta_population(0.05, pop_size), **kw,
    )
    gap = wasserstein(top.population, bottom.population)
    scan = find_contractive_q(
        params, RADEMACHER, [1, 2, 4, 8, 16, 32, 64, 128, 256],
        _count(200_000, scale, floor=20_000), stream(seed, "A7", "scan"),
    )
    certified = scan.q is not None
    passed = gap < 2e-3 and certified
    return gap, 2e-3, passed, f"q={scan.q}" if certified else "no q certified"


def a8(seed, scale=1.0, workers=1):
    """Uniform-index and thinned-rate constructions agree in law."""
    n = _count(10**6, scale, floor=10**4)
    report = poisson_uniform_check(3.0, n, stream(seed, "A8"))
    target = (1 - math.exp(-3.0)) / 3.0
    z = abs(report.p_zero.value - target) / report.p_zero.std_error
    passed = report.tv_distance < 0.01 and z < 4
    return report.tv_distance, 0.01, passed, f"p0 z-score {z:.2f}"


def a9(seed, scale=1.0, workers=1):
    """Rank-R cavity residual is small and bound-dominated."""
    n_splits = _count(1000, scale, floor=50)
    n_sites = _count(2000, scale, floor=200)
    children = substreams(stream(seed, "A9"), n_splits)

    def one(child):
        res = woodbury_residual(cavity_split(MOMENT_PARAMS, RADEMACHER, n_sites, child))
        return res.residual, res.bound

    pairs = parallel_map(one, children, workers)
    residuals = np.array([p[0] for p in pairs])
    bounds = np.array([p[1] for p in pairs])
    # where the bound is at most 1e-12 the cavity formula is exact and the
    # residual 0, so the median runs over the other splits
    inexact = bounds > 1e-12
    median = float(np.median(residuals[inexact]))
    # fit the constant on the first half, test coverage on everything
    half = n_splits // 2
    fit_ratios = residuals[:half][bounds[:half] > 0] / bounds[:half][bounds[:half] > 0]
    c_fit = float(fit_ratios.max()) if fit_ratios.size else 1.0
    covered = residuals <= c_fit * bounds + 1e-12
    coverage = float(covered.mean())
    passed = median < 0.02 and coverage >= 0.99
    return (
        median, 0.02, passed,
        f"median over {inexact.sum()} splits C={c_fit:.2f} coverage={coverage:.3f}",
    )


def a10(seed, scale=1.0, workers=1):
    """Leading inverse diagonals decorrelate."""
    report = independence_check(
        MOMENT_PARAMS, RADEMACHER, _count(1000, scale, floor=100), 4,
        _count(500, scale, floor=50), stream(seed, "A10"), workers,
    )
    off = np.abs(report.correlations[~np.eye(4, dtype=bool)])
    worst = float(off.max())
    threshold = 4 * report.std_error
    return worst, threshold, worst < threshold, f"SE={report.std_error:.4f}"


def a11(seed, scale=1.0, workers=1):
    """Byte-identical outputs for a fixed config at any worker count."""
    import tempfile
    from pathlib import Path

    from . import cli

    config_text = "\n".join(
        [
            "experiment.kind=simulate",
            f"experiment.seed={seed}",
            "model.alpha=0.8",
            "model.beta=0.5",
            "model.h=1.0",
            "model.p=2",
            "disorder.family=rademacher",
            "simulate.n_sites=150",
            "simulate.replicates=8",
        ]
    )
    digests = []
    for n_workers in (1, 4):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "config.txt"
            cfg.write_text(config_text + "\n", encoding="utf-8")
            out = Path(tmp) / "out"
            status = cli.run_command(
                "simulate", cfg, out_dir=out, workers=n_workers
            )
            if status != 0:
                return 1.0, 0.0, False, f"simulate exited with status {status}"
            digests.append(
                tuple(
                    (f.name, f.read_bytes())
                    for f in sorted(out.iterdir())
                    if f.name != "manifest.json"
                )
            )
    same = digests[0] == digests[1]
    return 0.0 if same else 1.0, 0.0, same, "workers 1 vs 4"


def a12(seed, scale=1.0, workers=1):
    """Coupled-pair marginal matches the one-dimensional fixed point."""
    pop_size = _count(100_000, scale, floor=10_000)
    pairs = iterate_pair(
        BASE_PARAMS, RADEMACHER, 200, pop_size, stream(seed, "A12", "pair")
    )
    fixed = solve_fixed_point(
        BASE_PARAMS, RADEMACHER, 1.0, stream(seed, "A12", "fp"), pop_size=pop_size
    ).population
    x_marginal = Population(np.minimum(pairs[:, 1], 1.0))
    gap = wasserstein(x_marginal, fixed)
    u = pairs[:, 0]
    u_se = jackknife_se(u)
    z = abs(u.mean() - 1.0) / u_se if u_se > 0 else 0.0
    passed = gap < 0.01 and z < 4
    return gap, 0.01, passed, f"EU={u.mean():.5f} z={z:.2f}"


def a13(seed, scale=1.0, workers=1):
    """Truncating the disorder perturbs the limit continuously."""
    params = ModelParams(0.5, 0.5, 1.0, 2)
    kw = dict(
        pop_size=_count(100_000, scale, floor=10_000),
        n_mc=_count(200_000, scale, floor=20_000),
    )
    values, ses = {}, {}
    for c in (1.0, 2.0, 4.0, math.inf):
        spec = DisorderSpec("gaussian", 1.0, truncation=c)
        res = limiting_free_energy(params, spec, 12, stream(seed, "A13", str(c)), **kw)
        values[c], ses[c] = res.estimate.value, res.estimate.std_error
    gaps = {c: abs(values[c] - values[math.inf]) for c in (1.0, 2.0, 4.0)}
    slack12 = combined_se(ses[1.0], ses[2.0])
    slack24 = combined_se(ses[2.0], ses[4.0])
    passed = (
        gaps[2.0] < gaps[1.0] + slack12 and gaps[4.0] < gaps[2.0] + slack24
    )
    return (
        gaps[4.0], gaps[2.0], passed,
        f"gaps c=1:{gaps[1.0]:.4f} c=2:{gaps[2.0]:.4f} c=4:{gaps[4.0]:.4f}",
    )


# criterion id -> (description, function): the one place either is written
CRITERIA = {
    "A1": ("zero-temperature free energy equals h^2/2 exactly", a1),
    "A2": ("arity-1 pooled diagonals match the direct sampler in W1", a2),
    "A3": ("mean F_N at N=2000 matches the limiting estimate", a3),
    "A4": ("W1 to the fixed point decreases in N, final below 0.02", a4),
    "A5": ("off-diagonal means vanish; (N-1) E (A^-1_12)^2 <= 1.05", a5),
    "A6": ("log-log slope of std(F_N) vs N lies in [-0.65, -0.35]", a6),
    "A7": ("extreme initializations meet in W1; contractive q certified", a7),
    "A8": ("total variation below 0.01; P(L=0) matches (1-e^-3)/3", a8),
    "A9": ("median residual where bound > 1e-12 below 0.02; residual <= C * bound", a9),
    "A10": ("pairwise |corr| of the first 4 diagonals below 4 SE", a10),
    "A11": ("identical config+seed gives byte-identical outputs", a11),
    "A12": ("pair-recursion X marginal meets the fixed point; E U = 1", a12),
    "A13": ("|F(c) - F(inf)| decreases in the truncation level", a13),
}


def run_criteria(
    ids, seed: int = DEFAULT_SEED, scale: float = 1.0, workers: int = 1
) -> list[CriterionResult]:
    """Run the criteria ``ids`` of :data:`CRITERIA` in order; errors become failing rows."""
    results = []
    for cid in ids:
        description, criterion = CRITERIA[cid]
        try:
            row = criterion(seed, scale, workers)
        except Exception as exc:  # a broken criterion must not stop the suite
            row = (math.nan, math.nan, False, repr(exc))
        results.append(CriterionResult(cid, description, *row))
    return results
