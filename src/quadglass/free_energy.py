"""Limiting free energy by quadrature over fixed points at thinned rates.

In the large-N limit the free energy is

    F = (h^2/2) * E X(1) + (alpha/2) * Int_0^1 E log(1 + 2*beta * sum_{r<=p} z_r^2 X_r(x)) dx,

where for each x in (0, 1] the X(x) are i.i.d. from the fixed point of
the variance-law map run at the thinned clause rate alpha*x*p, and the
z_r are disorder draws.  The map thinned to x is the map at edge
density alpha*x, so point x is solved at
``dataclasses.replace(params, alpha=params.alpha * x)``.  The integrand
is smooth in x, so a small Gauss-Legendre rule on (0, 1), set by its
node count ``n_nodes``, beats the Monte Carlo noise floor immediately;
the x = 0 endpoint is never evaluated because the nodes are interior.
Each sweep point is the unique fixed point of its own map, so every
point is solved from the point mass at 1 on its own child stream, and
the points run concurrently over ``parallel.parallel_map``.  When
h != 0 the field term needs X(1), so x = 1 is one more sweep point, on
stream ``n_nodes``.  A point's population lives only inside its item,
which returns scalars.

This module also runs finite-size-to-limit convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .disorder import DisorderSpec, _sample_shape
from .model import ModelParams, NumericalError, _float_range, finite_free_energy, over_realizations
from .parallel import parallel_map
from .rde import (
    DEFAULT_MAX_GENS,
    DEFAULT_POP_SIZE,
    Population,
    solve_fixed_point,
)
from .stats import Estimate, combined_se, jackknife_se, mc_estimate

DEFAULT_NODES = 16
DEFAULT_N_MC = 200_000


def gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes mapped from [-1, 1] to (0, 1), with weights summing to one."""
    t, w = np.polynomial.legendre.leggauss(n_nodes)
    return (t + 1.0) / 2.0, w / w.sum()


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point's solve and the Monte Carlo term read off its population.

    ``term`` is the edge term at a quadrature node and E X(1) at x = 1,
    with ``std_error`` its standard error; ``gap`` and ``floor`` are the
    solve's windowed W1 gap and noise floor.
    """

    x: float
    rate: float
    term: float
    std_error: float
    converged: bool
    gap: float
    floor: float


@dataclass(frozen=True)
class LimitResult:
    """Limiting free-energy estimate with its per-point breakdown.

    ``nodes`` are the quadrature nodes; ``x1`` is the x = 1 solve behind
    ``h_term``, None when no such solve runs (h = 0, or beta = 0 where
    X(1) = 1 exactly).  ``converged`` covers the nodes and that solve.
    """

    estimate: Estimate
    nodes: tuple[SweepPoint, ...]
    h_term: float
    x1: SweepPoint | None

    @property
    def failed_nodes(self) -> tuple[float, ...]:
        return tuple(n.x for n in self.nodes if not n.converged)

    @property
    def unconverged(self) -> int:
        """How many of the fixed-point solves behind the estimate did not converge."""
        return len(self.failed_nodes) + (self.x1 is not None and not self.x1.converged)

    @property
    def converged(self) -> bool:
        return self.unconverged == 0


def edge_term(
    pop: Population,
    params: ModelParams,
    disorder: DisorderSpec,
    n_mc: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo E log(1 + 2*beta * sum_{r<=p} z_r^2 X_r) over ``pop``.

    The X's are resampled with replacement from the population, so the
    target is the expectation under the empirical law.  The sum builds
    up one r at a time (draw z_r, then the picks of X_r), so a draw
    costs four float arrays of ``n_mc`` at any p.  A sample past the
    float range raises :class:`model.NumericalError`.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    samples = np.zeros(n_mc)
    with _float_range("edge term"):
        for _ in range(params.p):
            column = _sample_shape(disorder, (n_mc,), rng)
            np.square(column, out=column)
            column *= pop.values[rng.integers(0, pop.size, size=n_mc)]
            samples += column
            del column  # before the next column is drawn
        samples *= 2.0 * params.beta
        np.log1p(samples, out=samples)
    return mc_estimate(samples)


def limiting_free_energy(
    params: ModelParams,
    disorder: DisorderSpec,
    n_nodes: int,
    rng: np.random.Generator,
    pop_size: int = DEFAULT_POP_SIZE,
    n_mc: int = DEFAULT_N_MC,
    max_gens: int = DEFAULT_MAX_GENS,
    workers: int = 1,
) -> LimitResult:
    """Evaluate the limiting formula with one fixed point per node.

    The integral runs over the ``n_nodes`` nodes of :func:`gauss_legendre`;
    when h != 0, x = 1 is one more sweep point, for the field term.
    Sweep point x is solved at edge density ``params.alpha * x`` from
    the point mass at 1 on child stream j of ``rng.spawn`` (so x = 1 is
    on child ``n_nodes``), and node j's edge term draws from child
    ``n_nodes + 1 + j``.  The points are independent, so ``workers``
    runs them concurrently; the streams are fixed per point, so the
    result does not depend on ``workers``.  Each point's population is
    dropped once its term is read, so at most ``min(workers, points)``
    are alive at once.  Errors are treated as independent (disjoint
    streams); a point that fails to converge still contributes, and
    the result flags it.  A subnormal alpha whose alpha*x rounds to 0
    raises :class:`model.NumericalError`.
    """
    h = params.h
    xs, weights = gauss_legendre(n_nodes)
    if params.beta == 0:
        return LimitResult(Estimate(h * h / 2.0, 0.0), (), h * h / 2.0, None)

    # only a subnormal alpha rounds alpha*x to 0, a density no ModelParams holds
    if not params.alpha * xs[0] > 0:
        raise NumericalError(f"the edge density alpha*x underflows to 0 at x = {xs[0]:.6g}")
    # one stream per sweep point (the nodes, then x=1), one per node for MC
    streams = rng.spawn(2 * n_nodes + 1)
    items = [(float(x), streams[j], streams[n_nodes + 1 + j]) for j, x in enumerate(xs)]
    if h != 0.0:
        items.append((1.0, streams[n_nodes], None))

    def solve(item):
        x, solve_rng, edge_rng = item
        thinned = replace(params, alpha=params.alpha * x)
        report = solve_fixed_point(thinned, disorder, solve_rng, pop_size=pop_size,
                                   max_gens=max_gens)
        pop = report.population
        if edge_rng is None:  # x = 1 enters the field term only
            term = Estimate(pop.mean(), jackknife_se(pop.values))
        else:
            term = edge_term(pop, params, disorder, n_mc, edge_rng)
        return SweepPoint(x, thinned.alpha * params.p, term.value, term.std_error,
                          report.converged, report.gap, report.floor)

    points = parallel_map(solve, items, workers)
    nodes, x1 = points[:n_nodes], (points[n_nodes] if h != 0.0 else None)
    integral = float(np.sum(weights * np.array([n.term for n in nodes])))
    se_parts = [float(w) * params.alpha / 2.0 * n.std_error for w, n in zip(weights, nodes)]

    h_term = 0.0
    if x1 is not None:
        h_term = h * h / 2.0 * x1.term
        se_parts.append(h * h / 2.0 * x1.std_error)

    value = h_term + params.alpha / 2.0 * integral
    return LimitResult(Estimate(value, combined_se(*se_parts)), tuple(nodes), h_term, x1)


@dataclass(frozen=True)
class SizeRow:
    """Finite-size summary at one N."""

    n_sites: int
    mean_f: float
    std_f: float
    gap: float


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[SizeRow, ...]
    limit: LimitResult


def convergence_study(
    params: ModelParams,
    disorder: DisorderSpec,
    n_grid,
    seeds_per_n: int,
    n_nodes: int,
    rng: np.random.Generator,
    pop_size: int = DEFAULT_POP_SIZE,
    n_mc: int = DEFAULT_N_MC,
    max_gens: int = DEFAULT_MAX_GENS,
    workers: int = 1,
) -> ConvergenceStudy:
    """Finite-size free energies against the limiting estimate.

    For each N, ``seeds_per_n`` independent realizations give the mean
    and spread of F_N; the gap column is |mean - limit|.  ``n_nodes``,
    ``pop_size``, ``n_mc`` and ``max_gens`` go to
    :func:`limiting_free_energy`; ``workers`` fans its sweep points
    and then the finite-size realizations out.
    """
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    if seeds_per_n < 2:
        raise ValueError("seeds_per_n must be at least 2")
    limit_rng, sim_rng = rng.spawn(2)
    limit = limiting_free_energy(
        params, disorder, n_nodes, limit_rng, pop_size=pop_size, n_mc=n_mc, max_gens=max_gens,
        workers=workers,
    )

    rows = []
    for n_sites, size_rng in zip(n_grid, sim_rng.spawn(len(n_grid))):
        values = np.array(over_realizations(
            finite_free_energy, params, disorder, n_sites, seeds_per_n, size_rng, workers
        ))
        mean_f = float(values.mean())
        std_f = float(values.std(ddof=1))
        rows.append(SizeRow(n_sites, mean_f, std_f, abs(mean_f - limit.estimate.value)))
    return ConvergenceStudy(tuple(rows), limit)
