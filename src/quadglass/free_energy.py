"""Limiting free energy by quadrature over fixed points at thinned rates.

In the large-N limit the free energy is

    F = (h^2/2) * E X(1) + (alpha/2) * Int_0^1 E log(1 + 2*beta * sum_{r<=p} z_r^2 X_r(x)) dx,

where for each x in (0, 1] the X(x) are i.i.d. from the fixed point of
the variance-law map run at the thinned clause rate alpha*x*p, and the
z_r are disorder draws.  The map thinned to x is the map at edge
density alpha*x, so point x is solved at
``dataclasses.replace(params, alpha=params.alpha * x)``.  The integrand
is smooth in x, so a small right Gauss-Radau rule on (0, 1], set by its
node count ``n_nodes``, beats the Monte Carlo noise floor immediately.
The rule has x = 1 among its nodes, so the field term reads X(1) off
that node's population and needs no solve of its own; the x = 0
endpoint is never evaluated.  Each node is the unique fixed point of
its own map, so every node is solved from the point mass at 1 on its
own child stream, and the nodes run concurrently over
``parallel.parallel_map``.  A node's population lives only inside its
item, which returns scalars.

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
    _resample_indices,
    _times_picked,
    solve_fixed_point,
)
from .stats import Estimate, combined_se, mc_estimate

DEFAULT_NODES = 16
DEFAULT_N_MC = 200_000


def gauss_radau(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Right Gauss-Radau nodes on (0, 1], from x = 1 down, with weights summing to one.

    On [-1, 1] the nodes are the roots of P_{n-1} - P_n, which vanishes
    at t = 1, and node t weighs (1 + t) / P_{n-1}(t)^2 up to a common
    factor (Abramowitz and Stegun 25.4.31), so the rule is exact to
    degree 2n - 2.  Node t maps to x = (t + 1) / 2.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be at least 1")
    series = np.zeros(n_nodes + 1)  # P_{n-1} - P_n; its first n entries are P_{n-1}
    series[n_nodes - 1], series[n_nodes] = 1.0, -1.0
    t = np.polynomial.legendre.legroots(series)[::-1]
    t[0] = 1.0  # the root at t = 1, exact
    weights = (1.0 + t) / np.polynomial.legendre.legval(t, series[:n_nodes]) ** 2
    return (t + 1.0) / 2.0, weights / weights.sum()


@dataclass(frozen=True)
class SweepPoint:
    """One quadrature node's solve and the edge term read off its population.

    ``term`` is the node's edge term, with ``std_error`` its standard
    error; ``bracket`` is the solve's final mean(top - bottom).
    """

    x: float
    rate: float
    term: float
    std_error: float
    converged: bool
    bracket: float


@dataclass(frozen=True)
class LimitResult:
    """Limiting free-energy estimate with its per-node breakdown.

    ``nodes`` are the quadrature nodes from x = 1 down, every fixed-point
    solve behind the estimate; ``h_term`` reads the first one's
    population.  At beta = 0, where X(1) = 1 exactly, no node is solved.
    """

    estimate: Estimate
    nodes: tuple[SweepPoint, ...]
    h_term: float

    @property
    def unconverged(self) -> int:
        """How many of the fixed-point solves behind the estimate did not converge."""
        return sum(not n.converged for n in self.nodes)

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
    up one r at a time (draw z_r, then the picks of X_r, multiplied in
    by :func:`rde._times_picked`), so a draw costs the sums, one column
    and its int32 resample indices, about 21 bytes at any p (tracemalloc,
    n_mc 2*10^5, p = 1 to 10).  A sample past the float range raises
    :class:`model.NumericalError`.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    samples = np.zeros(n_mc)
    with _float_range("edge term"):
        for _ in range(params.p):
            column = _sample_shape(disorder, (n_mc,), rng)
            np.square(column, out=column)
            _times_picked(column, pop.values, _resample_indices(rng, pop.size, n_mc))
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

    The integral runs over the ``n_nodes`` nodes of :func:`gauss_radau`,
    and the field term reads E X(1) off its first node, x = 1.  Node j
    is solved at edge density ``params.alpha * x_j`` from the point mass
    at 1 on child j of ``rng.spawn(n_nodes)``, and then draws its edge
    term on the same child.  The nodes are independent, so ``workers``
    runs them concurrently, x = 1, the heaviest solve, first; the
    streams are fixed per node, so the result does not depend on
    ``workers``.  Each node's population is dropped once its terms are
    read, so at most ``min(workers, n_nodes)`` are alive at once.
    Errors are treated as independent (disjoint streams); a node that
    fails to converge still contributes, and the result flags it.  A
    subnormal alpha whose alpha*x rounds to 0 raises
    :class:`model.NumericalError`.
    """
    h = params.h
    xs, weights = gauss_radau(n_nodes)
    if params.beta == 0:
        return LimitResult(Estimate(h * h / 2.0, 0.0), (), h * h / 2.0)

    # only a subnormal alpha rounds alpha*x to 0, a density no ModelParams holds
    if not params.alpha * xs[-1] > 0:
        raise NumericalError(f"the edge density alpha*x underflows to 0 at x = {xs[-1]:.6g}")

    def solve(item):
        x, child = item
        thinned = replace(params, alpha=params.alpha * x)
        report = solve_fixed_point(thinned, disorder, child, pop_size=pop_size,
                                   max_gens=max_gens)
        pop = report.population
        term = edge_term(pop, params, disorder, n_mc, child)
        return (SweepPoint(x, thinned.alpha * params.p, term.value, term.std_error,
                           report.converged, report.bracket),
                mc_estimate(pop.values))

    points = parallel_map(solve, zip(xs.tolist(), rng.spawn(n_nodes)), workers)
    nodes = tuple(node for node, _ in points)
    x1_mean = points[0][1]  # E X(1), read off the x = 1 node
    h_term = h * h / 2.0 * x1_mean.value
    integral = float(np.sum(weights * np.array([n.term for n in nodes])))
    se_parts = [float(w) * params.alpha / 2.0 * n.std_error for w, n in zip(weights, nodes)]
    se_parts.append(h * h / 2.0 * x1_mean.std_error)

    value = h_term + params.alpha / 2.0 * integral
    return LimitResult(Estimate(value, combined_se(*se_parts)), nodes, h_term)


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
    :func:`limiting_free_energy`; ``workers`` fans its nodes and then
    the finite-size realizations out.
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
