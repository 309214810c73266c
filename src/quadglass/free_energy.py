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
The fixed points are solved in one sequential sweep of increasing rate,
each started from the previous point's population, and nothing older
is kept.  When h != 0 the field term needs X(1), so x = 1 is the
sweep's last point, solved on stream ``n_nodes`` right after the last
node.

This module also runs finite-size-to-limit convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .disorder import DisorderSpec, _sample_shape
from .model import ModelParams, NumericalError, _float_range, finite_free_energy, over_realizations
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
class NodeResult:
    """Per-node breakdown of the integral term."""

    x: float
    rate: float
    edge_term: float
    std_error: float
    converged: bool
    gap: float  # windowed W1 gap and noise floor of the node's solve
    floor: float


@dataclass(frozen=True)
class LimitResult:
    """Limiting free-energy estimate with its per-node breakdown.

    ``x1_converged``, ``x1_gap`` and ``x1_floor`` describe the x = 1
    solve behind ``h_term``, and are None when no such solve runs
    (h = 0, or beta = 0 where X(1) = 1 exactly); ``converged`` covers
    the nodes and that solve.
    """

    estimate: Estimate
    nodes: tuple[NodeResult, ...]
    h_term: float
    x1_converged: bool | None
    x1_gap: float | None
    x1_floor: float | None

    @property
    def failed_nodes(self) -> tuple[float, ...]:
        return tuple(n.x for n in self.nodes if not n.converged)

    @property
    def unconverged(self) -> int:
        """How many of the fixed-point solves behind the estimate did not converge."""
        return len(self.failed_nodes) + (self.x1_converged is False)

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
    target is the expectation under the empirical law.  A sample past
    the float range raises :class:`model.NumericalError`.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    zeta = _sample_shape(disorder, (n_mc, params.p), rng)
    picks = pop.values[rng.integers(0, pop.size, size=(n_mc, params.p))]
    with _float_range("edge term"):
        samples = np.log1p(2.0 * params.beta * np.sum(zeta**2 * picks, axis=1))
    return mc_estimate(samples)


def limiting_free_energy(
    params: ModelParams,
    disorder: DisorderSpec,
    n_nodes: int,
    rng: np.random.Generator,
    pop_size: int = DEFAULT_POP_SIZE,
    n_mc: int = DEFAULT_N_MC,
    max_gens: int = DEFAULT_MAX_GENS,
) -> LimitResult:
    """Evaluate the limiting formula with one fixed point per node.

    The integral runs over the ``n_nodes`` nodes of :func:`gauss_legendre`.
    The sweep runs the nodes in increasing rate order and then, when
    h != 0, x = 1 for the field term.  Sweep point x is solved at edge
    density ``params.alpha * x`` on child stream j of ``rng.spawn`` (so
    x = 1 is on child ``n_nodes``) and warm-started from point j-1's
    population (the first from the point mass at 1); no older point is
    kept.  Node i's edge term draws from child ``n_nodes + 1 + i``.
    Errors are treated as independent (disjoint streams); a point that
    fails to converge still contributes, and the result flags it.  A
    subnormal alpha whose alpha*x rounds to 0 raises
    :class:`model.NumericalError`.
    """
    h = params.h
    xs, weights = gauss_legendre(n_nodes)
    if params.beta == 0:
        return LimitResult(
            Estimate(h * h / 2.0, 0.0), (), h * h / 2.0, None, None, None
        )

    # only a subnormal alpha rounds alpha*x to 0, a density no ModelParams holds
    if not params.alpha * xs[0] > 0:
        raise NumericalError(f"the edge density alpha*x underflows to 0 at x = {xs[0]:.6g}")
    # one stream per sweep point (the nodes, then x=1), one per node for MC
    streams = rng.spawn(2 * n_nodes + 1)
    sweep = list(xs) + ([1.0] if h != 0.0 else [])

    report, nodes, se_parts = None, [], []
    for j, x in enumerate(sweep):
        report = solve_fixed_point(
            replace(params, alpha=params.alpha * float(x)), disorder, streams[j],
            pop_size=pop_size, max_gens=max_gens,
            init=report.population if report else None,
        )
        if j < n_nodes:  # x = 1 enters the field term only
            term = edge_term(
                report.population, params, disorder, n_mc, streams[n_nodes + 1 + j]
            )
            nodes.append(NodeResult(
                float(x), float(params.alpha * x * params.p), term.value,
                term.std_error, report.converged, report.gap, report.floor,
            ))
            se_parts.append(float(weights[j]) * params.alpha / 2.0 * term.std_error)
    integral = float(np.sum(weights * np.array([n.edge_term for n in nodes])))

    h_term, x1 = 0.0, (None, None, None)
    if h != 0.0:
        top = report.population
        x1 = (report.converged, report.gap, report.floor)
        h_term = h * h / 2.0 * top.mean()
        se_parts.append(h * h / 2.0 * jackknife_se(top.values))

    value = h_term + params.alpha / 2.0 * integral
    estimate = Estimate(value, combined_se(*se_parts))
    return LimitResult(estimate, tuple(nodes), h_term, *x1)


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
    :func:`limiting_free_energy`; ``workers`` fans the finite-size
    realizations out.
    """
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    if seeds_per_n < 2:
        raise ValueError("seeds_per_n must be at least 2")
    limit_rng, sim_rng = rng.spawn(2)
    limit = limiting_free_energy(
        params, disorder, n_nodes, limit_rng, pop_size=pop_size, n_mc=n_mc, max_gens=max_gens,
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
