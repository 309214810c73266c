"""Limiting free energy by quadrature over fixed points at thinned rates.

In the large-N limit the free energy is

    F = (h^2/2) * E X(1) + (alpha/2) * Int_0^1 E log(1 + 2*beta * sum_{r<=p} z_r^2 X_r(x)) dx,

where for each x in (0, 1] the X(x) are i.i.d. from the fixed point of
the variance-law map run at the thinned clause rate alpha*x*p, and the
z_r are disorder draws.  The integrand is smooth in x, so a small
Gauss-Legendre rule on (0, 1) beats the Monte Carlo noise floor
immediately; the x = 0 endpoint is never evaluated because the nodes
are interior.  The fixed points are solved in one sequential sweep of
increasing rate, each started from the previous point's population.
When h != 0 the field term needs X(1), so x = 1 is the sweep's last
point, solved on stream ``n_nodes`` right after the last node.

This module also runs finite-size-to-limit convergence studies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec, _sample_shape
from .estimate import Estimate, combined_se, jackknife_se, mc_estimate
from .model import ModelParams, finite_free_energy, over_realizations
from .rde import (
    DEFAULT_MAX_GENS,
    DEFAULT_POP_SIZE,
    DEFAULT_TOL,
    Population,
    RdeReport,
    solve_fixed_point,
)
from .stats import slope_fit
from .streams import substreams

WEIGHT_SUM_SLACK = 1e-12
DEFAULT_NODES = 16
DEFAULT_N_MC = 200_000


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes in (0, 1] with positive weights summing to one."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.size == 0 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be matching nonempty 1-D arrays")
        if nodes.min() <= 0 or nodes.max() > 1:
            raise ValueError("nodes must lie in (0, 1]")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must be strictly increasing")
        if weights.min() <= 0:
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > WEIGHT_SUM_SLACK:
            raise ValueError("weights must sum to 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @classmethod
    def gauss_legendre(cls, n_nodes: int = DEFAULT_NODES) -> "QuadratureRule":
        """Gauss-Legendre rule mapped from [-1, 1] to (0, 1)."""
        t, w = np.polynomial.legendre.leggauss(int(n_nodes))
        return cls((t + 1.0) / 2.0, w / w.sum())


@dataclass(frozen=True)
class NodeResult:
    """Per-node breakdown of the integral term."""

    x: float
    rate: float
    edge_term: float
    std_error: float
    converged: bool


@dataclass(frozen=True)
class LimitResult:
    """Limiting free-energy estimate with its per-node breakdown.

    ``x1_converged`` is the flag of the x = 1 solve behind ``h_term``,
    or None when no such solve runs (h = 0, or beta = 0 where X(1) = 1
    exactly); ``converged`` covers the nodes and that solve.
    """

    estimate: Estimate
    nodes: tuple[NodeResult, ...]
    h_term: float
    x1_converged: bool | None
    converged: bool

    @property
    def failed_nodes(self) -> tuple[float, ...]:
        return tuple(n.x for n in self.nodes if not n.converged)


def edge_term(
    pop: Population,
    params: ModelParams,
    disorder: DisorderSpec,
    n_mc: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo E log(1 + 2*beta * sum_{r<=p} z_r^2 X_r) over ``pop``.

    The X's are resampled with replacement from the population, so the
    target is the expectation under the empirical law.
    """
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    zeta = _sample_shape(disorder, (n_mc, params.p), rng)
    picks = pop.values[rng.integers(0, pop.size, size=(n_mc, params.p))]
    samples = np.log1p(2.0 * params.beta * np.sum(zeta**2 * picks, axis=1))
    return mc_estimate(samples)


def limiting_free_energy(
    params: ModelParams,
    disorder: DisorderSpec,
    rule: QuadratureRule,
    rng: np.random.Generator,
    pop_size: int = DEFAULT_POP_SIZE,
    tol: float = DEFAULT_TOL,
    n_mc: int = DEFAULT_N_MC,
    max_gens: int = DEFAULT_MAX_GENS,
) -> LimitResult:
    """Evaluate the limiting formula with one fixed point per node.

    The sweep runs the nodes in increasing rate order and then, when
    h != 0, x = 1 for the field term.  Sweep point j is solved on
    substream j (so x = 1 is on substream ``n_nodes``) and warm-started
    from point j-1's population (the first from the point mass at 1);
    node i's edge term draws from substream ``n_nodes + 1 + i``.  Errors
    are treated as independent (disjoint streams); a point that fails to
    converge still contributes, and the result flags it.
    """
    h = params.h
    if params.beta == 0:
        return LimitResult(Estimate(h * h / 2.0, 0.0), (), h * h / 2.0, None, True)

    n_nodes = rule.nodes.size
    # one stream per sweep point (the nodes, then x=1), one per node for MC
    streams = substreams(rng, 2 * n_nodes + 1)
    sweep = list(rule.nodes) + ([1.0] if h != 0.0 else [])

    reports: list[RdeReport] = []
    nodes = []
    se_parts = []
    for j, x in enumerate(sweep):
        report = solve_fixed_point(
            params, disorder, float(x), streams[j], pop_size=pop_size, tol=tol,
            max_gens=max_gens, init=reports[-1].population if reports else None,
        )
        reports.append(report)
        if j < n_nodes:  # x = 1 enters the field term only
            term = edge_term(
                report.population, params, disorder, n_mc, streams[n_nodes + 1 + j]
            )
            nodes.append(NodeResult(
                float(x), float(params.alpha * x * params.p), term.value,
                term.std_error, report.converged,
            ))
            se_parts.append(float(rule.weights[j]) * params.alpha / 2.0 * term.std_error)
    integral = float(np.sum(rule.weights * np.array([n.edge_term for n in nodes])))

    h_term, x1_converged = 0.0, None
    if h != 0.0:
        top = reports[-1].population
        x1_converged = reports[-1].converged
        h_term = h * h / 2.0 * top.mean()
        se_parts.append(h * h / 2.0 * jackknife_se(top.values))

    value = h_term + params.alpha / 2.0 * integral
    estimate = Estimate(value, combined_se(*se_parts))
    converged = all(r.converged for r in reports)
    return LimitResult(estimate, tuple(nodes), h_term, x1_converged, converged)


@dataclass(frozen=True)
class SizeRow:
    """Finite-size summary at one N."""

    n_sites: int
    mean_f: float
    std_f: float
    se_mean: float
    gap: float


@dataclass(frozen=True)
class ConvergenceStudy:
    rows: tuple[SizeRow, ...]
    limit: Estimate
    limit_converged: bool  # LimitResult.converged of the limit behind ``limit``
    std_slope: float | None  # log-log slope of std_f vs N; None if any std is 0


def convergence_study(
    params: ModelParams,
    disorder: DisorderSpec,
    n_grid,
    seeds_per_n: int,
    rule: QuadratureRule,
    rng: np.random.Generator,
    pop_size: int = DEFAULT_POP_SIZE,
    tol: float = DEFAULT_TOL,
    n_mc: int = DEFAULT_N_MC,
    max_gens: int = DEFAULT_MAX_GENS,
    workers: int = 1,
) -> ConvergenceStudy:
    """Finite-size free energies against the limiting estimate.

    For each N, ``seeds_per_n`` independent realizations give the mean
    and spread of F_N; the gap column is |mean - limit|.  The log-log
    slope of the std column against N is the empirical concentration
    rate.  ``pop_size``, ``tol``, ``n_mc`` and ``max_gens`` go to
    :func:`limiting_free_energy`; ``workers`` fans the finite-size
    realizations out.
    """
    n_grid = [int(n) for n in n_grid]
    if not n_grid:
        raise ValueError("n_grid must be nonempty")
    if seeds_per_n < 2:
        raise ValueError("seeds_per_n must be at least 2")
    limit_rng, sim_rng = substreams(rng, 2)
    limit = limiting_free_energy(
        params, disorder, rule, limit_rng, pop_size=pop_size, tol=tol, n_mc=n_mc,
        max_gens=max_gens,
    )

    rows = []
    per_size_streams = substreams(sim_rng, len(n_grid))
    for n_sites, size_rng in zip(n_grid, per_size_streams):
        values = np.array(over_realizations(
            finite_free_energy, params, disorder, n_sites, seeds_per_n, size_rng, workers
        ))
        mean_f = float(values.mean())
        std_f = float(values.std(ddof=1))
        rows.append(
            SizeRow(
                n_sites,
                mean_f,
                std_f,
                std_f / np.sqrt(seeds_per_n),
                abs(mean_f - limit.estimate.value),
            )
        )

    stds = np.array([r.std_f for r in rows])
    if len(rows) >= 3 and np.all(stds > 0):
        std_slope = slope_fit(np.array(n_grid, dtype=float), stds)
    else:
        std_slope = None
    return ConvergenceStudy(tuple(rows), limit.estimate, limit.converged, std_slope)
