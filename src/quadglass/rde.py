"""Population-dynamics solver for the spin-variance distributional equation.

The cavity recursion maps a law mu on (0, 1] to the law of

    ( 1 + sum_{k<=R} 2*beta*z_k^2 / (1 + 2*beta * sum_{r<=p-1} X_{k,r} * x_{k,r}^2) )^{-1}

with R Poisson(alpha*rate_scale*p), weights z, x i.i.d. from the
disorder law, and X_{k,r} i.i.d. from mu.  Its fixed point is the
limiting law of the spin variances.  Populations (large empirical
samples) represent laws; one generation resamples the whole population
synchronously from the previous snapshot, so the update is a pure
push-forward with clean fixed-point semantics.

No random draw of a generation reads the population's values, so
:func:`solve_fixed_point` draws generation g+1 on one helper thread
while it pushes generation g and measures its W1 gap.  The generator is
called in the serial order with the serial sizes, never for a
generation the loop will not run (a look-ahead left by a failed push is
undone), so the report and the generator's final state equal those of
the serial loop (:func:`step` then :func:`wasserstein` per generation).

Under y = -log x the map is conjugate to one that contracts in the
Wasserstein-q metric for q large enough, which is what makes the fixed
point unique; :func:`contraction_factor` estimates that modulus and
:func:`find_contractive_q` certifies a q from it.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .disorder import DisorderSpec, _sample_shape
from .estimate import Estimate, mc_estimate
from .model import ModelParams, format_float

CONVERGENCE_WINDOW = 10
DEFAULT_POP_SIZE = 100_000
DEFAULT_TOL = 1e-3
DEFAULT_MAX_GENS = 500


@dataclass(frozen=True)
class Population:
    """Fixed-size empirical sample of a variance law on (0, 1].

    ``rate`` records the Poisson clause rate alpha*rate_scale*p the
    population was built under; ``generation`` counts applications of
    the map.
    """

    values: np.ndarray
    rate: float = 0.0
    generation: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("population values must be a nonempty 1-D array")
        if values.min() <= 0 or values.max() > 1:
            raise ValueError("population values must lie in (0, 1]")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def size(self) -> int:
        return self.values.size

    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class RdeReport:
    """Outcome of a fixed-point run: final population and gap trajectory."""

    population: Population
    generations: int
    gaps: tuple[float, ...]
    converged: bool
    tol: float


def delta_population(value: float, size: int, rate: float = 0.0) -> Population:
    """Point-mass population, the usual initialization."""
    return Population(np.full(size, float(value)), rate, 0)


# ---------------------------------------------------------------------------
# one generation of the push-forward


def _clause_draws(disorder, lam, width, out_size, rng):
    """Common sampling step: clause counts and weights.

    Each of ``out_size`` outputs owns Poisson(``lam``) clauses; each
    clause gets one weight at the output site (``zeta``, shape (total,))
    and ``width`` interior weights (``xi``, shape (total, width)).
    """
    counts = rng.poisson(lam, size=out_size)
    total = int(counts.sum())
    zeta = _sample_shape(disorder, (total,), rng)
    xi = _sample_shape(disorder, (total, width), rng)
    return counts, zeta, xi


def _owners(counts):
    """Output index of each clause, in clause order."""
    return np.repeat(np.arange(counts.size), counts)


class _Draws(NamedTuple):
    """Every random input of one generation, drawn before its push."""

    rate: float
    counts: np.ndarray  # (out_size,) clauses owned by each output
    zeta: np.ndarray  # (total,) weight at the output site
    xi: np.ndarray  # (total, p-1) interior weights
    picks: np.ndarray  # (total, p-1) resample indices into the input population


def _draws(params, disorder, rate_scale, out_size, pop_size, rng) -> _Draws:
    """Every RNG call of one generation that resamples a ``pop_size`` population.

    None of them reads the population's values, so a generation can be
    drawn while the one before it is still being pushed.
    """
    if not 0 < rate_scale <= 1:
        raise ValueError("rate_scale must lie in (0, 1]")
    if out_size < 1:
        raise ValueError("out_size must be at least 1")
    rate = params.alpha * rate_scale * params.p
    counts, zeta, xi = _clause_draws(disorder, rate, params.p - 1, out_size, rng)
    # at p = 1, xi has no columns: the resample draws nothing and denom is 1
    picks = rng.integers(0, pop_size, size=xi.shape)
    return _Draws(rate, counts, zeta, xi, picks)


def _push(pop: Population, params: ModelParams, draws: _Draws) -> Population:
    """Push ``pop`` through one generation's draws, overwriting their buffers.

    In place, but with the IEEE operations of the one-line expression
    ``1/(1 + bincount(2b z^2 / (1 + 2b sum_r X_r x_r^2)))``.
    """
    two_beta = 2.0 * params.beta
    xi, zeta = draws.xi, draws.zeta
    np.square(xi, out=xi)
    xi *= pop.values[draws.picks]
    denom = np.sum(xi, axis=1)
    denom *= two_beta
    denom += 1.0
    np.square(zeta, out=zeta)
    zeta *= two_beta
    zeta /= denom
    totals = np.bincount(
        _owners(draws.counts), weights=zeta, minlength=draws.counts.size
    )
    totals += 1.0
    np.divide(1.0, totals, out=totals)
    return Population(totals, draws.rate, pop.generation + 1)


def step(
    pop: Population,
    params: ModelParams,
    disorder: DisorderSpec,
    rate_scale: float,
    out_size: int,
    rng: np.random.Generator,
) -> Population:
    """One synchronous generation of the variance-law map.

    Every output value is an independent draw of the displayed random
    variable with the X's resampled uniformly (with replacement) from
    ``pop``.  Outputs always lie in (0, 1]; entries whose clause count
    is zero come out exactly 1.
    """
    draws = _draws(params, disorder, rate_scale, out_size, pop.size, rng)
    return _push(pop, params, draws)


# ---------------------------------------------------------------------------
# Wasserstein distance


def wasserstein(a: Population, b: Population) -> float:
    """Wasserstein-1 distance between two populations.

    Equal sizes use the exact sorted-pair coupling, which is optimal in
    one dimension.  Unequal sizes evaluate both linearly interpolated
    empirical quantile functions (knots at probabilities (i + 1/2)/n) on a
    common grid; this reduces to the exact coupling when sizes agree and
    is consistent as sizes grow.
    """
    return _quantile_distance(a.values, b.values)


def _quantile_distance(x, y):
    x = np.sort(np.asarray(x, dtype=float))
    y = np.sort(np.asarray(y, dtype=float))
    if x.size == y.size:
        diffs = np.abs(x - y)
    else:
        grid_n = max(x.size, y.size)
        probs = (np.arange(grid_n) + 0.5) / grid_n
        qx = np.interp(probs, (np.arange(x.size) + 0.5) / x.size, x)
        qy = np.interp(probs, (np.arange(y.size) + 0.5) / y.size, y)
        diffs = np.abs(qx - qy)
    return float(diffs.mean())


# ---------------------------------------------------------------------------
# fixed-point iteration


def _stops(gaps, tol, spare=0):
    """The stopping rule: the last ``CONVERGENCE_WINDOW`` gaps lie below ``tol``.

    With ``spare=1`` it asks whether one more gap below ``tol`` would
    complete the window.
    """
    k = CONVERGENCE_WINDOW - spare
    return len(gaps) >= k and all(g < tol for g in gaps[len(gaps) - k:])


def solve_fixed_point(
    params: ModelParams,
    disorder: DisorderSpec,
    rate_scale: float,
    rng: np.random.Generator,
    pop_size: int = DEFAULT_POP_SIZE,
    tol: float = DEFAULT_TOL,
    max_gens: int = DEFAULT_MAX_GENS,
    init: Population | None = None,
) -> RdeReport:
    """Iterate the push-forward until the W1 gap stays below ``tol``.

    Convergence requires ``CONVERGENCE_WINDOW`` consecutive
    generation-to-generation gaps below ``tol``; hitting ``max_gens``
    first returns the report with ``converged=False`` rather than
    raising.  Note the gap has a sampling floor of order
    pop_size**-0.5, so a tight tol with a small population can be
    unattainable by design.

    One helper thread draws generation g+1 while this thread pushes
    generation g and measures its gap, whenever generation g+1 is sure
    to run: below ``max_gens`` and with no gap g able to complete the
    window.  Otherwise it is drawn after gap g, if at all.  The draws are
    the serial loop's calls in its order, and a look-ahead that a failed
    push leaves unused is undone, so the report and the final state of
    ``rng`` equal those of :func:`step` plus :func:`wasserstein` per
    generation.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rate = params.alpha * rate_scale * params.p
    current = (
        delta_population(1.0, pop_size, rate) if init is None else init
    )
    gaps: list[float] = []
    converged = False
    with ThreadPoolExecutor(max_workers=1) as helper:

        def draw(in_size):
            # rng's state before the draw, to undo it if a push fails first;
            # the helper is the only user of rng while a draw runs
            return rng.bit_generator.state, helper.submit(
                _draws, params, disorder, rate_scale, pop_size, in_size, rng
            )

        ahead = draw(current.size) if max_gens > 0 else None
        try:
            while ahead is not None:
                job, ahead = ahead[1], None
                draws = job.result()
                if len(gaps) + 1 < max_gens and not _stops(gaps, tol, spare=1):
                    ahead = draw(pop_size)
                new = _push(current, params, draws)
                gaps.append(wasserstein(current, new))
                current = new
                if _stops(gaps, tol):
                    converged = True
                    break
                if ahead is None and len(gaps) < max_gens:
                    ahead = draw(pop_size)
        finally:
            if ahead is not None:  # a push failed: undo the unused draws
                state, job = ahead
                wait([job])
                rng.bit_generator.state = state
    return RdeReport(current, len(gaps), tuple(gaps), converged, tol)


# ---------------------------------------------------------------------------
# contraction diagnostics


def contraction_factor(
    params: ModelParams,
    disorder: DisorderSpec,
    q: float,
    n_mc: int,
    rng: np.random.Generator,
) -> Estimate:
    """Monte Carlo bound on the W_q modulus of the map conjugated by y = -log x.

    Estimates E[(chi_R/(gamma + chi_R))^q * R*(p-1)] with
    chi_R = sum_{k<=R} z_k^2 and R Poisson(alpha*p).  Below 1, the
    conjugate map contracts in W_q and the fixed point is unique.
    """
    if params.beta == 0:
        raise ValueError("contraction factor undefined at beta = 0")
    if q < 1:
        raise ValueError("q must be at least 1")
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    gamma = 1.0 / (2.0 * params.beta)
    counts, zeta, _ = _clause_draws(disorder, params.alpha * params.p, 0, n_mc, rng)
    chi = np.bincount(_owners(counts), weights=zeta**2, minlength=n_mc)
    samples = (chi / (gamma + chi)) ** q * counts * (params.p - 1)
    return mc_estimate(samples)


@dataclass(frozen=True)
class ContractionScan:
    """Grid search outcome: the certified q (None if none) and all estimates."""

    q: float | None
    estimates: tuple[tuple[float, Estimate], ...]


def find_contractive_q(
    params: ModelParams,
    disorder: DisorderSpec,
    q_grid,
    n_mc: int,
    rng: np.random.Generator,
) -> ContractionScan:
    """Smallest grid q whose estimated modulus is below 1 by 3 SE."""
    results = []
    found = None
    for q in q_grid:
        est = contraction_factor(params, disorder, float(q), n_mc, rng)
        results.append((float(q), est))
        if found is None and est.value + 3.0 * est.std_error < 1.0:
            found = float(q)
    return ContractionScan(found, tuple(results))


# ---------------------------------------------------------------------------
# exploratory coupled recursion (p = 2)


def pair_step(
    pairs: np.ndarray,
    params: ModelParams,
    disorder: DisorderSpec,
    out_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One generation of the coupled (U, X) recursion at arity 2.

    Each output pair uses the same clause draws in both coordinates:

        U' = 1 - sum_k 2*beta*z_k*x_k*X_k*U_k / (1 + 2*beta*x_k^2*X_k)
        X' = (1 + sum_k 2*beta*z_k^2 / (1 + 2*beta*x_k^2*X_k))^{-1}

    with R Poisson(2*alpha) and (U_k, X_k) resampled jointly from
    ``pairs``.  Only the X marginal is known to have a unique fixed
    point; the coupled iteration is an exploratory probe.
    """
    if params.p != 2:
        raise ValueError("the coupled recursion is defined for p = 2 only")
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise ValueError("pairs must be a nonempty (n, 2) array of (U, X)")
    if out_size < 1:
        raise ValueError("out_size must be at least 1")
    two_beta = 2.0 * params.beta
    counts, zeta, xi = _clause_draws(disorder, 2.0 * params.alpha, 1, out_size, rng)
    owner = _owners(counts)
    xi = xi[:, 0]
    picks = pairs[rng.integers(0, pairs.shape[0], size=zeta.size)]
    u_k, x_k = picks[:, 0], picks[:, 1]
    denom = 1.0 + two_beta * xi**2 * x_k
    u_new = 1.0 - np.bincount(
        owner, weights=two_beta * zeta * xi * x_k * u_k / denom, minlength=out_size
    )
    x_new = 1.0 / (
        1.0
        + np.bincount(owner, weights=two_beta * zeta**2 / denom, minlength=out_size)
    )
    return np.column_stack([u_new, x_new])


def iterate_pair(
    params: ModelParams,
    disorder: DisorderSpec,
    n_generations: int,
    pop_size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run :func:`pair_step` from the all-(1, 1) start for ``n_generations``."""
    pairs = np.ones((pop_size, 2))
    for _ in range(n_generations):
        pairs = pair_step(pairs, params, disorder, pop_size, rng)
    return pairs


# ---------------------------------------------------------------------------
# portable text format


def dump_population(pop: Population, path) -> None:
    """Single-column decimal text: header (domain rate generation size), values.

    The domain field is always the literal ``unit_interval``.
    """
    lines = [f"unit_interval {format_float(pop.rate)} {pop.generation} {pop.size}"]
    lines.extend(format_float(v) for v in pop.values)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_population(path) -> Population:
    """Read a population written by :func:`dump_population`."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = [line.strip() for line in fh if line.strip()]
    if not raw:
        raise ValueError(f"{path}: empty population file")
    head = raw[0].split()
    if len(head) != 4:
        raise ValueError(f"{path}: malformed header (expected 4 fields)")
    if head[0] != "unit_interval":
        raise ValueError(f"{path}: unknown population domain {head[0]!r}")
    rate, generation, size = float(head[1]), int(head[2]), int(head[3])
    values = np.array([float(v) for v in raw[1:]])
    if values.size != size:
        raise ValueError(f"{path}: header promises {size} values, found {values.size}")
    return Population(values, rate, generation)
