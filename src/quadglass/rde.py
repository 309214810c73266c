"""Population-dynamics solver for the spin-variance distributional equation.

The cavity recursion maps a law mu on (0, 1] to the law of

    ( 1 + sum_{k<=R} 2*beta*z_k^2 / (1 + 2*beta * sum_{r<=p-1} X_{k,r} * x_{k,r}^2) )^{-1}

with R Poisson(alpha*p), weights z, x i.i.d. from the disorder law,
and X_{k,r} i.i.d. from mu.  Its fixed point is the limiting law of the
spin variances.  The map thinned to rate x is the same map at edge
density alpha*x, so a thinned solve passes
``dataclasses.replace(params, alpha=params.alpha * x)``.  Populations
(large empirical samples) represent laws; one generation resamples the
whole population synchronously from the previous snapshot, so the
update is a pure push-forward with clean fixed-point semantics.

By Poisson splitting, one generation's clauses are Poisson(rate *
out_size) clauses with uniform owners among the outputs.  One
generation is :func:`step`: it draws them through the sampler that
builds a finite realization, :func:`model._clauses` at width 1 (the
one site is the clause's owner), then the interior weights and the
resample indices, and pushes the population through the draws in place.

The solve stops at its own noise floor.  Given generation g-1, the
outputs of one :func:`step` are independent, so the two halves of
generation g are two independent pushes of generation g-1.  In one
dimension, sqrt(n) times the W1 between two independent empirical laws
of size n has a limit (del Barrio, Gine and Matran 1999; Bobkov and
Ledoux 2019), so the halves' W1 over sqrt(2), the floor, estimates the
W1 between two pushes of size n: the gap a stationary chain shows at
this population size.  The stopping rule (:func:`_stops`) compares the
gaps with the floors and checks the population mean for drift.

Under y = -log x the map is conjugate to one that contracts in the
Wasserstein-q metric for q large enough, which is what makes the fixed
point unique; :func:`find_contractive_q` estimates that modulus over a
grid of q from one draw and certifies the smallest contracting q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .disorder import DisorderSpec, _sample_shape
from .model import ModelParams, NumericalError, _clauses, _float_range, write_rows
from .stats import Estimate, mc_estimate

CONVERGENCE_WINDOW = 10
# cap on the window's upper 2-SE bound on gap - floor (see _stops)
TOL = 1e-3
DEFAULT_POP_SIZE = 100_000
DEFAULT_MAX_GENS = 500
# picked X's that one gather of _times_picked holds, 8 bytes each: a
# resample's working set is its draws plus this one fixed chunk
GATHER_CHUNK = 2**14


@dataclass(frozen=True)
class Population:
    """Fixed-size empirical sample of a variance law on (0, 1].

    ``rate`` records the Poisson clause rate alpha*p the population
    was built under; ``generation`` counts applications of the map.
    """

    values: np.ndarray
    rate: float = 0.0
    generation: int = 0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("population values must be a nonempty 1-D array")
        if not (values.min() > 0 and values.max() <= 1):  # nan fails both
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
    """Outcome of a fixed-point run: final population, gaps and floors per generation."""

    population: Population
    gaps: tuple[float, ...]
    floors: tuple[float, ...]
    converged: bool

    @property
    def generations(self) -> int:
        return len(self.gaps)

    @property
    def gap(self) -> float:
        """Mean W1 gap over the stopping rule's window (the last generations)."""
        return _window_mean(self.gaps)

    @property
    def floor(self) -> float:
        """Mean noise floor over the same window."""
        return _window_mean(self.floors)


def _window_mean(values) -> float:
    tail = values[-CONVERGENCE_WINDOW:]
    return float(np.mean(tail)) if tail else math.nan


def delta_population(value: float, size: int, rate: float = 0.0) -> Population:
    """Point-mass population, the usual initialization."""
    return Population(np.full(size, float(value)), rate, 0)


# ---------------------------------------------------------------------------
# one generation of the push-forward


def step(
    pop: Population,
    params: ModelParams,
    disorder: DisorderSpec,
    out_size: int,
    rng: np.random.Generator,
) -> Population:
    """One synchronous generation of the variance-law map.

    Every output value is an independent draw of the displayed random
    variable with the X's resampled uniformly (with replacement) from
    ``pop``.  Outputs always lie in (0, 1]; entries whose clause count
    is zero come out exactly 1.  The clause count, the owners and the
    outer weights come from :func:`model._clauses` at width 1, then the
    interior weights from :func:`disorder._sample_shape`, then the
    resample indices.  The arithmetic runs in place on the draws, with
    the IEEE operations of the one-line expression
    ``1/(1 + bincount(2b z^2 / (1 + 2b sum_r X_r x_r^2)))``.  A
    generation that overflows or makes a nan, and so would leave
    (0, 1], raises :class:`model.NumericalError`.

    Each array is released once it is last read, and the resample
    indices are int32 with a gather of :data:`GATHER_CHUNK` values at a
    time, so a step peaks at about 16*p bytes per clause (tracemalloc,
    pop 10^5, alpha = 1, Gaussian or Rademacher: 32.0 B at p = 2, 40.7 B
    at p = 3).
    """
    if out_size < 1:
        raise ValueError("out_size must be at least 1")
    rate = params.alpha * params.p
    what = f"generation {pop.generation + 1} at rate {rate:.6g}"
    with _float_range(what):
        owners, zeta = _clauses(disorder, rate * out_size, out_size, 1, rng)
        owners, zeta = owners[:, 0], zeta[:, 0]
        xi = _sample_shape(disorder, (zeta.size, params.p - 1), rng)
        # at p = 1, xi has no columns: the resample draws nothing and denom is 1
        picks = _resample_indices(rng, pop.size, xi.shape)
        np.square(xi, out=xi)
        _times_picked(xi, pop.values, picks)
        del picks
        two_beta = 2.0 * params.beta
        denom = np.sum(xi, axis=1)
        del xi
        denom *= two_beta
        denom += 1.0
        np.square(zeta, out=zeta)
        zeta *= two_beta
        zeta /= denom
        del denom
        # not in place: with no clause drawn, bincount returns int64 zeros
        totals = np.bincount(owners, weights=zeta, minlength=out_size) + 1.0
        if not np.isfinite(totals).all():  # bincount is no ufunc: errstate misses it
            raise NumericalError(f"{what} left the float range: a per-output sum overflowed")
        np.divide(1.0, totals, out=totals)
    return Population(totals, rate, pop.generation + 1)


def _resample_indices(rng, n, shape):
    """Uniform indices into 0..n-1 in an array of ``shape``.

    For n up to 2**31 they are int32: numpy then makes the same 32-bit
    draws as for int64, so the values and the generator state match.
    Above it they stay int64, so no index wraps.
    """
    return rng.integers(0, n, size=shape, dtype=np.int32 if n <= 2**31 else np.int64)


def _times_picked(out, values, picks):
    """``out *= values[picks]`` in place, gathering ``GATHER_CHUNK`` picks at a time.

    Each product is the same IEEE multiplication as the one-line form,
    so the result does not depend on the chunk; ``out`` and ``picks``
    are C-contiguous arrays of one shape.
    """
    flat_out, flat_picks = out.reshape(-1), picks.reshape(-1)
    for start in range(0, flat_picks.size, GATHER_CHUNK):
        chunk = slice(start, start + GATHER_CHUNK)
        flat_out[chunk] *= values[flat_picks[chunk]]


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
    return _sorted_distance(np.sort(a.values), np.sort(b.values))


def _sorted_distance(x, y):
    """W1 between the empirical laws of two sorted arrays."""
    if x.size == y.size:
        diffs = x - y
    else:
        grid_n = max(x.size, y.size)
        probs = (np.arange(grid_n) + 0.5) / grid_n
        diffs = np.interp(probs, (np.arange(x.size) + 0.5) / x.size, x)
        diffs -= np.interp(probs, (np.arange(y.size) + 0.5) / y.size, y)
    np.abs(diffs, out=diffs)
    return float(diffs.mean())


# ---------------------------------------------------------------------------
# fixed-point iteration


def _stops(gaps, floors, means, mean_ses):
    """The stopping rule over the last ``CONVERGENCE_WINDOW`` generations.

    With d = gap - floor per generation, the mean of d must be at most
    2 SE above 0, and below ``TOL`` by 2 SE: ``TOL`` caps the window's
    upper 2-SE bound on d.  A stationary chain meets that cap by chance
    at any positive cap, so it is not a precision guarantee.  The
    population mean's least-squares change across the window must lie
    within 2 SE of 0, its SE taken from each generation's ``mean_ses``
    as if independent.
    The comparisons with 2 SE are not strict: at beta = 0 every gap,
    floor and SE is 0, and the rule stops at the window.
    """
    w = CONVERGENCE_WINDOW
    if len(gaps) < w:
        return False
    excess = np.subtract(gaps[-w:], floors[-w:])
    mean, se = excess.mean(), excess.std(ddof=1) / np.sqrt(w)
    t = np.arange(w) - (w - 1) / 2.0  # generations centred on the window
    change = (w - 1) * float(t @ np.asarray(means[-w:])) / float(t @ t)
    change_se = (w - 1) * float(np.sqrt(np.mean(np.square(mean_ses[-w:])) / (t @ t)))
    return bool(mean <= 2 * se and mean + 2 * se < TOL and abs(change) <= 2 * change_se)


def solve_fixed_point(
    params: ModelParams,
    disorder: DisorderSpec,
    rng: np.random.Generator,
    pop_size: int = DEFAULT_POP_SIZE,
    max_gens: int = DEFAULT_MAX_GENS,
    init: Population | None = None,
) -> RdeReport:
    """Iterate the push-forward until the W1 gap sits at its noise floor.

    Each generation is one :func:`step` on ``rng``, the only generator
    the solve draws on.  Its floor is the W1 between its first and
    second halves of ``pop_size // 2`` outputs each (an odd population
    leaves its last output out), divided by sqrt(2): the gap between
    two independent pushes of the previous generation.  The solve stops
    by :func:`_stops`, where ``TOL`` caps the window's upper 2-SE bound
    on gap - floor, so a population whose floor lies above ``TOL`` can
    converge.  A stationary chain meets that cap by chance at any
    positive cap: it bounds the excess over the floor, not the precision.
    Hitting ``max_gens`` first returns the report with
    ``converged=False`` rather than raising.
    """
    if pop_size < 2:
        raise ValueError("pop_size must be at least 2: the floor splits it in halves")
    rate = params.alpha * params.p
    current = (
        delta_population(1.0, pop_size, rate) if init is None else init
    )
    half = pop_size // 2
    previous = np.sort(current.values)
    gaps: list[float] = []
    floors: list[float] = []
    means: list[float] = []
    mean_ses: list[float] = []
    converged = False
    while len(gaps) < max_gens and not converged:
        current = step(current, params, disorder, pop_size, rng)
        values = current.values
        ordered = np.sort(values)
        floors.append(_sorted_distance(np.sort(values[:half]),
                                       np.sort(values[half:2 * half])) / math.sqrt(2))
        gaps.append(_sorted_distance(previous, ordered))
        means.append(float(ordered.mean()))
        mean_ses.append(float(ordered.std()) / math.sqrt(ordered.size))
        previous = ordered
        converged = _stops(gaps, floors, means, mean_ses)
    return RdeReport(current, tuple(gaps), tuple(floors), converged)


# ---------------------------------------------------------------------------
# contraction diagnostics


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
    """Smallest grid q whose estimated W_q modulus is below 1 by 3 SE.

    The modulus of the map conjugated by y = -log x is bounded by
    E[(chi_R/(gamma + chi_R))^q * R*(p-1)] with chi_R = sum_{k<=R} z_k^2,
    R Poisson(alpha*p) and gamma = 1/(2*beta).  Below 1, the conjugate
    map contracts in W_q and the fixed point is unique.  One draw of
    (R, chi_R) serves every grid q, so the estimates do not increase
    with q.
    """
    q_grid = [float(q) for q in q_grid]
    if params.beta == 0:
        raise ValueError("contraction factor undefined at beta = 0")
    if any(q < 1 for q in q_grid):
        raise ValueError("q must be at least 1")
    if n_mc < 1:
        raise ValueError("n_mc must be at least 1")
    gamma = 1.0 / (2.0 * params.beta)
    owners, zeta = _clauses(disorder, params.alpha * params.p * n_mc, n_mc, 1, rng)
    counts = np.bincount(owners[:, 0], minlength=n_mc)
    chi = np.bincount(owners[:, 0], weights=zeta[:, 0] ** 2, minlength=n_mc)
    ratio = chi / (gamma + chi)
    estimates = tuple((q, mc_estimate(ratio ** q * counts * (params.p - 1))) for q in q_grid)
    found = next((q for q, est in estimates if est.value + 3.0 * est.std_error < 1.0), None)
    return ContractionScan(found, estimates)


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
    owners, zeta = _clauses(disorder, 2.0 * params.alpha * out_size, out_size, 1, rng)
    owner, zeta = owners[:, 0], zeta[:, 0]
    xi = _sample_shape(disorder, zeta.shape, rng)
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
    """Write a population as :func:`model.write_rows` rows: the header
    ``unit_interval rate generation size``, then one value per row."""
    head = ("unit_interval", float(pop.rate), pop.generation, pop.size)
    write_rows(path, [head, *((v,) for v in pop.values)])
