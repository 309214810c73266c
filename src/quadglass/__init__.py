"""quadglass: numerical laboratory for a diluted quadratic spin system.

The package simulates the sparse rank-one interaction ensemble
A = I + 2*beta * sum_k v_k v_k^T at finite size, solves the associated
spin-variance distributional equation by population dynamics, evaluates
the limiting free-energy formula, and ships a statistical harness that
checks every structural identity the two are built on.
"""

from .disorder import DisorderSpec, truncate_spec
from .free_energy import convergence_study, limiting_free_energy
from .model import (
    Factorization,
    ModelParams,
    cavity_split,
    offdiag_moments,
    sample_model,
    woodbury_residual,
)
from .rde import (
    Population,
    delta_population,
    find_contractive_q,
    iterate_pair,
    solve_fixed_point,
    wasserstein,
)
from .stats import poisson_uniform_check
from .streams import stream, substreams

__version__ = "0.1.0"

# exactly the names the demos import; everything else lives in its submodule
__all__ = [
    "DisorderSpec",
    "Factorization",
    "ModelParams",
    "Population",
    "cavity_split",
    "convergence_study",
    "delta_population",
    "find_contractive_q",
    "iterate_pair",
    "limiting_free_energy",
    "offdiag_moments",
    "poisson_uniform_check",
    "sample_model",
    "solve_fixed_point",
    "stream",
    "substreams",
    "truncate_spec",
    "wasserstein",
    "woodbury_residual",
]
