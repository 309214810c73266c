"""Tour of one finite-size realization.

Samples a sparse rank-one ensemble, inspects the interaction matrix,
factors it once, and reads every observable the package derives from
it off that one factor: the log-determinant (checked against numpy),
spin variances, the ones quadratic form, the free energy, and Gibbs
samples checked against their exact moments.
"""

import numpy as np

from quadglass import (
    DisorderSpec,
    Factorization,
    ModelParams,
    coupling_matrix,
    sample_model,
    stream,
)

params = ModelParams(alpha=1.0, beta=0.5, h=1.0, p=2)
spec = DisorderSpec("rademacher")
rng = stream(2024, "demo-ensemble")

model = sample_model(params, spec, n_sites=150, rng=rng)
print(f"sampled {model.n_clauses} clauses on {model.n_sites} sites "
      f"(rate alpha*N = {params.alpha * model.n_sites:.0f})")

a = coupling_matrix(model)
eigs = np.linalg.eigvalsh(a)
print(f"matrix is exactly symmetric: {np.array_equal(a, a.T)}")
print(f"spectrum floor {eigs.min():.6f} (never below 1: the identity part)")

# one factorization answers every query below
fac = Factorization(model)
ld_numpy = np.linalg.slogdet(a)[1]
print(f"\nlog det via the sparse factor  {fac.log_det:.12f}")
print(f"log det via numpy slogdet      {ld_numpy:.12f}")
print(f"relative disagreement          {abs(fac.log_det - ld_numpy) / ld_numpy:.2e}")

# spin variances are the diagonal of the inverse
variances = fac.inverse_diagonal()
print(f"\nspin variances: min {variances.min():.4f}, "
      f"mean {variances.mean():.4f}, max {variances.max():.4f} (all in (0, 1])")

print(f"ones quadratic form (1'A^-1 1)/N = {fac.ones_quadratic_form:.6f}")
print(f"free energy F_N = h^2/2 * quad + logdet/(2N) = {fac.free_energy:.6f}")

# Gibbs samples: mean h*A^-1*1, covariance A^-1
draws = fac.sample_spins(50_000, stream(2024, "demo-spins"))
emp_var = draws[:, 0].var(ddof=1)
print(f"\nGibbs sampling, coordinate 0: empirical variance {emp_var:.4f} "
      f"vs exact {variances[0]:.4f}")
mean_exact = params.h * np.linalg.solve(a, np.ones(model.n_sites))
worst = np.abs(draws.mean(axis=0) - mean_exact).max()
print(f"largest |empirical - exact| mean deviation over sites: {worst:.4f}")
