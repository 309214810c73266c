"""The structural identities behind the cavity analysis.

Three separate facts, each checked by direct simulation: the thinning
split of the clause process around one site, the rank-R update formula
for the last diagonal entry of the inverse (with its error bound), and
the centered off-diagonal moments of the inverse under symmetric
disorder.  Closes with the uniform-index / thinned-rate identity used by
the clause-by-clause free-energy computation.
"""

import numpy as np

from quadglass import (
    DisorderSpec,
    ModelParams,
    cavity_split,
    offdiag_moments,
    poisson_uniform_check,
    stream,
    woodbury_residual,
)

params = ModelParams(alpha=1.0, beta=0.5, h=0.0, p=2)
spec = DisorderSpec("rademacher")

# thinning: bulk Poisson(alpha(N-p)) + boundary Poisson(alpha p)
split = cavity_split(params, spec, 500, stream(5, "demo-split"))
print(f"split at N=500: bulk {split.bulk.n_clauses} clauses, "
      f"boundary {split.n_boundary} through the last site")
print(f"bulk plus boundary: {split.bulk.n_clauses + split.n_boundary} clauses "
      f"(equal in law to direct sampling)")

# rank-R cavity update: residual vs its computable bound
print("\ncavity residual at the last site, 200 splits at N=800:")
residuals, bounds = [], []
for child in stream(2, "demo-res").spawn(200):
    res = woodbury_residual(cavity_split(params, spec, 800, child))
    residuals.append(res.residual)
    bounds.append(res.bound)
residuals, bounds = np.array(residuals), np.array(bounds)
print(f"  median residual {np.median(residuals):.5f}, "
      f"90th percentile {np.quantile(residuals, 0.9):.5f}")
ratios = residuals[bounds > 0] / bounds[bounds > 0]
print(f"  residual/bound: median {np.median(ratios):.3f}, "
      f"max {ratios.max():.3f} (a single O(1) constant dominates)")

# symmetric disorder centers the off-diagonal inverse entries
print("\noff-diagonal moments of the inverse, 300 replicates at N=300:")
report = offdiag_moments(params, spec, 300, 300, stream(3, "demo-od"))
for name, est in [
    ("E inv_12          ", report.entry_12),
    ("E inv_12 * inv_13 ", report.product_12_13),
    ("E inv_12 * inv_34 ", report.product_12_34),
]:
    z = abs(est.value) / est.std_error if est.std_error else 0.0
    print(f"  {name} {est.value:+.2e} +- {est.std_error:.2e}  ({z:.2f} se from 0)")
print(f"  (N-1) E inv_12^2   {report.scaled_square.value:.4f}  (bounded by 1)")

# a uniformly chosen partial clause count is a Poisson count at uniform rate
print("\nuniform-index vs thinned-rate construction at rate 3:")
check = poisson_uniform_check(3.0, 10**6, stream(4, "demo-pu"))
print(f"  total-variation distance {check.tv_distance:.5f} over "
      f"{check.n_samples} samples per side")
print(f"  P(index = 0) = {check.p_zero.value:.5f} "
      f"(exact value (1 - e^-3)/3 = {(1 - np.exp(-3)) / 3:.5f})")
