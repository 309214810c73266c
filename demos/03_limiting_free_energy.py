"""The limiting free energy and how fast finite systems reach it.

Evaluates the infinite-size formula — the field term times the mean
fixed-point variance plus a Gauss-Radau integral of edge terms over
thinned clause rates — and compares it against simulated systems of
increasing size, including the concentration rate of the fluctuations.
"""

from quadglass import (
    DisorderSpec,
    ModelParams,
    convergence_study,
    limiting_free_energy,
    stream,
)
from quadglass.stats import slope_fit

params = ModelParams(alpha=0.5, beta=0.25, h=1.0, p=2)
spec = DisorderSpec("rademacher")
n_nodes = 16

result = limiting_free_energy(params, spec, n_nodes, stream(42, "demo-limit"))
print(f"limiting free energy: {result.estimate.value:.6f} "
      f"+- {result.estimate.std_error:.1e}")
print(f"field term h^2/2 * E X(1) = {result.h_term:.6f}")
print("per-node breakdown (thinned rate -> edge term):")
for node in result.nodes[::4]:
    print(f"  x = {node.x:.4f}   rate {node.rate:.3f}   "
          f"edge {node.term:.5f} +- {node.std_error:.1e}   "
          f"converged {node.converged}")

print("\nfinite sizes against the limit (10 seeds per size):")
study = convergence_study(params, spec, [100, 400, 1600], 10, n_nodes,
                          stream(43, "demo-study"))
print(f"{'N':>6} {'mean F_N':>12} {'std':>10} {'gap to limit':>13}")
for row in study.rows:
    print(f"{row.n_sites:>6} {row.mean_f:>12.6f} {row.std_f:>10.2e} "
          f"{row.gap:>13.2e}")
slope = slope_fit([row.n_sites for row in study.rows], [row.std_f for row in study.rows])
print(f"log-log slope of std vs N: {slope:.3f} "
      f"(concentration at the ~N^-1/2 rate)")
