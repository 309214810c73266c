"""Population dynamics for the spin-variance law.

Iterates the cavity push-forward on a large empirical population until
the generation-to-generation Wasserstein gap settles at its noise
floor, shows that two extreme initializations land on the same law (the
fixed point is unique), and certifies uniqueness independently through
the log-domain contraction scan.
"""

from quadglass import (
    DisorderSpec,
    ModelParams,
    delta_population,
    find_contractive_q,
    solve_fixed_point,
    stream,
    wasserstein,
)
from quadglass.rde import TOL

params = ModelParams(alpha=1.0, beta=1.0, h=0.0, p=2)
spec = DisorderSpec("rademacher")
pop_size = 100_000

report = solve_fixed_point(params, spec, stream(7, "demo-fp"),
                           pop_size=pop_size, max_gens=150)
print(f"ran {report.generations} generations "
      f"(converged flag: {report.converged}, tol {TOL})")
print("gap trajectory against the floor, the W1 between two pushes of one population:")
for i in list(range(5)) + list(range(9, min(60, len(report.gaps)), 10)):
    print(f"  gen {i + 1:3d}   W1 gap {report.gaps[i]:.5f}   floor {report.floors[i]:.5f}")
pop = report.population
print(f"fixed-point population: mean {pop.mean():.4f}, "
      f"std {pop.values.std():.4f}, min {pop.values.min():.4f}")

# uniqueness probe: start from opposite corners of (0, 1]
print("\ntwo extreme initializations, independent randomness:")
top = solve_fixed_point(params, spec, stream(8, "demo-top"),
                        pop_size=pop_size, max_gens=120,
                        init=delta_population(1.0, pop_size))
bottom = solve_fixed_point(params, spec, stream(9, "demo-bottom"),
                           pop_size=pop_size, max_gens=120,
                           init=delta_population(0.05, pop_size))
gap = wasserstein(top.population, bottom.population)
print(f"  W1 between the two final populations: {gap:.2e} "
      f"(sampling floor is ~1e-3 at this population size)")

# independent certificate: the log-domain map contracts in W_q for some q
scan = find_contractive_q(params, spec, [1, 2, 4, 8, 16, 32, 64],
                          200_000, stream(10, "demo-scan"))
print("\ncontraction-modulus scan (estimate +- se):")
for q, est in scan.estimates:
    marker = "  <- certified" if q == scan.q else ""
    print(f"  q = {q:5.0f}   {est.value:.4f} +- {est.std_error:.4f}{marker}")
print(f"smallest q with modulus + 3 SE below 1: {scan.q}")
