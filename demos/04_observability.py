"""Observability criteria: Gramians, defect observations, resolvent means.

A Lyapunov weight for a stable generator produces an observation
operator whose infinite-horizon Gramian recovers the weight exactly;
Gramian positivity decides exact observability; the finite Gramian
satisfies its Lyapunov-type identity; and the resolvent means of the
isometric-similarity criterion agree with their Plancherel form.
"""

import math

import numpy as np

from simgroup import (
    ObservedSystem,
    cesaro_orbit_mean,
    defect_observation,
    duality_check,
    finite_time_observability_test,
    infinite_gramian,
    naboko_integral,
    observability_gramian,
    operator_norm,
)

A = np.array([[-1.0, 4.0], [0.0, -1.0]])
P = np.diag([1.0, 4.0])

# weight -> observation -> Gramian -> the same weight again
C = defect_observation(A, P)
print("defect observation C with C*C = -(A*P + PA):")
print(np.round((C.conj().T @ C).real, 6))
rep = infinite_gramian(ObservedSystem(A, C))
print("infinite-horizon Gramian recovers P:",
      operator_norm(rep.gramian - P) < 1e-8)
print("  attached certificate kappa:", round(rep.certificate.kappa, 6))

# finite horizons: the criterion constants alpha, beta
sys2 = ObservedSystem(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[1.0, 0.0]]))
rep2 = observability_gramian(sys2, 1.0)
print("\nJordan pair with C = (1 0) at tau = 1: alpha = %.5f (observable: %s)"
      % (rep2.alpha, rep2.exactly_observable))
unobs = ObservedSystem(np.zeros((2, 2)), np.array([[1.0, 0.0]]))
print("A = 0 with C = (1 0): alpha =", observability_gramian(unobs, 1.0).gramian[1, 1].real)
print("finite-time test:", finite_time_observability_test(sys2, 1.0)["positive"])

# the Gramian's identity A*G + GA = exp(A*) C*C exp(A) - C*C at tau = 1
d = duality_check(ObservedSystem(A, C), 1.0)
print("\nGramian identity residual:", d["residual"])

# resolvent means: rotation gives pi, strict stability kills the floor
skew = 1j * np.diag([0.3, -0.7])
for p in naboko_integral(skew, [0.05, 0.1]):
    print(f"skew eps={p.eps}: quadrature {p.quad_max:.5f} ~ pi"
          f" (plancherel {p.plancherel_max:.5f}, gap {p.relative_gap:.2%})")
stable = np.array([[-1.0]])
p = naboko_integral(stable, [0.1])[0]
print("stable eps=0.1: plancherel %.6f = 2*pi*eps/(2*eps+2) = %.6f"
      % (p.plancherel_max, 2 * math.pi * 0.1 / (2 * 0.1 + 2)))

# Cesaro means separate the two cases as well
print("\ncesaro means, rotation:", cesaro_orbit_mean(skew, t_max=40.0)["liminf_estimate"])
print("cesaro means, stable:  ", cesaro_orbit_mean(stable, t_max=40.0)["limsup_estimate"])
