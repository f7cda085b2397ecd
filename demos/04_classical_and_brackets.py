"""Constrained classical motion, two derivations, one trajectory.

Integrates the reduced-chart equations of motion, lifts the result to the
embedding, and overlays it on an independently integrated constrained
geodesic.  Then spot-checks the Dirac bracket algebra that generates the
same flow on the phase-space shell.
"""

import numpy as np

from rotorkit.dynamics import (
    conserved_series,
    embedded_from_reduced,
    integrate_embedded_oracle,
    integrate_reduced,
    suite_dirac_brackets,
)
from rotorkit.geometry import ModelParams

p = ModelParams(D=3, R=1.0)
q0, p0 = np.array([0.2, 0.0]), np.array([0.0, 0.08])  # reduced chart

T, dt = 10.0, 1e-3
traj = integrate_reduced(q0, p0, T, dt, p)
x0, v0 = embedded_from_reduced(q0, p0, p)
oracle = integrate_embedded_oracle(x0, v0, T, dt, p)

lift_x, lift_v = embedded_from_reduced(traj.q, traj.p, p)  # every state at once

print(f"integrated {len(traj)} steps over t in [0, {T:g}]")
print(f"sup |lifted reduced - embedded oracle| = "
      f"{np.max(np.abs(lift_x - oracle.q)):.3e}")

print("\nconservation along both routes (max drift from t=0):")
for name, x, v in (("lifted reduced ", lift_x, lift_v),
                   ("embedded oracle", oracle.q, oracle.p)):
    series = conserved_series(x, v, p)
    e = series["energy"]
    L = series["L"]
    print(f"  {name}: energy {np.max(np.abs(e - e[0])):.2e}, "
          f"angular momenta {np.max(np.abs(L - L[0])):.2e}")

rad = np.max(np.abs(np.sum(oracle.q ** 2, axis=1) - p.R ** 2))
tan = np.max(np.abs(np.sum(oracle.q * oracle.p, axis=1)))
print(f"\nconstraint residuals on the oracle: |x|^2 - R^2 <= {rad:.2e}, "
      f"x.v <= {tan:.2e}")

# the bracket algebra behind this flow, sampled at random shell points:
# {x,x} = 0, {x,p} = projector, {p,p} = rotation generator; the suite
# also checks bitwise antisymmetry and the Jacobi identity
report, _ = suite_dirac_brackets(p, samples=500, seed=5)
print("\nDirac bracket families at 500 random shell points:")
for key in ("xx", "xp", "pp"):
    dev = report["families"][key]["max_deviation"]
    print(f"  {{{key[0]},{key[1]}}} deviation {dev:.3e}")
print(f"  overall max {report['max_deviation']:.3e}")
print(f"  antisymmetry exact: {report['antisymmetry_exact']}, "
      f"Jacobi sum {report['jacobi_max_deviation']:.1e}")
