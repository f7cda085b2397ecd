"""One Hamiltonian, four ways.

Applies the reduced-chart H (three assembly routes), the hyperspherical H,
and the angular-momentum square to the same harmonic and shows they agree
to rounding.  Ends with a hermiticity scoreboard that includes the
deliberately broken operator orderings kept around as controls.
"""

import numpy as np

from rotorkit import expressions as ex
from rotorkit.geometry import ModelParams, hyperspherical_var_names
from rotorkit.operators import (
    OperatorTag,
    apply_operator,
    harmonic_polynomials,
    hermiticity_defect,
    pullback_to_hyperspherical,
    pullback_to_reduced,
    reduced_var_names,
)

p = ModelParams(D=3, R=1.3, hbar=0.8)
rng = np.random.default_rng(2)

# a degree-3 harmonic restricted to the sphere; exact eigenvalue known
h = harmonic_polynomials(p.D, 3)[0]
f_red = pullback_to_reduced(h, p)

pts = rng.uniform(-0.4, 0.4, size=(5, p.D - 1))
env = {n: pts[:, i] for i, n in enumerate(reduced_var_names(p))}
fv = ex.evaluate(f_red, env)

print("H f at five points, every implemented route:")
rows = [("reduced, laplace_beltrami", OperatorTag("H_cart", route="laplace_beltrami")),
        ("reduced, composition", OperatorTag("H_cart", route="composition")),
        ("reduced, divergence", OperatorTag("H_cart", route="divergence")),
        ("sum L^2 / (2 R^2)", OperatorTag("L2"))]
for label, tag in rows:
    v = apply_operator(tag, f_red, pts, p)
    print(f"  {label:26s} {np.array_str(v, precision=10)}")

lam = p.hbar ** 2 * 3 * (3 + p.D - 2) / (2 * p.R ** 2)
print(f"\nexact eigenvalue hbar^2 l(l+D-2)/(2R^2) = {lam:.10f}")
print(f"max |H f / f - lambda|, reduced chart:        "
      f"{np.max(np.abs(v / fv - lam)):.2e}")

f_ang = pullback_to_hyperspherical(h, p)
angs = np.column_stack([rng.uniform(0.3, 2.8, 5), rng.uniform(0.0, 6.2, 5)])
va = apply_operator(OperatorTag("H_curv"), f_ang, angs, p)
fa = ex.evaluate(f_ang,
                 {n: angs[:, i]
                  for i, n in enumerate(hyperspherical_var_names(p))})
print(f"max |H f / f - lambda|, hyperspherical chart: "
      f"{np.max(np.abs(va / fa - lam)):.2e}")

# hermiticity under the sphere measure: shipped orderings are symmetric to
# rounding, the two broken controls are loudly not.  Both pairs mix polar
# parities so no orthogonality accident can hide a defect.
th, phi = (ex.Var(n) for n in hyperspherical_var_names(p))
sin_th, cos_th = ex.sin(th), ex.cos(th)
f1 = ex.mul(cos_th, cos_th)
f2 = ex.exp(ex.mul(ex.Const(0.5), cos_th))
print("\nhermiticity defects for H on a generic pair (resolution 64):")
for label, tag in (("H_curv (shipped)", OperatorTag("H_curv")),
                   ("H_curv_unsym (control)", OperatorTag("H_curv_unsym"))):
    d = hermiticity_defect(tag, f1, f2, p)
    print(f"  {label:30s} {d:.3e}")

# the momentum pair needs care: pi carries a cot(theta) term, so unless the
# test functions damp the poles the *quadrature* (not the operator) produces
# a spurious defect.  Matching sine parities keeps every integrand a
# polynomial in cos(theta) and Gauss-Legendre is then exact.
g1 = ex.mul(sin_th, cos_th)
g2 = ex.mul(ex.mul(sin_th, sin_th), ex.exp(ex.mul(ex.Const(0.5), cos_th)))
print("hermiticity defects for pi on a parity-matched pair:")
for label, tag in (("pi_curv_1 (shipped)", OperatorTag("pi_curv", i=1)),
                   ("pi_curv_1 displayed (control)",
                    OperatorTag("pi_curv", i=1, convention="displayed"))):
    d = hermiticity_defect(tag, g1, g2, p)
    print(f"  {label:30s} {d:.3e}")
