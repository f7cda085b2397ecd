"""Discretized rotor levels against the closed form l(l+D-2)/2.

Runs the dense collocation route at increasing resolutions, extrapolates,
and prints the cluster table next to the exact levels.  The point of the
exercise: the ground state sits at zero to rounding, i.e. the quantized
Hamiltonian carries no curvature offset.  A sector-decomposed run and a
Lanczos run cross-check the dense values, and the sector route repeats
the check at every D from 2 to 10.
"""

import numpy as np

from rotorkit.geometry import ModelParams
from rotorkit.spectra import (
    cluster_eigenvalues,
    extrapolate,
    reference_spectrum,
    route_spectrum,
)

p = ModelParams(D=3, R=1.0, hbar=1.0)
k = 16  # l = 0..3 inclusive: 1 + 3 + 5 + 7 eigenvalues

results = []
print("dense route, raw worst-case eigenvalue error:")
for res in (12, 16, 24):
    r = route_spectrum(p, [res], k, "dense")
    results.append(r.eigenvalues)
    ref = np.concatenate([[v] * m for v, m in reference_spectrum(p, 3)])
    print(f"  res {res:3d}: {np.max(np.abs(r.eigenvalues - ref)):.3e}")

values, err, flags = extrapolate(results, [12, 16, 24])
print("\nafter Richardson extrapolation over the three resolutions:")
print(f"  worst error {np.max(np.abs(values - ref)):.3e}"
      f"   (estimated {np.max(err):.1e}, flagged: {int(np.sum(flags))})")

print("\ncluster table (extrapolated) vs exact l(l+1)/2:")
print("  l   exact      computed        mult")
for l, (val, mult) in enumerate(cluster_eigenvalues(values, 1e-2)):
    exact = 0.5 * l * (l + 1)
    print(f"  {l}   {exact:8.4f}   {val:12.8f}   {mult}")
print(f"\n|E0| = {abs(values[0]):.2e}  (a curvature term would make this O(1))")

# sector decomposition peels the symmetry off analytically, so each level
# is spectrally exact even at modest resolution
sec = route_spectrum(p, [48], k, "sector")
print(f"\nsector route, worst error: "
      f"{np.max(np.abs(sec.eigenvalues - ref)):.3e}")

# Lanczos reports each degenerate value once; compare distinct levels.
# Any residual gap is the within-cluster discretization split: the dense
# column is a cluster mean, Lanczos converges to one copy of the cluster.
it = route_spectrum(p, [32], 8, "iterative", seed=3)
dense = route_spectrum(p, [32], k, "dense")
spread = [float(np.max(g) - np.min(g))
          for g in np.split(dense.eigenvalues, np.cumsum([1, 3, 5])[:3])]
print("Lanczos vs dense on distinct levels (same grid, res 32):")
print("  lanczos          dense mean       diff      cluster spread")
for i, (a, b) in enumerate(zip(
        [v for v, _ in cluster_eigenvalues(it.eigenvalues, 1e-2)][:3],
        [v for v, _ in cluster_eigenvalues(dense.eigenvalues, 1e-2)][:3])):
    print(f"  {a:14.10f}   {b:14.10f}   {abs(a - b):.1e}   {spread[i]:.1e}")

# the same closed form at every D the model accepts: on the sector route
# the ground state sits at zero and the level multiplicities follow the
# harmonic count C(D+l-1, l) - C(D+l-3, l-2)
print("\nsector route at every D, levels l = 0..3 (res 24):")
print("   D   |E0|       multiplicities    exact")
for D in range(2, 11):
    pD = ModelParams(D=D, R=1.0, hbar=1.0)
    ref = reference_spectrum(pD, 3)
    sec = route_spectrum(pD, [24], sum(m for _, m in ref), "sector")
    mults = [m for _, m in cluster_eigenvalues(sec.eigenvalues, 1e-6)]
    print(f"  {D:2d}   {abs(sec.eigenvalues[0]):.1e}   "
          f"{str(mults):16s}  {[m for _, m in ref]}")
