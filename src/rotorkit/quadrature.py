"""Quadrature grids matched to the sphere measure.

The volume element in hyperspherical angles is
R^{D-1} prod_{k=1}^{D-2} sin^{D-1-k}(phi_k) dphi_1..dphi_{D-1}.
Substituting u_k = cos phi_k turns each polar weight into (1-u^2)^{alpha_k}
with alpha_k = (D-2-k)/2, which is a Gauss-Jacobi weight.  Using Jacobi nodes
(Gauss-Legendre whenever alpha_k = 0, i.e. always for D = 3) keeps the
half-integer weights *exact* instead of approximated, so weight sums hit the
closed-form sphere area at machine precision and hermiticity defects are not
polluted by quadrature error.  Azimuthal integrals use the uniform trapezoid
rule, which is spectrally accurate for periodic integrands.

The reduced cartesian chart covers the open upper hemisphere; integrals of
F(x) sqrt(g) d^{D-1}x over the chart ball equal sphere-measure integrals of
the lifted integrand over the hemisphere, so the ball grid is just the
hemisphere grid with points projected down.  No node ever sits on a pole or
on the equator.
"""

import math

import numpy as np
from scipy.special import roots_jacobi

from .geometry import from_hyperspherical

__all__ = [
    "polar_nodes", "hemisphere_polar_nodes", "azimuth_nodes",
    "sphere_angular_grid", "reduced_ball_grid", "polar_exponent",
]


def polar_exponent(D, k):
    """Jacobi exponent alpha_k = (D-2-k)/2 for polar angle k (1-based)."""
    return 0.5 * (D - 2 - k)


def polar_nodes(n, alpha):
    """Nodes/weights for integral of h(u) (1-u^2)^alpha du over (-1, 1)."""
    if n < 2:
        raise ValueError(f"need resolution >= 2 polar nodes, got {n}")
    if alpha == 0:
        u, w = np.polynomial.legendre.leggauss(n)
    else:
        u, w = roots_jacobi(n, alpha, alpha)
    return u, w


def hemisphere_polar_nodes(n, alpha):
    """Nodes/weights for integral of h(u) (1-u^2)^alpha du over (0, 1).

    Mapped from Jacobi nodes on (-1, 1) with weight (1-t)^alpha; the smooth
    leftover factor (1+u)^alpha is folded into the returned weights, so the
    endpoint singularity of the half-integer weight stays exact.
    """
    if n < 2:
        raise ValueError(f"need resolution >= 2 polar nodes, got {n}")
    if alpha == 0:
        t, wt = np.polynomial.legendre.leggauss(n)
    else:
        t, wt = roots_jacobi(n, alpha, 0.0)
        wt = wt / 2.0 ** alpha  # (1-t)^alpha = 2^alpha (1-u)^alpha with u=(1+t)/2
    u = 0.5 * (t + 1.0)
    w = 0.5 * wt
    if alpha != 0:
        w = w * (1.0 + u) ** alpha
    return u, w


def azimuth_nodes(n):
    """Uniform periodic nodes on [0, 2pi) with trapezoid weights."""
    if n < 2:
        raise ValueError("need at least 2 azimuthal nodes")
    phi = 2.0 * math.pi * np.arange(n) / n
    w = np.full(n, 2.0 * math.pi / n)
    return phi, w


def sphere_angular_grid(p, res, hemisphere=False):
    """Tensor quadrature grid on the (D-1)-sphere (or its upper hemisphere).

    Returns (angles, weights): angles has shape (npts, D-1) and the weights
    already include the R^{D-1} factor, so sum(w * F(angles)) approximates the
    surface integral of F.
    """
    D = p.D
    axes = []
    waxes = []
    for k in range(1, D - 1):
        alpha = polar_exponent(D, k)
        if k == 1 and hemisphere:
            u, w = hemisphere_polar_nodes(res, alpha)
        else:
            u, w = polar_nodes(res, alpha)
        axes.append(np.arccos(u))
        waxes.append(w)
    m = res + (res % 2)  # azimuthal count kept even
    phi, wphi = azimuth_nodes(m)
    if hemisphere and D == 2:
        # upper half circle x_2 > 0 is the azimuth range (-pi/2, pi/2); the
        # interval is not periodic, so use Gauss-Legendre instead of trapezoid
        t, wt = np.polynomial.legendre.leggauss(m)
        phi = 0.5 * math.pi * t
        wphi = 0.5 * math.pi * wt
    axes.append(phi)
    waxes.append(wphi)

    grids = np.meshgrid(*axes, indexing="ij")
    angles = np.stack([g.reshape(-1) for g in grids], axis=-1)
    w = waxes[0]
    for wa in waxes[1:]:
        w = np.multiply.outer(w, wa)
    w = w.reshape(-1) * p.R ** (D - 1)
    return angles, w


def reduced_ball_grid(p, res):
    """Quadrature for integrals of F(x) sqrt(g) d^{D-1}x over the chart ball.

    Nodes are reduced-chart points strictly inside |x| < R; weights carry the
    sqrt(g) factor via the hemisphere correspondence.  Checks:
    sum(w) = half the sphere area to machine precision.
    """
    angles, w = sphere_angular_grid(p, res, hemisphere=True)
    emb = from_hyperspherical(p.R, angles, p)
    x = emb[:, : p.D - 1]
    return x, w
