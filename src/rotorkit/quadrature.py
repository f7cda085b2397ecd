"""Quadrature grids matched to the sphere measure.

The volume element in hyperspherical angles is
R^{D-1} prod_{k=1}^{D-2} sin^{D-1-k}(phi_k) dphi_1..dphi_{D-1}.
Substituting u_k = cos phi_k turns each polar weight into (1-u^2)^{alpha_k}
with alpha_k = (D-2-k)/2, which is a Gauss-Jacobi weight.  Using Jacobi nodes
(Gauss-Legendre whenever alpha_k = 0, i.e. always for D = 3) keeps the
half-integer weights *exact* instead of approximated, so weight sums hit the
closed-form sphere area at machine precision and hermiticity defects are not
polluted by quadrature error.  Azimuthal integrals use the uniform trapezoid
rule, which is spectrally accurate for periodic integrands.  Every Gauss
grid's polar rules come from this one symmetric family, Jacobi(alpha, alpha).
The one other rule, ``midpoint_angular_grid``, takes midpoint nodes in each
polar angle with the sine power in the weights.  It sums trig polynomials,
which the momentum rows of ``check hermiticity`` integrate: their sine
powers are odd, so they are not polynomials in u.  One builder,
``_tensor_grid``, takes the product of the per-axis rules of every grid.

The reduced cartesian chart covers the open upper hemisphere x_D = R u_1 > 0.
Its ball grid is the upper half of the full rule on phi_1, projected down;
the lower lift sits at the mirrored nodes with the same weights, so a sum
over both lifts is the full-sphere sum.  No node ever sits on a pole or on
the equator.
"""

import math

import numpy as np
from scipy.special import roots_jacobi

from .geometry import from_hyperspherical, sphere_area

__all__ = [
    "polar_nodes", "azimuth_nodes",
    "sphere_angular_grid", "reduced_ball_grid", "midpoint_angular_grid",
    "polar_exponent",
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


def azimuth_nodes(n):
    """Uniform periodic nodes on [0, 2pi) with trapezoid weights."""
    if n < 2:
        raise ValueError("need at least 2 azimuthal nodes")
    phi = 2.0 * math.pi * np.arange(n) / n
    w = np.full(n, 2.0 * math.pi / n)
    return phi, w


def _sphere_rules(p, res, lead):
    """Per-axis rules of the full-sphere grid: (polar, azimuth).

    polar holds one ``polar_nodes`` (u, w) per polar angle, lead nodes on
    phi_1 and res on the others; azimuth is ``azimuth_nodes`` at res
    rounded up to even.  Their product times R^{D-1} must sum to the
    sphere area within 1e-10 relative.
    """
    polar = [polar_nodes(res if k > 1 else lead, polar_exponent(p.D, k))
             for k in range(1, p.D - 1)]
    azimuth = azimuth_nodes(res + res % 2)
    # the product weights sum to the product of the per-axis sums
    total = math.prod(w.sum() for _, w in polar + [azimuth]) * p.R ** (p.D - 1)
    if abs(total - sphere_area(p.D, p.R)) > 1e-10 * sphere_area(p.D, p.R):
        raise AssertionError("quadrature weights do not sum to the sphere area")
    return polar, azimuth


def _tensor_grid(p, axes):
    """(angles, weights) of the tensor grid of the per-axis (angle, weight)
    rules, polar angles first and the azimuth last; the weights carry the
    R^{D-1} factor."""
    grids = np.meshgrid(*(nodes for nodes, _ in axes), indexing="ij")
    angles = np.stack([g.reshape(-1) for g in grids], axis=-1)
    w = axes[0][1]
    for _, wa in axes[1:]:
        w = np.multiply.outer(w, wa)
    return angles, w.reshape(-1) * p.R ** (p.D - 1)


def sphere_angular_grid(p, res):
    """Tensor quadrature grid on the (D-1)-sphere: res nodes on every axis.

    Returns (angles, weights): angles has shape (npts, D-1) and the weights
    already include the R^{D-1} factor, so sum(w * F(angles)) approximates
    the surface integral of F.
    """
    polar, azimuth = _sphere_rules(p, res, res)
    return _tensor_grid(p, [(np.arccos(u), w) for u, w in polar] + [azimuth])


def reduced_ball_grid(p, res):
    """Quadrature for integrals of F(x) sqrt(g) d^{D-1}x over the chart ball.

    Nodes are reduced-chart points strictly inside |x| < R; weights carry
    sqrt(g) via the hemisphere correspondence.  At D >= 3, phi_1 takes the
    res nodes with u_1 > 0 of ``polar_nodes(2 res, alpha_1)`` and the other
    axes are ``sphere_angular_grid``'s, so to the full rule's degree the
    grid is exact for two-lift sums F(x, x_D) + F(x, -x_D), x_D =
    sqrt(R^2 - |x|^2), which are full-sphere sums and all that
    ``suite_hermiticity`` sums, and for functions of x alone, which are
    even in u_1.  It is not exact for one lift of an integrand odd in x_D.
    At D = 2 the half circle is the azimuth range (-pi/2, pi/2), which is
    not periodic: res rounded up to even Gauss-Legendre nodes cover it.
    """
    if res < 2:
        raise ValueError(f"need resolution >= 2 polar nodes, got {res}")
    if p.D == 2:
        t, wt = np.polynomial.legendre.leggauss(res + res % 2)
        polar, azimuth = [], (0.5 * math.pi * t, 0.5 * math.pi * wt)
    else:
        polar, azimuth = _sphere_rules(p, res, 2 * res)
        u, w = polar[0]
        polar[0] = (u[u > 0.0], w[u > 0.0])  # the lower lift mirrors these
    angles, w = _tensor_grid(
        p, [(np.arccos(u), w) for u, w in polar] + [azimuth])
    x = from_hyperspherical(p.R, angles, p)[:, : p.D - 1]
    return x, w


def midpoint_angular_grid(p, res):
    """Tensor angular grid with midpoint polar nodes and uniform azimuth.

    res midpoint nodes on each polar angle phi_k carry weight pi/res times
    sin^{D-1-k}, and the azimuth is ``azimuth_nodes(res)``.  Every
    integrand the hermiticity suite meets is a trig polynomial once the
    measure factors are folded into the weights, and the midpoint offset
    keeps all nodes away from the removable pole singularities of the
    momentum operators.  Azimuth sums are exact; a polar sum is exact on
    sin^a cos^b (a + b < 2 res) unless a is odd and b even, erring at
    O(res^-2): at D = 3, on every f h even in cos(phi_1).  So at an odd
    sine power the weights miss the sphere area (1e-4 relative at D = 3,
    res 64), and the grid skips ``_sphere_rules``' area check.
    """
    nodes = (np.arange(res) + 0.5) * math.pi / res
    polar = [(nodes, (math.pi / res) * np.sin(nodes) ** (p.D - 1 - k))
             for k in range(1, p.D - 1)]
    return _tensor_grid(p, polar + [azimuth_nodes(res)])
