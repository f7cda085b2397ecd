"""Quadrature rules against closed-form moments.

Every rule is checked on integrands with known antiderivatives: Beta
function moments for the polar weights, trig orthogonality for the
azimuth, and monomial sphere moments (area * R^k combinatorics) for the
assembled grids.
"""

import functools
import math

import numpy as np
import pytest
from scipy.special import beta

from rotorkit.geometry import ModelParams, from_hyperspherical, sphere_area
from rotorkit.quadrature import (
    azimuth_nodes,
    polar_exponent,
    polar_nodes,
    reduced_ball_grid,
    sphere_angular_grid,
)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
def test_polar_nodes_beta_moments(alpha):
    # int_{-1}^{1} u^k (1-u^2)^alpha du = B((k+1)/2, alpha+1) for even k
    u, w = polar_nodes(12, alpha)
    for k in (0, 2, 4, 6):
        want = beta((k + 1) / 2.0, alpha + 1.0)
        assert abs(float(w @ u ** k) - want) < 1e-13
    for k in (1, 3, 5):  # odd moments vanish by symmetry
        assert abs(float(w @ u ** k)) < 1e-14


def test_azimuth_trig_orthogonality():
    phi, w = azimuth_nodes(16)
    assert abs(w.sum() - 2 * math.pi) < 1e-13
    for m in range(1, 8):  # uniform rule is exact through mode n-1
        assert abs(float(w @ np.cos(m * phi))) < 1e-12
        assert abs(float(w @ np.cos(m * phi) ** 2) - math.pi) < 1e-12


def test_azimuth_rule_needs_two_nodes():
    with pytest.raises(ValueError, match="at least 2 azimuthal nodes"):
        azimuth_nodes(1)


def test_polar_exponent_measure_convention():
    # sin^{D-1-k} theta_k d theta in u = cos theta variables is
    # (1-u^2)^{(D-2-k)/2} du: the Jacobian eats one sin power
    assert polar_exponent(3, 1) == 0.0
    assert polar_exponent(4, 1) == 0.5
    assert polar_exponent(4, 2) == 0.0
    assert polar_exponent(5, 1) == 1.0


@pytest.mark.parametrize("D,res", [(2, 16), (3, 12), (4, 8), (5, 6)])
def test_sphere_grid_weight_sum_is_area(D, res):
    p = ModelParams(D=D, R=1.1, hbar=1.0)
    ang, w = sphere_angular_grid(p, res)
    area = sphere_area(D, p.R)
    assert abs(w.sum() - area) < 1e-12 * area
    assert ang.shape[1] == D - 1


@pytest.mark.parametrize("D", (2, 3, 4))
def test_sphere_grid_monomial_moments(D):
    # int x_i^2 = area R^2/D, int x_1^4 = 3 area R^4/(D(D+2)),
    # int x_1^2 x_2^2 = area R^4/(D(D+2)); odd moments vanish
    p = ModelParams(D=D, R=1.3, hbar=1.0)
    ang, w = sphere_angular_grid(p, 10)
    pts = np.array([from_hyperspherical(p.R, a, p) for a in ang])
    area = sphere_area(D, p.R)
    assert abs(float(w @ pts[:, 0] ** 2) - area * p.R ** 2 / D) < 1e-12 * area
    assert abs(float(w @ pts[:, 0] ** 4)
               - 3 * area * p.R ** 4 / (D * (D + 2))) < 1e-12 * area
    if D >= 3:
        assert abs(float(w @ (pts[:, 0] ** 2 * pts[:, 1] ** 2))
                   - area * p.R ** 4 / (D * (D + 2))) < 1e-12 * area
    assert abs(float(w @ pts[:, 0])) < 1e-12 * area
    assert abs(float(w @ (pts[:, 0] * pts[:, -1]))) < 1e-12 * area


@pytest.mark.parametrize("D", (2, 3, 4))
def test_reduced_ball_grid_carries_sqrt_g(D):
    # weights include sqrt(det g), so the chart ball integrates to half the
    # sphere area and even sphere moments come out at half strength
    p = ModelParams(D=D, R=1.0, hbar=1.0)
    x, w = reduced_ball_grid(p, 24)
    half = sphere_area(D, p.R) / 2.0
    assert abs(w.sum() - half) < 1e-10 * half
    assert abs(float(w @ x[:, 0] ** 2) - half * p.R ** 2 / D) < 1e-10 * half
    assert np.all(np.linalg.norm(x, axis=1) < p.R)


def test_total_measure_matches_area():
    p = ModelParams(D=4, R=1.7, hbar=1.0)
    want = 2.0 * math.pi ** 2 * p.R ** 3  # area of the 3-sphere
    assert abs(sphere_area(p.D, p.R) - want) < 1e-12 * want


@pytest.mark.parametrize("D,res", [(3, 12), (4, 7), (5, 6)])
def test_reduced_ball_grid_is_the_upper_half_of_the_full_rule(D, res):
    # phi_1 holds the res positive nodes of the 2 res rule, x_D = R u_1,
    # at that rule's weights; the other axes are the sphere grid's
    p = ModelParams(D=D, R=1.3, hbar=1.0)
    x, w = reduced_ball_grid(p, res)
    u, wu = polar_nodes(2 * res, polar_exponent(D, 1))
    upper = u > 0.0
    assert upper.sum() == res
    rules = [wu[upper]] + [polar_nodes(res, polar_exponent(D, k))[1]
                           for k in range(2, D - 1)]
    rules.append(azimuth_nodes(res + res % 2)[1])
    want = functools.reduce(np.multiply.outer, rules).reshape(-1)
    assert np.allclose(w, want * p.R ** (D - 1), rtol=1e-14, atol=0.0)
    xd = np.sqrt(p.R ** 2 - np.sum(x * x, axis=1)).reshape(res, -1)
    assert np.allclose(xd / p.R, u[upper][:, None], rtol=0.0, atol=1e-12)


def test_reduced_ball_grid_rejects_one_node():
    # the rule reads res, not the 2 res nodes it takes on phi_1
    p = ModelParams(D=3, R=1.0, hbar=1.0)
    with pytest.raises(ValueError, match="resolution >= 2"):
        reduced_ball_grid(p, 1)
