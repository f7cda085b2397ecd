"""Property test of the reduced chart's grid against the sphere grid.

The reduced ball grid is the upper half of the full rule on phi_1, so a
sum over both hemisphere lifts must equal the sphere grid's sum, and a
function of the chart coordinates alone, one lift's sum, half of it.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rotorkit.geometry import ModelParams, from_hyperspherical  # noqa: E402
from rotorkit.quadrature import (reduced_ball_grid,  # noqa: E402
                                 sphere_angular_grid)


def _monomials(x, exponents):
    """Each point's value of each monomial, shape (points, monomials)."""
    return np.prod(x[:, None, :] ** exponents[None, :, :], axis=2)


@settings(max_examples=40)
@given(D=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1),
       radius=st.sampled_from((0.5, 1.0, 2.3)))
def test_two_lift_sums_equal_the_sphere_sum(D, seed, radius):
    # a random polynomial of degree <= 5 in x_1..x_D: both grids sum it
    # exactly, the reduced one as F(x, x_D) + F(x, -x_D) over its points;
    # a function of x alone sums to half the sphere's on one lift
    p = ModelParams(D=D, R=radius, hbar=1.0)
    rng = np.random.default_rng(seed)
    exponents = np.array([rng.multinomial(rng.integers(0, 6), [1 / D] * D)
                          for _ in range(12)])
    coef = rng.standard_normal(len(exponents))
    res = 8 if D < 5 else 6
    ang, ws = sphere_angular_grid(p, res)
    values = _monomials(from_hyperspherical(p.R, ang, p), exponents)
    x, wr = reduced_ball_grid(p, res)
    xd = np.sqrt(p.R ** 2 - np.sum(x * x, axis=1))[:, None]
    lifts = [_monomials(np.hstack([x, s * xd]), exponents)
             for s in (1.0, -1.0)]
    scale = float(ws @ np.abs(values) @ np.abs(coef))
    assert abs(float(wr @ (lifts[0] + lifts[1]) @ coef
                     - ws @ values @ coef)) < 1e-13 * scale
    flat = exponents[:, -1] == 0  # the monomials free of x_D
    assert abs(float(wr @ lifts[0][:, flat] @ coef[flat]
                     - 0.5 * ws @ values[:, flat] @ coef[flat])) < 1e-13 * scale
