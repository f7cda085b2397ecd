"""Metric algebra of the reduced chart and the hyperspherical chart maps.

Oracles: dense linear algebra (matrix inverse, LU determinant), the Gamma
function closed form for sphere areas, and the round trip through the
hyperspherical chart.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotorkit import expressions as ex
from rotorkit.geometry import (
    ChartDomainError,
    ModelParams,
    PoleSingularityError,
    embedding_exprs_hyperspherical,
    from_hyperspherical,
    hyperspherical_var_names,
    lift,
    metric,
    metric_determinant,
    sphere_area,
    to_hyperspherical,
)

DIMS = (2, 3, 4, 5, 6)


def inverse_metric(x, p):
    """The closed form g^ij = delta_ij - x_i x_j / R^2 that dynamics applies
    to momenta, as a matrix."""
    return np.eye(p.D - 1) - np.multiply.outer(x, x) / p.R ** 2


def _ball_points(D, R, n, rng, shell=0.97):
    x = rng.normal(size=(n, D - 1))
    r = R * shell * rng.uniform(0.05, 1.0, size=(n, 1)) ** (1.0 / max(D - 1, 1))
    return x * r / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.mark.parametrize("D", DIMS)
def test_metric_times_inverse_is_identity(D):
    p = ModelParams(D=D, R=1.7, hbar=1.0)
    rng = np.random.default_rng(D)
    for x in _ball_points(D, p.R, 50, rng):
        G = metric(x, p) @ inverse_metric(x, p)
        assert np.max(np.abs(G - np.eye(D - 1))) < 1e-12


@pytest.mark.parametrize("D", DIMS)
def test_determinant_closed_form_vs_lu(D):
    p = ModelParams(D=D, R=1.3, hbar=1.0)
    rng = np.random.default_rng(10 + D)
    pts = _ball_points(D, p.R, 200, rng)
    for x in pts:
        dense = np.linalg.det(metric(x, p))
        closed = metric_determinant(x, p)
        assert abs(dense - closed) < 1e-12 * abs(closed)


@pytest.mark.parametrize("D", range(2, 11))
def test_ball_check_reduces_bitwise_as_np_sum(D):
    # _check_ball sums with the array method; pin it to the np.sum form
    p = ModelParams(D=D, R=1.3, hbar=1.0)
    pts = _ball_points(D, p.R, 64, np.random.default_rng(30 + D))
    for x in (pts, pts[0], pts.reshape(8, 8, D - 1)):
        s = np.sum(x * x, axis=-1)
        assert np.asarray(metric_determinant(x, p)).tobytes() == \
            np.asarray(p.R ** 2 / (p.R ** 2 - s)).tobytes()
        assert lift(x, p)[..., -1].tobytes() == \
            np.asarray(np.sqrt(p.R ** 2 - s)).tobytes()


def test_inverse_metric_closed_form_vs_solve():
    p = ModelParams(D=4, R=0.8, hbar=1.0)
    rng = np.random.default_rng(3)
    for x in _ball_points(4, p.R, 50, rng):
        assert np.max(np.abs(inverse_metric(x, p) - np.linalg.inv(metric(x, p)))) < 1e-13


@pytest.mark.parametrize("D", DIMS)
def test_lift_lands_on_sphere(D):
    p = ModelParams(D=D, R=2.1, hbar=1.0)
    rng = np.random.default_rng(20 + D)
    for x in _ball_points(D, p.R, 50, rng):
        X = lift(x, p)
        assert X.shape == (D,)
        assert abs(float(X @ X) - p.R ** 2) < 1e-12 * p.R ** 2
        assert X[-1] > 0.0  # upper-hemisphere lift
        assert np.array_equal(X[:-1], np.asarray(x, dtype=float))


@pytest.mark.parametrize("D", (2, 3, 5))
def test_hyperspherical_round_trip(D):
    p = ModelParams(D=D, R=2.0, hbar=1.0)
    rng = np.random.default_rng(30 + D)
    for _ in range(25):
        ang0 = np.concatenate([rng.uniform(0.2, np.pi - 0.2, D - 2),
                               rng.uniform(0.1, 2 * np.pi - 0.1, 1)])
        x0 = from_hyperspherical(p.R, ang0, p)
        assert abs(float(x0 @ x0) - p.R ** 2) < 1e-12 * p.R ** 2
        r1, ang1 = to_hyperspherical(x0, p)
        assert abs(r1 - p.R) < 1e-12 * p.R
        assert np.max(np.abs(ang1 - ang0)) < 1e-12
        x1 = from_hyperspherical(r1, ang1, p)
        assert np.max(np.abs(x1 - x0)) < 1e-12 * p.R


@pytest.mark.parametrize("D", (2, 3, 5, 10))
def test_symbolic_embedding_matches_numeric_map(D):
    # the same products in the same order, so the values agree bit for bit
    p = ModelParams(D=D, R=1.7, hbar=1.0)
    rng = np.random.default_rng(40 + D)
    ang = np.concatenate([rng.uniform(0.0, np.pi, (50, D - 2)),
                          rng.uniform(0.0, 2 * np.pi, (50, 1))], axis=1)
    env = dict(zip(hyperspherical_var_names(p), ang.T))
    got = np.stack([np.broadcast_to(ex.evaluate(e, env), 50)
                    for e in embedding_exprs_hyperspherical(p)], axis=1)
    assert np.array_equal(got, from_hyperspherical(p.R, ang, p))


@pytest.mark.parametrize("D", DIMS)
def test_sphere_area_gamma_closed_form(D):
    R = 1.3
    want = 2.0 * math.pi ** (D / 2.0) * R ** (D - 1) / math.gamma(D / 2.0)
    assert abs(sphere_area(D, R) - want) < 1e-13 * want


def test_chart_domain_guard():
    p = ModelParams(D=3, R=1.0, hbar=1.0)
    with pytest.raises(ChartDomainError):
        metric(np.array([0.8, 0.7]), p)  # |x| > R
    with pytest.raises(ChartDomainError):
        lift(np.array([1.0, 0.0]), p)  # |x| = R exactly is outside the open chart
    # a wrong coordinate count
    with pytest.raises(ChartDomainError, match="expected 2 reduced coordinates, got 3"):
        metric(np.zeros(3), p)
    with pytest.raises(ChartDomainError, match="expected 2 angles, got 3"):
        from_hyperspherical(1.0, np.zeros(3), p)
    with pytest.raises(ChartDomainError, match="expected 3 embedded coordinates"):
        to_hyperspherical(np.zeros(2), p)
    # a non-finite point: max(-1.0, nan) is -1.0, so without the rule a NaN
    # comes back as the angle pi, and an infinity as finite angles
    for x in ([0.0, 0.0, np.nan], [np.inf, 0.0, 1.0], [0.0, -np.inf, 0.0]):
        with pytest.raises(ChartDomainError, match="embedded coordinates must be finite"):
            to_hyperspherical(np.array(x), p)
    # a unit-size point near a pole is in the chart, not refused, and
    # round-trips to rounding
    p4 = ModelParams(D=4)
    x = np.array([-2.76352176e-10, -1.40527100e-09, -1.01012721e-03, 1.0])
    r, angles = to_hyperspherical(x, p4)
    assert np.max(np.abs(from_hyperspherical(r, angles, p4) - x)) <= \
        1e-15 * np.linalg.norm(x)
    # a radius past the largest float
    with pytest.raises(ChartDomainError, match="radius exceeds the float range"):
        to_hyperspherical(np.array([1.7e308, 1.7e308, 0.0]), p)


@pytest.mark.parametrize("D", (2, 3, 5))
@pytest.mark.parametrize("k", (600, -600))
def test_hyperspherical_scales_points_far_from_unit_size(D, k):
    # |x|^2 would overflow at 2^600 |x| and underflow at 2^-600 |x|, but
    # the partial norms come from hypot, which does neither, and a power
    # of two scales them exactly, so the angles keep their bits
    p = ModelParams(D=D)
    rng = np.random.default_rng(50 + D)
    for _ in range(25):
        x = rng.standard_normal(D)
        r, angles = to_hyperspherical(x, p)
        r_far, angles_far = to_hyperspherical(2.0 ** k * x, p)
        assert r_far == math.ldexp(r, k)
        assert angles_far.tobytes() == angles.tobytes()


def test_pole_singularity_guard():
    # at the north pole sin phi_1 = 0 leaves the azimuth phi_2 undetermined
    p = ModelParams(D=3, R=1.0, hbar=1.0)
    with pytest.raises(PoleSingularityError) as err:
        to_hyperspherical(np.array([0.0, 0.0, 1.0]), p)
    assert err.value.angle_index == 2
    # so are the poles far from unit size
    for z in (1e200, 1e-163):
        with pytest.raises(PoleSingularityError) as err:
            to_hyperspherical(np.array([0.0, 0.0, z]), p)
        assert err.value.angle_index == 2
    with pytest.raises(PoleSingularityError, match="origin has no angular coordinates"):
        to_hyperspherical(np.zeros(3), p)
    # in D = 4, |x_1, x_2| = 0 leaves phi_3 undetermined and |x_1..x_3| = 0
    # leaves phi_2; a batch names the lowest index any of its points has
    p4 = ModelParams(D=4)
    batch = np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 0.0, 1.0]])
    for x, index in ((batch[0], 3), (batch[1], 2), (batch, 2)):
        with pytest.raises(PoleSingularityError,
                           match=f"leaves phi_{index} undetermined") as err:
            to_hyperspherical(x, p4)
        assert err.value.angle_index == index


@pytest.mark.parametrize("t", (1e-8, 1e-7))
def test_hyperspherical_angle_near_the_pole(t):
    # acos(x_3 / r) would see t only through the rounding of r: 1.2% off
    # at t = 1e-7, and a pole at 1e-8; atan2 gives phi_1 to an ulp
    _, angles = to_hyperspherical(np.array([t, 0.0, 1.0]), ModelParams(D=3))
    assert angles[0] == pytest.approx(math.atan(t), rel=4e-16)
    assert angles[1] == math.pi / 2


def test_an_azimuth_that_rounds_to_2pi_is_0():
    # atan2(-1e-17, 1) + 2pi rounds to 2pi, outside [0, 2pi); the nearest
    # azimuth in range is 0, which the round trip turns back into x_1 = 0
    p = ModelParams(D=3)
    x = np.array([-1e-17, 1.0, 0.5])
    r, angles = to_hyperspherical(x, p)
    assert angles[1] == 0.0
    back = from_hyperspherical(r, angles, p)
    assert np.max(np.abs(back - x)) <= 1e-15 * r
    _, batch = to_hyperspherical(np.stack([x, x]), p)
    assert np.all(batch[:, 1] == 0.0)


def _near_pole_component():
    # a coordinate of size 1e-12 to 1, either sign, or exactly 0
    magnitude = st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)
    return st.one_of(st.just(0.0), magnitude, magnitude.map(lambda v: -v))


@settings(max_examples=300)
@given(st.data())
def test_hyperspherical_round_trip_near_the_poles(data):
    # every point off a pole converts: its angles lie in [0, pi] (azimuth
    # in [0, 2pi)), the round trip holds to 1e-15 |x| and one point gives
    # the bits of its row in a batch; a point on a pole is refused
    D = data.draw(st.integers(2, 10), label="D")
    p = ModelParams(D=D)
    rows = st.lists(_near_pole_component(), min_size=D, max_size=D)
    x = np.array(data.draw(st.lists(rows, min_size=1, max_size=8)))
    x = x * 2.0 ** data.draw(st.sampled_from((-600, 0, 600)), label="scale")
    # a partial norm |x_1..x_j|, j >= 2, is 0 exactly where x_1 = x_2 = 0
    on_pole = (x[:, :2] == 0.0).all(axis=1)
    for point in x[on_pole]:
        with pytest.raises(PoleSingularityError):
            to_hyperspherical(point, p)
    x = x[~on_pole]
    if not len(x):
        return
    r, angles = to_hyperspherical(x, p)
    back = from_hyperspherical(r, angles, p)
    assert np.all(np.max(np.abs(back - x), axis=1) <= 1e-15 * r)
    assert np.all((angles[:, :-1] >= 0.0) & (angles[:, :-1] <= math.pi))
    assert np.all((angles[:, -1] >= 0.0) & (angles[:, -1] < 2 * math.pi))
    for point, r_row, angles_row in zip(x, r, angles):
        r_one, angles_one = to_hyperspherical(point, p)
        assert isinstance(r_one, float) and r_one == r_row
        assert angles_one.tobytes() == angles_row.tobytes()


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(D=1, R=1.0, hbar=1.0)
    with pytest.raises(ValueError):
        ModelParams(D=3, R=-1.0, hbar=1.0)
