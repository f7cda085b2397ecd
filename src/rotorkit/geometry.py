"""Charts and metric algebra for the (D-1)-sphere of radius R in R^D.

Three charts are used throughout the package:

* ``embedded``       -- all D cartesian coordinates, |x| = R.
* ``reduced``        -- the first D-1 cartesian coordinates on the open upper
                        hemisphere x_D > 0; the constraint is solved as
                        x_D = sqrt(R^2 - |x|^2).
* ``hyperspherical`` -- polar angles phi_1..phi_{D-2} in (0, pi) and an
                        azimuth phi_{D-1} in [0, 2pi), with
                        x_D = r cos phi_1, x_{D-1} = r sin phi_1 cos phi_2, ...
                        x_1 = r sin phi_1 ... sin phi_{D-2} sin phi_{D-1}.

The induced metric in the reduced chart is
g_ij = delta_ij + x_i x_j / (R^2 - |x|^2), with inverse
g^ij = delta_ij - x_i x_j / R^2 and determinant R^2 / (R^2 - |x|^2).
All matrix functions accept a single point of shape (D-1,) or a batch of
shape (n, D-1), the chart maps batch along leading axes, and all are
pure.  ``to_hyperspherical`` takes each polar angle as an atan2 of partial
norms, well conditioned up to the poles.  The hyperspherical map also
exists in symbolic form (``embedding_exprs_hyperspherical``), for the
operator and bracket layers that differentiate it.

``MEMORY_BUDGET`` is the one byte budget of the package: every layer that
sizes its arrays from its inputs stays within it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex

__all__ = [
    "ModelParams", "ChartDomainError", "PoleSingularityError",
    "CHART_REDUCED", "CHART_HYPERSPHERICAL", "MEMORY_BUDGET",
    "metric", "metric_determinant", "lift",
    "to_hyperspherical", "from_hyperspherical", "hyperspherical_var_names",
    "embedding_exprs_hyperspherical", "sphere_area", "harmonic_multiplicity",
]

CHART_REDUCED = "reduced"
CHART_HYPERSPHERICAL = "hyperspherical"

# byte budget of any array a layer sizes from its inputs
MEMORY_BUDGET = 2 ** 31


class ChartDomainError(ValueError):
    """Point lies outside the open domain of the requested chart."""


class PoleSingularityError(ValueError):
    """Angle recovery hit sin(phi_k) = 0; carries the offending angle index."""

    def __init__(self, angle_index, message=None):
        self.angle_index = angle_index
        super().__init__(message or f"coordinate singularity at angle phi_{angle_index}")


@dataclass(frozen=True)
class ModelParams:
    """Physical constants: embedding dimension D in 2..10, radius R and hbar
    in [1e-30, 1e30]."""

    D: int
    R: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if not (isinstance(self.D, (int, np.integer)) and 2 <= self.D <= 10):
            raise ValueError(f"D must be an integer in [2, 10], got {self.D}")
        # beyond this range hbar^2 / R^2 and the powers of R the routes form
        # overflow or underflow (1e-200 reads as a failed spectrum, 1e200
        # as an OverflowError)
        for name, v in (("R", self.R), ("hbar", self.hbar)):
            if not 1e-30 <= v <= 1e30:
                raise ValueError(f"{name} must lie in [1e-30, 1e30], got {v}")


def _check_ball(x, p):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != p.D - 1:
        raise ChartDomainError(f"expected {p.D - 1} reduced coordinates, got {x.shape[-1]}")
    # the array methods run the same reductions as np.sum and np.any,
    # without their dispatch cost on the single points most callers pass
    s = (x * x).sum(axis=-1)
    if (s >= p.R ** 2).any():
        raise ChartDomainError("point outside the open chart ball |x|^2 < R^2")
    return x, s


def metric(x, p):
    """Reduced metric g_ij = delta_ij + x_i x_j / (R^2 - |x|^2)."""
    x, s = _check_ball(x, p)
    eye = np.eye(p.D - 1)
    outer = x[..., :, None] * x[..., None, :]
    return eye + outer / (p.R ** 2 - s)[..., None, None]


def metric_determinant(x, p):
    """Closed-form determinant R^2 / (R^2 - |x|^2) of the reduced metric."""
    _, s = _check_ball(x, p)
    return p.R ** 2 / (p.R ** 2 - s)


def lift(x, p):
    """Map reduced coordinates to the embedded chart: append sqrt(R^2 - |x|^2)."""
    x, s = _check_ball(x, p)
    xd = np.sqrt(p.R ** 2 - s)
    return np.concatenate([x, xd[..., None]], axis=-1)


def from_hyperspherical(r, angles, p):
    """Angles (shape (..., D-1)) to embedded cartesian coordinates.

    Ordering: x_D = r cos phi_1, each later coordinate picks up one more sine,
    and the last pair is x_2 = r (prod sin) cos phi_{D-1},
    x_1 = r (prod sin) sin phi_{D-1}.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.shape[-1] != p.D - 1:
        raise ChartDomainError(f"expected {p.D - 1} angles, got {angles.shape[-1]}")
    out = np.empty(angles.shape[:-1] + (p.D,))
    sin_chain = np.asarray(r, dtype=float)
    for k in range(p.D - 2):
        out[..., p.D - 1 - k] = sin_chain * np.cos(angles[..., k])
        sin_chain = sin_chain * np.sin(angles[..., k])
    out[..., 1] = sin_chain * np.cos(angles[..., p.D - 2])
    out[..., 0] = sin_chain * np.sin(angles[..., p.D - 2])
    return out


def to_hyperspherical(x, p):
    """Embedded points (shape (..., D)) to (r, angles of shape (..., D-1)).

    Polar angle phi_{k+1} = atan2(|x_1..x_{D-1-k}|, x_{D-k}), from the
    partial norms of ``np.hypot.accumulate``: no overflow or underflow,
    and well conditioned near every pole.  The azimuth atan2(x_1, x_2) is
    reduced to [0, 2pi).  One point gives a float r.  An undetermined
    angle raises PoleSingularityError: index 1 at the origin, and k + 2
    where |x_1..x_{D-1-k}| = 0.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (p.D,):
        raise ChartDomainError(f"expected {p.D} embedded coordinates")
    if not np.all(np.isfinite(x)):
        raise ChartDomainError("embedded coordinates must be finite")
    with np.errstate(over="ignore"):
        norms = np.hypot.accumulate(x, axis=-1)
    r = norms[..., -1]
    if (r == np.inf).any():
        raise ChartDomainError("radius exceeds the float range")
    if (r == 0.0).any():
        raise PoleSingularityError(1, "origin has no angular coordinates")
    # the partial norms grow, so a point's zero norms come first
    zeros = int((norms[..., 1:-1] == 0.0).sum(axis=-1).max(initial=0))
    if zeros:
        i = p.D - zeros
        raise PoleSingularityError(i, f"sin phi_{i - 1} = 0 leaves phi_{i} undetermined")
    az = np.arctan2(x[..., 0], x[..., 1])
    az = np.where(az >= 0, az, az + 2 * math.pi)
    az = np.where(az < 2 * math.pi, az, 0.0)  # -1e-17 + 2pi rounds to 2pi
    # in x order, then reversed: numpy's arctan2 rounds a negative-stride
    # point apart from the same point as a batch row
    polar = np.arctan2(norms[..., 1:-1], x[..., 2:])[..., ::-1]
    angles = np.concatenate([polar, az[..., None]], axis=-1)
    return (float(r) if x.ndim == 1 else r), angles


def hyperspherical_var_names(p):
    return [f"phi{i}" for i in range(1, p.D)]


def embedding_exprs_hyperspherical(p):
    """x_1..x_D on the sphere r = R as expressions in the angles: the
    symbolic form of ``from_hyperspherical(p.R, angles, p)``."""
    names = hyperspherical_var_names(p)
    out = [None] * p.D
    chain = ex.Const(p.R)
    for k in range(p.D - 2):
        out[p.D - 1 - k] = ex.mul(chain, ex.cos(ex.Var(names[k])))
        chain = ex.mul(chain, ex.sin(ex.Var(names[k])))
    out[1] = ex.mul(chain, ex.cos(ex.Var(names[p.D - 2])))
    out[0] = ex.mul(chain, ex.sin(ex.Var(names[p.D - 2])))
    return out


def sphere_area(D, R):
    """Surface measure of the (D-1)-sphere of radius R: 2 pi^{D/2} R^{D-1} / Gamma(D/2)."""
    return 2.0 * math.pi ** (D / 2) / math.gamma(D / 2) * R ** (D - 1)


def harmonic_multiplicity(D, l):
    """Dimension of the degree-l harmonic polynomials in D variables,
    C(D+l-1, l) - C(D+l-3, l-2): the multiplicity of the sphere's level l."""
    if l < 2:
        return 1 if l == 0 else D
    return math.comb(D + l - 1, l) - math.comb(D + l - 3, l - 2)
