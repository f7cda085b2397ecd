"""Classical rotor dynamics and constrained-bracket verification.

Two independent integrations of the same physics:

* ``integrate_reduced(q0, p0, ...)`` evolves the unconstrained chart
  system (q, p) with H = p_i g^{ij}(q) p_j / 2, where the
  position-dependent inverse mass matrix makes the Hamiltonian
  non-separable; implicit midpoint keeps it symplectic.
* ``integrate_embedded_oracle(x0, v0, ...)`` evolves the ambient system
  with the multiplier eliminated analytically: x'' = -(|x'|^2/R^2) x.
  The elimination follows from differentiating the tangency condition,
  x.x'' + |x'|^2 = 0, which pins lambda = |x'|^2/(2 R^2) in
  x'' = -2 lambda x; the tests re-verify that identity numerically
  instead of trusting the algebra.

Each implicit-midpoint equation has one scalar unknown, s = qbar.pbar/R^2
in the chart and c = |vbar|^2/R^2 in the embedding: given it, the midpoint
state is explicit.  ``_reduced_step`` and ``_oracle_step`` iterate that
scalar to its fixed point (``_midpoint_step``) and then form the step.
They run on Python float lists, where each product and sum rounds once
and dot products add left to right (``_dot``), so a trajectory's bits do
not depend on the CPU or the BLAS kernel; on 2 to 20 components each numpy
call would also cost more than the arithmetic.

States are plain arrays, and the function names the chart:
``hamiltonian_value`` and ``embedded_from_reduced`` take reduced
(q, mom), one state or one per row, and ``conserved_series`` takes
ambient (x, v) rows.  The first two use the closed forms of g^{ij} p_j,
elementwise, so no BLAS kernel moves their bits.  Both integrators return
a ``Trajectory`` of rows at ``times``, starting at t = 0.  Matched initial
data must produce the same curve; the acceptance suite compares the lifted
reduced trajectory against the ambient one in sup norm.

Bracket verification goes through the canonical chart route: the ambient
variables are expressed in spherical canonical pairs with the radial pair
frozen on the shell (r = R, pi_r = 0), and the plain canonical Poisson
bracket of the pulled-back observables *is* the constrained bracket.  This
is cheaper and better conditioned than assembling the constraint-matrix
formula, and it keeps antisymmetry exact at the expression level.  An
ambient observable is pulled back by one substitution,
``expr.subs(canonical_chart_map(p))``, and ``dirac_bracket_expr`` takes
the pulled-back expressions.  The expected closed forms,

    {x_a, x_b} = 0
    {x_a, p_b} = delta_ab - x_a x_b / R^2
    {p_a, p_b} = -(x_a p_b - x_b p_a) / R^2,

live in ``fundamental_bracket_reference`` as the independent oracle.  The
chart map's tangency x.p = 0 (pulled back, identically zero) and the
projection of an ambient state back to the reduced chart are oracles that
only tests use, so they live in ``tests/test_dynamics.py``.

The ``rotorkit check dirac-brackets`` suite lives here too:
``suite_dirac_brackets`` checks the three bracket families against their
closed forms, bitwise antisymmetry and the Jacobi identity over one draw
of random shell points, in one ``evaluate`` call per sample slice.
"""

import math

import numpy as np

from . import expressions as ex
from .geometry import (MEMORY_BUDGET, ChartDomainError, _check_ball,
                       embedding_exprs_hyperspherical, hyperspherical_var_names,
                       lift)

__all__ = [
    "Trajectory", "ChartMarginError", "StepConvergenceError",
    "hamiltonian_value", "integrate_reduced", "integrate_embedded_oracle",
    "embedded_from_reduced", "constraint_residuals",
    "angular_momentum_pairs", "conserved_series",
    "canonical_phase_vars", "embedded_phase_vars", "canonical_chart_map",
    "poisson_bracket_expr", "dirac_bracket_expr",
    "fundamental_bracket_reference", "suite_dirac_brackets",
]


class ChartMarginError(RuntimeError):
    """Trajectory left the safe chart region; carries the exit time."""

    def __init__(self, time, radius, limit):
        super().__init__(
            f"trajectory reached |q| = {radius:.6g} (margin limit {limit:.6g}) "
            f"at t = {time:.6g}; restart from a rotated chart")
        self.time = time


class StepConvergenceError(RuntimeError):
    """Implicit midpoint fixed-point iteration stalled; reduce dt."""


class Trajectory:
    """Phase-space rows ``q[i]`` and ``p[i]`` at ``times[i]`` (unit mass)."""

    def __init__(self, times, q, p):
        self.times = times
        self.q = q
        self.p = p

    def __len__(self):
        return len(self.times)


def hamiltonian_value(q, mom, p):
    """Reduced-chart energy H = p_i g^{ij}(q) p_j / 2
    = (|p|^2 - (q.p)^2 / R^2) / 2, one value per row (0-d for one state)."""
    q, _ = _check_ball(q, p)
    qp = (q * mom).sum(axis=-1)
    return 0.5 * ((mom * mom).sum(axis=-1) - qp ** 2 / p.R ** 2)


def _dot(a, b):
    """a . b of two float sequences, summed left to right on plain floats.

    Each product and each sum rounds once, so the bits depend on neither
    the CPU nor the BLAS kernel; numpy's dot would hand the product to
    BLAS, whose kernel may fuse each multiply and add.  Builtin ``sum`` is
    no substitute: from Python 3.12 it compensates float sums.
    """
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _midpoint_step(scalar_map, s, tol):
    """Iterate a step's scalar unknown, s = scalar_map(s), to its fixed point.

    Stops once an update is at most tol * max(1, |s|), with s finite, and
    returns the last iterate.  NaN fails every comparison and an infinite s
    has no finite bound, so a diverging map, which overflows on the way,
    ends in StepConvergenceError after 100 iterations; so does a zero
    denominator, which Python floats raise as ZeroDivisionError.
    """
    try:
        for _ in range(100):
            new = scalar_map(s)
            if abs(new - s) <= tol * max(1.0, abs(s)) < math.inf:
                return new
            s = new
    except ZeroDivisionError:
        pass
    raise StepConvergenceError(
        f"midpoint iteration did not contract below {tol:g} in 100 "
        "iterations; reduce dt")


def _reduced_step(q0, p0, dt, p):
    """One implicit-midpoint step of the reduced chart flow, on float lists.

    With qdot = p - s q and pdot = s p, s = q.p / R^2, the midpoint state
    is pbar = p0 / (1 - h s) and qbar = (q0 + h pbar) / (1 + h s) for
    h = dt / 2, so s = qbar.pbar / R^2 is the one unknown:
    s = (a + h b / (1 - h s)) / ((1 - h s)(1 + h s) R^2), with a = q0.p0
    and b = |p0|^2.  The step returns (q1, p1) = 2 (qbar, pbar) - (q0, p0),
    formed from the increments pbar - p0 and qbar - q0: dividing the state
    itself by 1 -+ h s, rounded to 1 -+ h s + eps, would bias every step
    the same way.
    """
    h = 0.5 * dt
    R2 = p.R ** 2
    a, b = _dot(q0, p0), _dot(p0, p0)

    def scalar_map(s):
        u = 1.0 - h * s
        return (a + h * b / u) / (u * (1.0 + h * s) * R2)
    s = _midpoint_step(scalar_map, a / R2, 1e-13)
    hs = h * s
    dp = [hs * m / (1.0 - hs) for m in p0]  # pbar - p0
    dq = [h * (m + d - s * x) / (1.0 + hs)  # qbar - q0
          for x, m, d in zip(q0, p0, dp)]
    return ([x + 2.0 * d for x, d in zip(q0, dq)],
            [m + 2.0 * d for m, d in zip(p0, dp)])


def _oracle_step(x0, v0, dt, p):
    """One implicit-midpoint step of x'' = -c x, c = |x'|^2 / R^2.

    The midpoint velocity is vbar = (v0 - h c x0) / (1 + h^2 c) for
    h = dt / 2, so c = |vbar|^2 / R^2 is the one unknown:
    c = (C - 2 h c B + h^2 c^2 A) / ((1 + h^2 c)^2 R^2), with A = |x0|^2,
    B = x0.v0 and C = |v0|^2.  The step returns x1 = x0 + 2 h vbar and
    v1 = 2 vbar - v0, formed from vbar - v0 = -h c (x0 + h v0) / (1 + h^2 c)
    for the reason ``_reduced_step`` gives.
    """
    h = 0.5 * dt
    R2 = p.R ** 2
    A, B, C = _dot(x0, x0), _dot(x0, v0), _dot(v0, v0)

    def scalar_map(c):
        hc = h * c
        w = 1.0 + h * hc
        return (C - 2.0 * hc * B + hc * hc * A) / (w * w * R2)
    c = _midpoint_step(scalar_map, C / R2, 1e-13)
    hc = h * c
    dv = [-hc * (x + h * v) / (1.0 + h * hc)  # vbar - v0
          for x, v in zip(x0, v0)]
    return ([x + 2.0 * h * (v + d) for x, v, d in zip(x0, v0, dv)],
            [v + 2.0 * d for v, d in zip(v0, dv)])


def _step_count(T, dt):
    """The number of dt steps that make up the duration T.

    Needs finite dt > 0 and T >= 0, and T / dt a whole number to within
    1e-9 relative.  Rounding T / dt instead would integrate to another
    time: T = 10 at dt = 6 would run to t = 12, and at dt = 100 would take
    no step, so no deviation could fail.  Raises ValueError otherwise.
    """
    if not (0.0 < dt < math.inf and 0.0 <= T < math.inf):
        raise ValueError(f"need finite dt > 0 and T >= 0, got dt={dt}, T={T}")
    ratio = T / dt
    if ratio == math.inf:
        raise ValueError(f"T / dt overflows at dt={dt}, T={T}")
    steps = round(ratio)
    if abs(ratio - steps) > 1e-9 * ratio:
        raise ValueError(f"duration {T:g} is not a whole number of dt={dt:g} "
                         f"steps (T / dt = {ratio:.10g})")
    return steps


def integrate_reduced(q0, p0, T, dt, p, margin=0.05):
    """Implicit-midpoint evolution of the reduced chart system from (q0, p0).

    Raises ChartMarginError (with the exit time) the moment the position
    radius exceeds (1 - margin) R, at time 0 and before any step for a
    start past that limit; the chart itself only fails at |q| = R, but the
    metric conditioning degrades as 1/(R^2 - |q|^2), so the margin error
    tells the caller to re-chart well before that.  Every input rule is
    checked before the first step: q0 and p0 of one shape, D-1 finite
    coordinates each, q0 inside the chart ball, margin in [0, 1), the step
    count (``_step_count``) and the position and momentum arrays within
    MEMORY_BUDGET.
    """
    q0 = np.asarray(q0, dtype=float)
    p0 = np.asarray(p0, dtype=float)
    if q0.shape != p0.shape:
        raise ValueError("q and p must have matching shapes")
    if q0.shape != (p.D - 1,):
        raise ChartDomainError(f"chart 'reduced' expects {p.D - 1} coordinates")
    if not (np.all(np.isfinite(q0)) and np.all(np.isfinite(p0))):
        raise ValueError("phase state q and p must be finite")
    if np.dot(q0, q0) >= p.R ** 2:
        raise ChartDomainError("reduced position outside the chart ball")
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must lie in [0, 1), got {margin}")
    nsteps = _step_count(T, dt)
    n = p.D - 1
    nbytes = 2 * 8 * n * (nsteps + 1.0)  # a float: 1e308 steps overflow
    if nbytes > MEMORY_BUDGET:
        raise ValueError(f"{nsteps:.3g} steps need {nbytes:.3g} bytes of "
                         f"trajectory, over the {MEMORY_BUDGET} byte budget")
    limit = (1.0 - margin) * p.R
    q, mom = q0.tolist(), p0.tolist()
    qs = np.empty((nsteps + 1, n))
    ps = np.empty((nsteps + 1, n))
    for i in range(nsteps + 1):
        if i:  # step 0 checks the start itself
            q, mom = _reduced_step(q, mom, dt, p)
        r = math.sqrt(_dot(q, q))
        if r > limit:
            raise ChartMarginError(time=i * dt, radius=r, limit=limit)
        qs[i], ps[i] = q, mom
    return Trajectory(dt * np.arange(nsteps + 1), qs, ps)


def integrate_embedded_oracle(x0, v0, T, dt, p):
    """Ambient geodesic flow x'' = -(|x'|^2/R^2) x with per-step projection.

    The position is renormalized to the sphere and the velocity re-tangented
    after every step, so the constraint residuals are pinned at rounding
    level regardless of trajectory length.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    if x0.shape != (p.D,) or v0.shape != (p.D,):
        raise ChartDomainError(f"embedded states need {p.D} components")
    if abs(float(x0 @ x0) - p.R ** 2) > 1e-12 * p.R ** 2:
        raise ChartDomainError("initial position is not on the sphere")
    if abs(float(x0 @ v0)) > 1e-12 * p.R * max(1.0, float(np.linalg.norm(v0))):
        raise ChartDomainError("initial velocity is not tangent")
    nsteps = _step_count(T, dt)
    D = p.D

    x, v = x0.tolist(), v0.tolist()
    xs = np.empty((nsteps + 1, D))
    vs = np.empty((nsteps + 1, D))
    xs[0], vs[0] = x0, v0
    for i in range(1, nsteps + 1):
        x, v = _oracle_step(x, v, dt, p)
        scale = p.R / math.sqrt(_dot(x, x))
        x = [a * scale for a in x]
        c = _dot(x, v) / p.R ** 2
        v = [b - a * c for a, b in zip(x, v)]
        xs[i], vs[i] = x, v
    return Trajectory(dt * np.arange(nsteps + 1), xs, vs)


def embedded_from_reduced(q, mom, p):
    """Lift reduced states (q, mom), one or one per row, to (x, v = xdot),
    with qdot = g^{ij} p_j = p - q (q.p) / R^2."""
    x = lift(q, p)
    qdot = mom - q * ((q * mom).sum(axis=-1) / p.R ** 2)[..., None]
    vD = -(q * qdot).sum(axis=-1) / x[..., -1]
    return x, np.concatenate([qdot, vD[..., None]], axis=-1)


def constraint_residuals(x, p_momenta, params):
    """(x.x - R^2, x.p): the constraint pair the bracket algebra is built on."""
    x = np.asarray(x, dtype=float)
    mom = np.asarray(p_momenta, dtype=float)
    return (np.sum(x * x, axis=-1) - params.R ** 2,
            np.sum(x * mom, axis=-1))


def angular_momentum_pairs(D):
    return [(a, b) for a in range(D) for b in range(a + 1, D)]


def conserved_series(x, v, p):
    """Energy and all L_ab = x_a v_b - x_b v_a along ambient rows (x, v)."""
    energy = 0.5 * np.sum(v * v, axis=-1)
    pairs = angular_momentum_pairs(p.D)
    L = np.stack([x[:, a] * v[:, b] - x[:, b] * v[:, a] for a, b in pairs], axis=1)
    return {"energy": energy, "L": L, "pairs": pairs}


# ---------------------------------------------------------------------------
# bracket machinery (canonical chart route)

def embedded_phase_vars(p):
    return ([f"x{i}" for i in range(1, p.D + 1)],
            [f"p{i}" for i in range(1, p.D + 1)])


def canonical_phase_vars(p):
    angles = hyperspherical_var_names(p)
    return (angles, [f"p{a}" for a in angles])


def canonical_chart_map(p):
    """Ambient (x_a, p_a) as expressions in the canonical pairs on the shell.

    The radial pair is already frozen (r = R, pi_r = 0).  Positions are the
    spherical embedding; momenta expand on the coordinate basis with inverse
    squared norms, p = sum_k (dx/dphi_k) pi_k / |dx/dphi_k|^2, which for D=3
    reads p_3 = -(sin phi1) pi_1 / R and so on.  Tangency x.p = 0 holds
    identically in the angles (the tests verify it numerically and through
    sympy: the expression engine does not simplify trig identities).
    """
    angles, moms = canonical_phase_vars(p)
    xs = embedding_exprs_hyperspherical(p)
    ps = []
    for a in range(p.D):
        terms = []
        for k in range(p.D - 1):
            dx = xs[a].diff(angles[k])
            if ex.is_zero(dx):
                continue
            # |dx/dphi_k|^2 = R^2 prod_{j<k} sin^2 phi_j
            norm2 = ex.mul(ex.Const(p.R ** 2),
                           *[ex.power(ex.sin(ex.Var(angles[j])), 2)
                             for j in range(k)])
            terms.append(ex.mul(dx, ex.Var(moms[k]), ex.power(norm2, -1)))
        ps.append(ex.add(*terms) if terms else ex.Const(0.0))
    xnames, pnames = embedded_phase_vars(p)
    mapping = {}
    for a in range(p.D):
        mapping[xnames[a]] = xs[a]
        mapping[pnames[a]] = ps[a]
    return mapping


def poisson_bracket_expr(f, g, pairs):
    """Canonical bracket sum_k (df/dq_k dg/dp_k - df/dp_k dg/dq_k).

    Built from bare binary nodes rather than the folding constructors:
    each pair contributes one two-operand subtraction of two two-operand
    products.  Swapping f and g swaps the operands of commutative multiplies
    and flips single subtractions, both of which are exact under IEEE
    rounding, so the evaluated bracket is bitwise antisymmetric -- the
    folding constructors would re-associate the products and lose that.
    """
    terms = []
    for qn, pn in pairs:
        lead = ex.ordered_product(f.diff(qn), g.diff(pn))
        trail = ex.ordered_product(f.diff(pn), g.diff(qn))
        terms.append(ex.Add((lead, ex.negated(trail))))
    return terms[0] if len(terms) == 1 else ex.Add(tuple(terms))


def dirac_bracket_expr(f, g, p):
    """Constrained bracket of two canonical-chart expressions.

    An ambient observable is pulled back first, with
    ``.subs(canonical_chart_map(p))``; a bracket is already canonical, so
    brackets nest.
    """
    angles, moms = canonical_phase_vars(p)
    return poisson_bracket_expr(f, g, list(zip(angles, moms)))


def fundamental_bracket_reference(x, pvec, R):
    """Closed-form constrained brackets on the shell, as (D, D, ...) tables.

    Returns {'xx': zeros, 'xp': delta_ab - x_a x_b / R^2,
    'pp': -(x_a p_b - x_b p_a) / R^2}.  x and pvec have shape (D,) or
    (D, samples); each table carries the same trailing axis.
    """
    x = np.asarray(x, dtype=float)
    pvec = np.asarray(pvec, dtype=float)
    D = x.shape[0]
    delta = np.eye(D).reshape((D, D) + (1,) * (x.ndim - 1))
    return {"xx": np.zeros((D,) + x.shape),
            "xp": delta - x[:, None] * x[None, :] / R ** 2,
            "pp": -(x[:, None] * pvec[None, :]
                    - pvec[:, None] * x[None, :]) / R ** 2}


def _random_canonical_points(p, samples, seed):
    rng = np.random.default_rng(seed)
    n = p.D - 1
    qs = np.empty((samples, n))
    for k in range(p.D - 2):  # polar angles, kept 0.15 away from both poles
        qs[:, k] = rng.uniform(0.15, math.pi - 0.15, samples)
    qs[:, n - 1] = rng.uniform(0.0, 2.0 * math.pi, samples)
    ps = rng.standard_normal((samples, n))
    return qs, ps


def suite_dirac_brackets(p, samples, seed):
    """The three bracket families, exact antisymmetry and the Jacobi identity.

    Every check reads the same ``samples`` shell points drawn from
    ``seed``, and one plan computes x, p, the 3 D^2 family brackets, the
    antisymmetry pairs and the Jacobi sum, over slices of the samples cut
    by ``ex.evaluate_in_slices`` at 8 bytes a sample under MEMORY_BUDGET;
    one slice at the defaults.  Each family reports the max absolute
    deviation of its brackets from the oracle table
    (``fundamental_bracket_reference``); antisymmetry asks {A,B} = -{B,A}
    bitwise, not merely to rounding.  Returns (report, worst family
    deviation).  The Jacobi and antisymmetry triples use x3 and p3, so D
    must be at least 3.
    """
    if p.D < 3:
        raise ValueError(f"dirac-brackets needs dim >= 3, got dim {p.D}")
    qs, ps = _random_canonical_points(p, samples, seed)  # rejects a bad seed
    angles, moms = canonical_phase_vars(p)
    env = {n: qs[:, k] for k, n in enumerate(angles)}
    env.update({n: ps[:, k] for k, n in enumerate(moms)})
    mapping = canonical_chart_map(p)
    xnames, pnames = embedded_phase_vars(p)
    x = [mapping[n] for n in xnames]
    mom = [mapping[n] for n in pnames]
    families = {"xx": (x, x), "xp": (x, mom), "pp": (mom, mom)}
    brackets = [dirac_bracket_expr(f, g, p) for fs, gs in families.values()
                for f in fs for g in gs]
    triple = [x[0], mom[2], ex.mul(x[1], mom[1])]
    pairs = [(0, 1), (0, 2), (1, 2)]
    fwd = [dirac_bracket_expr(triple[a], triple[b], p) for a, b in pairs]
    rev = [dirac_bracket_expr(triple[b], triple[a], p) for a, b in pairs]
    A, B, C = x[0], mom[1], ex.mul(x[2], mom[0])

    def nest(f, g, h):
        return dirac_bracket_expr(f, dirac_bracket_expr(g, h, p), p)
    jacobi = ex.add(nest(A, B, C), nest(B, C, A), nest(C, A, B))

    roots = x + mom + brackets + fwd + rev + [jacobi]
    D = p.D

    def reduce_slice(values):
        # each family's deviation, the Jacobi deviation, and 1 where an
        # antisymmetry pair is not bitwise exact, over one slice
        xval, pval = np.stack(values[:D]), np.stack(values[D:2 * D])
        got = np.reshape(values[2 * D:-7], (3, D, D, -1))
        reference = fundamental_bracket_reference(xval, pval, p.R)
        devs = [np.max(np.abs(table - reference[kind]))
                for kind, table in zip(families, got)]
        exact = all(np.all(f == -r)
                    for f, r in zip(values[-7:-4], values[-4:-1]))
        return devs + [np.max(np.abs(values[-1])), not exact]
    # max is exact and keeps NaN, so the slices reduce to the whole's bits
    *devs, jacobi_dev, broken = np.max(
        [reduce_slice(values) for values in ex.evaluate_in_slices(
            roots, {}, env, 8, MEMORY_BUDGET)], axis=0)
    report = {"chart": "curvilinear_canonical", "samples": samples,
              "seed": seed, "families": {}}
    worst = 0.0
    for kind, dev in zip(families, devs):
        report["families"][kind] = {"pair": kind, "samples": samples,
                                    "max_deviation": float(dev)}
        worst = float(np.maximum(worst, dev))  # NaN-aware, unlike max()
    report["max_deviation"] = worst
    report["antisymmetry_exact"] = not broken
    report["jacobi_max_deviation"] = float(jacobi_dev)
    return report, worst
