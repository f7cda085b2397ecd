"""Classical rotor dynamics and constrained-bracket verification.

Two independent integrations of the same physics:

* ``integrate_reduced`` evolves the unconstrained chart system
  (q, p) with H = p_i g^{ij}(q) p_j / 2, where the position-dependent
  inverse mass matrix makes the Hamiltonian non-separable; implicit
  midpoint keeps it symplectic.
* ``integrate_embedded_oracle`` evolves the ambient system with the
  multiplier eliminated analytically: x'' = -(|x'|^2/R^2) x.  The
  elimination follows from differentiating the tangency condition,
  x.x'' + |x'|^2 = 0, which pins lambda = |x'|^2/(2 R^2) in
  x'' = -2 lambda x; the tests re-verify that identity numerically
  instead of trusting the algebra.

Matched initial data must produce the same curve; the acceptance suite
compares the lifted reduced trajectory against the ambient one in sup norm.

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
of random shell points, in one ``evaluate`` call.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .geometry import (MEMORY_BUDGET, ChartDomainError,
                       embedding_exprs_hyperspherical, hyperspherical_var_names,
                       inverse_metric, lift)

__all__ = [
    "PHASE_REDUCED", "PHASE_EMBEDDED", "PhaseState", "Trajectory",
    "ChartMarginError", "StepConvergenceError",
    "hamiltonian_value", "integrate_reduced", "integrate_embedded_oracle",
    "embedded_from_reduced", "constraint_residuals",
    "angular_momentum_pairs", "conserved_series",
    "canonical_phase_vars", "embedded_phase_vars", "canonical_chart_map",
    "poisson_bracket_expr", "dirac_bracket_expr",
    "fundamental_bracket_reference", "suite_dirac_brackets",
]

PHASE_REDUCED = "reduced"
PHASE_EMBEDDED = "embedded"


class ChartMarginError(RuntimeError):
    """Trajectory left the safe chart region; carries the exit time."""

    def __init__(self, time, radius, limit):
        super().__init__(
            f"trajectory reached |q| = {radius:.6g} (margin limit {limit:.6g}) "
            f"at t = {time:.6g}; restart from a rotated chart")
        self.time = time


class StepConvergenceError(RuntimeError):
    """Implicit midpoint fixed-point iteration stalled; reduce dt."""


@dataclass(frozen=True)
class PhaseState:
    """Phase-space point in a named chart (unit mass throughout)."""

    chart: str
    q: np.ndarray
    p: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "p", np.asarray(self.p, dtype=float))
        if self.q.shape != self.p.shape:
            raise ValueError("q and p must have matching shapes")

    def validate(self, p):
        dim = {PHASE_REDUCED: p.D - 1, PHASE_EMBEDDED: p.D}.get(self.chart)
        if dim is None:
            raise ValueError(f"unknown phase chart '{self.chart}'")
        if self.q.shape != (dim,):
            raise ChartDomainError(f"chart '{self.chart}' expects {dim} coordinates")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ValueError("phase state q and p must be finite")
        if self.chart == PHASE_REDUCED and np.dot(self.q, self.q) >= p.R ** 2:
            raise ChartDomainError("reduced position outside the chart ball")
        return self


class Trajectory:
    """Time series of phase states as arrays; ``traj[i]`` is a PhaseState."""

    def __init__(self, chart, times, q, p):
        self.chart = chart
        self.times = np.asarray(times, dtype=float)
        self.q = np.asarray(q, dtype=float)
        self.p = np.asarray(p, dtype=float)

    def __len__(self):
        return len(self.times)

    def __getitem__(self, i):
        return PhaseState(chart=self.chart, q=self.q[i], p=self.p[i],
                          t=float(self.times[i]))


def _reduced_arrays(s, p, caller):
    """(q, p) of a reduced PhaseState (validated) or Trajectory (only the
    chart; lift and inverse_metric check shape and ball)."""
    if not isinstance(s, Trajectory):
        s.validate(p)
    if s.chart != PHASE_REDUCED:
        raise ChartDomainError(f"{caller} expects the reduced chart")
    return s.q, s.p


def hamiltonian_value(s, p):
    """Reduced-chart energy H = p_i g^{ij}(q) p_j / 2 (per state of a Trajectory)."""
    q, mom = _reduced_arrays(s, p, "hamiltonian_value")
    G = inverse_metric(q, p)
    H = 0.5 * ((mom[..., None, :] @ G) @ mom[..., :, None])[..., 0, 0]
    return H if isinstance(s, Trajectory) else float(H)


def _dot(a, b):
    """a . b of two float lists, rounded as numpy's ``@`` rounds it.

    numpy hands the product to BLAS, whose kernel may fuse each multiply
    and add (OpenBLAS on x86-64 does); a plain float loop then differs in
    the last bit from two components on.  So this one product stays on
    numpy, and the trajectories stay bitwise what the array form gave.
    """
    return float(np.array(a).dot(np.array(b)))


def _reduced_rhs(z, p):
    # z = q + p as one float list; qdot = G p = p - q (q.p)/R^2,
    # pdot = (q.p) p / R^2
    n = len(z) // 2
    q, mom = z[:n], z[n:]
    qp = _dot(q, mom) / p.R ** 2
    return [m - x * qp for x, m in zip(q, mom)] + [m * qp for m in mom]


def _midpoint_step(rhs, z, dt, tol):
    """One implicit-midpoint step by fixed-point iteration on the midpoint.

    The state is a list of 2 to 2D floats, and the step runs on Python
    floats: on so few components each numpy call costs more than the
    arithmetic.  Elementwise, both round the same, so the step is bitwise
    the array form's.  The residual test asks every component to have
    settled, not the largest: a NaN component fails ``<=`` and never
    converges, where Python's ``max`` could skip it.  A diverging state
    overflows to inf and NaN on the way, and the NaN then ends here in
    StepConvergenceError.
    """
    bound = tol * max(1.0, *map(abs, z))
    znew = [a + dt * b for a, b in zip(z, rhs(z))]  # Euler predictor
    for _ in range(100):
        zmid = [0.5 * (a + b) for a, b in zip(z, znew)]
        znext = [a + dt * b for a, b in zip(z, rhs(zmid))]
        settled = all(abs(b - a) <= bound for a, b in zip(znew, znext))
        znew = znext
        if settled:
            return znew
    raise StepConvergenceError(
        f"midpoint iteration did not contract below {tol:g} in 100 "
        f"iterations; reduce dt={dt:g}")


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


def integrate_reduced(s0, T, dt, p, margin=0.05):
    """Implicit-midpoint evolution of the reduced chart system.

    Raises ChartMarginError (with the exit time) the moment the position
    radius exceeds (1 - margin) R; the chart itself only fails at |q| = R,
    but the metric conditioning degrades as 1/(R^2 - |q|^2), so the margin
    error tells the caller to re-chart well before that.  Every input rule
    is checked before the first step: margin in [0, 1), the step count
    (``_step_count``) and the position and momentum arrays within
    MEMORY_BUDGET.
    """
    s0 = s0.validate(p)
    if s0.chart != PHASE_REDUCED:
        raise ChartDomainError("integrate_reduced expects the reduced chart")
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must lie in [0, 1), got {margin}")
    nsteps = _step_count(T, dt)
    n = p.D - 1
    nbytes = 2 * 8 * n * (nsteps + 1)
    if nbytes > MEMORY_BUDGET:
        raise ValueError(f"{nsteps:.3g} steps need {nbytes:.3g} bytes of "
                         f"trajectory, over the {MEMORY_BUDGET} byte budget")
    limit = (1.0 - margin) * p.R
    z = s0.q.tolist() + s0.p.tolist()
    qs = np.empty((nsteps + 1, n))
    ps = np.empty((nsteps + 1, n))
    qs[0], ps[0] = z[:n], z[n:]
    rhs = lambda zz: _reduced_rhs(zz, p)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, nsteps + 1):
            z = _midpoint_step(rhs, z, dt, 1e-13)
            r = math.sqrt(_dot(z[:n], z[:n]))
            if r > limit:
                raise ChartMarginError(time=i * dt, radius=r, limit=limit)
            qs[i], ps[i] = z[:n], z[n:]
    times = s0.t + dt * np.arange(nsteps + 1)
    return Trajectory(PHASE_REDUCED, times, qs, ps)


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

    def rhs(z):
        x, v = z[:D], z[D:]
        c = -(_dot(v, v) / p.R ** 2)
        return v + [c * a for a in x]

    z = x0.tolist() + v0.tolist()
    xs = np.empty((nsteps + 1, D))
    vs = np.empty((nsteps + 1, D))
    xs[0], vs[0] = x0, v0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, nsteps + 1):
            z = _midpoint_step(rhs, z, dt, 1e-13)
            x, v = z[:D], z[D:]
            scale = p.R / math.sqrt(_dot(x, x))
            x = [a * scale for a in x]
            c = _dot(x, v) / p.R ** 2
            v = [b - a * c for a, b in zip(x, v)]
            z = x + v
            xs[i], vs[i] = x, v
    times = dt * np.arange(nsteps + 1)
    return Trajectory(PHASE_EMBEDDED, times, xs, vs)


def embedded_from_reduced(s, p):
    """Lift a reduced PhaseState, or each state of a Trajectory, to (x, v = xdot).

    Stacked ``@`` keeps every state bitwise equal to its single-state lift.
    """
    q, mom = _reduced_arrays(s, p, "embedded_from_reduced")
    x = lift(q, p)
    qdot = (inverse_metric(q, p) @ mom[..., None])[..., 0]
    vD = -(q[..., None, :] @ qdot[..., :, None])[..., 0, 0] / x[..., -1]
    return x, np.concatenate([qdot, vD[..., None]], axis=-1)


def constraint_residuals(x, p_momenta, params):
    """(x.x - R^2, x.p): the constraint pair the bracket algebra is built on."""
    x = np.asarray(x, dtype=float)
    mom = np.asarray(p_momenta, dtype=float)
    return (np.sum(x * x, axis=-1) - params.R ** 2,
            np.sum(x * mom, axis=-1))


def angular_momentum_pairs(D):
    return [(a, b) for a in range(D) for b in range(a + 1, D)]


def conserved_series(traj, p):
    """Energy and all L_ab = x_a v_b - x_b v_a along an ambient trajectory."""
    if traj.chart != PHASE_EMBEDDED:
        raise ChartDomainError("conserved_series expects an embedded trajectory")
    x, v = traj.q, traj.p
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


def fundamental_bracket_reference(kind, x, pvec, R):
    """Closed-form constrained brackets on the shell, as a (D, D, ...) table.

    kind: 'xx' -> zeros; 'xp' -> delta_ab - x_a x_b / R^2;
    'pp' -> -(x_a p_b - x_b p_a) / R^2.  x and pvec have shape (D,) or
    (D, samples); the table carries the same trailing axis.
    """
    x = np.asarray(x, dtype=float)
    pvec = np.asarray(pvec, dtype=float)
    D = x.shape[0]
    if kind == "xx":
        return np.zeros((D,) + x.shape)
    if kind == "xp":
        delta = np.eye(D).reshape((D, D) + (1,) * (x.ndim - 1))
        return delta - x[:, None] * x[None, :] / R ** 2
    if kind == "pp":
        return -(x[:, None] * pvec[None, :] - pvec[:, None] * x[None, :]) / R ** 2
    raise ValueError(f"unknown bracket family '{kind}'")


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
    ``seed``, and one ``evaluate`` call computes x, p, the 3 D^2 family
    brackets, the antisymmetry pairs and the Jacobi sum.  Each family
    reports the max absolute deviation of its brackets from the oracle
    table (``fundamental_bracket_reference``); antisymmetry asks
    {A,B} = -{B,A} bitwise, not merely to rounding.  Returns (report,
    worst family deviation).  The Jacobi and antisymmetry triples use x3
    and p3, so D must be at least 3.
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

    values = [np.broadcast_to(v, samples) for v in ex.evaluate(
        x + mom + brackets + fwd + rev + [jacobi], env)]
    D = p.D
    xval, pval = np.stack(values[:D]), np.stack(values[D:2 * D])
    got = np.reshape(values[2 * D:-7], (3, D, D, samples))
    report = {"chart": "curvilinear_canonical", "samples": samples,
              "seed": seed, "families": {}}
    worst = 0.0
    for kind, table in zip(families, got):
        want = fundamental_bracket_reference(kind, xval, pval, p.R)
        dev = float(np.max(np.abs(table - want)))
        report["families"][kind] = {"pair": kind, "samples": samples,
                                    "max_deviation": dev}
        worst = float(np.maximum(worst, dev))  # NaN-aware, unlike max()
    report["max_deviation"] = worst
    report["antisymmetry_exact"] = all(
        bool(np.all(f == -r)) for f, r in zip(values[-7:-4], values[-4:-1]))
    report["jacobi_max_deviation"] = float(np.max(np.abs(values[-1])))
    return report, worst
