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
formula, and it keeps antisymmetry exact at the expression level.  The
expected closed forms,

    {x_a, x_b} = 0
    {x_a, p_b} = delta_ab - x_a x_b / R^2
    {p_a, p_b} = -(x_a p_b - x_b p_a) / R^2,

live in ``fundamental_bracket_reference`` as the independent oracle.  The
chart map's tangency x.p = 0 (pulled back, identically zero) and the
projection of an ambient state back to the reduced chart are oracles that
only tests use, so they live in ``tests/test_dynamics.py``.

The ``rotorkit check dirac-brackets`` suite lives here too:
``suite_dirac_brackets`` runs ``bracket_check_report`` and adds bitwise
antisymmetry and the Jacobi identity over the same random shell points.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .geometry import (MEMORY_BUDGET, ChartDomainError,
                       embedding_exprs_hyperspherical, hyperspherical_var_names,
                       inverse_metric, lift)

__all__ = [
    "PHASE_REDUCED", "PHASE_EMBEDDED", "PHASE_CANONICAL",
    "PhaseState", "Observable", "Trajectory",
    "ChartMarginError", "StepConvergenceError",
    "hamiltonian_value", "integrate_reduced", "integrate_embedded_oracle",
    "embedded_from_reduced", "constraint_residuals",
    "angular_momentum_pairs", "conserved_series",
    "canonical_phase_vars", "embedded_phase_vars", "canonical_chart_map",
    "pullback_observable", "poisson_bracket_expr", "dirac_bracket_expr",
    "fundamental_bracket_reference", "bracket_check_report",
    "suite_dirac_brackets",
]

PHASE_REDUCED = "reduced"
PHASE_EMBEDDED = "embedded"
PHASE_CANONICAL = "curvilinear_canonical"


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
        dim = {PHASE_REDUCED: p.D - 1, PHASE_EMBEDDED: p.D,
               PHASE_CANONICAL: p.D - 1}.get(self.chart)
        if dim is None:
            raise ValueError(f"unknown phase chart '{self.chart}'")
        if self.q.shape != (dim,):
            raise ChartDomainError(f"chart '{self.chart}' expects {dim} coordinates")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.p))):
            raise ValueError("phase state q and p must be finite")
        if self.chart == PHASE_REDUCED and np.dot(self.q, self.q) >= p.R ** 2:
            raise ChartDomainError("reduced position outside the chart ball")
        return self


@dataclass(frozen=True)
class Observable:
    """Differentiable phase-space function over a named chart's variables."""

    expr: ex.Expr
    chart: str


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


def integrate_reduced(s0, T, dt, p, margin=0.05):
    """Implicit-midpoint evolution of the reduced chart system.

    Raises ChartMarginError (with the exit time) the moment the position
    radius exceeds (1 - margin) R; the chart itself only fails at |q| = R,
    but the metric conditioning degrades as 1/(R^2 - |q|^2), so the margin
    error tells the caller to re-chart well before that.  Every input rule
    is checked before the first step: margin in [0, 1), finite dt > 0 and
    T >= 0, and the position and momentum arrays within MEMORY_BUDGET.
    """
    s0 = s0.validate(p)
    if s0.chart != PHASE_REDUCED:
        raise ChartDomainError("integrate_reduced expects the reduced chart")
    if not 0.0 <= margin < 1.0:
        raise ValueError(f"margin must lie in [0, 1), got {margin}")
    if not (0.0 < dt < math.inf and 0.0 <= T < math.inf):
        raise ValueError(f"need finite dt > 0 and T >= 0, got dt={dt}, T={T}")
    n = p.D - 1
    nbytes = 2 * 8 * n * (T / dt + 1)  # float: T / dt may overflow
    if nbytes > MEMORY_BUDGET:
        raise ValueError(f"{T / dt:.3g} steps need {nbytes:.3g} bytes of "
                         f"trajectory, over the {MEMORY_BUDGET} byte budget")
    nsteps = int(round(T / dt))
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
    if dt <= 0 or T < 0:
        raise ValueError("need dt > 0 and T >= 0")
    nsteps = int(round(T / dt))
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


def pullback_observable(obs, p):
    """Express an observable over the canonical chart variables."""
    if obs.chart == PHASE_CANONICAL:
        return obs.expr
    if obs.chart == PHASE_EMBEDDED:
        return obs.expr.subs(canonical_chart_map(p))
    raise ValueError(f"cannot pull back chart '{obs.chart}'")


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


def dirac_bracket_expr(A, B, p):
    """Constrained bracket of two observables as a canonical-chart expression."""
    angles, moms = canonical_phase_vars(p)
    f = pullback_observable(A, p)
    g = pullback_observable(B, p)
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


def _canonical_sample_env(p, samples, seed):
    """Evaluation environment over the canonical variables at random points."""
    qs, ps = _random_canonical_points(p, samples, seed)
    angles, moms = canonical_phase_vars(p)
    env = {n: qs[:, k] for k, n in enumerate(angles)}
    env.update({n: ps[:, k] for k, n in enumerate(moms)})
    return env


def bracket_check_report(p, samples=1000, seed=7):
    """Verify the three bracket families against their closed forms.

    Returns a JSON-ready report: per family the sample count and the max
    absolute deviation between the canonical-chart bracket and the oracle
    table over random shell points.
    """
    env = _canonical_sample_env(p, samples, seed)  # rejects a bad seed first
    xnames, pnames = embedded_phase_vars(p)
    xs = [Observable(ex.Var(n), PHASE_EMBEDDED) for n in xnames]
    pvars = [Observable(ex.Var(n), PHASE_EMBEDDED) for n in pnames]
    mapping = canonical_chart_map(p)
    pairs = {"xx": (xs, xs), "xp": (xs, pvars), "pp": (pvars, pvars)}
    families = {kind: [[dirac_bracket_expr(fa, gb, p) for gb in g] for fa in f]
                for kind, (f, g) in pairs.items()}
    xval = np.stack([np.broadcast_to(ex.evaluate(mapping[n], env), samples)
                     for n in xnames])
    pval = np.stack([np.broadcast_to(ex.evaluate(mapping[n], env), samples)
                     for n in pnames])
    report = {"chart": PHASE_CANONICAL, "samples": samples, "seed": seed,
              "families": {}}
    worst = 0.0
    for kind, table in families.items():
        got = np.array([[np.broadcast_to(ex.evaluate(e, env), samples) for e in row]
                        for row in table])
        want = fundamental_bracket_reference(kind, xval, pval, p.R)
        dev = float(np.max(np.abs(got - want)))
        report["families"][kind] = {"pair": kind, "samples": samples,
                                    "max_deviation": dev}
        worst = float(np.maximum(worst, dev))  # NaN-aware, unlike max()
    report["max_deviation"] = worst
    return report


def _jacobi_deviation(p, samples, seed):
    """Cyclic sum of nested brackets over a mixed observable triple."""
    xnames, pnames = embedded_phase_vars(p)
    A = Observable(ex.Var(xnames[0]), PHASE_EMBEDDED)
    B = Observable(ex.Var(pnames[1]), PHASE_EMBEDDED)
    C = Observable(ex.mul(ex.Var(xnames[2]), ex.Var(pnames[0])), PHASE_EMBEDDED)

    def nest(f, g, h):
        inner = Observable(dirac_bracket_expr(g, h, p), PHASE_CANONICAL)
        return dirac_bracket_expr(f, inner, p)
    total = ex.add(nest(A, B, C), nest(B, C, A), nest(C, A, B))
    env = _canonical_sample_env(p, samples, seed)
    vals = np.broadcast_to(ex.evaluate(total, env), samples)
    return float(np.max(np.abs(vals)))


def _antisymmetry_exact(p, samples, seed):
    """{A,B} + {B,A} must vanish bitwise, not merely to rounding."""
    xnames, pnames = embedded_phase_vars(p)
    obs = [Observable(ex.Var(xnames[0]), PHASE_EMBEDDED),
           Observable(ex.Var(pnames[2]), PHASE_EMBEDDED),
           Observable(ex.mul(ex.Var(xnames[1]), ex.Var(pnames[1])),
                      PHASE_EMBEDDED)]
    env = _canonical_sample_env(p, samples, seed)
    ok = True
    for a in range(len(obs)):
        for b in range(a + 1, len(obs)):
            fwd = np.broadcast_to(
                ex.evaluate(dirac_bracket_expr(obs[a], obs[b], p), env), samples)
            rev = np.broadcast_to(
                ex.evaluate(dirac_bracket_expr(obs[b], obs[a], p), env), samples)
            ok = ok and bool(np.all(fwd == -rev))
    return ok


def suite_dirac_brackets(p, samples, seed):
    """The three bracket families, exact antisymmetry and the Jacobi identity.

    Returns (report, worst family deviation); each part draws the same
    ``samples`` shell points from ``seed``.  The Jacobi and antisymmetry
    triples use x3 and p3, so D must be at least 3.
    """
    if p.D < 3:
        raise ValueError(f"dirac-brackets needs dim >= 3, got dim {p.D}")
    report = bracket_check_report(p, samples=samples, seed=seed)
    report["antisymmetry_exact"] = _antisymmetry_exact(p, samples, seed)
    report["jacobi_max_deviation"] = _jacobi_deviation(p, samples, seed)
    return report, float(report["max_deviation"])
