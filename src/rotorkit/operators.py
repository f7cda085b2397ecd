"""Quantum operators applied exactly to closed-form test functions.

The momentum operator in the reduced cartesian chart is the hermitized
pi_i = -i hbar g^{-1/4} d_i g^{1/4} with g = R^2/(R^2-|x|^2), and the
Hamiltonian is the Laplace-Beltrami operator written two independent ways:

* ``laplace_beltrami`` (default): -(hbar^2/2) (R^2-|x|^2)^{1/2}
      d_i [ (delta_ij - x_i x_j/R^2) (R^2-|x|^2)^{-1/2} d_j f ]
* ``composition``: the symmetrized product
      (1/2) g^{-1/4} pi_i g^{1/2} g^{ij} pi_j g^{-1/4}
  composed literally from momentum applications.
* ``divergence``: the expanded form
      -(hbar^2/2) [ g^{ij} d_i d_j f - ((D-1)/R^2) x.grad f ],
  obtained by carrying out the derivatives of sqrt(g) g^{ij} once and for
  all (d_i g^{ij} = -D x_j/R^2 and g^{ij} d_i ln sqrt(g) = x_j/R^2).

All three must agree at machine precision; keeping them separate is the
point, since their agreement *is* the test.  The hyperspherical-chart
Hamiltonian is the curvilinear form

  -(hbar^2/2R^2) sum_i [prod_{j<i} sin^{-2}phi_j]
      sin^{-(D-1-i)}phi_i d_i [ sin^{D-1-i}phi_i d_i f ],

and angular momenta are L_ij = -i hbar (x_i d_j - x_j d_i) with
L_iD = +i hbar sqrt(R^2-|x|^2) d_i; the identity
sum_{a<b} L_ab^2 / R^2 = H closes the loop between the two charts.

Standalone curvilinear momenta carry a sine-power convention knob: the
symmetric split of the sphere weight sin^{D-1-i}phi_i gives the exponent
(D-1-i)/2 (``measure``, default; this is the one that is hermitian under the
sphere measure and the one the Hamiltonian's weak form corresponds to), while
``displayed`` selects (D-i)/2, which is *not* hermitian under the sphere
measure for i <= D-2.  The mismatch is deliberate and documented rather than
hidden; see README "Conventions and findings".

Three of the ``rotorkit check`` suites live here, next to the operators
they test: ``suite_chart_equivalence`` (H in the reduced chart against H in
the hyperspherical chart), ``suite_angular_momentum`` (sum_{a<b} L_ab^2/(2R^2)
against H) and ``suite_hermiticity`` (<f, T h> = <T f, h> over the whole
sphere for H and every momentum).  Each returns (results, worst deviation).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from . import expressions as ex
from .geometry import (CHART_HYPERSPHERICAL, CHART_REDUCED, MEMORY_BUDGET,
                       ChartDomainError, embedding_exprs_hyperspherical,
                       hyperspherical_var_names, lift, to_hyperspherical)
from .quadrature import reduced_ball_grid, sphere_angular_grid

__all__ = [
    "TestFunction", "OperatorTag",
    "reduced_var_names", "pullback_to_reduced",
    "pullback_to_hyperspherical", "harmonic_polynomials",
    "momentum_cartesian_expr", "hamiltonian_cartesian_expr",
    "hamiltonian_curvilinear_expr", "momentum_curvilinear_expr",
    "angular_momentum_expr", "l2_hamiltonian_expr", "hermiticity_defect",
    "apply_operator", "operator_expr",
    "suite_chart_equivalence", "suite_angular_momentum", "suite_hermiticity",
]


@dataclass(frozen=True)
class TestFunction:
    """A differentiable scalar field on a named chart."""

    expr: ex.Expr
    chart: str


@dataclass(frozen=True)
class OperatorTag:
    """Names one of the implemented operators plus its indices/options.

    kinds: H_cart, H_curv, L2, pi_cart(i), pi_curv(i), L(i,j) and
    H_curv_unsym (the deliberately unsymmetrized control).
    """

    kind: str
    i: int = 0
    j: int = 0
    convention: str = "measure"
    route: str = "laplace_beltrami"


def reduced_var_names(p):
    return [f"x{i}" for i in range(1, p.D)]


def _radius2_expr(p):
    """|x|^2 over the reduced chart variables."""
    return ex.add(*[ex.power(ex.Var(n), 2) for n in reduced_var_names(p)])


def pullback_to_reduced(expr, p, hemisphere=1):
    """Restrict an embedded-coordinate expression to one hemisphere chart.

    hemisphere=+1 substitutes x_D = +sqrt(R^2 - |x|^2), -1 the lower lift.
    Integrals over the whole sphere are sums over both lifts; that sum is
    also what cancels the equator boundary terms in hermiticity checks.
    """
    s = _radius2_expr(p)
    xd = ex.sqrt(ex.Const(p.R ** 2) - s)
    if hemisphere < 0:
        xd = ex.mul(ex.Const(-1.0), xd)
    sub = {f"x{p.D}": xd}
    return TestFunction(expr.subs(sub), CHART_REDUCED)


def pullback_to_hyperspherical(expr, p):
    emb = embedding_exprs_hyperspherical(p)
    sub = {f"x{i + 1}": emb[i] for i in range(p.D)}
    return TestFunction(expr.subs(sub), CHART_HYPERSPHERICAL)


def _monomials(D, degree):
    """All exponent tuples of total degree ``degree`` in D variables."""
    if D == 1:
        return [(degree,)]
    out = []
    for e in range(degree + 1):
        for rest in _monomials(D - 1, degree - e):
            out.append((e,) + rest)
    return out


def _harmonic_basis(D, degree):
    """(monomial exponents, null-space basis with one harmonic per column).

    Below degree 2 the Laplacian sends every polynomial to 0, so the basis
    is the monomials themselves, ordered 1 and then x1, ..., xD.
    """
    high = _monomials(D, degree)
    if degree < 2:
        return high, np.eye(len(high))[:, ::-1]
    low = _monomials(D, degree - 2)
    low_index = {m: k for k, m in enumerate(low)}
    L = np.zeros((len(low), len(high)))
    for c, mono in enumerate(high):
        for i in range(D):
            if mono[i] >= 2:
                tgt = mono[:i] + (mono[i] - 2,) + mono[i + 1:]
                L[low_index[tgt], c] += mono[i] * (mono[i] - 1)
    return high, null_space(L)


def _harmonic_blocks(D, degree):
    """The degree's harmonics in blocks, one block per zero pattern.

    Each block is (tree, coefficients, harmonics).  The tree is
    sum_k c[k] x^m_k over the monomials m_k that the block's harmonics
    use, with each coefficient c[k] a variable; ``coefficients`` maps
    each c[k] to its column of shape (rows, 1), one row per harmonic, and
    ``harmonics`` lists their indices in the basis.  The brackets keep the
    names apart from every chart and phase variable.  Grouping by zero
    pattern keeps each tree as sparse as its harmonics.
    """
    high, basis = _harmonic_basis(D, degree)
    groups = {}
    for j, col in enumerate(basis.T):
        groups.setdefault(tuple(col != 0.0), []).append(j)
    blocks = []
    for pattern, harmonics in groups.items():
        terms, coefficients = [], {}
        for k in np.flatnonzero(pattern):
            name = f"c[{k}]"
            coefficients[name] = basis[k, harmonics][:, None]
            terms.append(ex.mul(ex.Var(name), *[
                ex.power(ex.Var(f"x{i + 1}"), e) for i, e in enumerate(high[k])]))
        blocks.append((ex.add(*terms), coefficients, harmonics))
    return blocks


def harmonic_polynomials(D, degree):
    """A basis of degree-``degree`` harmonic polynomials in D variables.

    Built from scratch as the null space of the Laplacian on the monomial
    coefficient space, so it serves as an oracle independent of any spectral
    machinery.  The count matches C(D+l-1,l) - C(D+l-3,l-2).  Each harmonic
    is its block's tree (``_harmonic_blocks``) with its own coefficients
    substituted as constants, so degree 0 is the constant 1 and degree 1
    the coordinates x1, ..., xD.
    """
    out = {}
    for tree, coefficients, harmonics in _harmonic_blocks(D, degree):
        for row, j in enumerate(harmonics):
            out[j] = tree.subs({name: ex.Const(column[row, 0])
                                for name, column in coefficients.items()})
    return [out[j] for j in sorted(out)]


def _env_from_points(names, points):
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != len(names):
        raise ChartDomainError(f"expected {len(names)} coordinates")
    return {n: pts[..., k] for k, n in enumerate(names)}


def _require_chart(f, chart):
    if f.chart != chart:
        raise ChartDomainError(f"operator needs a {chart}-chart function, got {f.chart}")


def _check_reduced_domain(points, p):
    pts = np.asarray(points, dtype=float)
    s = np.sum(pts * pts, axis=-1)
    if np.any(s >= p.R ** 2):
        raise ChartDomainError("evaluation point outside the open chart ball")


# -- reduced cartesian chart -------------------------------------------------

def momentum_cartesian_expr(f, i, p):
    """pi_i f as an expression: -i hbar g^{-1/4} d_i (g^{1/4} f)."""
    _require_chart(f, CHART_REDUCED)
    if not 1 <= i <= p.D - 1:
        raise IndexError(f"momentum index {i} out of range 1..{p.D - 1}")
    s = _radius2_expr(p)
    body = ex.Const(p.R ** 2) - s
    g14 = ex.mul(ex.Const(p.R ** 0.5), ex.power(body, -0.25))
    g14_inv = ex.mul(ex.Const(p.R ** -0.5), ex.power(body, 0.25))
    inner = ex.mul(g14, f.expr).diff(f"x{i}")
    return ex.mul(ex.Const(-1j * p.hbar), g14_inv, inner)


def _inverse_metric_entry(i, j, p):
    e = ex.mul(ex.Const(-1.0 / p.R ** 2), ex.Var(f"x{i}"), ex.Var(f"x{j}"))
    if i == j:
        e = ex.add(ex.ONE, e)
    return e


def hamiltonian_cartesian_expr(f, p, route="laplace_beltrami"):
    _require_chart(f, CHART_REDUCED)
    names = reduced_var_names(p)
    s = _radius2_expr(p)
    body = ex.Const(p.R ** 2) - s
    if route == "laplace_beltrami":
        w = ex.power(body, -0.5)
        terms = []
        for i in range(1, p.D):
            inner = ex.add(*[
                ex.mul(_inverse_metric_entry(i, j, p), w, f.expr.diff(names[j - 1]))
                for j in range(1, p.D)
            ])
            terms.append(inner.diff(names[i - 1]))
        return ex.mul(ex.Const(-0.5 * p.hbar ** 2), ex.power(body, 0.5), ex.add(*terms))
    if route == "composition":
        g14_inv = ex.mul(ex.Const(p.R ** -0.5), ex.power(body, 0.25))
        g12 = ex.mul(ex.Const(p.R), ex.power(body, -0.5))
        e0 = TestFunction(ex.mul(g14_inv, f.expr), CHART_REDUCED)
        e1 = [momentum_cartesian_expr(e0, j, p) for j in range(1, p.D)]
        total = []
        for i in range(1, p.D):
            e2 = ex.add(*[
                ex.mul(g12, _inverse_metric_entry(i, j, p), e1[j - 1])
                for j in range(1, p.D)
            ])
            total.append(momentum_cartesian_expr(TestFunction(e2, CHART_REDUCED), i, p))
        # the two (-i hbar) factors recombine to the real -hbar^2
        return ex.mul(ex.Const(0.5), g14_inv, ex.add(*total))
    if route == "divergence":
        second = []
        for i in range(1, p.D):
            di = f.expr.diff(names[i - 1])
            for j in range(1, p.D):
                second.append(ex.mul(_inverse_metric_entry(i, j, p), di.diff(names[j - 1])))
        drift = ex.add(*[
            ex.mul(ex.Var(n), f.expr.diff(n)) for n in names
        ])
        return ex.mul(
            ex.Const(-0.5 * p.hbar ** 2),
            ex.add(ex.add(*second), ex.mul(ex.Const(-(p.D - 1) / p.R ** 2), drift)),
        )
    raise ValueError(f"unknown Hamiltonian route '{route}'")


def angular_momentum_expr(f, a, b, p):
    """L_ab f on the reduced chart; a < b <= D."""
    _require_chart(f, CHART_REDUCED)
    if not (1 <= a < b <= p.D):
        raise IndexError(f"need 1 <= a < b <= D, got ({a}, {b})")
    if b < p.D:
        xa, xb = ex.Var(f"x{a}"), ex.Var(f"x{b}")
        return ex.mul(
            ex.Const(-1j * p.hbar),
            ex.add(ex.mul(xa, f.expr.diff(f"x{b}")),
                   ex.mul(ex.Const(-1), xb, f.expr.diff(f"x{a}"))),
        )
    body = ex.Const(p.R ** 2) - _radius2_expr(p)
    return ex.mul(ex.Const(1j * p.hbar), ex.sqrt(body), f.expr.diff(f"x{a}"))


def l2_hamiltonian_expr(f, p):
    """sum_{a<b} L_ab(L_ab f) / (2 R^2), the total-angular-momentum form.

    The pair sum over a < b is the standard Casimir L^2 (eigenvalues
    hbar^2 l(l+D-2)); dividing by 2R^2 reproduces the Hamiltonian.  The
    factor is pinned by the D=2 circle: the single pair gives
    L^2 = -hbar^2 d^2/dphi^2 and H = L^2/(2R^2) with eigenvalues m^2/2.
    """
    _require_chart(f, CHART_REDUCED)
    terms = []
    for a in range(1, p.D + 1):
        for b in range(a + 1, p.D + 1):
            once = TestFunction(angular_momentum_expr(f, a, b, p), CHART_REDUCED)
            terms.append(angular_momentum_expr(once, a, b, p))
    return ex.mul(ex.Const(0.5 / p.R ** 2), ex.add(*terms))


# -- hyperspherical chart ----------------------------------------------------

def _sin_power(name, k):
    if k == 0:
        return ex.ONE
    return ex.power(ex.sin(ex.Var(name)), k)


def hamiltonian_curvilinear_expr(f, p):
    _require_chart(f, CHART_HYPERSPHERICAL)
    names = hyperspherical_var_names(p)
    terms = []
    prefix = ex.ONE
    for i in range(1, p.D):
        name = names[i - 1]
        k = p.D - 1 - i  # sine weight carried by this angle
        weighted = ex.mul(_sin_power(name, k), f.expr.diff(name)).diff(name)
        terms.append(ex.mul(prefix, _sin_power(name, -k), weighted))
        if i < p.D - 1:
            prefix = ex.mul(prefix, _sin_power(name, -2))
    return ex.mul(ex.Const(-0.5 * p.hbar ** 2 / p.R ** 2), ex.add(*terms))


def _unsymmetrized_curvilinear_expr(f, p):
    # control operator: same 1/sin^2 chains but no sine weights inside the
    # derivatives; visibly non-hermitian under the sphere measure
    _require_chart(f, CHART_HYPERSPHERICAL)
    names = hyperspherical_var_names(p)
    terms = []
    prefix = ex.ONE
    for i in range(1, p.D):
        name = names[i - 1]
        terms.append(ex.mul(prefix, f.expr.diff(name).diff(name)))
        if i < p.D - 1:
            prefix = ex.mul(prefix, _sin_power(name, -2))
    return ex.mul(ex.Const(-0.5 * p.hbar ** 2 / p.R ** 2), ex.add(*terms))


def momentum_curvilinear_expr(f, i, p, convention="measure"):
    """pi_phi_i f = -i hbar sin^{-a}phi_i d_i (sin^{a}phi_i f).

    ``measure``: a = (D-1-i)/2, the symmetric split of the sphere weight
    sin^{D-1-i}, hermitian under the sphere measure.  ``displayed``:
    a = (D-i)/2 as printed in the source convention this package follows;
    kept selectable because the two disagree for every polar angle.
    """
    _require_chart(f, CHART_HYPERSPHERICAL)
    if not 1 <= i <= p.D - 1:
        raise IndexError(f"momentum index {i} out of range 1..{p.D - 1}")
    if convention == "measure":
        a = 0.5 * (p.D - 1 - i)
    elif convention == "displayed":
        a = 0.5 * (p.D - i)
    else:
        raise ValueError(f"unknown momentum convention '{convention}'")
    name = hyperspherical_var_names(p)[i - 1]
    if a == 0:
        return ex.mul(ex.Const(-1j * p.hbar), f.expr.diff(name))
    sa = ex.power(ex.sin(ex.Var(name)), a)
    inv = ex.power(ex.sin(ex.Var(name)), -a)
    return ex.mul(ex.Const(-1j * p.hbar), inv, ex.mul(sa, f.expr).diff(name))


# -- hermiticity -------------------------------------------------------------

def _chart_grid(chart, p, res):
    if chart == CHART_REDUCED:
        pts, w = reduced_ball_grid(p, res)
        names = reduced_var_names(p)
    elif chart == CHART_HYPERSPHERICAL:
        pts, w = sphere_angular_grid(p, res)
        names = hyperspherical_var_names(p)
    else:
        raise ChartDomainError(f"no quadrature for chart '{chart}'")
    return pts, w, names


def operator_expr(tag, f, p):
    """Expression for (tag f); dispatch point shared by all batch appliers."""
    if tag.kind == "H_cart":
        return hamiltonian_cartesian_expr(f, p, route=tag.route)
    if tag.kind == "H_curv":
        return hamiltonian_curvilinear_expr(f, p)
    if tag.kind == "H_curv_unsym":
        return _unsymmetrized_curvilinear_expr(f, p)
    if tag.kind == "L2":
        return l2_hamiltonian_expr(f, p)
    if tag.kind == "pi_cart":
        return momentum_cartesian_expr(f, tag.i, p)
    if tag.kind == "pi_curv":
        return momentum_curvilinear_expr(f, tag.i, p, convention=tag.convention)
    if tag.kind == "L":
        return angular_momentum_expr(f, tag.i, tag.j, p)
    raise ValueError(f"unknown operator kind '{tag.kind}'")


def apply_operator(tag, f, points, p):
    """(tag f) evaluated at chart points (one per row, or a single point).

    Reduced-chart points must lie in the open ball |x| < R; anything else
    raises ChartDomainError instead of evaluating to NaN.
    """
    if f.chart == CHART_REDUCED:
        _check_reduced_domain(points, p)
        names = reduced_var_names(p)
    else:
        names = hyperspherical_var_names(p)
    return ex.evaluate(operator_expr(tag, f, p), _env_from_points(names, points))


def _defect_terms(tag, f, h, p, pts, w, names):
    """<f, T h>, <T f, h>, <f, f> and <h, h> as sums over one weighted grid."""
    # one call, so the subtrees f, h, T f and T h share are computed once
    fv, hv, tf, th = ex.evaluate(
        [f.expr, h.expr, operator_expr(tag, f, p), operator_expr(tag, h, p)],
        _env_from_points(names, pts))
    return (np.sum(w * np.conjugate(fv) * th),
            np.sum(w * np.conjugate(tf) * hv),
            np.sum(w * np.conjugate(fv) * fv).real,
            np.sum(w * np.conjugate(hv) * hv).real)


def hermiticity_defect(tag, f, h, p, res=64):
    """|<f, T h> - <T f, h>| under the sphere (sqrt(g)) measure."""
    if f.chart != h.chart:
        raise ChartDomainError("hermiticity check needs both functions on one chart")
    pts, w, names = _chart_grid(f.chart, p, res)
    lhs, rhs, _, _ = _defect_terms(tag, f, h, p, pts, w, names)
    return abs(lhs - rhs)


# -- check suites ------------------------------------------------------------

def _ball_samples(p, n, seed):
    """Reduced-chart points in the ball |x| <= 0.9 R, plus their angles."""
    rng = np.random.default_rng(seed)
    d = p.D - 1
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = 0.9 * p.R * rng.random(n) ** (1.0 / d)
    pts = dirs * radii[:, None]
    angles = np.array([to_hyperspherical(lift(x, p), p)[1] for x in pts])
    return pts, angles


def _route_gap(p, lmax, samples, routes, env):
    """Worst relative gap between two routes over the harmonic family.

    ``routes(h)`` builds both routes for the embedded harmonic h and
    returns them as the pair (a, b); one ``evaluate`` call computes the
    pair over ``env``, which binds every chart variable either route
    reads.  Each harmonic's gap is max|a - b| over the samples relative to
    its own max|b|, floored at the energy scale hbar^2/R^2;
    ``family_size`` counts harmonics.

    Every degree, 0 and 1 included, goes by blocks (``_harmonic_blocks``):
    the routes are built once for the block's tree, and the call also
    binds the tree's coefficient variables to their (rows, 1) columns, so
    each value holds one row per harmonic.  Where rows x samples x 16
    bytes (complex values) times the most values the call holds at once
    (``_peak_values``) would exceed MEMORY_BUDGET, the same pair is
    evaluated on row slices of the columns, each of at least one row.
    """
    scale = p.hbar ** 2 / p.R ** 2
    worst = 0.0
    size = 0
    for degree in range(lmax + 1):
        for tree, coefficients, harmonics in _harmonic_blocks(p.D, degree):
            pair = routes(tree)
            held = ex._peak_values(pair)
            step = max(1, MEMORY_BUDGET // (samples * held * 16))
            for lo in range(0, len(harmonics), step):
                rows = len(harmonics[lo:lo + step])
                bound = {name: column[lo:lo + step]
                         for name, column in coefficients.items()}
                a, b = (np.broadcast_to(v, (rows, samples))
                        for v in ex.evaluate(pair, {**env, **bound}))
                for ar, br in zip(a, b):
                    ref = max(float(np.max(np.abs(br))), scale)
                    worst = float(np.maximum(worst,
                                             np.max(np.abs(ar - br)) / ref))
            size += len(harmonics)
    return {"family_size": size, "points": samples,
            "max_relative_deviation": worst}, worst


def suite_chart_equivalence(p, lmax, samples, seed):
    """H applied in the reduced and hyperspherical charts must agree.

    The two charts' variables (x1.. and phi1..) have disjoint names, so
    one env binds both and each block's two routes evaluate in one call.
    """
    pts, angles = _ball_samples(p, samples, seed)
    env = {**_env_from_points(reduced_var_names(p), pts),
           **_env_from_points(hyperspherical_var_names(p), angles)}
    cart = OperatorTag("H_cart", route="laplace_beltrami")
    curv = OperatorTag("H_curv")

    def routes(h):
        return (operator_expr(cart, pullback_to_reduced(h, p), p),
                operator_expr(curv, pullback_to_hyperspherical(h, p), p))
    return _route_gap(p, lmax, samples, routes, env)


def suite_angular_momentum(p, lmax, samples, seed):
    """sum_{a<b} L_ab^2 / (2 R^2) must reproduce H on the reduced chart."""
    pts, _ = _ball_samples(p, samples, seed)
    env = _env_from_points(reduced_var_names(p), pts)
    l2 = OperatorTag("L2")
    cart = OperatorTag("H_cart", route="laplace_beltrami")

    def routes(h):
        f = pullback_to_reduced(h, p)
        return operator_expr(l2, f, p), operator_expr(cart, f, p)
    return _route_gap(p, lmax, samples, routes, env)


def _midpoint_angular_grid(p, res):
    """Tensor angular grid with midpoint polar nodes and uniform azimuth.

    Every integrand the hermiticity suite meets is a trig polynomial once
    the sin^{D-1-i} measure factors are folded into the weights, and the
    midpoint offset keeps all nodes away from the removable pole
    singularities of the momentum operators, so these sums are exact.
    """
    axes_nodes, axes_w = [], []
    for i in range(1, p.D - 1):
        nodes = (np.arange(res) + 0.5) * math.pi / res
        axes_nodes.append(nodes)
        axes_w.append((math.pi / res) * np.sin(nodes) ** (p.D - 1 - i))
    axes_nodes.append(np.arange(res) * 2.0 * math.pi / res)
    axes_w.append(np.full(res, 2.0 * math.pi / res))
    mesh = np.meshgrid(*axes_nodes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    w = np.ones(pts.shape[0]) * p.R ** (p.D - 1)
    for wm in np.meshgrid(*axes_w, indexing="ij"):
        w = w * wm.ravel()
    return pts, w


def _sphere_defect(tag, h1, h2, p, grids, chart):
    """Hermiticity defect of T over the whole sphere, normalized by |h1| |h2|.

    h1 and h2 are embedded-coordinate expressions, pulled back to ``chart``;
    ``grids`` maps each chart to its (points, weights, variable names).
    The reduced chart covers half the sphere; equator boundary terms only
    cancel in the sum of the two hemisphere lifts, which is the honest
    statement of hermiticity for that chart.  The hyperspherical chart
    covers the sphere once, on the midpoint angular grid.
    """
    pts, w, names = grids[chart]
    if chart == CHART_REDUCED:
        lifts = [(pullback_to_reduced(h1, p, hemisphere=s),
                  pullback_to_reduced(h2, p, hemisphere=s)) for s in (1, -1)]
    else:
        lifts = [(pullback_to_hyperspherical(h1, p),
                  pullback_to_hyperspherical(h2, p))]
    lhs = rhs = 0.0
    n1 = n2 = 0.0
    for f, h in lifts:
        fth, tfh, ff, hh = _defect_terms(tag, f, h, p, pts, w, names)
        lhs = lhs + fth
        rhs = rhs + tfh
        n1 += float(ff)
        n2 += float(hh)
    return abs(lhs - rhs) / math.sqrt(n1 * n2)


def suite_hermiticity(p, res):
    """<f, T h> = <T f, h> under the sphere measure for H and every pi.

    The displayed-convention curvilinear momentum is reported but excluded
    from the pass criterion; it is documented as non-hermitian.  D must be
    at least 3, since at D=2 there is no polar angle for that control to
    act on, and res at least 2 (the reduced chart's polar nodes reject
    less); both are checked before any harmonic is built.  The suite's two
    grids, the reduced chart's Gauss grid and the hyperspherical midpoint
    grid, are built once, here.
    """
    if p.D < 3:
        raise ValueError(f"hermiticity needs dim >= 3, got dim {p.D}")
    grids = {CHART_REDUCED: _chart_grid(CHART_REDUCED, p, res),
             CHART_HYPERSPHERICAL: (*_midpoint_angular_grid(p, res),
                                    hyperspherical_var_names(p))}
    harmonics = [harmonic_polynomials(p.D, l)[0] for l in (1, 2, 3)]
    # pi_cart is symmetric on functions vanishing at the chart edge (the
    # equator); x_D^2 damping puts the test pair in that domain and keeps
    # the rational (R^2-|x|^2)^{-1} factor of the operator polynomial
    xd2 = ex.mul(ex.Var(f"x{p.D}"), ex.Var(f"x{p.D}"))
    damped = [ex.mul(xd2, h) for h in harmonics]
    pairs = [(0, 1), (0, 2), (1, 2)]
    # (row name, operator, chart, test pair family, pair label prefix)
    checks = [("H_cart", OperatorTag("H_cart", route="laplace_beltrami"),
               CHART_REDUCED, harmonics, "")]
    checks += [(f"pi_cart_{i}", OperatorTag("pi_cart", i=i), CHART_REDUCED,
                damped, "xD^2 ") for i in range(1, p.D)]
    checks += [("H_curv", OperatorTag("H_curv"), CHART_HYPERSPHERICAL,
                harmonics, "")]
    checks += [(f"pi_curv_{i}", OperatorTag("pi_curv", i=i),
                CHART_HYPERSPHERICAL, harmonics, "") for i in range(1, p.D)]
    rows = []
    worst = 0.0
    for name, tag, chart, family, label in checks:
        for a, b in pairs:
            d = _sphere_defect(tag, family[a], family[b], p, grids, chart)
            rows.append({"operator": name, "pair": f"{label}l{a + 1},l{b + 1}",
                         "defect": float(d)})
            worst = float(np.maximum(worst, d))
    # deliberately non-hermitian control, excluded from the max; the pair is
    # picked so no parity accident hides the defect
    displayed = OperatorTag("pi_curv", i=1, convention="displayed")
    control = _sphere_defect(displayed, harmonic_polynomials(p.D, 1)[2],
                             harmonic_polynomials(p.D, 2)[1], p, grids,
                             CHART_HYPERSPHERICAL)
    if math.isnan(control):
        worst = control  # a control that cannot be measured fails the suite
    return {"rows": rows, "max_defect": worst,
            "displayed_convention_defect": float(control)}, worst
