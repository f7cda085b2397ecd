"""Quantum operators applied exactly to closed-form test functions.

Test functions are plain ``expressions.Expr`` values.  Each builder's name
says its chart (``*_cartesian_expr``, ``angular_momentum_expr`` and
``l2_hamiltonian_expr`` reduced, ``*_curvilinear_expr`` hyperspherical),
and ``OperatorTag.chart`` alone decides the chart a tag's operator acts on.

The momentum operator in the reduced cartesian chart is the hermitized
pi_i = -i hbar g^{-1/4} d_i g^{1/4} with g = R^2/(R^2-|x|^2), and the
Hamiltonian is the Laplace-Beltrami operator written three independent ways:

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

Standalone curvilinear momenta take a sine-power convention
(``momentum_curvilinear_expr``): ``measure`` is hermitian under the sphere
measure, and ``displayed`` is deliberately not for i <= D-2; see README
"Conventions and findings".

Three of the ``rotorkit check`` suites live here, next to the operators
they test: ``suite_chart_equivalence`` (H in the reduced chart against H in
the hyperspherical chart) and ``suite_angular_momentum`` (sum_{a<b}
L_ab^2/(2R^2) against H), both also against the eigenvalue, on zonal
harmonics, and ``suite_hermiticity`` (<f, T h> = <T f, h> over the sphere
for H and every momentum) on harmonics with exact integer coefficients
(``_harmonic_basis``).  Each returns (results, worst deviation).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .geometry import (CHART_HYPERSPHERICAL, CHART_REDUCED, MEMORY_BUDGET,
                       ChartDomainError, _check_ball,
                       embedding_exprs_hyperspherical, harmonic_multiplicity,
                       hyperspherical_var_names, lift, to_hyperspherical)
from .quadrature import (midpoint_angular_grid, reduced_ball_grid,
                         sphere_angular_grid)

__all__ = [
    "OperatorTag",
    "reduced_var_names", "pullback_to_reduced",
    "pullback_to_hyperspherical", "harmonic_polynomials",
    "momentum_cartesian_expr", "hamiltonian_cartesian_expr",
    "hamiltonian_curvilinear_expr", "momentum_curvilinear_expr",
    "angular_momentum_expr", "l2_hamiltonian_expr", "hermiticity_defect",
    "apply_operator", "operator_expr",
    "suite_chart_equivalence", "suite_angular_momentum", "suite_hermiticity",
]


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

    @property
    def chart(self):
        """The chart the operator acts on, read from ``kind``."""
        curvilinear = self.kind in ("H_curv", "H_curv_unsym", "pi_curv")
        return CHART_HYPERSPHERICAL if curvilinear else CHART_REDUCED


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
    return expr.subs({f"x{p.D}": xd})


def pullback_to_hyperspherical(expr, p):
    emb = embedding_exprs_hyperspherical(p)
    return expr.subs({f"x{i + 1}": emb[i] for i in range(p.D)})


def _monomials(D, degree):
    """Exponents of the degree's monomials in D variables, x1's highest first."""
    if D == 1:
        return [(degree,)]
    return [(e,) + rest for e in range(degree, -1, -1)
            for rest in _monomials(D - 1, degree - e)]


def _harmonic_basis(D, degree):
    """The degree's harmonics, each an {exponents: integer coefficient} dict.

    With y = (x2, ..., xD), h = sum_k x1^k a_k(y) / k! is harmonic exactly
    when a_(k+2) = -Delta' a_k, Delta' the Laplacian in y.  Each monomial
    x1^s y^b with s < 2 seeds one harmonic (a_s = y^b, a_(1-s) = 0), and
    these seeds give a basis (Axler, Bourdon and Ramey, *Harmonic Function
    Theory*, ch. 5).  Scaled by degree!, every coefficient is an integer.
    """
    basis = []
    for s, *b in (m for m in _monomials(D, degree) if m[0] < 2):
        h, a = {}, {tuple(b): 1}
        for k in range(s, degree + 1, 2):
            scale = math.perm(degree, degree - k)  # degree! / k!
            h.update({(k, *y): c * scale for y, c in a.items()})
            lower = {}
            for y, c in a.items():
                for i, e in enumerate(y):
                    if e > 1:
                        z = y[:i] + (e - 2,) + y[i + 1:]
                        lower[z] = lower.get(z, 0) - c * e * (e - 1)
            a = lower
        basis.append(h)
    return basis


def harmonic_polynomials(D, degree):
    """``_harmonic_basis`` as expressions: each harmonic sums its nonzero
    terms in ``_monomials`` order, a constant coefficient times the powers,
    so degree 0 is the constant 1 and degree 1 the coordinates x1, ..., xD.
    """
    return [ex.add(*[ex.mul(ex.Const(float(h[m])), *[
        ex.power(ex.Var(f"x{i + 1}"), e) for i, e in enumerate(m)])
        for m in _monomials(D, degree) if m in h])
        for h in _harmonic_basis(D, degree)]


def _zonal_coefficients(D, degree):
    """Integer c_k of the zonal harmonic Z_l(x; a) = sum_k c_k (a.x)^(l-2k)
    (|a|^2 |x|^2)^k of axis a (Axler, Bourdon and Ramey, *Harmonic Function
    Theory*, ch. 5), a multiple of Gegenbauer's C_l^((D-2)/2), Chebyshev's
    T_l at D = 2: c_(k+1)/c_k = -(l-2k)(l-2k-1) / (2(k+1)(D+2l-2k-4))."""
    c = [1]
    for k in range(degree // 2):  # the earlier c_k take the denominator
        den = 2 * (k + 1) * (D + 2 * degree - 2 * k - 4)
        c = [v * den for v in c] + [-c[-1] * (degree - 2 * k)
                                    * (degree - 2 * k - 1)]
    return c


def _zonal_tree(p, degree):
    """Z_l of a unit axis on the sphere |x| = R, R^l at the pole, as one
    tree sum_k (c_k / sum c) R^(2k) (a.x)^(l-2k), each ratio rounded once,
    over x1..xD and axis variables a[1]..a[D] (apart from chart names)."""
    t = ex.add(*[ex.mul(ex.Var(f"a[{i}]"), ex.Var(f"x{i}"))
                 for i in range(1, p.D + 1)])
    c = _zonal_coefficients(p.D, degree)
    return ex.add(*[ex.mul(ex.Const(ck / sum(c) * p.R ** (2 * k)),
                           ex.power(t, degree - 2 * k))
                    for k, ck in enumerate(c)])


def _env_from_points(names, points):
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1] != len(names):
        raise ChartDomainError(f"expected {len(names)} coordinates")
    return {n: pts[..., k] for k, n in enumerate(names)}


# -- reduced cartesian chart -------------------------------------------------

def momentum_cartesian_expr(f, i, p):
    """pi_i f as an expression: -i hbar g^{-1/4} d_i (g^{1/4} f)."""
    if not 1 <= i <= p.D - 1:
        raise IndexError(f"momentum index {i} out of range 1..{p.D - 1}")
    s = _radius2_expr(p)
    body = ex.Const(p.R ** 2) - s
    g14 = ex.mul(ex.Const(p.R ** 0.5), ex.power(body, -0.25))
    g14_inv = ex.mul(ex.Const(p.R ** -0.5), ex.power(body, 0.25))
    inner = ex.mul(g14, f).diff(f"x{i}")
    return ex.mul(ex.Const(-1j * p.hbar), g14_inv, inner)


def _inverse_metric_entry(i, j, p):
    e = ex.mul(ex.Const(-1.0 / p.R ** 2), ex.Var(f"x{i}"), ex.Var(f"x{j}"))
    if i == j:
        e = ex.add(ex.ONE, e)
    return e


def hamiltonian_cartesian_expr(f, p, route="laplace_beltrami"):
    names = reduced_var_names(p)
    s = _radius2_expr(p)
    body = ex.Const(p.R ** 2) - s
    if route == "laplace_beltrami":
        w = ex.power(body, -0.5)
        terms = []
        for i in range(1, p.D):
            inner = ex.add(*[
                ex.mul(_inverse_metric_entry(i, j, p), w, f.diff(names[j - 1]))
                for j in range(1, p.D)
            ])
            terms.append(inner.diff(names[i - 1]))
        return ex.mul(ex.Const(-0.5 * p.hbar ** 2), ex.power(body, 0.5), ex.add(*terms))
    if route == "composition":
        g14_inv = ex.mul(ex.Const(p.R ** -0.5), ex.power(body, 0.25))
        g12 = ex.mul(ex.Const(p.R), ex.power(body, -0.5))
        e0 = ex.mul(g14_inv, f)
        e1 = [momentum_cartesian_expr(e0, j, p) for j in range(1, p.D)]
        total = []
        for i in range(1, p.D):
            e2 = ex.add(*[
                ex.mul(g12, _inverse_metric_entry(i, j, p), e1[j - 1])
                for j in range(1, p.D)
            ])
            total.append(momentum_cartesian_expr(e2, i, p))
        # the two (-i hbar) factors recombine to the real -hbar^2
        return ex.mul(ex.Const(0.5), g14_inv, ex.add(*total))
    if route == "divergence":
        second = []
        for i in range(1, p.D):
            di = f.diff(names[i - 1])
            for j in range(1, p.D):
                second.append(ex.mul(_inverse_metric_entry(i, j, p), di.diff(names[j - 1])))
        drift = ex.add(*[
            ex.mul(ex.Var(n), f.diff(n)) for n in names
        ])
        return ex.mul(
            ex.Const(-0.5 * p.hbar ** 2),
            ex.add(ex.add(*second), ex.mul(ex.Const(-(p.D - 1) / p.R ** 2), drift)),
        )
    raise ValueError(f"unknown Hamiltonian route '{route}'")


def angular_momentum_expr(f, a, b, p):
    """L_ab f on the reduced chart; a < b <= D."""
    if not (1 <= a < b <= p.D):
        raise IndexError(f"need 1 <= a < b <= D, got ({a}, {b})")
    if b < p.D:
        xa, xb = ex.Var(f"x{a}"), ex.Var(f"x{b}")
        return ex.mul(
            ex.Const(-1j * p.hbar),
            ex.add(ex.mul(xa, f.diff(f"x{b}")),
                   ex.mul(ex.Const(-1), xb, f.diff(f"x{a}"))),
        )
    body = ex.Const(p.R ** 2) - _radius2_expr(p)
    return ex.mul(ex.Const(1j * p.hbar), ex.sqrt(body), f.diff(f"x{a}"))


def l2_hamiltonian_expr(f, p):
    """sum_{a<b} L_ab(L_ab f) / (2 R^2), the total-angular-momentum form.

    The pair sum over a < b is the standard Casimir L^2 (eigenvalues
    hbar^2 l(l+D-2)); dividing by 2R^2 reproduces the Hamiltonian.  The
    factor is pinned by the D=2 circle: the single pair gives
    L^2 = -hbar^2 d^2/dphi^2 and H = L^2/(2R^2) with eigenvalues m^2/2.
    """
    terms = []
    for a in range(1, p.D + 1):
        for b in range(a + 1, p.D + 1):
            once = angular_momentum_expr(f, a, b, p)
            terms.append(angular_momentum_expr(once, a, b, p))
    return ex.mul(ex.Const(0.5 / p.R ** 2), ex.add(*terms))


# -- hyperspherical chart ----------------------------------------------------

def _sin_power(name, k):
    return ex.power(ex.sin(ex.Var(name)), k)


def hamiltonian_curvilinear_expr(f, p, weights=True):
    """H f in the hyperspherical chart; ``weights=False`` drops the sine
    weights inside the derivatives, the non-hermitian control H_curv_unsym."""
    names = hyperspherical_var_names(p)
    terms = []
    prefix = ex.ONE
    for i in range(1, p.D):
        name = names[i - 1]
        k = p.D - 1 - i if weights else 0  # sine weight carried by this angle
        weighted = ex.mul(_sin_power(name, k), f.diff(name)).diff(name)
        terms.append(ex.mul(prefix, _sin_power(name, -k), weighted))
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
    if not 1 <= i <= p.D - 1:
        raise IndexError(f"momentum index {i} out of range 1..{p.D - 1}")
    if convention == "measure":
        a = 0.5 * (p.D - 1 - i)
    elif convention == "displayed":
        a = 0.5 * (p.D - i)
    else:
        raise ValueError(f"unknown momentum convention '{convention}'")
    name = hyperspherical_var_names(p)[i - 1]
    sa = ex.power(ex.sin(ex.Var(name)), a)
    inv = ex.power(ex.sin(ex.Var(name)), -a)
    return ex.mul(ex.Const(-1j * p.hbar), inv, ex.mul(sa, f).diff(name))


# -- hermiticity -------------------------------------------------------------

def operator_expr(tag, f, p):
    """Expression for (tag f); dispatch point shared by all batch appliers."""
    if tag.kind == "H_cart":
        return hamiltonian_cartesian_expr(f, p, route=tag.route)
    if tag.kind == "H_curv":
        return hamiltonian_curvilinear_expr(f, p)
    if tag.kind == "H_curv_unsym":
        return hamiltonian_curvilinear_expr(f, p, weights=False)
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
    """(tag f) at points of ``tag.chart`` (one per row, or a single point).

    Reduced-chart points must lie in the open ball |x| < R; anything else
    raises ChartDomainError instead of evaluating to NaN.
    """
    reduced = tag.chart == CHART_REDUCED
    names = reduced_var_names(p) if reduced else hyperspherical_var_names(p)
    env = _env_from_points(names, points)  # the coordinate count comes first
    if reduced:
        _check_ball(points, p)
    return ex.evaluate(operator_expr(tag, f, p), env)


def _pair_terms(families, p, grid):
    """<f, T h>, <T f, h>, <f, f> and <h, h> as sums over one weighted grid.

    ``families`` lists (functions, operators) on the chart of ``grid`` =
    (points, weights, variable names).  The sums come for each family,
    operator T and pair a < b in turn, with f, h = functions[a],
    functions[b].  One call evaluates every function and its images, so
    the derivatives that the operators share are computed once.
    """
    pts, w, names = grid
    roots = []
    for funcs, tags in families:
        roots += funcs + [operator_expr(tag, f, p) for tag in tags for f in funcs]
    values = iter(ex.evaluate(roots, _env_from_points(names, pts)))
    terms = []
    for funcs, tags in families:
        fv = [next(values) for _ in funcs]
        for _ in tags:
            tv = [next(values) for _ in funcs]
            terms += [(np.sum(w * np.conjugate(fv[a]) * tv[b]),
                       np.sum(w * np.conjugate(tv[a]) * fv[b]),
                       np.sum(w * np.conjugate(fv[a]) * fv[a]).real,
                       np.sum(w * np.conjugate(fv[b]) * fv[b]).real)
                      for a, b in itertools.combinations(range(len(funcs)), 2)]
    return terms


def hermiticity_defect(tag, f, h, p, res=64):
    """|<f, T h> - <T f, h>| under the sphere measure, summed over
    ``sphere_angular_grid``.

    The tag must act on the hyperspherical chart.  One lift of the reduced
    chart is not a closed manifold: its equator boundary terms cancel only
    in the sum over both lifts, which ``check hermiticity`` takes.  The
    Gauss grid in u sums pi_curv pairs with only algebraic convergence:
    the suite's pi_curv_2 pair (l2, l3) at D = 4 reads 2.8e-5, 9.1e-7 and
    2.9e-8 relative to |f| |h| at res 16, 32 and 64, so ``check
    hermiticity`` sums its pi rows on ``midpoint_angular_grid``.
    """
    if tag.chart == CHART_REDUCED:
        raise ValueError(f"{tag.kind} acts on one lift of the reduced chart, "
                         "whose equator terms do not cancel; check "
                         "hermiticity sums both lifts")
    grid = (*sphere_angular_grid(p, res), hyperspherical_var_names(p))
    (lhs, rhs, _, _), = _pair_terms([([f, h], [tag])], p, grid)
    return abs(lhs - rhs)


# -- check suites ------------------------------------------------------------

def _ball_samples(p, n, seed):
    """Reduced-chart points in the ball |x| <= 0.9 R."""
    rng = np.random.default_rng(seed)
    d = p.D - 1
    dirs = rng.standard_normal((n, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = 0.9 * p.R * rng.random(n) ** (1.0 / d)
    return dirs * radii[:, None]


ZONAL_ROWS = 64  # D = 3 keeps all 100 harmonics of lmax 9 (README)


def _route_gap(p, lmax, samples, seed, routes, env):
    """Worst relative gaps, route a to route b and b to the eigenvalue.

    ``routes(h)`` returns both routes for the embedded harmonic h and h on
    the reduced chart, (a, b, f), over ``env``, the samples of every chart
    variable.  A row's gaps are max|a - b| and max|b - E_l f| (E_l =
    hbar^2 l(l+D-2)/(2R^2), a third route) over its max|b|, floored at
    hbar^2/R^2.  Degree l is one block: one ``_zonal_tree`` at min(dimension,
    ``ZONAL_ROWS``) unit axes, drawn apart from the samples and bound as
    (rows, 1) columns, and one ``ex.evaluate_in_slices`` call at rows x 16
    bytes a sample; the maxima fold over its slices with the exact,
    NaN-keeping ``np.maximum``, so a cut batch gives the whole batch's bits.
    """
    rng = np.random.default_rng([seed, 1])  # apart from _ball_samples' seed
    rows = [min(harmonic_multiplicity(p.D, l), ZONAL_ROWS)
            for l in range(lmax + 1)]
    worst = eigen_worst = 0.0
    for degree, n in enumerate(rows):
        axes = rng.standard_normal((n, p.D))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        columns = {f"a[{i + 1}]": axes[:, i:i + 1] for i in range(p.D)}
        eigenvalue = p.hbar ** 2 * degree * (degree + p.D - 2) / (2 * p.R ** 2)
        gap = off = ref = 0.0
        for a, b, f in ex.evaluate_in_slices(routes(_zonal_tree(p, degree)),
                                             columns, env, 16 * n,
                                             MEMORY_BUDGET):
            gap = np.maximum(gap, np.max(np.abs(a - b), axis=1))
            off = np.maximum(off, np.max(np.abs(b - eigenvalue * f), axis=1))
            ref = np.maximum(ref, np.max(np.abs(b), axis=1))
        ref = np.maximum(ref, p.hbar ** 2 / p.R ** 2)
        worst = float(np.maximum(worst, np.max(gap / ref)))
        eigen_worst = float(np.maximum(eigen_worst, np.max(off / ref)))
    return {"family_size": sum(rows), "points": samples,
            "max_relative_deviation": worst,
            "max_eigenvalue_deviation": eigen_worst}, worst


def suite_chart_equivalence(p, lmax, samples, seed):
    """H applied in the reduced and hyperspherical charts must agree.

    The two charts' variables (x1.. and phi1..) have disjoint names, so
    one env binds both and each degree's routes evaluate in one call.
    """
    pts = _ball_samples(p, samples, seed)
    angles = to_hyperspherical(lift(pts, p), p)[1]
    env = {**_env_from_points(reduced_var_names(p), pts),
           **_env_from_points(hyperspherical_var_names(p), angles)}
    cart = OperatorTag("H_cart", route="laplace_beltrami")
    curv = OperatorTag("H_curv")

    def routes(h):
        f = pullback_to_reduced(h, p)
        return (operator_expr(cart, f, p),
                operator_expr(curv, pullback_to_hyperspherical(h, p), p), f)
    return _route_gap(p, lmax, samples, seed, routes, env)


def suite_angular_momentum(p, lmax, samples, seed):
    """sum_{a<b} L_ab^2 / (2 R^2) must reproduce H on the reduced chart."""
    env = _env_from_points(reduced_var_names(p),
                           _ball_samples(p, samples, seed))
    l2 = OperatorTag("L2")
    cart = OperatorTag("H_cart", route="laplace_beltrami")

    def routes(h):
        f = pullback_to_reduced(h, p)
        return operator_expr(l2, f, p), operator_expr(cart, f, p), f
    return _route_gap(p, lmax, samples, seed, routes, env)


def _hermiticity_peak_bytes(D, res):
    """Estimated peak bytes of ``suite_hermiticity(p, res)`` at dimension D.

    8 (12 D + 4) bytes for each of the res^(D-2) (res + res % 2) points of
    a reduced-chart lift, the larger grid, plus 4 MiB for the expression
    trees.  tracemalloc peaks measured 300-350 bytes a point at D = 3, up
    to about 950 at D = 10, and 0.1-3 MB more, so from 10 MB up the
    estimate stays within 1.5 times of the peak and above it.
    """
    return 8 * (12 * D + 4) * res ** (D - 2) * (res + res % 2) + 2 ** 22


def suite_hermiticity(p, res):
    """<f, T h> = <T f, h> under the sphere measure for H and every pi.

    The displayed-convention curvilinear momentum is reported but excluded
    from the pass criterion; it is documented as non-hermitian.  D must be
    at least 3, since at D=2 there is no polar angle for that control to
    act on, res at least 2 (the reduced chart's polar nodes reject less),
    and ``_hermiticity_peak_bytes`` within MEMORY_BUDGET; all three are
    checked before any grid or harmonic is built.  Each chart lift (the
    reduced chart's two hemispheres on ``reduced_ball_grid``, the upper
    half of the full Gauss rule, so that the two lifts' sums are exactly
    the full rule's, then the hyperspherical chart on the midpoint angular
    grid) pulls the test functions back once and is evaluated in one
    ``_pair_terms`` call.

    The test functions are the basis members x1, x1x2 and x1x2x3.  Each
    pair is odd under some x_i -> -x_i, so <f, h> sums to 0 and the H
    defects (lambda_h - lambda_f) <f, h> stay at rounding level, as the pi
    defects do (measured at D = 3 to 5).  The H_curv pair (x_D, x_D^3 -
    3 x1^2 x_D), whose polar sums are not exact, reports 1.8e-3 at D = 3,
    res 64.
    """
    if p.D < 3:
        raise ValueError(f"hermiticity needs dim >= 3, got dim {p.D}")
    need = _hermiticity_peak_bytes(p.D, res)
    if need > MEMORY_BUDGET:
        raise ValueError(f"res {res} at dim {p.D} needs an estimated {need} "
                         f"bytes, over the {MEMORY_BUDGET} byte budget")
    grid = (*reduced_ball_grid(p, res), reduced_var_names(p))
    sphere = (*midpoint_angular_grid(p, res), hyperspherical_var_names(p))

    def member(*monomials):  # each monomial as its factors: (1, 2) is x1 x2
        exponents = {tuple(m.count(i + 1) for i in range(p.D)) for m in monomials}
        k = [h.keys() for h in _harmonic_basis(p.D, len(monomials[0]))
             ].index(exponents)
        return harmonic_polynomials(p.D, len(monomials[0]))[k]
    harmonics = [member((1,)), member((1, 2)), member((1, 2, 3))]
    # pi_cart is symmetric on functions vanishing at the chart edge (the
    # equator); x_D^2 damping puts the test pair in that domain and keeps
    # the rational (R^2-|x|^2)^{-1} factor of the operator polynomial
    xd2 = ex.mul(ex.Var(f"x{p.D}"), ex.Var(f"x{p.D}"))
    damped = [ex.mul(xd2, h) for h in harmonics]
    # (pair label, test functions, operators) on each chart, in row order
    reduced = [("", harmonics, [OperatorTag("H_cart")]), ("xD^2 ", damped, [
        OperatorTag("pi_cart", i=i) for i in range(1, p.D)])]
    curved = [("", harmonics, [OperatorTag("H_curv")] + [
        OperatorTag("pi_curv", i=i) for i in range(1, p.D)])]
    # deliberately non-hermitian control, excluded from the max; the pair is
    # picked so no parity accident hides the defect
    displayed = ("", [member((p.D,)), member((1, 1), (p.D, p.D))],
                 [OperatorTag("pi_curv", i=1, convention="displayed")])
    upper, lower = (_pair_terms(
        [([pullback_to_reduced(h, p, hemisphere=s) for h in funcs], tags)
         for _, funcs, tags in reduced], p, grid) for s in (1, -1))
    # the reduced chart's equator boundary terms only cancel in the sum of
    # its two lifts
    sums = [tuple(a + b for a, b in zip(up, down))
            for up, down in zip(upper, lower)]
    sums += _pair_terms(
        [([pullback_to_hyperspherical(h, p) for h in funcs], tags)
         for _, funcs, tags in curved + [displayed]], p, sphere)
    # normalized by |f| |h|; a zero norm (underflow at tiny R) measures nothing
    *defects, control = [
        abs(lhs - rhs) / math.sqrt(n1 * n2) if n1 * n2 else math.nan
        for lhs, rhs, n1, n2 in sums]
    labels = [(tag.kind if tag.kind[0] == "H" else f"{tag.kind}_{tag.i}",
               f"{label}l{a + 1},l{b + 1}")
              for label, funcs, tags in reduced + curved for tag in tags
              for a, b in itertools.combinations(range(len(funcs)), 2)]
    rows = [{"operator": name, "pair": pair, "defect": float(d)}
            for (name, pair), d in zip(labels, defects, strict=True)]
    # a control that cannot be measured fails the suite
    worst = control if math.isnan(control) else float(np.max(defects))
    return {"rows": rows, "max_defect": worst,
            "displayed_convention_defect": float(control)}, worst
