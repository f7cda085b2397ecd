"""Operator construction against independent oracles.

The Hamiltonian has three internal construction routes; beyond checking
that they agree, both it and the momenta are rebuilt here through sympy
from their defining symmetrization (rho^{-1/2} d rho^{1/2} with
rho = sqrt(det g)), which shares no code with the package expressions.
Deliberately broken orderings must show O(1) hermiticity defects, or the
defect checks would have no teeth.
"""

import collections
import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import sympy as sp

from rotorkit import expressions as ex
from rotorkit import operators
from rotorkit.geometry import (ChartDomainError, ModelParams,
                               hyperspherical_var_names)
from rotorkit.operators import (
    OperatorTag,
    apply_operator,
    harmonic_polynomials,
    hermiticity_defect,
    pullback_to_hyperspherical,
    pullback_to_reduced,
)
from rotorkit.quadrature import sphere_angular_grid
from rotorkit.spectra import harmonic_multiplicity
from sympy_bridge import to_sympy

P3 = ModelParams(D=3, R=1.0, hbar=1.0)


def inner_product(f, h, p, res):
    """<f, h> over the sphere for two hyperspherical-chart probes."""
    pts, w = sphere_angular_grid(p, res)
    env = dict(zip(hyperspherical_var_names(p), pts.T))
    return np.sum(w * np.conjugate(ex.evaluate(f, env)) * ex.evaluate(h, env))


def _ball(D, n, rng, shell=0.85):
    x = rng.normal(size=(n, D - 1))
    r = shell * rng.uniform(0.05, 1.0, size=(n, 1)) ** 0.5
    return x * r / np.linalg.norm(x, axis=1, keepdims=True)


@pytest.mark.parametrize("D", (2, 3, 4, 5))
def test_harmonic_basis_size_matches_degeneracy(D):
    for l in range(5):
        assert len(harmonic_polynomials(D, l)) == harmonic_multiplicity(D, l)


def test_harmonic_polynomials_are_harmonic():
    rng = np.random.default_rng(7)
    for D, l in ((3, 3), (4, 3), (5, 2)):
        pts = rng.normal(size=(30, D))
        env = {f"x{i + 1}": pts[:, i] for i in range(D)}
        for h in harmonic_polynomials(D, l):
            lap = ex.add(*[h.diff(f"x{i}").diff(f"x{i}") for i in range(1, D + 1)])
            scale = np.max(np.abs(ex.evaluate(h, env))) or 1.0
            assert np.max(np.abs(ex.evaluate(lap, env))) < 1e-12 * scale * l * l


def _laplacian(h):
    """The Laplacian of an {exponents: coefficient} polynomial, exactly."""
    out = collections.Counter()
    for mono, c in h.items():
        for i, e in enumerate(mono):
            if e > 1:
                out[mono[:i] + (e - 2,) + mono[i + 1:]] += c * e * (e - 1)
    return {m: c for m, c in out.items() if c != 0}


@pytest.mark.parametrize("D", range(2, 11))
def test_harmonic_basis_is_exact_in_integers(D):
    for l in range(7):
        basis = operators._harmonic_basis(D, l)
        assert len(basis) == harmonic_multiplicity(D, l)
        seeds = set()
        for h in basis:
            assert all(type(c) is int and c != 0 for c in h.values())
            assert _laplacian(h) == {}
            assert len({tuple(e % 2 for e in m) for m in h}) == 1
            # one monomial of x1-degree < 2 each, and no two alike: the
            # harmonics are linearly independent
            [seed] = [m for m in h if m[0] < 2]
            seeds.add(seed)
        assert len(seeds) == len(basis)


@pytest.mark.parametrize("D", range(2, 11))
def test_a_perturbed_harmonic_coefficient_breaks_the_exact_laplacian(D):
    # the mutant: one more of a monomial with an exponent of 2 or more,
    # whose own Laplacian is then the result's.  A multilinear monomial
    # (x1 x2 x3) is harmonic itself, so it is skipped
    for l in range(2, 7):
        mutants = 0
        for h in operators._harmonic_basis(D, l):
            for mono in h:
                if max(mono) >= 2:
                    assert _laplacian({**h, mono: h[mono] + 1}) != {}
                    mutants += 1
        assert mutants > 0


@pytest.mark.parametrize("route", ("composition", "divergence"))
def test_hamiltonian_routes_agree(route):
    rng = np.random.default_rng(11)
    pts = _ball(3, 40, rng)
    for l in (1, 2, 3):
        f = pullback_to_reduced(harmonic_polynomials(3, l)[0], P3)
        a = apply_operator(OperatorTag("H_cart", route="laplace_beltrami"), f, pts, P3)
        b = apply_operator(OperatorTag("H_cart", route=route), f, pts, P3)
        assert np.max(np.abs(a - b)) < 1e-13 * max(np.max(np.abs(a)), 1.0)


@pytest.mark.parametrize("D,l", [(2, 3), (3, 2), (4, 2)])
def test_harmonic_pullbacks_are_eigenfunctions(D, l):
    # H f_l = hbar^2 l(l+D-2)/(2 R^2) f_l in both charts
    p = ModelParams(D=D, R=1.4, hbar=0.7)
    rng = np.random.default_rng(13 + D)
    pts = _ball(D, 40, rng) * p.R
    eig = p.hbar ** 2 * l * (l + D - 2) / (2.0 * p.R ** 2)
    h = harmonic_polynomials(D, l)[-1]
    f_red = pullback_to_reduced(h, p)
    names = [f"x{i + 1}" for i in range(D - 1)]
    fvals = ex.evaluate(f_red, dict(zip(names, pts.T)))
    got = apply_operator(OperatorTag("H_cart"), f_red, pts, p)
    scale = max(np.max(np.abs(eig * fvals)), eig)
    assert np.max(np.abs(got - eig * fvals)) < 1e-12 * scale
    # same statement in the angular chart
    f_ang = pullback_to_hyperspherical(h, p)
    ang = np.concatenate([rng.uniform(0.3, np.pi - 0.3, size=(40, D - 2)),
                          rng.uniform(0, 2 * np.pi, size=(40, 1))], axis=1)
    anames = hyperspherical_var_names(p)
    avals = ex.evaluate(f_ang, dict(zip(anames, ang.T)))
    got_a = apply_operator(OperatorTag("H_curv"), f_ang, ang, p)
    assert np.max(np.abs(got_a - eig * avals)) < 1e-12 * scale


def test_hamiltonian_matches_sympy_divergence_oracle():
    # H = -hbar^2/(2 sqrt g) d_i (sqrt g g^{ij} d_j f), built in sympy
    f = pullback_to_reduced(harmonic_polynomials(3, 2)[1], P3)
    rng = np.random.default_rng(17)
    pts = _ball(3, 40, rng)
    x1, x2 = sp.symbols("x1 x2")
    xs = [x1, x2]
    s = x1 ** 2 + x2 ** 2
    rho = 1 / sp.sqrt(1 - s)  # sqrt(det g) for R = 1
    fs = to_sympy(f)
    Hf = 0
    for i in range(2):
        for j in range(2):
            gij = (1 if i == j else 0) - xs[i] * xs[j]
            Hf += sp.diff(rho * gij * sp.diff(fs, xs[j]), xs[i])
    Hf = -Hf / (2 * rho)
    want = sp.lambdify((x1, x2), sp.simplify(Hf), "numpy")(pts[:, 0], pts[:, 1])
    got = apply_operator(OperatorTag("H_cart"), f, pts, P3)
    assert np.max(np.abs(got - want)) < 1e-12 * max(np.max(np.abs(want)), 1.0)


def test_momentum_matches_sympy_symmetrization_oracle():
    # pi_i = -i hbar rho^{-1/2} d_i rho^{1/2}, the measure-weighted ordering
    f = pullback_to_reduced(harmonic_polynomials(3, 2)[1], P3)
    rng = np.random.default_rng(19)
    pts = _ball(3, 40, rng)
    x1, x2 = sp.symbols("x1 x2")
    rho = 1 / sp.sqrt(1 - x1 ** 2 - x2 ** 2)
    fs = to_sympy(f)
    for i, xi in ((1, x1), (2, x2)):
        pi = -sp.I * sp.diff(sp.sqrt(rho) * fs, xi) / sp.sqrt(rho)
        want = sp.lambdify((x1, x2), pi, "numpy")(pts[:, 0], pts[:, 1])
        got = apply_operator(OperatorTag("pi_cart", i=i), f, pts, P3)
        assert np.iscomplexobj(got)
        assert np.max(np.abs(got - want)) < 1e-13 * max(np.max(np.abs(want)), 1.0)


def test_angular_momentum_sum_reproduces_hamiltonian():
    # sum_{a<b} L_ab^2 / (2 R^2) applied pointwise equals H
    p = ModelParams(D=3, R=1.6, hbar=1.0)
    rng = np.random.default_rng(23)
    pts = _ball(3, 30, rng) * p.R
    for l in (1, 2, 3):
        f = pullback_to_reduced(harmonic_polynomials(3, l)[0], p)
        a = apply_operator(OperatorTag("L2"), f, pts, p)
        b = apply_operator(OperatorTag("H_cart", route="laplace_beltrami"), f, pts, p)
        assert np.max(np.abs(a - b)) < 1e-12 * max(np.max(np.abs(b)), 1.0)


def test_apply_operator_rejects_points_off_the_reduced_chart():
    # the chart ball is open: |x| = R is the equator, where sqrt(R^2 - |x|^2)
    # vanishes and the operators' (R^2 - |x|^2)^(-1/2) factors blow up
    f = pullback_to_reduced(harmonic_polynomials(3, 2)[0], P3)
    inside = np.array([[0.3, 0.4]])
    for pts in (np.array([[0.0, 1.0]]), np.array([[0.3, 0.4], [1.2, 0.0]])):
        for tag in (OperatorTag("H_cart"), OperatorTag("pi_cart", i=1),
                    OperatorTag("L", i=1, j=3), OperatorTag("L2")):
            assert np.all(np.isfinite(apply_operator(tag, f, inside, P3)))
            with pytest.raises(ChartDomainError):
                apply_operator(tag, f, pts, P3)


def test_apply_operator_on_one_point_is_the_one_row_batch():
    # a single point binds each coordinate as pts[..., k], as a batch does
    h = harmonic_polynomials(3, 2)[1]
    f_red = pullback_to_reduced(h, P3)
    f_ang = pullback_to_hyperspherical(h, P3)
    for f, point, tags in (
            (f_red, np.array([0.3, -0.4]),
             (OperatorTag("H_cart"), OperatorTag("pi_cart", i=1),
              OperatorTag("L2"))),
            (f_ang, np.array([1.1, 4.0]), (OperatorTag("H_curv"),))):
        for tag in tags:
            one = apply_operator(tag, f, point, P3)
            batch = apply_operator(tag, f, point[None, :], P3)
            assert np.shape(one) == () and batch.shape == (1,)
            assert np.asarray(one).tobytes() == batch[0].tobytes()
        with pytest.raises(ChartDomainError, match="expected 2 coordinates"):
            apply_operator(tags[0], f, point[:1], P3)


@pytest.mark.parametrize("tag, error, message", [
    (OperatorTag("pi_cart", i=3), IndexError,
     "momentum index 3 out of range 1..2"),
    (OperatorTag("H_cart", route="weyl"), ValueError,
     "unknown Hamiltonian route 'weyl'"),
    (OperatorTag("L", i=2, j=2), IndexError, "need 1 <= a < b <= D, got (2, 2)"),
    (OperatorTag("pi_curv", i=0), IndexError,
     "momentum index 0 out of range 1..2"),
    (OperatorTag("pi_curv", i=1, convention="weyl"), ValueError,
     "unknown momentum convention 'weyl'"),
    (OperatorTag("H_flat"), ValueError, "unknown operator kind 'H_flat'"),
])
def test_operator_builders_reject_bad_input(tag, error, message):
    # each index or name is checked before anything is differentiated;
    # without its guard each case returns a tree or None, or fails elsewhere
    f = harmonic_polynomials(3, 2)[0]
    with pytest.raises(error) as caught:
        operators.operator_expr(tag, f, P3)
    assert type(caught.value) is error and str(caught.value) == message


def test_hemisphere_pullback_pair():
    # the lower lift evaluates the polynomial at x_D -> -sqrt(R^2 - |x|^2)
    h = harmonic_polynomials(3, 2)[0]
    up = pullback_to_reduced(h, P3, hemisphere=1)
    dn = pullback_to_reduced(h, P3, hemisphere=-1)
    rng = np.random.default_rng(29)
    pts = _ball(3, 30, rng)
    env = {"x1": pts[:, 0], "x2": pts[:, 1]}
    xd = np.sqrt(1.0 - pts[:, 0] ** 2 - pts[:, 1] ** 2)
    env3u = {"x1": pts[:, 0], "x2": pts[:, 1], "x3": xd}
    env3d = {"x1": pts[:, 0], "x2": pts[:, 1], "x3": -xd}
    assert np.max(np.abs(ex.evaluate(up, env) - ex.evaluate(h, env3u))) < 1e-14
    assert np.max(np.abs(ex.evaluate(dn, env) - ex.evaluate(h, env3d))) < 1e-14


def test_hermiticity_on_full_sphere_grid():
    h1 = pullback_to_hyperspherical(harmonic_polynomials(3, 1)[0], P3)
    # x1 and 2 (x3^2 - x1^2); with 2 x1 x3 the sine parities would not
    # match and the Gauss grid would miss the pi defect by 4.5e-4
    h2 = pullback_to_hyperspherical(harmonic_polynomials(3, 2)[4], P3)
    res = 32
    assert hermiticity_defect(OperatorTag("H_curv"), h1, h2, P3, res) < 1e-12
    # polar momentum: integer sine powers for D = 3, so the Gauss grid is exact
    assert hermiticity_defect(OperatorTag("pi_curv", i=1), h1, h2, P3, res) < 1e-12


@pytest.mark.parametrize("tag", [
    OperatorTag("H_cart"), OperatorTag("pi_cart", i=1), OperatorTag("L2"),
    OperatorTag("L", i=1, j=2)])
def test_hermiticity_defect_refuses_reduced_chart_tags(tag):
    # one lift is not closed: with f = x1, h = x1 x3 on the upper lift the
    # equator terms left H_cart's defect at 1.57 at res 16 and 64
    f = ex.Var("x1")
    h = pullback_to_reduced(ex.mul(ex.Var("x1"), ex.Var("x3")), P3)
    with pytest.raises(ValueError, match="check hermiticity sums both lifts"):
        hermiticity_defect(tag, f, h, P3, 16)


def test_broken_orderings_show_large_defects():
    # harmonics are eigenfunctions, which hides ordering mistakes; generic
    # smooth functions expose them at O(1)
    th = ex.Var(hyperspherical_var_names(P3)[0])
    f = ex.mul(ex.cos(th), ex.cos(th))
    g = ex.exp(ex.mul(ex.Const(0.5), ex.cos(th)))
    res = 32
    norm = (inner_product(f, f, P3, res) * inner_product(g, g, P3, res)) ** 0.5
    assert hermiticity_defect(OperatorTag("H_curv"), f, g, P3, res) < 1e-12 * norm
    assert hermiticity_defect(OperatorTag("H_curv_unsym"), f, g, P3, res) > 0.1 * norm
    assert hermiticity_defect(
        OperatorTag("pi_curv", i=1, convention="displayed"), f, g, P3, res) > 0.1 * norm


def test_momentum_conventions_on_parity_matched_pair():
    # the polar momentum turns even sine powers into odd ones; pairing an
    # odd-power probe with an even-power one keeps every integrand
    # polynomial in cos(theta), which the Gauss grid integrates exactly.
    # Pairs that do not vanish at the poles instead probe the cot(theta)
    # endpoint singularity of the quadrature, not the operator.
    th = ex.Var(hyperspherical_var_names(P3)[0])
    f = ex.mul(ex.sin(th), ex.cos(th))
    g = ex.mul(ex.sin(th), ex.sin(th),
               ex.exp(ex.mul(ex.Const(0.5), ex.cos(th))))
    res = 32
    norm = (inner_product(f, f, P3, res) * inner_product(g, g, P3, res)) ** 0.5
    assert hermiticity_defect(
        OperatorTag("pi_curv", i=1, convention="measure"), f, g, P3, res) < 1e-12 * norm
    assert hermiticity_defect(
        OperatorTag("pi_curv", i=1, convention="displayed"), f, g, P3, res) > 0.1 * norm


def test_hermiticity_suite_evaluates_each_lift_in_one_call(monkeypatch):
    # the functions of a lift and their images share subtrees; one call
    # computes them once
    evaluate = ex.evaluate
    roots = []

    def counted(exprs, env):
        roots.append(len(exprs))
        return evaluate(exprs, env)
    monkeypatch.setattr(ex, "evaluate", counted)
    operators.suite_hermiticity(P3, 8)
    # each hemisphere lift: 3 harmonics and their H_cart images, 3 damped
    # harmonics and their images under pi_cart_1 and pi_cart_2; the
    # hyperspherical lift: 3 harmonics and their images under H_curv,
    # pi_curv_1 and pi_curv_2, then the control pair and its images
    assert roots == [15, 15, 16]


def test_hermiticity_suite_peak_stays_small():
    # a value is dropped after its last consumer: the memo that kept every
    # node's value to the end of the call peaked above 50 MB here
    tracemalloc.start()
    try:
        operators.suite_hermiticity(ModelParams(D=3), 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize("D,res", [(3, 224), (4, 40), (6, 8), (8, 4)])
def test_hermiticity_estimate_bounds_the_measured_peak(D, res):
    # from 10 MB up the estimate sits above the peak, and within 1.5 times
    need = operators._hermiticity_peak_bytes(D, res)
    tracemalloc.start()
    try:
        operators.suite_hermiticity(ModelParams(D=D), res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need <= 1.5 * peak


def test_chart_equivalence_peak_stays_small():
    # each sum folds its terms as they arrive: holding every term of the
    # degree-6 blocks' wide sums until the sum ran peaked at 44 MB here
    tracemalloc.start()
    try:
        operators.suite_chart_equivalence(ModelParams(D=3), lmax=6,
                                          samples=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


# -- zonal harmonic blocks ---------------------------------------------------
#
# The chart-equivalence and angular-momentum suites evaluate each degree's
# zonal harmonics as one block: one tree whose axis variables are bound to
# (rows, 1) columns.  Every value row they measure must be bitwise the
# tree's value with that row's axis alone, and must lie in the span of the
# degree's harmonic_polynomials.

SUITES = {"chart-equivalence": operators.suite_chart_equivalence,
          "angular-momentum": operators.suite_angular_momentum}
SWEEP_LMAX = {2: 5, 3: 4, 4: 3, 5: 2}
SCALES = (1e-30, 1.0, 1e30)


def _sweep(D):
    """Each (R, hbar) pair once, the two seeds alternating over the pairs."""
    for k, (R, hbar) in enumerate(itertools.product(SCALES, SCALES)):
        yield ModelParams(D=D, R=R, hbar=hbar), k % 2


def _rows(D, l):
    return min(harmonic_multiplicity(D, l), operators.ZONAL_ROWS)


def _axes(env):
    return {name: v for name, v in env.items() if name.startswith("a[")}


def _bound_shape(env):
    # (rows, samples) of one call: its axis columns and sample slice
    return np.broadcast_shapes(*map(np.shape, env.values()))


def _record(suite, p, lmax, samples, seed, monkeypatch):
    """The suite's results and its evaluate calls as (exprs, env, values),
    each value broadcast to (rows, samples of the call's slice), one row
    per zonal harmonic."""
    evaluate = ex.evaluate
    calls = []

    def recording(exprs, env):
        out = evaluate(exprs, env)
        calls.append((exprs, env, [np.broadcast_to(v, _bound_shape(env))
                                   for v in out]))
        return out

    monkeypatch.setattr(ex, "evaluate", recording)
    results, worst = SUITES[suite](p, lmax, samples, seed)
    monkeypatch.undo()
    assert results["max_relative_deviation"] == worst or np.isnan(worst)
    return results, calls


def _row_gaps(calls, p):
    """The suite's two deviations, reduced one row at a time from its
    unsliced calls, the call of degree l l-th."""
    scale = p.hbar ** 2 / p.R ** 2
    worst = eigen = 0.0
    for l, (_, _, (a, b, f)) in enumerate(calls):
        e = p.hbar ** 2 * l * (l + p.D - 2) / (2 * p.R ** 2) * f
        for r in range(len(a)):
            ref = max(float(np.max(np.abs(b[r]))), scale)
            worst = float(np.maximum(worst, np.max(np.abs(a[r] - b[r])) / ref))
            off = np.max(np.abs(b[r] - e[r]))
            eigen = float(np.maximum(eigen, off / ref))
    return worst, eigen


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("D", sorted(SWEEP_LMAX))
def test_batched_rows_equal_each_harmonic_alone(suite, D, monkeypatch):
    # "alone": the degree's tree with one row's axis bound as scalars
    lmax, samples = SWEEP_LMAX[D], 5
    for p, seed in _sweep(D):
        results, calls = _record(suite, p, lmax, samples, seed, monkeypatch)
        assert len(calls) == lmax + 1
        for l, (exprs, env, batched) in enumerate(calls):
            axes = np.hstack(list(_axes(env).values()))
            assert axes.shape == (_rows(D, l), D)
            assert np.allclose(np.linalg.norm(axes, axis=1), 1.0, rtol=0,
                               atol=1e-15)
            for r in range(len(axes)):
                alone = ex.evaluate(exprs, {**env, **{
                    name: c[r, 0] for name, c in _axes(env).items()}})
                for got, want in zip(batched, alone):
                    assert got[r].tobytes() == np.broadcast_to(
                        want, (samples,)).tobytes()
        assert results["family_size"] == sum(_rows(D, l)
                                             for l in range(lmax + 1))
        worst, eigen = _row_gaps(calls, p)
        assert np.array(results["max_relative_deviation"]).tobytes() == \
            np.array(worst).tobytes()
        assert np.array(results["max_eigenvalue_deviation"]).tobytes() == \
            np.array(eigen).tobytes()


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_each_degree_takes_its_dimension_up_to_the_row_cap(suite,
                                                           monkeypatch):
    # D = 6: dimensions 1, 6, 20, 50 and 105 for degrees 0 to 4
    results, calls = _record(suite, ModelParams(D=6), 4, 5, 0, monkeypatch)
    assert [len(values[0]) for _, _, values in calls] == [1, 6, 20, 50, 64]
    assert results["family_size"] == 141


def _routes(suite, p, samples, seed, monkeypatch):
    """The ``routes`` callable and the env the suite hands to ``_route_gap``."""
    captured = []

    def capture(p_, lmax_, samples_, seed_, routes, env):
        captured.append((routes, env))
        return {}, 0.0

    monkeypatch.setattr(operators, "_route_gap", capture)
    SUITES[suite](p, 0, samples, seed)
    monkeypatch.undo()
    return captured[0]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_one_evaluate_call_per_harmonic_block(suite, monkeypatch):
    # both routes and the harmonic of a degree evaluate in one call
    evaluate = ex.evaluate
    roots = []

    def counted(exprs, env):
        roots.append(len(exprs))
        return evaluate(exprs, env)
    monkeypatch.setattr(ex, "evaluate", counted)
    SUITES[suite](ModelParams(D=3), 9, 100, 7)  # the CLI defaults
    assert roots == [3] * 10


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_samples_are_lifted_and_converted_as_one_batch(suite, monkeypatch):
    # one call each for the whole sample batch, not one per point; only
    # chart-equivalence reads the angles, so only it lifts and converts
    calls = []
    for name in ("lift", "to_hyperspherical"):
        def counted(x, p, real=getattr(operators, name), name=name):
            calls.append((name, np.shape(x)))
            return real(x, p)
        monkeypatch.setattr(operators, name, counted)
    SUITES[suite](ModelParams(D=4), 1, 20, 7)
    batched = [("lift", (20, 3)), ("to_hyperspherical", (20, 4))]
    assert calls == (batched if suite == "chart-equivalence" else [])


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_one_schedule_per_harmonic_block(suite, monkeypatch):
    # the plan that sizes a degree's sample slices also runs them
    schedule = ex._schedule
    walks = []

    def counted(roots):
        walks.append(len(roots))
        return schedule(roots)
    monkeypatch.setattr(ex, "_schedule", counted)
    SUITES[suite](ModelParams(D=3), 9, 100, 7)  # the CLI defaults
    assert walks == [3] * 10


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("D", sorted(SWEEP_LMAX))
def test_batched_rows_match_harmonic_polynomials(suite, D, monkeypatch):
    # each row is a harmonic of its degree: fitted to the harmonic's values
    # f on the degree's harmonic_polynomials, the same coefficients give
    # its two routes' values a and b, each to rounding
    lmax, samples = SWEEP_LMAX[D], 40
    for p, seed in _sweep(D):
        _, calls = _record(suite, p, lmax, samples, seed, monkeypatch)
        routes, env = _routes(suite, p, samples, seed, monkeypatch)
        for l, (_, _, zonal) in enumerate(calls):
            basis = np.array([[np.broadcast_to(v, (samples,))
                               for v in ex.evaluate(routes(h), env)]
                              for h in harmonic_polynomials(D, l)])
            coefficients = np.linalg.lstsq(basis[:, 2].T, zonal[2].T)[0]
            for k in range(3):
                fit = coefficients.T @ basis[:, k]
                ref = np.max(np.abs(zonal[k])) or 1.0
                assert np.max(np.abs(fit - zonal[k])) <= 1e-10 * ref


@pytest.mark.parametrize("D", range(2, 11))
def test_zonal_tree_is_the_gegenbauer_polynomial(D):
    # on the sphere, Z_l(x; a) = R^l C(a.x/R) / C(1) for a unit axis, with
    # C = C_l^((D-2)/2), or T_l at D = 2, against scipy's closed forms; the
    # sum of powers cancels most at D = 2, where sum_k |c_k| = 1393 T_9(1)
    rng = np.random.default_rng(D)
    for R in SCALES:
        a = rng.standard_normal(D)
        a /= np.linalg.norm(a)
        x = rng.standard_normal((30, D))
        x[0] = a  # the pole, where the polynomial is largest
        x *= R / np.linalg.norm(x, axis=1, keepdims=True)
        env = {**{f"x{i + 1}": x[:, i] for i in range(D)},
               **{f"a[{i + 1}]": a[i] for i in range(D)}}
        t = x @ a / R
        for l in range(10):
            got = ex.evaluate(operators._zonal_tree(ModelParams(D=D, R=R), l),
                              env)
            if D == 2:
                want = R ** l * scipy.special.eval_chebyt(l, t)
            else:
                c = functools.partial(scipy.special.eval_gegenbauer, l,
                                      (D - 2) / 2)
                want = R ** l * c(t) / c(1.0)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _product(f, g):
    """The product of two {exponents: coefficient} polynomials."""
    out = collections.Counter()
    for m, c in f.items():
        for n, d in g.items():
            out[tuple(map(int.__add__, m, n))] += c * d
    return out


def _zonal_polynomials(axis, lmax):
    """Z_l(x; a) = sum_k c_k (a.x)^(l-2k) (|a|^2 |x|^2)^k for l <= lmax as
    {exponents: integer} polynomials, in exact arithmetic, for an integer
    axis.  A rational axis scaled to integers scales Z_l by a constant, so
    this covers rational axes."""
    D = len(axis)
    unit = [tuple(int(i == j) for j in range(D)) for i in range(D)]
    t = {e: c for e, c in zip(unit, axis) if c}
    s = {tuple(2 * v for v in e): sum(c * c for c in axis) for e in unit}
    t_powers, s_powers = [{(0,) * D: 1}], [{(0,) * D: 1}]
    for _ in range(lmax):
        t_powers.append(_product(t_powers[-1], t))
    for _ in range(lmax // 2):
        s_powers.append(_product(s_powers[-1], s))
    out = []
    for l in range(lmax + 1):
        z = collections.Counter()
        for k, c in enumerate(operators._zonal_coefficients(D, l)):
            assert type(c) is int
            for m, v in _product(t_powers[l - 2 * k], s_powers[k]).items():
                z[m] += c * v
        out.append({m: v for m, v in z.items() if v})
    return out


@pytest.mark.parametrize("D", range(2, 11))
def test_zonal_harmonics_are_exact_in_rationals(D):
    # the guard on the Gegenbauer table: every Z_l, l <= 9, has an exactly
    # zero Laplacian at an axis of mixed signs and sizes
    axis = [int(v) for v in np.random.default_rng(D).integers(1, 10, D)]
    axis[::2] = [-v for v in axis[::2]]
    for l, z in enumerate(_zonal_polynomials(axis, 9)):
        assert z and all(sum(m) == l for m in z)
        assert _laplacian(z) == {}


def _rank_mod(rows, prime):
    """The rank of an integer matrix over the integers modulo ``prime``."""
    rows = [[v % prime for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, prime)
        rows[rank] = [v * inverse % prime for v in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                rows[i] = [(v - row[col] * w) % prime
                           for v, w in zip(row, rows[rank])]
        rank += 1
    return rank


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("D", (2, 3, 4, 5))
def test_drawn_rows_span_each_degree(suite, D, monkeypatch):
    # each drawn axis, read as the exact rational its float is, gives an
    # exact harmonic; the rows are harmonics of degree l, so their rank is
    # at most the dimension, and modulo a prime it is at most their rank:
    # a full rank modulo the prime proves the rows span the degree
    _, calls = _record(suite, ModelParams(D=D), 4, 5, 0, monkeypatch)
    for l, (_, env, _) in enumerate(calls):
        rows = []
        for axis in np.hstack(list(_axes(env).values())):
            q = [Fraction(float(v)) for v in axis]
            scale = math.lcm(*(v.denominator for v in q))
            z = _zonal_polynomials([int(v * scale) for v in q], l)[l]
            assert _laplacian(z) == {}
            rows.append([z.get(m, 0) for m in operators._monomials(D, l)])
        assert _rank_mod(rows, 2 ** 61 - 1) == harmonic_multiplicity(D, l)


def _by_tree(calls):
    # each degree's calls in order; exprs stay alive in ``calls``, so their
    # ids are unique
    groups = {}
    for exprs, env, values in calls:
        groups.setdefault(id(exprs), []).append((env, values))
    return list(groups.values())


def _samples(env):
    return {name: v for name, v in env.items() if not name.startswith("a[")}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_nan_in_a_blocks_last_sample_slice_fails_the_suite(suite,
                                                              monkeypatch):
    # one sample a call: a NaN in the last slice of the first degree must
    # survive the fold over its slices and over the later degrees.  In
    # route b (root 1) it reaches both deviations; in the harmonic f
    # (root 2), only the eigenvalue's
    p, lmax, samples = ModelParams(D=3), 4, 5
    monkeypatch.setattr(operators, "MEMORY_BUDGET", 1)
    _, calls = _record(suite, p, lmax, samples, 0, monkeypatch)
    last = len(_by_tree(calls)[0]) - 1
    assert last == samples - 1
    evaluate = ex.evaluate
    for root in (1, 2):
        seen = []

        def poisoned(exprs, env):
            out = evaluate(exprs, env)
            if len(seen) == last:
                v = np.array(np.broadcast_to(out[root], _bound_shape(env)),
                             dtype=complex)
                v[-1, -1] = np.nan
                out[root] = v
            seen.append(exprs)
            return out
        monkeypatch.setattr(operators, "MEMORY_BUDGET", 1)  # undone below
        monkeypatch.setattr(ex, "evaluate", poisoned)
        results, worst = SUITES[suite](p, lmax, samples, 0)
        monkeypatch.undo()
        assert len(seen) == len(calls)
        assert np.isnan(results["max_eigenvalue_deviation"])
        assert np.isnan(worst) == np.isnan(
            results["max_relative_deviation"]) == (root == 1)


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("budget", (1, 400_000))
def test_sample_chunks_under_a_small_memory_budget(suite, budget,
                                                   monkeypatch):
    # a sample costs 16 bytes a row for each step of its degree's plan,
    # plus two: at D=3 about 7 kB for degree 1 (3 rows) and 15 to 59 kB
    # for degrees 2 to 5 (5 to 11 rows), so of 32 samples the larger
    # budget evaluates degrees 0 and 1 whole and cuts the others into
    # chunks of 6 to 26; every chunk binds the degree's whole axis columns
    # and a view of each sample array
    p, lmax, samples = ModelParams(D=3), 5, 32
    whole, whole_calls = _record(suite, p, lmax, samples, 0, monkeypatch)
    monkeypatch.setattr(operators, "MEMORY_BUDGET", budget)
    cut, cut_calls = _record(suite, p, lmax, samples, 0, monkeypatch)
    assert cut == whole
    whole_trees, cut_trees = _by_tree(whole_calls), _by_tree(cut_calls)
    assert len(cut_trees) == len(whole_trees)
    chunks = []
    for [(env, values)], pieces in zip(whole_trees, cut_trees):
        chunks += [len(vs[0][0]) for _, vs in pieces]
        for name, column in _axes(env).items():
            parts = [_axes(e)[name] for e, _ in pieces]
            assert all(part is parts[0] for part in parts)
            assert parts[0].tobytes() == column.tobytes()
        for name, v in _samples(env).items():
            parts = [e[name] for e, _ in pieces]
            assert all(part.base is not None and part.base is parts[0].base
                       for part in parts)  # views of one sample array
            assert np.concatenate(parts).tobytes() == v.tobytes()
        for k, v in enumerate(values):
            got = np.concatenate([vs[k] for _, vs in pieces], axis=1)
            assert got.tobytes() == v.tobytes()
    if budget == 1:
        assert set(chunks) == {1}
    else:
        assert max(chunks) == samples and min(chunks) < samples


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_no_call_binds_more_samples_than_the_budget_allows(suite,
                                                           monkeypatch):
    # 50 kB is below one row's share of 32 samples in every degree from 2
    # to 5 of D=3, so a row slice holding every sample would pass the
    # budget; a sample slice holds at most
    # budget // ((steps + 2) x 16 x rows) samples, or one, and the cut run
    # gives the whole run's bits
    p, lmax, samples, budget = ModelParams(D=3), 5, 32, 50_000
    whole, _ = _record(suite, p, lmax, samples, 0, monkeypatch)
    monkeypatch.setattr(operators, "MEMORY_BUDGET", budget)
    cut, calls = _record(suite, p, lmax, samples, 0, monkeypatch)
    assert cut == whole
    lengths = []
    for exprs, env, values in calls:
        rows, n = _bound_shape(env)
        allowed = budget // ((len(ex._schedule(exprs)[0]) + 2) * 16 * rows)
        assert n <= max(1, allowed)
        lengths.append(n)
    assert max(lengths) == samples and min(lengths) <= 2
