"""Operator construction against independent oracles.

The Hamiltonian has three internal construction routes; beyond checking
that they agree, both it and the momenta are rebuilt here through sympy
from their defining symmetrization (rho^{-1/2} d rho^{1/2} with
rho = sqrt(det g)), which shares no code with the package expressions.
Deliberately broken orderings must show O(1) hermiticity defects, or the
defect checks would have no teeth.
"""

import collections
import itertools
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from rotorkit import expressions as ex
from rotorkit import operators
from rotorkit.geometry import (CHART_HYPERSPHERICAL, ChartDomainError,
                               ModelParams, hyperspherical_var_names)
from rotorkit.operators import (
    OperatorTag,
    apply_operator,
    harmonic_polynomials,
    hermiticity_defect,
    pullback_to_hyperspherical,
    pullback_to_reduced,
)
from rotorkit.operators import TestFunction as Probe
from rotorkit.quadrature import sphere_angular_grid
from rotorkit.spectra import harmonic_multiplicity
from sympy_bridge import to_sympy

P3 = ModelParams(D=3, R=1.0, hbar=1.0)


def inner_product(f, h, p, res):
    """<f, h> over the sphere for two hyperspherical-chart probes."""
    pts, w = sphere_angular_grid(p, res)
    env = dict(zip(hyperspherical_var_names(p), pts.T))
    return np.sum(w * np.conjugate(ex.evaluate(f.expr, env))
                  * ex.evaluate(h.expr, env))


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
    fvals = ex.evaluate(f_red.expr, dict(zip(names, pts.T)))
    got = apply_operator(OperatorTag("H_cart"), f_red, pts, p)
    scale = max(np.max(np.abs(eig * fvals)), eig)
    assert np.max(np.abs(got - eig * fvals)) < 1e-12 * scale
    # same statement in the angular chart
    f_ang = pullback_to_hyperspherical(h, p)
    ang = np.concatenate([rng.uniform(0.3, np.pi - 0.3, size=(40, D - 2)),
                          rng.uniform(0, 2 * np.pi, size=(40, 1))], axis=1)
    anames = hyperspherical_var_names(p)
    avals = ex.evaluate(f_ang.expr, dict(zip(anames, ang.T)))
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
    fs = to_sympy(f.expr)
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
    fs = to_sympy(f.expr)
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
    assert np.max(np.abs(ex.evaluate(up.expr, env) - ex.evaluate(h, env3u))) < 1e-14
    assert np.max(np.abs(ex.evaluate(dn.expr, env) - ex.evaluate(h, env3d))) < 1e-14


def test_hermiticity_on_full_sphere_grid():
    h1 = pullback_to_hyperspherical(harmonic_polynomials(3, 1)[0], P3)
    h2 = pullback_to_hyperspherical(harmonic_polynomials(3, 2)[1], P3)
    res = 32
    assert hermiticity_defect(OperatorTag("H_curv"), h1, h2, P3, res) < 1e-12
    # polar momentum: integer sine powers for D = 3, so the Gauss grid is exact
    assert hermiticity_defect(OperatorTag("pi_curv", i=1), h1, h2, P3, res) < 1e-12


def test_broken_orderings_show_large_defects():
    # harmonics are eigenfunctions, which hides ordering mistakes; generic
    # smooth functions expose them at O(1)
    th = ex.Var(hyperspherical_var_names(P3)[0])
    f = Probe(ex.mul(ex.cos(th), ex.cos(th)), CHART_HYPERSPHERICAL)
    g = Probe(ex.exp(ex.mul(ex.Const(0.5), ex.cos(th))), CHART_HYPERSPHERICAL)
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
    f = Probe(ex.mul(ex.sin(th), ex.cos(th)), CHART_HYPERSPHERICAL)
    g = Probe(ex.mul(ex.sin(th), ex.sin(th),
                     ex.exp(ex.mul(ex.Const(0.5), ex.cos(th)))), CHART_HYPERSPHERICAL)
    res = 32
    norm = (inner_product(f, f, P3, res) * inner_product(g, g, P3, res)) ** 0.5
    assert hermiticity_defect(
        OperatorTag("pi_curv", i=1, convention="measure"), f, g, P3, res) < 1e-12 * norm
    assert hermiticity_defect(
        OperatorTag("pi_curv", i=1, convention="displayed"), f, g, P3, res) > 0.1 * norm


def test_hermiticity_suite_evaluates_each_lift_in_one_call(monkeypatch):
    # f, h, T f and T h of a lift share subtrees; one call computes them once
    evaluate = ex.evaluate
    roots = []

    def counted(exprs, env):
        roots.append(len(exprs))
        return evaluate(exprs, env)
    monkeypatch.setattr(ex, "evaluate", counted)
    operators.suite_hermiticity(P3, 8)
    # 9 reduced-chart defects of two hemisphere lifts, 10 hyperspherical
    assert roots == [4] * 28


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


# -- batched harmonic blocks ------------------------------------------------
#
# The chart-equivalence and angular-momentum suites evaluate each block of
# harmonics as one tree whose coefficients are variables bound to (rows, 1)
# columns.  Every value row they measure must be bitwise the tree's value
# with that row's coefficients alone, and must agree with the harmonic that
# harmonic_polynomials builds with constant coefficients.

SUITES = {"chart-equivalence": operators.suite_chart_equivalence,
          "angular-momentum": operators.suite_angular_momentum}
SWEEP_LMAX = {2: 5, 3: 4, 4: 3, 5: 2}
SCALES = (1e-30, 1.0, 1e30)


def _sweep(D):
    """Each (R, hbar) pair once, the two seeds alternating over the pairs."""
    for k, (R, hbar) in enumerate(itertools.product(SCALES, SCALES)):
        yield ModelParams(D=D, R=R, hbar=hbar), k % 2


def _coefficients(env):
    return {name: v for name, v in env.items() if name.startswith("c[")}


def _record(suite, p, lmax, samples, seed, monkeypatch):
    """The suite's results and its evaluate calls as (exprs, env, values),
    each value broadcast to (rows, samples), one row per harmonic."""
    evaluate = ex.evaluate
    calls = []

    def recording(exprs, env):
        out = evaluate(exprs, env)
        rows = len(next(iter(_coefficients(env).values())))
        calls.append((exprs, env, [np.broadcast_to(v, (rows, samples))
                                   for v in out]))
        return out

    monkeypatch.setattr(ex, "evaluate", recording)
    results, worst = SUITES[suite](p, lmax, samples, seed)
    monkeypatch.undo()
    assert results["max_relative_deviation"] == worst or np.isnan(worst)
    return results, calls


def _old_gap(pairs, p):
    """The suite's deviation, reduced one harmonic at a time."""
    scale = p.hbar ** 2 / p.R ** 2
    worst = 0.0
    for a, b in pairs:
        ref = max(float(np.max(np.abs(b))), scale)
        worst = float(np.maximum(worst, np.max(np.abs(a - b)) / ref))
    return worst


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("D", sorted(SWEEP_LMAX))
def test_batched_rows_equal_each_harmonic_alone(suite, D, monkeypatch):
    # "alone": the block's tree with one row's coefficients bound as scalars
    lmax, samples = SWEEP_LMAX[D], 5
    for p, seed in _sweep(D):
        results, calls = _record(suite, p, lmax, samples, seed, monkeypatch)
        for exprs, env, batched in calls:
            for r in range(len(batched[0])):
                alone = ex.evaluate(exprs, {**env, **{
                    name: c[r, 0] for name, c in _coefficients(env).items()}})
                for got, want in zip(batched, alone):
                    assert got[r].tobytes() == np.broadcast_to(
                        want, (samples,)).tobytes()
        # the rows are the blocks' harmonics: each block's columns are
        # bound once, in block order
        bound = {id(next(iter(_coefficients(env).values()))):
                 _coefficients(env) for _, env, _ in calls}
        blocks = [columns for l in range(lmax + 1)
                  for _, columns, _ in operators._harmonic_blocks(D, l)]
        assert len(bound) == len(blocks)
        for got, want in zip(bound.values(), blocks):
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[k], want[k]) for k in want)
        values = [v for _, _, batched in calls for v in batched]
        pairs = [pair for a, b in zip(values[::2], values[1::2])
                 for pair in zip(a, b)]
        assert results["family_size"] == len(pairs) == sum(
            harmonic_multiplicity(D, l) for l in range(lmax + 1))
        assert np.array(results["max_relative_deviation"]).tobytes() == \
            np.array(_old_gap(pairs, p)).tobytes()


def _routes(suite, p, samples, seed, monkeypatch):
    """The ``routes`` callable and the env the suite hands to ``_route_gap``."""
    captured = []

    def capture(p_, lmax_, samples_, routes, env):
        captured.append((routes, env))
        return {}, 0.0

    monkeypatch.setattr(operators, "_route_gap", capture)
    SUITES[suite](p, 0, samples, seed)
    monkeypatch.undo()
    return captured[0]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_one_evaluate_call_per_harmonic_block(suite, monkeypatch):
    # both routes of a block evaluate in one call over one env
    evaluate = ex.evaluate
    roots = []

    def counted(exprs, env):
        roots.append(len(exprs))
        return evaluate(exprs, env)
    monkeypatch.setattr(ex, "evaluate", counted)
    SUITES[suite](ModelParams(D=3), 9, 100, 7)  # the CLI defaults
    blocks = sum(len(operators._harmonic_blocks(3, l)) for l in range(10))
    assert blocks == 20 and roots == [2] * blocks


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("D", sorted(SWEEP_LMAX))
def test_batched_rows_match_harmonic_polynomials(suite, D, monkeypatch):
    # a coefficient variable and a constant fold into different products,
    # so the rows agree with the constant-coefficient harmonics to rounding
    lmax, samples = SWEEP_LMAX[D], 5
    for p, seed in _sweep(D):
        routes, env = _routes(suite, p, samples, seed, monkeypatch)
        scale = p.hbar ** 2 / p.R ** 2
        for l in range(lmax + 1):
            scalar = harmonic_polynomials(D, l)
            for tree, coefficients, harmonics in operators._harmonic_blocks(
                    D, l):
                batched = [np.broadcast_to(v, (len(harmonics), samples))
                           for v in ex.evaluate(routes(tree),
                                                {**env, **coefficients})]
                for r, j in enumerate(harmonics):
                    alone = ex.evaluate(routes(scalar[j]), env)
                    for got, want in zip(batched, alone):
                        ref = max(float(np.max(np.abs(got[r]))), scale)
                        assert np.max(np.abs(got[r] - want)) <= 1e-14 * ref


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("budget", (1, 400_000))
def test_row_chunks_under_a_small_memory_budget(suite, budget, monkeypatch):
    # with samples=25 a row costs 44-77 kB at degrees 4-5 of D=3 (16 bytes
    # for each value evaluate holds at once), so the larger budget cuts
    # the biggest blocks into chunks of a few rows; the chunks evaluate
    # the block's one tree on row slices of its columns
    p, lmax, samples = ModelParams(D=3), 5, 25
    whole, whole_calls = _record(suite, p, lmax, samples, 0, monkeypatch)
    monkeypatch.setattr(operators, "MEMORY_BUDGET", budget)
    cut, cut_calls = _record(suite, p, lmax, samples, 0, monkeypatch)
    assert cut == whole

    def by_tree(calls):
        # exprs lists stay alive in ``calls``, so their ids are unique
        groups = {}
        for exprs, env, values in calls:
            groups.setdefault(id(exprs), []).append((env, values))
        return list(groups.values())

    whole_trees, cut_trees = by_tree(whole_calls), by_tree(cut_calls)
    assert len(cut_trees) == len(whole_trees)
    sizes, chunks = [], []
    for [(env, values)], pieces in zip(whole_trees, cut_trees):
        sizes.append(len(values[0]))
        chunks += [len(vs[0]) for _, vs in pieces]
        for name, column in _coefficients(env).items():
            parts = [_coefficients(e)[name] for e, _ in pieces]
            assert all(part.base is not None for part in parts)  # views
            assert np.concatenate(parts).tobytes() == column.tobytes()
        for k, v in enumerate(values):
            got = np.concatenate([vs[k] for _, vs in pieces])
            assert got.tobytes() == v.tobytes()
    if budget == 1:
        assert set(chunks) == {1}
    else:
        assert max(chunks) > 1 and len(chunks) > len(sizes)
        assert max(chunks) < max(sizes)
