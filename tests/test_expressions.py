"""Expression-tree differentiation against a sympy oracle, plus the exact
arithmetic guarantees (bitwise commutation, IEEE negation) the bracket
antisymmetry checks depend on."""

import gc

import numpy as np
import pytest
import sympy as sp

from rotorkit import expressions as ex
from rotorkit.geometry import ModelParams
from rotorkit.operators import (OperatorTag, harmonic_polynomials,
                                operator_expr, pullback_to_reduced)
from sympy_bridge import to_sympy


def _gnarly():
    # every node type, nested: sqrt and half powers included on purpose
    x, y, z = ex.Var("x"), ex.Var("y"), ex.Var("z")
    inner = ex.add(ex.mul(x, y), ex.power(z, 2), ex.Const(0.75))
    return ex.add(
        ex.mul(ex.sin(inner), ex.cos(ex.mul(ex.Const(0.5), y))),
        ex.mul(ex.exp(ex.mul(ex.Const(-0.3), ex.power(x, 2))), ex.sqrt(inner)),
        ex.power(ex.add(ex.power(x, 2), ex.power(y, 2), ex.Const(1.0)), -1.5),
    )


def test_derivatives_match_sympy():
    e = _gnarly()
    xs, ys, zs = sp.symbols("x y z")
    f = to_sympy(e)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.2, 1.1, size=(50, 3))
    env = {"x": pts[:, 0], "y": pts[:, 1], "z": pts[:, 2]}
    for deriv, sym in [
        (e.diff("x"), sp.diff(f, xs)),
        (e.diff("y").diff("y"), sp.diff(f, ys, 2)),
        (e.diff("x").diff("z"), sp.diff(f, xs, 1, zs, 1)),
    ]:
        got = ex.evaluate(deriv, env)
        want = sp.lambdify((xs, ys, zs), sym, "numpy")(*pts.T)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-12 * scale


def test_constant_folding_and_flattening():
    x = ex.Var("x")
    assert ex.add(ex.Const(1), ex.Const(2)) == ex.Const(3)
    assert ex.mul(ex.Const(0), x) == ex.ZERO
    assert ex.power(x, 0) == ex.ONE
    assert ex.power(x, 1) == x
    assert ex.power(ex.Const(2.0), 3) == ex.Const(8.0)
    assert ex.sin(ex.Const(0.0)) == ex.Const(0.0)
    # nested sums flatten; constants collect into one trailing term
    e = ex.add(ex.add(x, 1), ex.add(x, 2))
    assert isinstance(e, ex.Add)
    assert sum(isinstance(a, ex.Const) for a in e.args) == 1
    assert e.args[-1] == ex.Const(3)
    # products collect constants in front
    m = ex.mul(ex.mul(2, x), ex.mul(x, 3))
    assert isinstance(m, ex.Mul)
    assert m.args[0] == ex.Const(6)


def test_structural_equality_is_order_insensitive_for_constants():
    x = ex.Var("x")
    assert ex.mul(2, x) == ex.mul(x, 2)
    assert ex.add(x, 1) == ex.add(1, x)
    assert ex.power(x, 2) != ex.power(x, 3)
    assert hash(ex.mul(2, x)) == hash(ex.mul(x, 2))


def test_ordered_product_commutes_bitwise():
    a, b = ex.Var("a"), ex.Var("b")
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(200, 2)) * 10.0 ** rng.integers(-8, 8, size=(200, 2))
    env = {"a": vals[:, 0], "b": vals[:, 1]}
    lhs = ex.evaluate(ex.ordered_product(a, b), env)
    rhs = ex.evaluate(ex.ordered_product(b, a), env)
    # one IEEE multiply each way: must agree bit for bit
    assert np.array_equal(lhs, rhs)


def test_negated_is_exact_ieee_negation():
    a = ex.Var("a")
    vals = np.array([1.5, -2.75, 1e-308, -1e300, 0.0])
    got = ex.evaluate(ex.negated(a), {"a": vals})
    assert np.array_equal(got, -vals)
    assert ex.negated(ex.ZERO) == ex.ZERO


def test_subs_composes():
    x, y = ex.Var("x"), ex.Var("y")
    e = ex.add(ex.sin(x), ex.power(x, 3))
    g = ex.mul(y, y)
    composed = e.subs({"x": g})
    rng = np.random.default_rng(2)
    ys = rng.uniform(-1, 1, 40)
    direct = ex.evaluate(e, {"x": ys ** 2})
    assert np.max(np.abs(ex.evaluate(composed, {"y": ys}) - direct)) == 0.0


def test_evaluate_arrays_and_complex():
    x = ex.Var("x")
    e = ex.mul(ex.Const(-1j), x)  # complex scale survives evaluation
    out = ex.evaluate(e, {"x": np.array([1.0, 2.0])})
    assert np.iscomplexobj(out)
    assert np.array_equal(out, np.array([-1j, -2j]))
    # real constants entered as complex with zero imag stay real
    assert not isinstance(ex.Const(complex(2.0, 0.0)).value, complex)


def test_free_vars():
    x, y = ex.Var("x"), ex.Var("y")
    e = ex.add(ex.mul(x, ex.sin(y)), ex.Const(4))
    assert e.free_vars() == frozenset({"x", "y"})
    assert ex.Const(3).free_vars() == frozenset()


def test_power_rejects_bad_exponents():
    x = ex.Var("x")
    with pytest.raises(TypeError):
        ex.power(x, x)
    with pytest.raises(TypeError):
        ex.power(x, 1j)


def test_every_node_type_is_immutable():
    x, y = ex.Var("x"), ex.Var("y")
    nodes = [ex.Const(2.0), x, ex.Add((x, y)), ex.Mul((x, y)),
             ex.Pow(x, 3), ex.Sin(x), ex.Cos(x), ex.Exp(x)]
    for node in nodes:
        slots = [s for cls in type(node).__mro__
                 for s in getattr(cls, "__slots__", ())]
        assert len(slots) >= 2  # the node's own fields and _dmemo
        for attr in (*slots, "other"):
            with pytest.raises(AttributeError):
                setattr(node, attr, None)
    # the guard leaves the diff memo working
    assert nodes[4].diff("x") == ex.mul(ex.Const(3), ex.power(x, 2))


def test_diff_of_constant_and_unrelated_var():
    x = ex.Var("x")
    assert ex.Const(7).diff("x") == ex.ZERO
    assert x.diff("y") == ex.ZERO
    assert x.diff("x") == ex.ONE


def test_diff_is_memoized_on_the_node():
    e = _gnarly()
    d = e.diff("x")
    assert e.diff("x") is d
    assert d.diff("y") is d.diff("y")
    assert e.diff("y") is not d


def test_memoized_derivative_equals_a_fresh_build_bitwise():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.2, 1.1, size=(50, 3))
    env = {"x": pts[:, 0], "y": pts[:, 1], "z": pts[:, 2]}
    e = _gnarly()
    # fill the memo along the way, then take the second derivative from it
    e.diff("x").diff("z")
    e.diff("y")
    memo_value = ex.evaluate(e.diff("x").diff("z"), env)
    fresh = _gnarly().diff("x").diff("z")
    assert fresh == e.diff("x").diff("z")
    assert np.array_equal(memo_value, ex.evaluate(fresh, env))


def _live_exprs():
    return sum(isinstance(o, ex.Expr) for o in gc.get_objects())


def test_diff_memo_lives_and_dies_with_its_node():
    # the derivatives hang off the test function's nodes, so they go when
    # the function and the operator result go: no table outlives them
    p = ModelParams(D=3)
    tag = OperatorTag("H_cart", route="composition")
    gc.collect()
    before = _live_exprs()
    f = pullback_to_reduced(harmonic_polynomials(3, 4)[2], p)
    h = operator_expr(tag, f, p)
    assert _live_exprs() > before
    del f, h
    gc.collect()
    assert _live_exprs() == before
