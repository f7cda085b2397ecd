"""Expression-tree differentiation against a sympy oracle, plus the exact
arithmetic guarantees (bitwise commutation, IEEE negation) the bracket
antisymmetry checks depend on."""

import gc
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import find, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("fold, node", [(ex.sin, ex.Sin), (ex.cos, ex.Cos),
                                        (ex.exp, ex.Exp)])
def test_transcendental_of_a_constant_folds_to_its_value(fold, node):
    folded = fold(ex.Const(0.7))
    assert isinstance(folded, ex.Const)
    # bit for bit the value the unfolded node evaluates to
    unfolded = ex.evaluate(node(ex.Const(0.7)), {})
    assert np.float64(folded.value).tobytes() == np.float64(unfolded).tobytes()


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


def test_power_rejects_bad_exponents():
    x = ex.Var("x")
    with pytest.raises(TypeError):
        ex.power(x, x)
    with pytest.raises(TypeError):
        ex.power(x, 1j)
    with pytest.raises(TypeError):
        ex.power(x, ex.Const(2))  # exponents are numbers, not expressions
    assert ex.power(x, np.int64(2)) == ex.power(x, 2)
    assert ex.power(x, np.float64(0.5)) == ex.sqrt(x)


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


def test_evaluate_several_roots_shares_one_memo_bitwise(monkeypatch):
    # the L2 and H_cart routes of one harmonic share its memoized derivative
    # subtrees; evaluated together they must give each route's own bits
    p = ModelParams(D=3)
    f = pullback_to_reduced(harmonic_polynomials(3, 3)[1], p)
    roots = [operator_expr(OperatorTag("L2"), f, p),
             operator_expr(OperatorTag("H_cart", route="laplace_beltrami"), f, p)]
    rng = np.random.default_rng(4)
    pts = rng.uniform(-0.5, 0.5, size=(30, 2))
    env = {"x1": pts[:, 0], "x2": pts[:, 1]}
    alone = [ex.evaluate(r, env) for r in roots]
    calls = []
    pow_ev = ex.Pow._ev

    def counted(self, rec, env):
        calls.append(id(self))
        return pow_ev(self, rec, env)
    monkeypatch.setattr(ex.Pow, "_ev", counted)
    together = ex.evaluate(roots, env)
    shared = len(calls)
    assert len(set(calls)) == shared  # each power node evaluated once
    for r in roots:
        ex.evaluate(r, env)
    assert len(calls) - shared > shared  # apart, shared powers run twice
    assert all(np.array_equal(a, b) for a, b in zip(together, alone))
    assert ex.evaluate((roots[0],), env)[0].tobytes() == alone[0].tobytes()


# -- coefficients bound at evaluation ---------------------------------------

def test_column_bound_variable_rows_equal_each_scalar_binding():
    # a coefficient variable bound to a (rows, 1) column: each value row is
    # bitwise the value with that row's coefficient bound as a scalar
    x, y = ex.Var("x"), ex.Var("y")
    c = [ex.Var(f"c[{i}]") for i in range(3)]
    e = ex.add(ex.mul(c[0], ex.power(x, 2), y), ex.mul(c[1], ex.sin(y)), c[2])
    e = ex.mul(ex.Const(-1j), ex.add(e.diff("y"), e.diff("x")))
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(4, 3))
    env = {"x": rng.normal(size=9), "y": rng.normal(size=9)}
    batched = ex.evaluate(e, {**env, **{f"c[{i}]": rows[:, i:i + 1]
                                        for i in range(3)}})
    assert batched.shape == (4, 9)
    for row, got in zip(rows, batched):
        alone = ex.evaluate(e, {**env, **{f"c[{i}]": row[i] for i in range(3)}})
        assert got.tobytes() == alone.tobytes()


def test_peak_values_replays_the_schedule():
    x = ex.Var("x")
    sq = ex.power(x, 2)
    # x, sq, sin(sq), then the product with its partial result: sq is held
    # for both consumers, x is dropped once sq has run
    assert ex._peak_values([ex.mul(sq, ex.sin(sq))]) == 4
    # a root is held to the end even after its other consumer has run
    assert ex._peak_values([sq, ex.add(sq, ex.ONE)]) == 4
    # a chain holds two values whatever its length: the schedule still
    # visits every node, as _memo_size counted them
    chain = x
    for _ in range(50):
        chain = ex.sin(chain)
    assert ex._peak_values([chain]) == 2
    assert len(ex._schedule([chain])[0]) == 51


def test_schedule_runs_children_first_left_to_right():
    x, y = ex.Var("x"), ex.Var("y")
    xx = ex.Mul((x, x))
    top = ex.Add((xx, ex.Sin(y), x))
    order, uses = ex._schedule([top, xx, top])
    # the order a recursive evaluation first reaches each node in
    assert [id(e) for e in order] == [id(e) for e in (x, xx, y, top.args[1], top)]
    # every argument occurrence and every root occurrence counts
    assert uses[id(x)] == 3
    assert uses[id(xx)] == 2
    assert uses[id(top)] == 2


# -- the freeing schedule against the recursive memo it replaced ------------

def recursive_evaluate(expr, env):
    """evaluate as it ran before the freeing schedule: a recursive memo that
    keeps every node's value until the call returns."""
    cache = {}

    def rec(e):
        h = id(e)
        v = cache.get(h)
        if v is None:
            v = e._ev(rec, env)
            cache[h] = v
        return v

    if isinstance(expr, (list, tuple)):
        return [rec(e) for e in expr]
    return rec(expr)


@st.composite
def dags(draw):
    """(roots, env): a random DAG over x and y, with shared subtrees.

    Each new node takes its arguments from the nodes before it, so a node
    can feed several consumers.  A top node adds s * s (a repeated
    argument), sin(s) (a second consumer of s) and the last node drawn.
    The roots are the top node, its s * s child and a few drawn nodes, in
    a drawn order.  Constants are numpy scalars, so a constant-only
    subtree overflows or divides by zero as arrays do, without raising.
    """
    x, y = ex.Var("x"), ex.Var("y")
    consts = st.sampled_from([np.float64(-1.5), np.float64(0.5),
                              np.float64(2.0), np.complex128(-1j)])
    pool = [x, y, ex.Const(draw(consts))]
    for _ in range(draw(st.integers(0, 20))):
        pick = st.sampled_from(pool)
        kind = draw(st.sampled_from("+*^kSCE"))
        if kind in "+*":
            args = draw(st.lists(pick, min_size=2, max_size=4))
            node = (ex.Add if kind == "+" else ex.Mul)(args)
        elif kind == "^":
            node = ex.Pow(draw(pick), draw(st.sampled_from([-1, 0.5, 2, 3])))
        elif kind == "k":
            node = ex.Const(draw(consts))
        else:
            node = {"S": ex.Sin, "C": ex.Cos, "E": ex.Exp}[kind](draw(pick))
        pool.append(node)
    s = draw(st.sampled_from(pool))
    top = ex.Add((ex.Mul((s, s)), ex.Cos(s), pool[-1]))
    roots = [top, top.args[0]] + draw(st.lists(st.sampled_from(pool),
                                               max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    size = draw(st.integers(1, 6))
    env = {"x": rng.uniform(-3, 3, size), "y": rng.uniform(-3, 3, size)}
    return draw(st.permutations(roots)), env


def _assert_matches_oracle(roots, env):
    with np.errstate(all="ignore"):
        got = ex.evaluate(roots, env)
        want = recursive_evaluate(roots, env)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


@given(dags())
@settings(max_examples=200)
def test_evaluate_matches_the_recursive_memo_bitwise(dag):
    _assert_matches_oracle(*dag)


def test_the_oracle_test_catches_a_value_freed_one_use_early(monkeypatch):
    # the mutant lowers the first shared node's count by one, so its value
    # is dropped before its last consumer runs
    schedule = ex._schedule

    def one_use_short(roots):
        order, uses = schedule(roots)
        uses[next(k for k, n in uses.items() if n > 1)] -= 1
        return order, uses
    monkeypatch.setattr(ex, "_schedule", one_use_short)

    def caught(dag):
        try:
            _assert_matches_oracle(*dag)
        except (AssertionError, KeyError):
            return True
        return False
    assert caught(find(dags(), caught))


def _chain(depth):
    # each link consumes the one before it, as add(mul(e, 0.5), y)
    e, y = ex.Var("x"), ex.Var("y")
    for _ in range(depth):
        e = ex.add(ex.mul(e, 0.5), y)
    return e


def test_a_deep_chain_evaluates_without_recursion():
    # 6000 nodes deep: the recursive memo raises RecursionError here
    e = _chain(3000)
    with pytest.raises(RecursionError):
        recursive_evaluate(e, {"x": 1.0, "y": 0.25})
    want = np.float64(1.0)
    for _ in range(3000):
        want = 0.5 * want + 0.25
    assert ex.evaluate(e, {"x": np.float64(1.0), "y": 0.25}) == want


def test_a_chain_holds_a_few_arrays_at_once():
    # 1 MB arrays: the recursive memo held one per node, 200 MB here
    n = 2 ** 17
    env = {"x": np.linspace(0.0, 1.0, n), "y": np.full(n, 0.25)}
    e = _chain(100)
    tracemalloc.start()
    try:
        value = ex.evaluate(e, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value.nbytes == 2 ** 20
    assert peak < 4 * 2 ** 20
