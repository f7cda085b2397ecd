"""Expression-tree differentiation against a sympy oracle, plus the exact
arithmetic guarantees (bitwise commutation, IEEE negation) the bracket
antisymmetry checks depend on."""

import functools
import gc
import tracemalloc

import numpy as np
import pytest
import sympy as sp
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from rotorkit import expressions as ex
from rotorkit.geometry import ModelParams
from rotorkit.operators import (OperatorTag, harmonic_polynomials,
                                operator_expr, pullback_to_reduced)
from sympy_bridge import to_sympy


def structure(e):
    """An expression's tree as nested tuples of node types, constants,
    variable names and exponents."""
    if isinstance(e, ex.Const):
        return ("c", e.value)
    if isinstance(e, ex.Var):
        return ("v", e.name)
    if isinstance(e, ex.Pow):
        return ("^", structure(e.base), e.expo)
    return (type(e).__name__, *map(structure, e._children()))


def same(a, b):
    """Whether two expressions are built alike: nodes compare by identity."""
    return structure(a) == structure(b)


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
    assert same(ex.add(ex.Const(1), ex.Const(2)), ex.Const(3))
    assert same(ex.mul(ex.Const(0), x), ex.ZERO)
    assert same(ex.power(x, 0), ex.ONE)
    assert same(ex.power(x, 1), x)
    assert same(ex.power(ex.Const(2.0), 3), ex.Const(8.0))
    assert same(ex.sin(ex.Const(0.0)), ex.Const(0.0))
    # nested sums flatten; constants collect into one trailing term
    e = ex.add(ex.add(x, 1), ex.add(x, 2))
    assert isinstance(e, ex.Add)
    assert sum(isinstance(a, ex.Const) for a in e.args) == 1
    assert same(e.args[-1], ex.Const(3))
    # products collect constants in front
    m = ex.mul(ex.mul(2, x), ex.mul(x, 3))
    assert isinstance(m, ex.Mul)
    assert same(m.args[0], ex.Const(6))


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
    assert same(ex.mul(2, x), ex.mul(x, 2))
    assert same(ex.add(x, 1), ex.add(1, x))
    assert not same(ex.power(x, 2), ex.power(x, 3))
    # the nodes themselves compare and hash by identity, not by their tree
    a, b = ex.mul(2, x), ex.mul(x, 2)
    assert a != b and len({a, b}) == 2


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
    assert same(ex.negated(ex.ZERO), ex.ZERO)


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
    assert same(ex.power(x, np.int64(2)), ex.power(x, 2))
    assert same(ex.power(x, np.float64(0.5)), ex.sqrt(x))


def test_a_non_number_operand_and_an_unbound_variable_are_refused():
    with pytest.raises(TypeError, match="cannot use str in an expression"):
        ex.add("x")
    with pytest.raises(KeyError, match="no value bound for variable 'y'"):
        ex.evaluate(ex.Var("y"), {})


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
    assert same(nodes[4].diff("x"), ex.mul(ex.Const(3), ex.power(x, 2)))


def test_diff_of_constant_and_unrelated_var():
    x = ex.Var("x")
    assert same(ex.Const(7).diff("x"), ex.ZERO)
    assert same(x.diff("y"), ex.ZERO)
    assert same(x.diff("x"), ex.ONE)


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
    assert same(fresh, e.diff("x").diff("z"))
    assert np.array_equal(memo_value, ex.evaluate(fresh, env))


def test_derivatives_of_one_power_share_its_lowered_node(monkeypatch):
    # a zonal harmonic's (a.x)^m is differentiated by every variable; each
    # derivative multiplies by the one node (a.x)^(m-1), so a call that
    # evaluates them all computes that power once
    x, y = ex.Var("x"), ex.Var("y")
    p = ex.power(ex.add(x, y), 5)
    dx, dy = p.diff("x"), p.diff("y")
    lowered = [a for a in dx.args if isinstance(a, ex.Pow)]
    assert len(lowered) == 1 and lowered[0].expo == 4
    assert [a for a in dy.args if isinstance(a, ex.Pow)][0] is lowered[0]
    calls = []
    pow_ev = ex.Pow._ev

    def counted(self, rec, env):
        calls.append(self)
        return pow_ev(self, rec, env)
    monkeypatch.setattr(ex.Pow, "_ev", counted)
    env = {"x": np.linspace(0.1, 0.9, 7), "y": np.linspace(-0.5, 0.3, 7)}
    both = ex.evaluate(ex.add(dx, dy), env)
    assert calls == [lowered[0]]
    assert np.array_equal(both, 2 * 5 * (env["x"] + env["y"]) ** 4)


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


def _sliced_roots():
    # the first reads the samples x and y and the column c; c alone and
    # the constant read no sample
    x, y, c = ex.Var("x"), ex.Var("y"), ex.Var("c")
    return [ex.add(ex.mul(c, ex.sin(x)), ex.power(y, 2)), c, ex.Const(2.0)]


def test_evaluate_in_slices_plans_once_and_cuts_by_the_rule(monkeypatch):
    # a slice is the longest run of samples whose values, one per plan step
    # plus two, fit the budget, and at least one sample
    roots = _sliced_roots()
    steps = len(ex._schedule(roots)[0])
    rng = np.random.default_rng(3)
    fixed = {"c": rng.normal(size=(2, 1))}
    sliced = {"x": rng.normal(size=10), "y": rng.normal(size=10)}
    whole = [np.broadcast_to(v, (2, 10))
             for v in ex.evaluate(roots, {**fixed, **sliced})]
    schedule, evaluate = ex._schedule, ex.evaluate
    walks, calls = [], []

    def counted_schedule(r):
        walks.append(r)
        return schedule(r)

    def counted(exprs, env):
        calls.append(env)
        return evaluate(exprs, env)
    monkeypatch.setattr(ex, "_schedule", counted_schedule)
    monkeypatch.setattr(ex, "evaluate", counted)
    for budget, cut in (((steps + 2) * 16 * 4 - 1, [3, 3, 3, 1]),
                        ((steps + 2) * 16 * 10, [10]), (1, [1] * 10)):
        walks.clear()
        calls.clear()
        slices = list(ex.evaluate_in_slices(roots, fixed, sliced, 16, budget))
        assert len(walks) == 1
        assert [len(env["x"]) for env in calls] == cut
        for env in calls:
            assert env["c"] is fixed["c"]
            assert all(np.shares_memory(env[k], sliced[k]) for k in sliced)
        for got, values in zip(cut, slices):
            assert [v.shape for v in values] == [(2, got)] * 3
        for k, want in enumerate(whole):
            got = np.concatenate([values[k] for values in slices], axis=1)
            assert got.tobytes() == want.tobytes()


def test_a_nan_in_the_last_slice_survives_evaluate_in_slices():
    x = np.linspace(0.0, 1.0, 7)
    x[-1] = np.nan
    slices = list(ex.evaluate_in_slices(
        _sliced_roots(), {"c": np.ones((2, 1))}, {"x": x, "y": np.ones(7)},
        16, 1))
    assert len(slices) == 7
    assert np.isnan(slices[-1][0]).all()
    assert not any(np.isnan(values[0]).any() for values in slices[:-1])
    folded = functools.reduce(np.maximum, [values[0] for values in slices])
    assert np.isnan(folded).all()


def test_schedule_runs_children_first_left_to_right():
    x, y, z, two = ex.Var("x"), ex.Var("y"), ex.Var("z"), ex.Const(2.0)
    xx = ex.Mul((x, x))
    top = ex.Add((xx, ex.Sin(y), ex.Cos(y), z, x, two))
    sin, cos = top.args[1:3]
    plan, uses = ex._schedule([top, xx, top, two])
    # children first, left to right; the sum starts from xx and sin(y)
    # before the walk enters cos(y), then folds cos(y), z, x and the
    # constant: a variable is bound as the walk reaches it and splits no
    # fold
    assert [(id(n), start, tuple(map(id, ops))) for n, start, ops in plan] == [
        (id(x), None, ()), (id(xx), True, (id(x), id(x))),
        (id(y), None, ()), (id(sin), None, (id(y),)),
        (id(top), True, (id(xx), id(sin))), (id(cos), None, (id(y),)),
        (id(z), None, ()), (id(top), False, (id(cos), id(z), id(x), id(two)))]
    # the constant is read in place, with no count; every other argument
    # occurrence and every root occurrence counts
    assert uses == {id(top): 2, id(xx): 2, id(x): 3, id(y): 2, id(z): 1,
                    id(sin): 1, id(cos): 1}


# -- the freeing schedule against the recursive memo it replaced ------------

def recursive_evaluate(expr, env):
    """evaluate as it ran before the freeing schedule: a recursive memo that
    keeps every node's value until the call returns, and folds a sum or
    product over the list of all its arguments' values."""
    cache = {}

    def rec(e):
        h = id(e)
        v = cache.get(h)
        if v is None:
            if isinstance(e, ex.Const):
                v = e.value
            elif isinstance(e, (ex.Add, ex.Mul)):
                v = functools.reduce(e._op, [rec(a) for a in e.args])
            else:
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
        plan, uses = schedule(roots)
        uses[next(k for k, n in uses.items() if n > 1)] -= 1
        return plan, uses
    monkeypatch.setattr(ex, "_schedule", one_use_short)

    def caught(dag):
        try:
            _assert_matches_oracle(*dag)
        except (AssertionError, KeyError):
            return True
        return False
    assert caught(find(dags(), caught))


def test_the_oracle_test_catches_a_product_folded_out_of_order(monkeypatch):
    # the mutant reverses the arguments of the first product step that
    # folds three or more, so the product rounds in another order
    schedule = ex._schedule

    def reversed_product(roots):
        plan, uses = schedule(roots)
        for k, (node, start, operands) in enumerate(plan):
            if isinstance(node, ex.Mul) and start and len(operands) > 2:
                plan[k] = node, start, operands[::-1]
                break
        return plan, uses
    monkeypatch.setattr(ex, "_schedule", reversed_product)

    def caught(dag):
        try:
            _assert_matches_oracle(*dag)
        except AssertionError:
            return True
        return False
    # any example will do, so skip shrinking it and search the same
    # examples on every run
    assert caught(find(dags(), caught, settings=settings(
        phases=[Phase.generate], max_examples=2000, derandomize=True)))


class _Counted(np.lib.mixins.NDArrayOperatorsMixin):
    """An array that counts how many of its kind are alive at once."""

    live = peak = 0

    def __init__(self, array):
        self.array = array
        cls = type(self)
        cls.live += 1
        cls.peak = max(cls.peak, cls.live)

    def __del__(self):
        type(self).live -= 1

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [a.array if isinstance(a, _Counted) else a for a in inputs]
        return _Counted(getattr(ufunc, method)(*inputs, **kwargs))


@given(dags())
@settings(max_examples=200)
def test_evaluate_holds_no_more_values_than_its_plan_has_steps(dag):
    # every value computed from x or y is a _Counted; those alive at once
    # during the call, beyond x and y themselves, are the values it holds.
    # Roots that carry their plan hold no more on every run of that plan.
    roots, env = dag
    env = {name: _Counted(v) for name, v in env.items()}
    planned = ex._Planned(roots)
    bound = len(planned.schedule[0]) + 2
    for exprs in (roots, planned, planned):
        _Counted.peak = before = _Counted.live
        with np.errstate(all="ignore"):
            ex.evaluate(exprs, env)
        assert _Counted.peak - before <= bound


def test_a_wide_sum_holds_one_partial_result():
    # beyond x: the partial, a term's product and its sine, and the new
    # partial while the fold runs; not one value per term
    x = ex.Var("x")
    wide = ex.add(*[ex.sin(ex.mul(0.5 * k, x)) for k in range(1, 101)])
    env = {"x": _Counted(np.linspace(0.0, 1.0, 5))}
    _Counted.peak = before = _Counted.live
    ex.evaluate(wide, env)
    assert _Counted.peak - before <= 3


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
