"""Minimal expression trees with exact symbolic derivatives.

Several checks in this package (chart equivalence of the two Hamiltonian
forms, bracket algebra, hermiticity) target tolerances of 1e-10 or better,
which finite-difference derivatives cannot reach.  The operators are always
applied to *known* closed-form test functions, so the cheapest exact route is
a tiny expression language: constants, variables, sums, products, powers with
numeric exponents (sqrt is a half power), the transcendental atoms the charts
need (sin, cos), and exp, which builds smooth test functions that are not
polynomials in the chart variables.  Differentiation and substitution are
structural; evaluation is vectorized over numpy arrays and computes each
shared subtree once per call.

``evaluate`` walks the DAG once, without recursion, for a children-first
plan of steps and a count of each node's consumers, then runs the plan
in a loop and drops a value once its last consumer has run.  A sum or
product does not wait for all of its arguments: it starts from its first
and folds in each later one, in order, as soon as that argument's value
exists, so a wide sum holds one partial result rather than one value per
term.  Constant arguments are read in place.  A call holds only the
values still awaiting a consumer and one partial result per open sum or
product, so its memory follows the DAG's width rather than its node
count, and a chain of any depth evaluates.

The constructors fold the obvious identities (0 and 1 absorption, constant
collection) but deliberately do nothing clever beyond that: no reordering of
non-constant factors, no same-base power merging.  Keeping the term order of
the input expression is what makes mirrored constructions (e.g. a Poisson
bracket and its transpose) evaluate to exact IEEE negations of each other.

Derivatives are memoized on the node: ``e.diff(name)`` builds the
derivative once, keeps it in the node's own ``{name: derivative}`` dict and
returns that same object on every later call.  The product rule asks for
the derivative of every factor once per term, and the operators
differentiate the same test function several times, so without the memo
the same subtrees are derived again and again.  The memo returns exactly
the tree a fresh ``_diff`` would build, so values stay bit for bit the
same.  It is per node rather than a global table because its lifetime is
then the expression's: nothing outlives the trees that use it, and no
cache size needs a bound.  A power's derivatives by different variables
share one lowered node base^(expo - 1), kept on the power the same way,
so ``evaluate`` computes it once per call rather than once per variable.
Interning equal subtrees in one global table (hash-consing) was measured
and did not pay: harmonics with different coefficients share few
subtrees, so the lookups cost more than they saved.

A ``Const`` holds one number.  Expressions that differ only in their
coefficients share one tree when the coefficients are variables:
``evaluate`` binds each variable to a scalar or to any array that
broadcasts, so coefficients bound to (rows, 1) columns give values of
shape (rows, samples), one row per expression.  Where the coefficients
enter only sums, products and powers, which act elementwise and round
alike whatever the array shape, each row is bit for bit the value with
that row's coefficients bound as scalars.  ``operators._zonal_tree``
builds each degree's zonal harmonics this way, with the axes as the
variables, and ``operators._route_gap`` binds them.
"""

import operator
from functools import reduce

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Pow", "Sin", "Cos", "Exp",
    "add", "mul", "power", "sin", "cos", "exp", "sqrt",
    "ordered_product", "negated",
    "evaluate", "evaluate_in_slices", "is_zero", "ZERO", "ONE",
]


def _wrap(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, complex, np.integer, np.floating)):
        return Const(v)
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


class Expr:
    """Base node.  Immutable; build through the module constructors.

    A node class defines ``_diff`` (or ``diff``), ``subs`` and ``_ev``,
    except that ``evaluate`` reads ``Const`` and ``_Nary`` itself.  Nodes
    compare and hash by identity, as ``evaluate`` and its plans do.
    """

    # _dmemo: {variable name: derivative}, made on the first diff call
    __slots__ = ("_dmemo",)

    def __setattr__(self, *a):
        # constructors and the diff memo write through object.__setattr__
        raise AttributeError("expressions are immutable")

    def diff(self, name):
        """d/d(name), built once per node and variable and then shared."""
        try:
            memo = self._dmemo
        except AttributeError:
            memo = {}
            object.__setattr__(self, "_dmemo", memo)
        d = memo.get(name)
        if d is None:
            d = memo[name] = self._diff(name)
        return d

    def _children(self):
        # the argument nodes the value reads, in order, repeats included
        return ()

    def __sub__(self, o):
        return add(self, mul(Const(-1), _wrap(o)))


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value):
        # keep real constants real so real expressions evaluate real
        if isinstance(value, complex) and value.imag == 0:
            value = value.real
        object.__setattr__(self, "value", value)

    def diff(self, name):
        # leaves answer with a shared constant; a memo would only cost a dict
        return ZERO

    def subs(self, mapping):
        return self


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def diff(self, name):
        return ONE if name == self.name else ZERO

    def subs(self, mapping):
        return mapping.get(self.name, self)

    def _ev(self, rec, env):
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(f"no value bound for variable '{self.name}'") from None


class _Nary(Expr):
    # no _ev: evaluate folds the arguments with _op, left to right, as
    # their values arrive
    __slots__ = ("args",)

    def __init__(self, args):
        object.__setattr__(self, "args", tuple(args))

    def _children(self):
        return self.args


class Add(_Nary):
    __slots__ = ()
    _op = staticmethod(operator.add)

    def _diff(self, name):
        return add(*[a.diff(name) for a in self.args])

    def subs(self, mapping):
        return add(*[a.subs(mapping) for a in self.args])


class Mul(_Nary):
    __slots__ = ()
    _op = staticmethod(operator.mul)

    def _diff(self, name):
        # product rule, keeping factor positions stable
        terms = []
        for i, a in enumerate(self.args):
            da = a.diff(name)
            if is_zero(da):
                continue
            terms.append(mul(*self.args[:i], da, *self.args[i + 1:]))
        return add(*terms) if terms else ZERO

    def subs(self, mapping):
        return mul(*[a.subs(mapping) for a in self.args])


class Pow(Expr):
    # _lowered: power(base, expo - 1), made on the first derivative and
    # shared by the derivatives by every variable
    __slots__ = ("base", "expo", "_lowered")

    def __init__(self, base, expo):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "expo", expo)

    def _diff(self, name):
        db = self.base.diff(name)
        if is_zero(db):
            return ZERO
        try:
            lowered = self._lowered
        except AttributeError:
            lowered = power(self.base, self.expo - 1)
            object.__setattr__(self, "_lowered", lowered)
        return mul(Const(self.expo), lowered, db)

    def subs(self, mapping):
        return power(self.base.subs(mapping), self.expo)

    def _ev(self, rec, env):
        return rec(self.base) ** self.expo

    def _children(self):
        return (self.base,)


class _Unary(Expr):
    __slots__ = ("arg",)
    _fn = None

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)

    def subs(self, mapping):
        return type(self)(self.arg.subs(mapping))

    def _ev(self, rec, env):
        return type(self)._fn(rec(self.arg))

    def _children(self):
        return (self.arg,)


class Sin(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.sin)

    def _diff(self, name):
        da = self.arg.diff(name)
        if is_zero(da):
            return ZERO
        return mul(Cos(self.arg), da)


class Cos(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.cos)

    def _diff(self, name):
        da = self.arg.diff(name)
        if is_zero(da):
            return ZERO
        return mul(Const(-1), Sin(self.arg), da)


class Exp(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.exp)

    def _diff(self, name):
        da = self.arg.diff(name)
        if is_zero(da):
            return ZERO
        return mul(self, da)


ZERO = Const(0)
ONE = Const(1)


def is_zero(e):
    return isinstance(e, Const) and e.value == 0


def add(*args):
    """Flattening sum; constants are collected into a single trailing term."""
    flat = []
    const = 0
    for a in args:
        a = _wrap(a)
        if isinstance(a, Add):
            flat.extend(a.args)
        else:
            flat.append(a)
    terms = []
    for a in flat:
        if isinstance(a, Const):
            const = const + a.value
        else:
            terms.append(a)
    if const != 0 or not terms:
        terms.append(Const(const))
    if len(terms) == 1:
        return terms[0]
    return Add(terms)


def mul(*args):
    """Flattening product; constants are collected into a single leading factor."""
    flat = []
    const = 1
    for a in args:
        a = _wrap(a)
        if isinstance(a, Mul):
            flat.extend(a.args)
        else:
            flat.append(a)
    factors = []
    for a in flat:
        if isinstance(a, Const):
            const = const * a.value
        else:
            factors.append(a)
    if const == 0:
        return ZERO
    if const != 1 or not factors:
        factors.insert(0, Const(const))
    if len(factors) == 1:
        return factors[0]
    return Mul(factors)


def ordered_product(a, b):
    """Bare two-factor product with no flattening or constant motion.

    Needed where a*b and b*a must evaluate bitwise equal: the folding `mul`
    concatenates factor lists, which changes the association order of the
    evaluated product and hence its rounding.  A fixed binary node performs
    exactly one IEEE multiply of the two sub-values, and that single multiply
    commutes exactly.
    """
    a, b = _wrap(a), _wrap(b)
    if is_zero(a) or is_zero(b):
        return ZERO
    return Mul((a, b))


def negated(a):
    """Bare (-1) * a; evaluates to the exact IEEE negation of a's value."""
    a = _wrap(a)
    if is_zero(a):
        return ZERO
    return Mul((Const(-1.0), a))


def power(base, expo):
    base = _wrap(base)
    if not isinstance(expo, (int, float, np.integer, np.floating)):
        raise TypeError("only real number exponents are supported")
    if expo == 0:
        return ONE
    if expo == 1:
        return base
    if isinstance(base, Const):
        return Const(base.value ** expo)
    return Pow(base, expo)


def sin(a):
    a = _wrap(a)
    if isinstance(a, Const):
        return Const(np.sin(a.value))
    return Sin(a)


def cos(a):
    a = _wrap(a)
    if isinstance(a, Const):
        return Const(np.cos(a.value))
    return Cos(a)


def exp(a):
    a = _wrap(a)
    if isinstance(a, Const):
        return Const(np.exp(a.value))
    return Exp(a)


def sqrt(a):
    return power(a, 0.5)


def evaluate(expr, env):
    """Evaluate ``expr`` with variables bound from ``env`` (scalars or arrays).

    ``expr`` is one expression, or a list or tuple of them; a sequence
    returns the list of their values.  Each node reachable from the roots
    is computed once per call, however many consumers share it (shared
    subtrees are everywhere after differentiation), so operators built on
    the same memoized derivatives share that work too.  The steps run in
    ``_schedule``'s order, children first.  A sum or product keeps one
    partial result and folds each argument into it as soon as that
    argument's value exists, and a value is dropped as soon as its last
    consumer has run; the roots' values are kept to the end.  So a call
    holds one partial result per open sum or product, not one value per
    term.  The fold is the left fold ``((a0 op a1) op a2) ...`` whenever
    it runs, and a node's value does not depend on which root reached it,
    so each root evaluates to the same bits as on its own.  ``_Planned``
    roots bring their plan, which the call runs without changing it.
    """
    roots = expr if isinstance(expr, (list, tuple)) else (expr,)
    plan, uses = (roots.schedule if isinstance(roots, _Planned)
                  else _schedule(roots))
    values = {}
    left = {}  # uses still to come, for values read but not yet dropped

    def take(e):
        # e's value, dropped from ``values`` at e's last use
        if type(e) is Const:
            return e.value
        key = id(e)
        n = left.pop(key, uses[key]) - 1
        if n:
            left[key] = n
            return values[key]
        return values.pop(key)

    for node, start, operands in plan:
        if start is None:
            out = node._ev(take, env)
        elif start:
            out = reduce(node._op, map(take, operands))
        else:
            out = reduce(node._op, map(take, operands), values.pop(id(node)))
        values[id(node)] = out
    out = [take(e) for e in roots]
    return out if isinstance(expr, (list, tuple)) else out[0]


def _schedule(roots):
    """The steps ``evaluate`` runs, and each node's use count.

    One walk over the DAG reachable from ``roots``, without recursion, so
    chains of any depth evaluate.  Each node's work comes after its
    arguments', in the left-to-right order a recursive evaluation first
    reaches it.  A step is ``(node, start, operands)``.  A sum or product
    takes one step per run of arguments that are ready together: the step
    folds ``operands`` into the node's partial result, or starts that
    result from ``operands[0]`` when ``start`` is true.  Its first steps
    fold what is ready before the walk enters the next argument not yet
    computed, and its last step folds the rest.  Any other node takes one
    step that runs ``node._ev``, with ``start`` None and its arguments as
    ``operands``; a variable's step comes as soon as the walk reaches it,
    so a variable never splits a fold.  Constants are read in place and
    get no step and no count.  ``uses`` maps ``id(node)`` to the node's
    argument occurrences (``mul(x, x)`` uses x twice) plus one per
    appearance among the roots.
    """
    plan = []
    uses = {}
    for root in roots:
        key = id(root)
        if type(root) is Const:
            continue
        if key in uses:
            uses[key] += 1
            continue
        uses[key] = 1
        # each frame: node, its arguments numbered, first one not folded
        stack = [[root, enumerate(root._children()), 0]]
        while stack:
            frame = stack[-1]
            node, kids, lo = frame
            for i, kid in kids:
                if type(kid) is Const:
                    continue
                key = id(kid)
                if key in uses:
                    uses[key] += 1
                    continue
                uses[key] = 1
                grandkids = kid._children()
                if not grandkids:  # a variable, bound at once
                    plan.append((kid, None, grandkids))
                    continue
                if i > lo and i > 1 and isinstance(node, _Nary):
                    plan.append((node, lo == 0, node.args[lo:i]))
                    frame[2] = i
                stack.append([kid, enumerate(grandkids), 0])
                break
            else:
                stack.pop()
                if isinstance(node, _Nary):
                    plan.append((node, lo == 0, node.args[lo:]))
                else:
                    plan.append((node, None, node._children()))
    return plan, uses


class _Planned(tuple):
    """Roots that carry their ``_schedule``, which ``evaluate`` replays
    instead of walking the DAG again.  A call holds at most
    ``len(schedule[0]) + 2`` values: one per step that has run, and the
    two new partial results a running fold may hold at once."""

    def __new__(cls, roots):
        self = super().__new__(cls, roots)
        self.schedule = _schedule(self)
        return self


def evaluate_in_slices(roots, fixed, sliced, bytes_per_sample, budget):
    """Yield the values of the list ``roots`` on each slice of a batch.

    ``sliced`` binds variables to the samples, 1-D arrays of one length;
    ``fixed`` binds the rest whole.  The roots are planned once.  A slice
    is the longest run of samples whose values, one per plan step plus two
    (``_Planned``) at ``bytes_per_sample`` bytes a sample, fit ``budget``,
    and holds at least one sample.  Each slice is one ``evaluate`` call on
    views of the samples, and its values come broadcast to the shape of
    the arrays bound for it.
    """
    planned = _Planned(roots)
    step = max(1, budget // ((len(planned.schedule[0]) + 2) * bytes_per_sample))
    n = len(next(iter(sliced.values())))
    for lo in range(0, n, step):
        env = {**fixed, **{name: v[lo:lo + step] for name, v in sliced.items()}}
        shape = np.broadcast_shapes(*map(np.shape, env.values()))
        yield [np.broadcast_to(v, shape) for v in evaluate(planned, env)]
