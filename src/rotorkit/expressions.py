"""Minimal expression trees with exact symbolic derivatives.

Several checks in this package (chart equivalence of the two Hamiltonian
forms, bracket algebra, hermiticity) target tolerances of 1e-10 or better,
which finite-difference derivatives cannot reach.  The operators are always
applied to *known* closed-form test functions, so the cheapest exact route is
a tiny expression language: constants, variables, sums, products, powers with
numeric exponents, and the transcendental atoms the charts need (sin, cos,
exp; sqrt is a half power).  Differentiation and substitution are structural;
evaluation is vectorized over numpy arrays and memoized on shared subtrees.

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
cache size needs a bound.  Interning equal subtrees in one global table
(hash-consing) was measured and did not pay: harmonics with different
coefficients share few subtrees, so the lookups cost more than they saved.
"""

import numpy as np

__all__ = [
    "Expr", "Const", "Var", "Add", "Mul", "Pow", "Sin", "Cos", "Exp",
    "add", "mul", "power", "sin", "cos", "exp", "sqrt",
    "ordered_product", "negated",
    "evaluate", "is_zero", "ZERO", "ONE",
]


def _wrap(v):
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, float, complex, np.integer, np.floating)):
        return Const(v)
    raise TypeError(f"cannot use {type(v).__name__} in an expression")


class Expr:
    """Base node.  Immutable; build through the module constructors."""

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

    def _diff(self, name):
        raise NotImplementedError

    def subs(self, mapping):
        raise NotImplementedError

    def free_vars(self):
        out = set()
        self._collect_vars(out)
        return frozenset(out)

    def _collect_vars(self, out):
        pass

    def _ev(self, rec, env):
        raise NotImplementedError

    def key(self):
        raise NotImplementedError

    # arithmetic sugar
    def __add__(self, o):
        return add(self, _wrap(o))

    def __radd__(self, o):
        return add(_wrap(o), self)

    def __sub__(self, o):
        return add(self, mul(Const(-1), _wrap(o)))

    def __rsub__(self, o):
        return add(_wrap(o), mul(Const(-1), self))

    def __mul__(self, o):
        return mul(self, _wrap(o))

    def __rmul__(self, o):
        return mul(_wrap(o), self)

    def __truediv__(self, o):
        return mul(self, power(_wrap(o), -1))

    def __rtruediv__(self, o):
        return mul(_wrap(o), power(self, -1))

    def __pow__(self, k):
        return power(self, k)

    def __neg__(self):
        return mul(Const(-1), self)

    def __eq__(self, other):
        return isinstance(other, Expr) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())


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

    def _ev(self, rec, env):
        return self.value

    def key(self):
        return ("c", self.value)

    def __repr__(self):
        return repr(self.value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name):
        object.__setattr__(self, "name", name)

    def diff(self, name):
        return ONE if name == self.name else ZERO

    def subs(self, mapping):
        return mapping.get(self.name, self)

    def _collect_vars(self, out):
        out.add(self.name)

    def _ev(self, rec, env):
        try:
            return env[self.name]
        except KeyError:
            raise KeyError(f"no value bound for variable '{self.name}'") from None

    def key(self):
        return ("v", self.name)

    def __repr__(self):
        return self.name


class _Nary(Expr):
    __slots__ = ("args",)

    def __init__(self, args):
        object.__setattr__(self, "args", tuple(args))

    def _collect_vars(self, out):
        for a in self.args:
            a._collect_vars(out)


class Add(_Nary):
    __slots__ = ()

    def _diff(self, name):
        return add(*[a.diff(name) for a in self.args])

    def subs(self, mapping):
        return add(*[a.subs(mapping) for a in self.args])

    def _ev(self, rec, env):
        vals = [rec(a) for a in self.args]
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out

    def key(self):
        return ("+",) + tuple(a.key() for a in self.args)

    def __repr__(self):
        return "(" + " + ".join(map(repr, self.args)) + ")"


class Mul(_Nary):
    __slots__ = ()

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

    def _ev(self, rec, env):
        vals = [rec(a) for a in self.args]
        out = vals[0]
        for v in vals[1:]:
            out = out * v
        return out

    def key(self):
        return ("*",) + tuple(a.key() for a in self.args)

    def __repr__(self):
        return "(" + " * ".join(map(repr, self.args)) + ")"


class Pow(Expr):
    __slots__ = ("base", "expo")

    def __init__(self, base, expo):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "expo", expo)

    def _diff(self, name):
        db = self.base.diff(name)
        if is_zero(db):
            return ZERO
        return mul(Const(self.expo), power(self.base, self.expo - 1), db)

    def subs(self, mapping):
        return power(self.base.subs(mapping), self.expo)

    def _collect_vars(self, out):
        self.base._collect_vars(out)

    def _ev(self, rec, env):
        return rec(self.base) ** self.expo

    def key(self):
        return ("^", self.base.key(), self.expo)

    def __repr__(self):
        return f"{self.base!r}**{self.expo}"


class _Unary(Expr):
    __slots__ = ("arg",)
    _fn = None
    _tag = "?"

    def __init__(self, arg):
        object.__setattr__(self, "arg", arg)

    def subs(self, mapping):
        return type(self)(self.arg.subs(mapping))

    def _collect_vars(self, out):
        self.arg._collect_vars(out)

    def _ev(self, rec, env):
        return type(self)._fn(rec(self.arg))

    def key(self):
        return (type(self)._tag, self.arg.key())

    def __repr__(self):
        return f"{type(self)._tag}({self.arg!r})"


class Sin(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.sin)
    _tag = "sin"

    def _diff(self, name):
        da = self.arg.diff(name)
        if is_zero(da):
            return ZERO
        return mul(Cos(self.arg), da)


class Cos(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.cos)
    _tag = "cos"

    def _diff(self, name):
        da = self.arg.diff(name)
        if is_zero(da):
            return ZERO
        return mul(Const(-1), Sin(self.arg), da)


class Exp(_Unary):
    __slots__ = ()
    _fn = staticmethod(np.exp)
    _tag = "exp"

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
    if isinstance(expo, Expr):
        if not isinstance(expo, Const):
            raise TypeError("only numeric exponents are supported")
        expo = expo.value
    if isinstance(expo, complex):
        raise TypeError("only real exponents are supported")
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

    Shared subtrees (ubiquitous after differentiation) are computed once per
    call via an id-keyed memo, which is what keeps repeated-operator
    applications affordable on large point batches.
    """
    cache = {}

    def rec(e):
        h = id(e)
        v = cache.get(h)
        if v is None:
            v = e._ev(rec, env)
            cache[h] = v
        return v

    return rec(expr)
