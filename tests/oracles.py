"""Independent numerical oracles used by the test-suite.

Most of this is deliberately dumb and derivative-free of the library
internals: central finite differences, textbook closed forms, and plain
ODE integration.  Tests compare engine output against these.  The
expression language keeps its recursive tree walk here, the reference the
compiled tape must match bit for bit, a walk of the tape itself
(``tape_walk``), both on floats or on ``Jet`` objects through ``Jet``'s
operators, where the tape's own functions take floats only, and its
printer, which only the round-trip tests read.  Metric variants (F at -y, in changed coordinates,
scaled, constant) are built as tapes from a metric's own formula, rebuilt
from its tape, and the float spray keeps its ``Jet`` route here, which
``spray_values`` must match bit for bit, errors included.

The last section keeps the straightforward jet-by-jet forms of the kernel
steps and field builders that the library runs in truncated or batched
form: the full-order Horner composition, the full-order Neumann inverse,
the entry-by-entry horizontal and vertical derivatives, and one loop per
``FieldScope`` builder, each filling an object array of ``Jet`` one entry at
a time.  They use the same jet arithmetic, so tests require the library's
coefficient arrays to match them bit for bit.  It also keeps the
pair-by-pair build of the product and derivative tables, which the library
builds with array operations; the tables must be equal.  ``truncated`` and
``count_through_order`` are jet helpers only the tests use.
"""

import dataclasses
import functools
import itertools
import math
import operator

import numpy as np

from finslerlab import expr
from finslerlab.curvature import (
    _SPRAY_PARTIALS,
    SEED_CAP,
    _clears_gate,
    _require_positive_definite,
)
from finslerlab.errors import (
    BadConfig,
    DivisionByZero,
    DomainError,
    OutOfChart,
    ShapeMismatch,
    SingularMetric,
    UnboundVariable,
)
from finslerlab.expr import Bin, Call, Name, Neg, Num, Op, Pow, Var, VecRef
from finslerlab.jets import Jet, _algebra, seed_block


def fd_partial(f, point, alpha, h=1e-4):
    """Central finite-difference mixed partial d^alpha f at point.

    ``f`` maps a list of floats to a float, ``alpha`` is an exponent
    tuple.  Differences are applied one variable at a time, recursively,
    so the truncation error is O(h^2) per direction.
    """
    point = [float(v) for v in point]
    for v, times in enumerate(alpha):
        if times:
            reduced = list(alpha)
            reduced[v] -= 1

            def fv(pt, _v=v, _red=tuple(reduced)):
                up = list(pt)
                dn = list(pt)
                up[_v] += h
                dn[_v] -= h
                return (fd_partial(f, up, _red, h) - fd_partial(f, dn, _red, h)) / (2 * h)

            return fv(point)
    return f(point)


def fd_gradient(f, point, h=1e-6):
    point = np.asarray(point, dtype=float)
    out = np.zeros(len(point))
    for v in range(len(point)):
        up = point.copy()
        dn = point.copy()
        up[v] += h
        dn[v] -= h
        out[v] = (f(up) - f(dn)) / (2 * h)
    return out


def christoffel_fd(a_fn, x, h=1e-5):
    """Levi-Civita symbols of a Riemannian matrix field a_fn(x) -> (n, n).

    Uses central differences of the matrix entries and the textbook
    formula Gamma^i_jk = 1/2 a^{il} (d_j a_lk + d_k a_jl - d_l a_jk).
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    a = np.asarray(a_fn(x), dtype=float)
    a_inv = np.linalg.inv(a)
    da = np.zeros((n, n, n))  # da[l] = d a / d x^l
    for l in range(n):
        up = x.copy()
        dn = x.copy()
        up[l] += h
        dn[l] -= h
        da[l] = (np.asarray(a_fn(up)) - np.asarray(a_fn(dn))) / (2 * h)
    gamma = np.zeros((n, n, n))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = 0.0
                for l in range(n):
                    s += a_inv[i, l] * (da[j][l, k] + da[k][j, l] - da[l][j, k])
                gamma[i, j, k] = 0.5 * s
    return gamma


def rel_err(a, b, floor=1e-12):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), floor)
    return float(np.max(np.abs(a - b)) / scale)


def rk4_scalar(f, t0, y0, t1, steps=4000):
    """Fixed-step RK4 for a scalar ODE y' = f(t, y); oracle-grade accuracy."""
    t, y = float(t0), float(y0)
    h = (t1 - t0) / steps
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + h / 2, y + h * k1 / 2)
        k3 = f(t + h / 2, y + h * k2 / 2)
        k4 = f(t + h, y + h * k3)
        y += h * (k1 + 2 * k2 + 2 * k3 + k4) / 6
        t += h
    return y


def sphere_chart_matrix(x):
    """Round-sphere conformal chart metric 4 delta_ij / (1 + |x|^2)^2."""
    x = np.asarray(x, dtype=float)
    s = 4.0 / (1.0 + float(x @ x)) ** 2
    return s * np.eye(len(x))


def funk_value(a, x, y):
    """Closed-form unit-ball metric value, kept independent of the library."""
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xx = float(x @ x)
    yy = float(y @ y)
    xy = float(x @ y)
    return (math.sqrt(yy - (xx * yy - xy * xy)) + xy + float(a @ y)) / (1.0 - xx)


# --------------------------------------------------------------------------
# metric variants as tapes, and the float spray by the Jet route


def formula(tape, x, y):
    """The folded formula ``tape`` was compiled from, rebuilt op by op on
    the input trees x and y (``Var`` nodes give the formula itself): one
    ``Op`` per tape op, a unary one with its operand twice, constants as
    ``Num``."""
    vals = [*x, *y, *(None if c is None else Num(c) for c in tape.init)]
    for f, i, j, k in tape.ops:
        vals[k] = Op(f, vals[i], vals[j])
    return vals[tape.out]


def rewritten(metric, x=None, y=None, outer=None, label=None):
    """``metric`` with F~(x, y) = outer(F(x', y')), compiled to a tape:
    ``x`` and ``y`` map the lists of input ``Var`` nodes to trees of the
    inputs (x' and y'), ``outer`` maps the formula's tree to the new one.
    Each builds its trees from expression nodes; they are folded here.  The
    chart and the domain gate stay the metric's."""
    n = metric.n
    xs, ys = ([Var(g, i + 1) for i in range(n)] for g in "xy")
    xs, ys = ([expr.fold(v, n, {}) for v in vs] for vs in (x(xs) if x else xs, y(ys) if y else ys))
    tree = formula(metric.tape, xs, ys)
    if outer is not None:
        tree = expr.fold(outer(tree), n, {})
    return dataclasses.replace(metric, tape=expr.compile_tape(tree, n), label=label or metric.label)


def linear_change(A):
    """For :func:`rewritten`: the inputs v mapped to A v, each component
    the left fold A[i, 0] v0 + A[i, 1] v1 + ..."""
    def apply(v):
        return [functools.reduce(lambda s, j: Bin("+", s, Bin("*", Num(float(A[i, j])), v[j])),
                                 range(1, len(v)), Bin("*", Num(float(A[i, 0])), v[0]))
                for i in range(len(v))]
    return apply


def seed_jets(alg, x0, y0):
    """The seed jets of the point (x0, y0) in ``alg``, x-degree cap
    included, as lists (x_jets, y_jets): the rows of ``jets.seed_block``."""
    rows = seed_block(alg, [float(v) for v in x0], [float(v) for v in y0])
    seeds = [Jet(alg, row, min(1, alg.order)) for row in rows]
    n = alg.n_vars // 2
    return seeds[:n], seeds[n:]


def spray_jets(metric, x, y, depth=0):
    """``curvature.spray_values`` by the Jet route: seed ``Jet``s, F on
    them by :func:`tape_walk` behind the metric's domain gate (an overflow
    is a DomainError, as in ``metric.F``), F^2 as the whole product F * F
    and each partial read at its multi-index, then the same float linear
    algebra.
    The gates come in the same order, with the same messages."""
    x, y = tuple(map(float, x)), tuple(map(float, y))
    if not all(map(math.isfinite, x + y)):
        raise DomainError(f"point is not finite: x = {x}, y = {y}")
    if len(x) != metric.n:
        raise ShapeMismatch(f"point has dimension {len(x)}, metric has {metric.n}")
    if not metric.chart.contains(x):
        raise OutOfChart(f"x = {x} outside metric chart")
    n = metric.n
    alg = _algebra(2 * n, 2 + depth, 1)
    xj, yj = seed_jets(alg, x, y)
    metric._gate(x)
    try:
        f = tape_walk(metric.tape, xj, yj)
    except OverflowError as e:
        raise DomainError(f"F overflows at x = {x}: {e}") from e
    if not isinstance(f, Jet):
        raise BadConfig("metric evaluator did not propagate jets")
    if not 0.0 < f.value < math.inf:
        raise SingularMetric(f"F(x, y) = {f.value:.6g} is not positive and finite")
    F2 = f * f
    P = {}
    for pattern in _SPRAY_PARTIALS[: 3 + 2 * depth]:
        block = np.empty((n,) * len(pattern))
        for combo in np.ndindex(block.shape):
            exps = [0] * (2 * n)
            for kind, i in zip(pattern, combo):
                exps[i if kind == "x" else n + i] += 1
            scale = float(math.prod(math.factorial(e) for e in exps))
            block[combo] = F2.coef[alg.index[tuple(exps)]] * scale
        P[pattern] = block
    g = 0.5 * P["yy"]
    if not _clears_gate(g):
        _require_positive_definite(g, np.linalg.eigvalsh(g)[0], x, y)
    ginv = np.linalg.inv(g)
    yv = np.asarray(y)
    u = ginv @ (P["yx"] @ yv - P["x"])
    out = [g, 0.25 * u]
    if depth >= 1:
        A1 = 0.5 * P["yyy"]
        b1 = P["yx"] - P["yx"].T + P["yyx"] @ yv
        u1 = ginv @ (b1 - A1 @ u)
        out.append(0.25 * u1)
    if depth >= 2:
        Fyyx = P["yyx"]
        b2 = Fyyx + Fyyx.transpose(0, 2, 1) + P["yyyx"] @ yv - Fyyx.transpose(2, 0, 1)
        T = A1 @ u1
        rhs = b2 - 0.5 * P["yyyy"] @ u - T - T.transpose(0, 2, 1)
        out.append(0.25 * (ginv @ rhs.reshape(n, -1)).reshape(n, n, n))
    return out


# --------------------------------------------------------------------------
# the expression language's recursive tree walk and printer


def walk(node, x, y, constants=None):
    """Evaluate a parsed tree by recursion on every call, floats or jets.

    The reference the compiled tape is tested against: the same operations
    on the same operands, with names and vectors looked up as it goes.
    """
    constants = {} if constants is None else constants
    n = len(x)

    def vector(ident):
        if ident in ("x", "y"):
            return x if ident == "x" else y
        v = constants.get(ident)
        if hasattr(v, "__len__"):
            return v
        raise UnboundVariable(f"unknown vector {ident!r}")

    def ev(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            if node.index > n:
                raise UnboundVariable(f"{node.group}{node.index} out of range for dimension {n}")
            return (x if node.group == "x" else y)[node.index - 1]
        if isinstance(node, Name):
            if node.ident not in constants:
                raise UnboundVariable(f"unknown identifier {node.ident!r}")
            v = constants[node.ident]
            if hasattr(v, "__len__"):
                raise UnboundVariable(f"vector constant {node.ident!r} used as a scalar")
            return v
        if isinstance(node, Neg):
            return -ev(node.child)
        if isinstance(node, Bin):
            return _OPS[node.op](ev(node.left), ev(node.right))
        if isinstance(node, Pow):
            return _power(ev(node.base), node.exponent)
        if node.fn in ("abs2", "dot"):
            u, v = vector(node.args[0].ident), vector(node.args[-1].ident)
            if len(u) != len(v):
                raise UnboundVariable("dot of vectors with different lengths")
            total = u[0] * v[0]
            for i in range(1, len(u)):
                total = total + u[i] * v[i]
            return total
        return smooth(ev(node.args[0]), node.fn)

    return ev(node)


FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos")


def smooth(value, name):
    """The function ``name`` of a float or a jet."""
    if name not in FUNCTIONS:
        raise BadConfig(f"unknown function {name!r}")
    if isinstance(value, Jet):
        return getattr(value, name)()
    v = float(value)
    if name in ("sqrt", "log") and v <= 0.0:
        raise DomainError(f"{name} of {v:.6g}")
    return getattr(math, name)(v)


def _divide(a, b):
    try:
        return a / b
    except ZeroDivisionError as e:
        raise DivisionByZero(str(e)) from e


def _power(base, exponent):
    if isinstance(base, Jet):
        return base**exponent
    if base < 0 and not float(exponent).is_integer():
        raise DomainError(f"negative base {base:.6g} with non-integer power")
    if base == 0 and exponent < 0:
        raise DivisionByZero("zero base with negative power")
    return float(base) ** exponent


#: every operation of a tape by its name in ``jets.step``, on floats or on
#: ``Jet`` objects, whose operators a seed program's kernels must match
_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "^": _power,
        "neg": lambda a, _: -a, **{fn: (lambda a, _, fn=fn: smooth(a, fn)) for fn in FUNCTIONS}}


def tape_walk(tape, x, y):
    """Run a compiled tape op by op on its inputs, floats or ``Jet`` objects,
    each op mapped to its operation on either (``_OPS``): on jets, the
    ``Jet`` operators themselves."""
    vals = [*x, *y, *tape.init]
    for f, i, j, k in tape.ops:
        vals[k] = _OPS[expr._KIND[f]](vals[i], vals[j])
    return vals[tape.out]


_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node):
    if isinstance(node, (Num, Var, Name, VecRef, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Pow):
        return _LEVEL_POW
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return _LEVEL_MUL if node.op in "*/" else _LEVEL_ADD


def _wrap(node, minimum):
    s = pretty(node)
    return f"({s})" if _level(node) < minimum else s


def _fmt_number(v):
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def pretty(node) -> str:
    """Render an AST back to source; reparsing gives an equal AST."""
    if isinstance(node, Num):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return f"{node.group}{node.index}"
    if isinstance(node, (Name, VecRef)):
        return node.ident
    if isinstance(node, Neg):
        return "-" + _wrap(node.child, _LEVEL_UNARY)
    if isinstance(node, Pow):
        exp = node.exponent
        if exp < 0:
            exp_s = f"(-{_fmt_number(-exp)})"
        else:
            exp_s = _fmt_number(exp)
        return f"{_wrap(node.base, _LEVEL_ATOM)}^{exp_s}"
    if isinstance(node, Bin):
        if node.op in "+-":
            left = _wrap(node.left, _LEVEL_ADD)
            right = _wrap(node.right, _LEVEL_MUL)
        else:
            left = _wrap(node.left, _LEVEL_MUL)
            right = _wrap(node.right, _LEVEL_UNARY)
        return f"{left} {node.op} {right}"
    if isinstance(node, Call):
        return f"{node.fn}({', '.join(pretty(a) for a in node.args)})"
    raise TypeError(f"unknown AST node {node!r}")


# --------------------------------------------------------------------------
# full-order reference forms of truncated / batched kernel steps


def series_full(alg, series_of, a, _):
    """Horner evaluation of sum series[k] * u^k, every step at the order of
    ``alg``, with u the jet ``a`` less its value and ``series`` what
    ``series_of`` builds at that value.

    Same signature as the series kernel ``jets._series``, so a test can
    patch it in and run the library's own series constructors (sqrt, exp,
    powers, ...).
    """
    series = series_of(a.item(0), alg.order)
    u = Jet(alg, a.copy())
    u.coef[0] = 0.0
    out = Jet.constant(alg, series[-1])
    for k in range(len(series) - 2, -1, -1):
        out = out * u + series[k]
    return out.coef


def truncated(jet, order):
    """``jet`` cut to a lower ``order``, in the algebra of the same cap."""
    assert order <= jet.order
    alg = _algebra(jet.n_vars, order, jet.alg.cap)
    return Jet(alg, jet.coef[: alg.size].copy(), min(jet.deg, order))


def count_through_order(alg):
    """Number of basis monomials of order <= d, for d = 0 .. alg.order."""
    return np.cumsum(np.bincount(alg.orders, minlength=alg.order + 1)).tolist()


def jet_partial(jet, alpha):
    """The mixed partial d^alpha f at the base point: coefficient times alpha!."""
    return jet.coefficient(alpha) * math.prod(math.factorial(e) for e in alpha)


def as_jets(T, alg):
    """A single-point scope's coefficient array (*shape, 1, size) in the jet
    algebra ``alg`` as one Jet per entry; a scalar field comes back as one Jet."""
    T = T[..., 0, :]
    if T.ndim == 1:
        return Jet(alg, T.copy())
    out = np.empty(T.shape[:-1], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = Jet(alg, T[idx].copy())
    return out


def field_jets(scope, name):
    """Field ``name`` of a scope at its full order, as jets in the algebra
    it is built in."""
    return as_jets(scope.field(name), scope._at(*scope._built[name]))


def as_coefs(T):
    """Coefficient array of a Jet, an object array of jets or a tuple of
    them, laid out as a single-point scope holds it: (*shape, 1, size);
    float arrays pass through."""
    if isinstance(T, Jet):
        return T.coef[None]
    if isinstance(T, tuple):
        return np.stack([as_coefs(t) for t in T])
    if T.dtype != object:
        return T
    return np.array([j.coef for j in T.flat]).reshape(T.shape + (1, -1))


def _matmul_jets(A, B):
    rows, inner = A.shape
    cols = B.shape[1]
    out = np.empty((rows, cols), dtype=object)
    for i in range(rows):
        for j in range(cols):
            acc = A[i, 0] * B[0, j]
            for k in range(1, inner):
                acc = acc + A[i, k] * B[k, j]
            out[i, j] = acc
    return out


def _padded(jet, alg):
    """The coefficients of ``jet`` zero-padded into the higher-order algebra
    ``alg`` of the same cap; not a Taylor extension."""
    c = np.zeros(alg.size)
    c[: jet.alg.size] = jet.coef
    return Jet(alg, c, jet.deg)


def g_inv_full(scope):
    """Neumann-series inverse of the scope's g, every iteration at g's order."""
    n = scope.n
    g = field_jets(scope, "g")
    inv0 = scope.field("ginv0")[..., 0]
    alg = g[0, 0].alg
    base = np.empty((n, n), dtype=object)
    M = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            base[i, j] = Jet.constant(alg, inv0[i, j])
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(n):
                dev = g[k, j] - g[k, j].value
                term = (-inv0[i, k]) * dev
                acc = term if acc is None else acc + term
            M[i, j] = acc
    X = base
    for _ in range(alg.order):
        X = _matmul_jets(M, X)
        for i in range(n):
            for j in range(n):
                X[i, j] = base[i, j] + X[i, j]
    return X


def hderiv_loop(scope, T, valence=(), N=None, Gamma=None):
    """Berwald horizontal derivative of jets T, one jet product at a time;
    N and Gamma default to the scope's fields at full order."""
    n = scope.n
    N = field_jets(scope, "N") if N is None else N
    if isinstance(T, Jet):
        out = np.empty((n,), dtype=object)
        dy = [T.deriv(n + m) for m in range(n)]
        for k in range(n):
            acc = T.deriv(k)
            for m in range(n):
                acc = acc - N[m, k] * dy[m]
            out[k] = acc
        return out
    if valence and Gamma is None:
        Gamma = field_jets(scope, "Gamma")
    out = np.empty(T.shape + (n,), dtype=object)
    for idx in np.ndindex(T.shape):
        jet = T[idx]
        dx = [jet.deriv(k) for k in range(n)]
        dy = [jet.deriv(n + m) for m in range(n)]
        for k in range(n):
            acc = dx[k]
            for m in range(n):
                acc = acc - N[m, k] * dy[m]
            for slot, kind in enumerate(valence):
                s = idx[slot]
                for m in range(n):
                    jdx = idx[:slot] + (m,) + idx[slot + 1:]
                    if kind == "up":
                        acc = acc + T[jdx] * Gamma[s, m, k]
                    else:
                        acc = acc - T[jdx] * Gamma[m, s, k]
            out[idx + (k,)] = acc
    return out


def vderiv_loop(scope, T):
    """Vertical derivative of T, one ``Jet.deriv`` per entry and y slot."""
    n = scope.n
    if isinstance(T, Jet):
        return np.array([T.deriv(n + m) for m in range(n)], dtype=object)
    out = np.empty(T.shape + (n,), dtype=object)
    for idx in np.ndindex(T.shape):
        for m in range(n):
            out[idx + (m,)] = T[idx].deriv(n + m)
    return out


def y_seeds(scope):
    """The y seed jets at ``scope``'s point, seed order and x-degree cap."""
    return seed_jets(scope._at(scope.order, SEED_CAP), scope.point.x, scope.point.y)[1]


def contract_loop(scope, H):
    """Trailing slot of jets H contracted with the y seeds, entry by entry."""
    n = scope.n
    yj = y_seeds(scope)
    shape = H.shape[:-1]
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        acc = H[idx + (0,)] * yj[0]
        for s in range(1, n):
            acc = acc + H[idx + (s,)] * yj[s]
        out[idx] = acc
    return out if shape else out[()]


def _fill(out, idx, val):
    for p in set(itertools.permutations(idx)):
        out[p] = val


def _loop_F2(sc, F):
    return F * F


def _loop_recF(sc, F):
    return F.reciprocal()


def _loop_g(sc, F2):
    n = sc.n
    d1 = [F2.deriv(n + i) for i in range(n)]
    g = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            _fill(g, (i, j), d1[i].deriv(n + j) * 0.5)
    return g


def _loop_g_inv(sc, g, ginv0):
    n = sc.n
    alg = g[0, 0].alg
    M = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            acc = None
            for k in range(n):
                term = (-ginv0[i, k]) * (g[k, j] - g[k, j].value)
                acc = term if acc is None else acc + term
            M[i, j] = acc
    X = np.empty((n, n), dtype=object)
    alg0 = _algebra(alg.n_vars, 0, alg.cap)
    for i in range(n):
        for j in range(n):
            X[i, j] = Jet.constant(alg0, ginv0[i, j])
    for t in range(1, alg.order + 1):
        alg_t = _algebra(alg.n_vars, t, alg.cap)
        Mt = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                Mt[i, j] = truncated(M[i, j], t)
                X[i, j] = _padded(X[i, j], alg_t)
        X = _matmul_jets(Mt, X)
        for i in range(n):
            for j in range(n):
                X[i, j] = Jet.constant(alg_t, ginv0[i, j]) + X[i, j]
    return X


def _loop_ylow(sc, g):
    return contract_loop(sc, g)


def _loop_h(sc, g, ylow, recF2):
    n = sc.n
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            _fill(out, (i, j), g[i, j] - ylow[i] * ylow[j] * recF2)
    return out


def _loop_C(sc, F2):
    n = sc.n
    out = np.empty((n, n, n), dtype=object)
    for i in range(n):
        di = F2.deriv(n + i)
        for j in range(i, n):
            dij = di.deriv(n + j)
            for k in range(j, n):
                _fill(out, (i, j, k), dij.deriv(n + k) * 0.25)
    return out


def _loop_I(sc, g_inv, C):
    n = sc.n
    out = np.empty((n,), dtype=object)
    for k in range(n):
        acc = None
        for i in range(n):
            for j in range(n):
                term = g_inv[i, j] * C[i, j, k]
                acc = term if acc is None else acc + term
        out[k] = acc
    return out


def _loop_G(sc, F2, g_inv):
    n = sc.n
    yj = y_seeds(sc)
    dx = [F2.deriv(k) for k in range(n)]
    brk = []
    for l in range(n):
        acc = None
        for k in range(n):
            term = dx[k].deriv(n + l) * yj[k]
            acc = term if acc is None else acc + term
        brk.append(acc - dx[l])
    out = np.empty((n,), dtype=object)
    for i in range(n):
        acc = g_inv[i, 0] * brk[0]
        for l in range(1, n):
            acc = acc + g_inv[i, l] * brk[l]
        out[i] = acc * 0.25
    return out


def _loop_N(sc, G):
    return vderiv_loop(sc, G)


def _loop_Gamma(sc, N):
    n = sc.n
    out = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                val = N[i, j].deriv(n + k)
                out[i, j, k] = val
                out[i, k, j] = val
    return out


def _loop_B(sc, Gamma):
    n = sc.n
    out = np.empty((n, n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(j, n):
                for l in range(k, n):
                    val = Gamma[i, j, k].deriv(n + l)
                    for p in set(itertools.permutations((j, k, l))):
                        out[(i,) + p] = val
    return out


def _loop_E(sc, B):
    n = sc.n
    out = np.empty((n, n), dtype=object)
    for j in range(n):
        for k in range(j, n):
            acc = B[0, j, k, 0]
            for m in range(1, n):
                acc = acc + B[m, j, k, m]
            _fill(out, (j, k), acc * 0.5)
    return out


def _loop_R1(sc, G, N, Gamma):
    n = sc.n
    yj = y_seeds(sc)
    dxG = [[G[i].deriv(k) for k in range(n)] for i in range(n)]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for k in range(n):
            acc = dxG[i][k] * 2.0
            for j in range(n):
                acc = acc - dxG[i][j].deriv(n + k) * yj[j]
                acc = acc + (G[j] * Gamma[i, j, k]) * 2.0
                acc = acc - N[i, j] * N[j, k]
            out[i, k] = acc
    return out


def _loop_Rhh(sc, R1):
    n = sc.n
    dR1 = [[[R1[i, k].deriv(n + l) for l in range(n)] for k in range(n)] for i in range(n)]
    out = np.empty((n, n, n, n), dtype=object)
    third = 1.0 / 3.0
    zero = None
    for i in range(n):
        for k in range(n):
            for l in range(k + 1, n):
                A = dR1[i][k][l] - dR1[i][l][k]
                for j in range(n):
                    val = A.deriv(n + j) * third
                    out[i, j, k, l] = val
                    out[i, j, l, k] = -1.0 * val
                    if zero is None:
                        zero = val * 0.0
    if zero is None:  # n == 1: no antisymmetric pairs exist
        zero = dR1[0][0][0].deriv(n) * 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[i, j, k, k] = zero
    return out


def _loop_L_B(sc, ylow, B):
    n = sc.n
    out = np.empty((n, n, n), dtype=object)
    for i in range(n):
        for j in range(i, n):
            for k in range(j, n):
                acc = ylow[0] * B[0, i, j, k]
                for m in range(1, n):
                    acc = acc + ylow[m] * B[m, i, j, k]
                _fill(out, (i, j, k), acc * (-0.5))
    return out


def _antisymmetric_loop(sc, T, scale=None):
    n = sc.n
    out = np.empty((n, n, n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(k, n):
                    val = T[i, j, k, l] - T[i, j, l, k]
                    val = val if scale is None else val * scale
                    out[i, j, k, l] = val
                    out[i, j, l, k] = -1.0 * val
    return out


def _loop_J_L(sc, g_inv, L_B):
    n = sc.n
    out = np.empty((n,), dtype=object)
    for i in range(n):
        acc = None
        for k in range(n):
            for l in range(n):
                term = g_inv[k, l] * L_B[i, k, l]
                acc = term if acc is None else acc + term
        out[i] = acc
    return out


def _loop_phi(sc, g_inv, L_C):
    n = sc.n
    T = L_C
    for _ in range(3):
        raised = np.empty((n, n, n), dtype=object)
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    acc = g_inv[a, 0] * T[0, b, c]
                    for s in range(1, n):
                        acc = acc + g_inv[a, s] * T[s, b, c]
                    raised[b, c, a] = acc
        T = raised
    acc = None
    for idx in np.ndindex((n, n, n)):
        term = T[idx] * L_C[idx]
        acc = term if acc is None else acc + term
    return acc


def _loop_frame2(sc, g, recF):
    ell = np.empty(2, dtype=object)
    yj = y_seeds(sc)
    for i in range(2):
        ell[i] = yj[i] * recF
    k0 = int(np.argmin(np.abs(np.asarray(sc.point.y))))
    glu = g[0, k0] * ell[0] + g[1, k0] * ell[1]
    mt = np.empty(2, dtype=object)
    for i in range(2):
        mt[i] = (1.0 if i == k0 else 0.0) + (-1.0) * glu * ell[i]
    nrm2 = None
    for i in range(2):
        for j in range(2):
            term = g[i, j] * mt[i] * mt[j]
            nrm2 = term if nrm2 is None else nrm2 + term
    inv = nrm2 ** (-0.5)
    m = np.empty(2, dtype=object)
    for i in range(2):
        m[i] = mt[i] * inv
    if ell[0].value * m[1].value - ell[1].value * m[0].value < 0:
        for i in range(2):
            m[i] = (-1.0) * m[i]
    return ell, m


def _loop_I2(sc, frame2, C, F):
    m = frame2[1]
    acc = None
    for i in range(2):
        for j in range(2):
            for k in range(2):
                term = C[i, j, k] * m[i] * m[j] * m[k]
                acc = term if acc is None else acc + term
    return F * acc


def _loop_mu2(sc, I2, N, recF):
    num = contract_loop(sc, hderiv_loop(sc, I2, (), N))
    return num * recF * I2.reciprocal()


def _loop_cratio(sc, Sigma, D, F):
    n = sc.n
    num = den = None
    for idx in np.ndindex((n,) * 4):
        FD = F * D[idx]
        t1 = Sigma[idx] * FD
        t2 = FD * FD
        num = t1 if num is None else num + t1
        den = t2 if den is None else den + t2
    return num / den


#: the entry-by-entry form of each ``FieldScope._build_<field>``, called as
#: ``loop(scope, *inputs)`` with the ledger inputs as jets (g0, ginv0 floats)
BUILD_LOOPS = {
    "F2": _loop_F2, "recF": _loop_recF, "recF2": _loop_recF, "g": _loop_g,
    "g_inv": _loop_g_inv, "ylow": _loop_ylow, "h": _loop_h, "C": _loop_C, "I": _loop_I,
    "G": _loop_G, "N": _loop_N, "Gamma": _loop_Gamma, "B": _loop_B, "E": _loop_E,
    "R1": _loop_R1, "Rhh": _loop_Rhh, "RhhV": vderiv_loop, "gv": vderiv_loop,
    "L_C": contract_loop, "L_B": _loop_L_B,
    "Sigma": lambda sc, Lh: _antisymmetric_loop(sc, Lh, 2.0),
    "D": _antisymmetric_loop, "J_L": _loop_J_L, "J_I": contract_loop, "phi": _loop_phi,
    "frame2": _loop_frame2, "I2": _loop_I2, "mu2": _loop_mu2, "cratio": _loop_cratio,
}


def mul_table_loop(alg):
    """The product table (mi, mj, mo) of ``alg``, built pair by pair."""
    mi, mj, mo = [], [], []
    for i, ei in enumerate(alg.exponents):
        limit = count_through_order(alg)[alg.order - sum(ei)]
        for j in range(limit):
            mi.append(i)
            mj.append(j)
            mo.append(alg.index[tuple(a + b for a, b in zip(ei, alg.exponents[j]))])
    return tuple(np.array(v, dtype=np.int64) for v in (mi, mj, mo))


def deriv_tables_loop(alg):
    """Per-variable derivative tables (src, dst, fac) of ``alg``, entry by entry."""
    tables = []
    for v in range(alg.n_vars):
        src, dst, fac = [], [], []
        for i, e in enumerate(alg.exponents):
            if e[v]:
                src.append(i)
                dst.append(alg.index[e[:v] + (e[v] - 1,) + e[v + 1:]])
                fac.append(e[v])
        tables.append((np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64),
                       np.array(fac, dtype=np.float64)))
    return tables
