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
form: the full-order Horner composition, the full-order solve of g X = 1
for g^{-1}, the Neumann series the library once used for g^{-1} (on
arrays, growing-order for g_inv and full-order for the spray by that
inverse, the routes before both were solved order by order), the
entry-by-entry horizontal and vertical derivatives, and one loop per
``FieldScope`` builder, each filling an object array of ``Jet`` one entry at
a time.  They use the same jet arithmetic, so tests require the library's
coefficient arrays to match them bit for bit.  It also keeps the
pair-by-pair build of the product and derivative tables, which the library
builds with array operations; the tables must be equal.  ``truncated`` and
``count_through_order`` are jet helpers only the tests use.  Last comes the
degree-aware lowering of seed programs (``dense_program``) that
support-aware products replaced: the programs must match it bit for bit on
finite data, and their pair counts are measured against its.  The
integrator's stage and error sums keep their generator folds over the
ragged Dormand-Prince tableau (``dopri_stage_fold``, ``dopri_error_fold``),
which its one-array reductions must match bit for bit, and a geodesic's
F_drift its recomputation at every node (``F_drift_nodes``), which the
maximum of the step gate's values must match bit for bit.  Transport keeps
its joint re-integration of (x, y, V) with V in the step control
(``joint_transport``), the accuracy reference for transports that ride the
geodesic's own steps; without a vector it is the geodesic at spray depth 0,
whose bytes the depth-1 run must give.  The multi-point drivers (the
along-geodesic checks, ``scalar_flows`` and the CLI's identities, bianchi,
landsberg-routes and report fits) keep their loops over one single-point
scope per sample, which their batched reads must match bit for bit, errors
and vacuous verdicts included; the report's principal-scalar loop reads the
2-D Berwald frame (``berwald_frame``), which the frame tests check too.
"""

import dataclasses
import functools
import itertools
import math
import operator

import numpy as np

from finslerlab import analysis, curvature, expr, jets, transport
from finslerlab.curvature import (
    _SPRAY_PARTIALS,
    SEED_CAP,
    PointState,
    _clears_gate,
    _deriv,
    _ensure_scope,
    _fold,
    _require_positive_definite,
    point_scope,
    rel_residual,
)
from finslerlab.errors import (
    BadConfig,
    DimensionError,
    DivisionByZero,
    DomainError,
    OutOfChart,
    RiemannianPoint,
    ShapeMismatch,
    SingularMetric,
    UnboundVariable,
    UndefinedFit,
)
from finslerlab.expr import Bin, Call, Name, Neg, Num, Op, Pow, Var, VecRef
from finslerlab.jets import Jet, _algebra, mul_rows, mul_seeds, seed_block
from finslerlab.transport import ScalarFlow


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
    included, as lists (x_jets, y_jets): the rows of ``jets.seed_block``,
    each with its seed's support."""
    rows = seed_block(alg, [float(v) for v in x0], [float(v) for v in y0])
    seeds = [Jet(alg, row, support) for row, support in zip(rows, alg.seed_supports)]
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


def series_full(horner, series_of, a, _):
    """Horner evaluation of sum series[k] * u^k, every step at the order of
    the algebra of ``horner`` and on every monomial, with u the jet ``a``
    less its value and ``series`` what ``series_of`` builds at that value.

    Same signature as the series kernel ``jets._series``, so a test can
    patch it in and run the library's own series constructors (sqrt, exp,
    powers, ...).
    """
    alg = horner.alg
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


def _padded(jet, alg):
    """The coefficients of ``jet`` zero-padded into the higher-order algebra
    ``alg`` of the same cap; not a Taylor extension."""
    c = np.zeros(alg.size)
    c[: jet.alg.size] = jet.coef
    return Jet(alg, c, jet.deg)


def _identity_jets(alg, n):
    """The n x n identity matrix as jets of ``alg``, each of full support."""
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            c = np.zeros(alg.size)
            c[0] = float(i == j)
            out[i, j] = Jet(alg, c)
    return out


def g_inv_full(scope):
    """The scope's g^{-1} by the solve of ``FieldScope._solve``, every step
    at g's order: X = ginv0 (1 - dev X), order + 1 times from X = 0."""
    n = scope.n
    g = field_jets(scope, "g")
    inv0 = scope.field("ginv0")[..., 0]
    alg = g[0, 0].alg
    eye = _identity_jets(alg, n)
    dev = [[g[i, l] - g[i, l].value for l in range(n)] for i in range(n)]
    X = None
    for t in range(alg.order + 1):
        rhs = eye.copy()
        if t:
            for l in range(n):
                for j in range(n):
                    prod = None
                    for m in range(n):
                        term = dev[l][m] * X[m, j]
                        prod = term if prod is None else prod + term
                    rhs[l, j] = eye[l, j] - prod
        X = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                acc = inv0[i, 0] * rhs[0, j]
                for l in range(1, n):
                    acc = acc + inv0[i, l] * rhs[l, j]
                X[i, j] = acc
    return X


def neumann_g_inv(scope, alg, g, ginv0):
    """``FieldScope._build_g_inv`` by the Neumann series, the route g_inv
    took before it shared G's solve: X_t = g0^{-1} + M X_{t-1} with
    M = -g0^{-1}(g - g0), iteration t in the order-t algebra, X_{t-1}
    zero-padded, on the arrays of P points."""
    dev = g.copy()
    dev[..., 0] -= g[..., 0]
    M = _fold(-ginv0[:, k, None, :, None] * dev[k] for k in range(scope.n))  # [i, j]
    X = ginv0[..., None]
    for t in range(1, alg.order + 1):
        at = scope._at(t, alg.cap)
        Xt = np.zeros(X.shape[:-1] + (at.size,))
        Xt[..., : X.shape[-1]] = X
        products = mul_rows(at, M[:, :, None], Xt)  # [i, k, j] = M_ik X_kj
        X = _fold(np.swapaxes(products, 0, 1))
        X[..., 0] += ginv0
        X[..., 1:] += 0.0
    return X


def neumann_G(scope, alg, F2, g, ginv0):
    """``FieldScope._build_G`` by the Neumann route: g^{-1} as the series of
    ``g_inv_full``, every iteration at G's order, on the arrays of P points,
    contracted with the bracket b_l = y^k d^2F^2/dx^k dy^l - dF^2/dx^l."""
    a2 = scope._deeper(alg, 2, 1)
    dx = _deriv(a2, F2, scope._xs)
    yterms = mul_seeds(alg, scope._vd(dx, a2.lowered(0)), scope._y0, axis=0)
    brk = _fold(yterms) - dx[..., : alg.size]
    dev = g.copy()
    dev[..., 0] = 0.0
    M = _fold(-ginv0[:, k, None, :, None] * dev[k] for k in range(scope.n))  # [i, j]
    base = np.zeros(g.shape)
    base[..., 0] = ginv0
    X = base
    for _ in range(alg.order):
        X = base + _fold(np.swapaxes(mul_rows(alg, M[:, :, None], X), 0, 1))
    return _fold(np.swapaxes(mul_rows(alg, X, brk), 0, 1)) * 0.25


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


def _loop_solve(g, ginv0, b):
    """``FieldScope._solve`` jet by jet: X with g X = b, where b[l] lists
    the jets of row l, one per column, by X_t = ginv0 (b - dev X_{t-1}) in
    the order-t algebra, X_{t-1} zero-padded; X[i][c] is a jet."""
    n = len(b)
    cols = range(len(b[0]))
    alg = b[0][0].alg
    dev = [[g[i, l] - g[i, l].value for l in range(n)] for i in range(n)]
    X = None
    for t in range(alg.order + 1):
        alg_t = _algebra(alg.n_vars, t, alg.cap)
        rhs = []
        for l in range(n):
            row = []
            for c in cols:
                acc = truncated(b[l][c], t)
                if t:
                    prod = None
                    for m in range(n):
                        term = truncated(dev[l][m], t) * _padded(X[m][c], alg_t)
                        prod = term if prod is None else prod + term
                    acc = acc - prod
                row.append(acc)
            rhs.append(row)
        X = []
        for i in range(n):
            row = []
            for c in cols:
                acc = ginv0[i, 0] * rhs[0][c]
                for l in range(1, n):
                    acc = acc + ginv0[i, l] * rhs[l][c]
                row.append(acc)
            X.append(row)
    return X


def _loop_g_inv(sc, g, ginv0):
    return np.array(_loop_solve(g, ginv0, _identity_jets(g[0, 0].alg, sc.n).tolist()), dtype=object)


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


def _loop_G(sc, F2, g, ginv0):
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
    u = _loop_solve(g, ginv0, [[b] for b in brk])
    return np.array([ui[0] * 0.25 for ui in u], dtype=object)


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


# --------------------------------------------------------------------------
# the degree-aware lowering of seed programs that support-aware products
# replaced: every slot carries a degree, and a product of degrees p and q
# sums the whole product table of the order-(p + q) algebra of the same cap,
# zero-padded; Horner step k runs in the order-(K - k) algebra


def _dense_algebra(alg, d):
    """Algebra and degree of a product of jets of ``alg`` whose degrees sum
    to d: the order-d algebra of the same cap while d < K, else ``alg``."""
    if d < alg.order:
        return _algebra(alg.n_vars, d, alg.cap), d
    return alg, alg.order


def _dense_convolve(product, size, a, b):
    mi, mj, mo = product.mul_table
    return np.bincount(mo, a[mi] * b[mj], size)


def _dense_horner(alg):
    """The Horner algebras of orders 1 .. K and the pairs their steps sum:
    the steps run in those of orders 2 .. K."""
    algebras = [_algebra(alg.n_vars, d, alg.cap) for d in range(1, alg.order + 1)]
    return algebras, sum(a.mul_table[0].size for a in algebras[1:])


def _dense_series(alg, series_of, a, _):
    series = series_of(a.item(0), alg.order)
    K = alg.order
    top = min(len(series) - 1, K)
    if top == 0:
        out = np.zeros(alg.size)
        out[0] = float(series[0])
        return out
    u = a.copy()
    u[0] = 0.0
    horner = _dense_horner(alg)[0]
    size = horner[K - top].size
    out = np.zeros(horner[K - top + 1].size if top > 1 else size)
    out[:size] = u[:size] * series[top] + 0.0
    out[0] += series[top - 1]
    for k in range(top - 2, -1, -1):
        out = _dense_convolve(horner[K - k - 1], horner[K - k].size if k else alg.size, out, u)
        out[0] += series[k]
    return out


def _dense_step(kind, alg, d, other):
    """(kernel, degree, pairs) of one tape op, as ``jets.step`` lowered it
    by degrees."""
    K, size = alg.order, alg.size
    recip = functools.partial(_dense_series, alg, jets.reciprocal_series)
    horner_pairs = _dense_horner(alg)[1]
    if other is None:
        if kind == "neg":
            return (lambda a, _: -a), d, 0
        return functools.partial(_dense_series, alg, jets.SERIES[kind]), K, horner_pairs
    if not isinstance(other, float):
        if kind == "*":
            product, e = _dense_algebra(alg, d + other)
            return functools.partial(_dense_convolve, product, size), e, product.mul_table[0].size
        if kind == "/":
            return (lambda a, b: _dense_convolve(alg, size, a, recip(b, b))), K, \
                alg.mul_table[0].size + horner_pairs
        f = operator.add if kind == "+" else (lambda a, b: a + -b)
        return f, min(max(d, other), K), 0
    s = other
    if kind in ("+", "-", "r-"):
        shift, sign = (s, 1.0) if kind == "+" else (-s, 1.0) if kind == "-" else (s, -1.0)

        def shifted(a, _):
            out = a.copy() if sign > 0 else -a
            out[0] += shift
            return out

        return shifted, d, 0
    if kind in ("*", "/"):
        if kind == "/":
            try:
                s = 1.0 / s
            except ZeroDivisionError as e:
                def fail(a, _, message=str(e)):
                    raise DivisionByZero(message)
                return fail, d, 0
        return (lambda a, _: a * s), d if math.isfinite(s) else K, 0
    if kind == "r/":
        return (lambda a, _: recip(a, a) * s), K, horner_pairs
    if not s.is_integer():  # "^"
        return (functools.partial(_dense_series, alg, functools.partial(jets.power_series, s)),
                K, horner_pairs)
    m = int(s)
    if m == 0:
        def one(a, _):
            out = np.zeros(size)
            out[0] = 1.0
            return out
        return one, 0, 0
    degs, products, pairs = [d if m > 0 else K], [], horner_pairs if m < 0 else 0
    for i, j in jets.power_chain(abs(m)):
        product, e = _dense_algebra(alg, degs[i] + degs[j])
        products.append((i, j, functools.partial(_dense_convolve, product, size)))
        pairs += product.mul_table[0].size
        degs.append(e)

    def power(a, _):
        regs = [a if m > 0 else recip(a, a)]
        for i, j, product in products:
            regs.append(product(regs[i], regs[j]))
        return regs[-1]

    return power, degs[-1], pairs


@dataclasses.dataclass(frozen=True)
class DenseProgram:
    """A tape lowered by degrees: steps as in ``expr.JetProgram``, the
    result's degree (None for a constant formula) and the pairs one run sums."""

    steps: tuple
    deg: object
    pairs: int


def dense_program(tape, alg):
    """The seed program of ``tape`` in ``alg`` by the degree rule, every input
    of degree ``min(1, alg.order)``."""
    n2 = 2 * tape.n
    deg = [min(1, alg.order)] * n2 + [None] * len(tape.init)
    steps, pairs = [], 0
    for f, i, j, k in tape.ops:
        kind = expr._KIND[f]
        if deg[i] is None:
            kernel, d, p = _dense_step({"-": "r-", "/": "r/"}.get(kind, kind), alg, deg[j],
                                       float(tape.init[i - n2]))
            i = j
        elif deg[j] is None:
            kernel, d, p = _dense_step(kind, alg, deg[i], float(tape.init[j - n2]))
            j = i
        else:
            kernel, d, p = _dense_step(kind, alg, deg[i], None if kind in FUNCTIONS + ("neg",)
                                       else deg[j])
        steps.append((kernel, i, j, k))
        deg[k] = d
        pairs += p
    return DenseProgram(tuple(steps), deg[tape.out], pairs)


def dense_run(tape, program, rows):
    """Run a :func:`dense_program` on the inputs' coefficient rows."""
    vals = [*rows, *tape.init]
    for f, i, j, k in program.steps:
        vals[k] = f(vals[i], vals[j])
    return vals[tape.out]


# --- the Dormand-Prince sums as generator folds ---

#: the tableau's stage rows as the step loop once held them, ragged
DOPRI_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]


def dopri_stage_fold(stage, k):
    """sum_j a_sj k_j of stage ``stage`` over the stage vectors ``k``."""
    return sum(a * ki for a, ki in zip(DOPRI_A[stage], k))


def dopri_error_fold(b5, b4, k):
    """sum_j (b5_j - b4_j) k_j, the unscaled embedded error estimate."""
    return sum((x5 - x4) * ki for x5, x4, ki in zip(b5, b4, k))


def F_drift_nodes(metric, F0, x, y):
    """Largest relative deviation of F(x_i, y_i) from F0 over the rows of x
    and y, F evaluated again at every node."""
    Fs = np.array([float(metric.F(tuple(xi), tuple(yi))) for xi, yi in zip(x, y)])
    return float(np.max(np.abs(Fs - F0)) / F0)


def joint_transport(metric, geodesic, V0=None, mode="linear", tol=1e-10, node=-1):
    """The joint (x, y, V) system re-integrated from ``geodesic``'s initial
    data up to its node ``node``, with G read at depth 0 and V's error in
    the step control, as transports once ran; without V0 the geodesic
    alone, whose right-hand side is then the depth-0 one.  Returns the step
    loop's path.
    """
    n, sign, F0 = metric.n, geodesic._sign, geodesic.F0
    V0 = np.zeros(0) if V0 is None else np.asarray(V0, dtype=float)

    def rhs(_t, z):
        x, y, V = z[:n], z[n : 2 * n], z[2 * n :]
        G = curvature.spray_values(metric, x, y)[1]
        if not V.size:
            dV = V
        elif mode == "linear":
            dV = -curvature.spray_values(metric, x, y, 1)[2] @ V
        else:
            dV = -curvature.spray_values(metric, x, V, 1)[2] @ y
        return np.concatenate([sign * y, -2.0 * sign * G, sign * dV])

    return transport._integrate(
        rhs,
        np.concatenate([geodesic.x[0], geodesic.y[0], V0]),
        abs(float(geodesic.t[node]) - float(geodesic.t[0])),
        tol,
        invariant=lambda z: abs(float(metric.F(z[:n], z[n : 2 * n])) - F0) / F0,
        inside=lambda z: metric.chart.contains(z[:n]),
    )


# --------------------------------------------------------------------------
# per-sample scope loops: the along-geodesic drivers, scalar_flows and the
# CLI's bianchi, landsberg-routes and report fits before they read their
# samples through one batched scope (analysis._point_reads)


def _geodesic_points(geodesic, samples):
    ts = np.linspace(float(geodesic.t[0]), geodesic.t_final, samples)
    return ts, [geodesic.state(t) for t in ts]


def characteristic_constancy_loop(metric, geodesic, samples=15, tolerance=1e-6):
    ts, points = _geodesic_points(geodesic, samples)
    ps = []
    for x, y in points:
        sc = point_scope(metric, PointState(x=x, y=y), order=3)
        ps.append(analysis._semi_c_fit(metric.n, sc.values).p)
    ps = np.asarray(ps)
    variation = float(np.max(np.abs(ps - ps[0])))
    pprime = np.gradient(ps, ts)
    return analysis.IdentityCheckResult(
        verdict="pass" if variation <= tolerance else "fail",
        residuals={"variation": variation, "pprime_max": float(np.max(np.abs(pprime)))},
        data={"t": ts, "p": ps, "pprime": pprime},
    )


def principal_scalar_loop(metric, geodesic, samples=15, tolerance=1e-5):
    ts, points = _geodesic_points(geodesic, samples)
    mus, mups, Qs, cs, Fs = [], [], [], [], []
    for t, (x, y) in zip(ts, points):
        sc = point_scope(metric, PointState(x=x, y=y), order=5)
        try:
            mup = sc.directional("mu2")
            cval = sc.values("cratio")
        except (RiemannianPoint, UndefinedFit) as err:
            return analysis.IdentityCheckResult(
                verdict="vacuous",
                residuals={},
                data={"reason": str(err), "t_failed": float(t)},
            )
        mu = sc.values("mu2")
        F = sc.values("F")
        mus.append(mu)
        mups.append(mup)
        cs.append(cval)
        Fs.append(F)
        Qs.append(2.0 * mup + 2.0 * mu * mu * F - cval * mu * F)
    scale = max(
        max(abs(2.0 * m_ * m_ * f) for m_, f in zip(mus, Fs)),
        max(abs(2.0 * m_) for m_ in mups),
        max(abs(cv * m_ * f) for cv, m_, f in zip(cs, mus, Fs)),
        analysis._FLOOR,
    )
    residual = float(np.max(np.abs(Qs)) / scale)
    return analysis.IdentityCheckResult(
        verdict="pass" if residual <= tolerance else "fail",
        residuals={"relation": residual},
        data={
            "t": ts,
            "mu": np.asarray(mus),
            "mu_prime": np.asarray(mups),
            "Q": np.asarray(Qs),
            "c": np.asarray(cs),
            "F": np.asarray(Fs),
        },
    )


def stretch_dichotomy_loop(metric, geodesic, samples=15, tolerance=1e-5, spread_tolerance=1e-4):
    ts, points = _geodesic_points(geodesic, samples)
    rows = {"c": [], "c_prime": [], "lambda": [], "W": [], "bracket": []}
    resids = []
    for t, (x, y) in zip(ts, points):
        sc = point_scope(metric, PointState(x=x, y=y), order=6)
        try:
            cp = sc.directional("cratio")
        except UndefinedFit as err:
            return analysis.IdentityCheckResult(
                verdict="vacuous",
                residuals={},
                data={"reason": str(err), "t_failed": float(t)},
            )
        cv = sc.values("cratio")
        F = sc.values("F")
        lam, _ = analysis._isotropic_lambda(
            sc.values("R1"), F, np.asarray(y, dtype=float), sc.values("ylow"), spread_tolerance
        )
        A = 2.0 * lam * F / cv
        bracket = -lam * F * F - A * (cp + A)
        W = 2.0 * cv * cp + cv * cv * F + 4.0 * lam * F
        scale = max(abs(lam) * F * F, abs(A * cp), A * A, analysis._FLOOR)
        resids.append(abs(bracket) / scale)
        rows["c"].append(cv)
        rows["c_prime"].append(cp)
        rows["lambda"].append(lam)
        rows["W"].append(W)
        rows["bracket"].append(bracket)
    residual = float(np.max(resids))
    return analysis.IdentityCheckResult(
        verdict="pass" if residual <= tolerance else "fail",
        residuals={"bracket": residual},
        data={"t": ts, **{k: np.asarray(v) for k, v in rows.items()}},
    )


def scalar_flows_loop(metric, geodesic, quantities=("phi", "L_norm"), c=None, samples=25):
    ts = np.linspace(float(geodesic.t[0]), geodesic.t_final, samples)
    names = list(quantities)
    if c is not None:
        names += [q for q in ("phi", "phidot") if q not in names]
    cols = {name: np.full(samples, np.nan) for name in names}
    cols["F"] = np.full(samples, np.nan)
    status = {name: "ok" for name in names}
    xs = np.empty((samples, metric.n))
    ys = np.empty((samples, metric.n))
    for row, t in enumerate(ts):
        x, y = geodesic.state(float(t))
        xs[row] = x
        ys[row] = y
        scope = point_scope(metric, PointState(tuple(x), tuple(y)), 5)
        cols["F"][row] = scope.values("F")
        for name in names:
            if status[name] != "ok":
                continue
            try:
                if name == "phi":
                    cols[name][row] = scope.values("phi")
                elif name == "phidot":
                    cols[name][row] = scope.directional("phi")
                elif name == "L_norm":
                    cols[name][row] = math.sqrt(max(scope.values("phi"), 0.0))
                elif name == "p":
                    cols[name][row] = analysis._semi_c_fit(metric.n, scope.values).p
                elif name == "c":
                    cols[name][row] = scope.values("cratio")
                else:
                    cols[name][row] = scope.values("mu2")
            except Exception as e:  # noqa: BLE001 - per-quantity isolation
                status[name] = f"{type(e).__name__}: {e}"
    if c is not None and status.get("phi") == "ok" and status.get("phidot") == "ok":
        cF = c * cols["F"]
        cols["flow_resid"] = cols["phidot"] - cF * cols["phi"]
        cols["flow_resid_doubled"] = cols["phidot"] - 2.0 * cF * cols["phi"]
        status["flow_resid"] = "ok"
        status["flow_resid_doubled"] = "ok"
    return ScalarFlow(t=ts, x=xs, y=ys, columns=cols, status=status)


def bianchi_rows_loop(metric, args):
    rows = []
    for idx, st in enumerate(analysis.sample_states(metric, args.samples, args.seed)):
        sc = point_scope(metric, st, 7)
        RhhV = sc.values("RhhV")
        Bh = sc.values("Bh")
        rhs = np.einsum("ijmlk->ijklm", Bh) - np.einsum("ijmkl->ijklm", Bh)
        rows.append(("curvature-derivative", idx, rel_residual(RhhV, rhs, floor=1.0), args.tol))
        pred = np.einsum("i,ijklm->jmkl", sc.values("ylow"), RhhV)
        rows.append(
            ("stretch-from-curvature", idx, rel_residual(sc.values("Sigma"), pred, floor=1.0), args.tol)
        )
    return rows


def identity_rows_loop(metric, args):
    """The identities suite as it once ran: a bundle's inline diagnostics,
    with their own floors, in one order-7 scope per sample."""
    rows = []
    for idx, st in enumerate(analysis.sample_states(metric, args.samples, args.seed)):
        sc = point_scope(metric, st, 7)
        y = np.asarray(st.y)
        F = sc.values("F")
        C, L_B, Rhh, R1, Sigma = (sc.values(k) for k in ("C", "L_B", "Rhh", "R1", "Sigma"))

        def norm(T):
            return float(np.max(np.abs(T)))

        def routes(a, b):
            return rel_residual(a, b, floor=max(1.0, norm(a)))

        diag = {"horizontal_F": norm(sc.values("Fh")) / F}
        for key, T in (("cartan_y_trace", C), ("landsberg_y_trace", L_B)):
            diag[key] = rel_residual(np.einsum("i,ijk->jk", y, T), floor=max(norm(T), 1.0))
        diag["landsberg_routes"] = routes(L_B, sc.values("L_C"))
        diag["mean_landsberg_routes"] = routes(sc.values("J_L"), sc.values("J_I"))
        diag["riemann_y_trace"] = rel_residual(
            np.einsum("j,l,ijkl->ik", y, y, Rhh), R1, floor=max(norm(R1), 1.0))
        sigma_b = np.einsum("i,ijklm->jmkl", sc.values("ylow"), sc.values("RhhV"))
        diag["stretch_bianchi"] = rel_residual(Sigma, sigma_b, floor=max(norm(Sigma), 1.0))
        rows += [(name, idx, value, args.tol) for name, value in diag.items()]
    return rows


def landsberg_rows_loop(metric, args):
    rows = []
    for idx, st in enumerate(analysis.sample_states(metric, args.samples, args.seed)):
        sc = point_scope(metric, st, 5)
        rows += [
            ("landsberg-two-routes", idx,
             rel_residual(sc.values("L_C"), sc.values("L_B"), floor=1.0), args.tol),
            ("mean-landsberg-two-routes", idx,
             rel_residual(sc.values("J_I"), sc.values("J_L"), floor=1.0), args.tol),
            ("metric-h-derivative", idx,
             rel_residual(sc.values("gh"), -2.0 * sc.values("L_C"), floor=1.0), args.tol),
            ("metric-v-derivative", idx,
             rel_residual(sc.values("gv"), 2.0 * sc.values("C"), floor=1.0), args.tol),
        ]
    return rows


@dataclasses.dataclass(frozen=True)
class BerwaldFrame2D:
    """Orthonormal frame (ell, m) at a point of a 2-D metric.

    ell = y/F is the unit flagpole, m the g-unit vector orthogonal to it
    with det[ell m] > 0.  The Cartan tensor collapses onto the frame:
    C_ijk = F^-1 I m_i m_j m_k with m_i the g-lowered components, so the
    scalars I and mu = I_{|s} y^s / (F I) capture all of the torsion.
    """

    ell: np.ndarray
    m: np.ndarray
    m_low: np.ndarray
    I_scalar: float
    I_vert: float            # F I_{.i} m^i, vertical variation of I across the fibre
    mu: float = None         # filled only when requested (undefined at Riemannian points)


def berwald_frame(metric, point, scope=None, with_mu=False):
    """Orthonormal frame and principal-scalar data at a point of a 2-D metric,
    one single-point scope's reads (or ``scope``'s).

    The frame and I are defined for every metric; mu is only computed when
    ``with_mu`` is set and raises RiemannianPoint where I vanishes.
    """
    if metric.n != 2:
        raise DimensionError(f"frame needs n = 2, got n = {metric.n}")
    reads = ("frame2", "g", "F", "I2", ("vderiv", "I2")) + (("mu2",) if with_mu else ())
    sc = _ensure_scope(metric, point, scope, "frame", reads)
    dI = sc.vderiv("I2")
    ell, m = sc.values("frame2")
    g = sc.values("g")
    F = sc.values("F")
    I_vert = F * sum(dI[i] * m[i] for i in range(2))
    mu = sc.values("mu2") if with_mu else None
    return BerwaldFrame2D(
        ell=ell,
        m=m,
        m_low=g @ m,
        I_scalar=sc.values("I2"),
        I_vert=float(I_vert),
        mu=mu,
    )


def report_torsion_fit_loop(metric, states):
    """(key, entry) of a report's torsion fit: "semi_c" for n >= 3, else
    "principal_scalar", one scope per state through the single-point calls."""
    if metric.n >= 3:
        try:
            rows = [analysis.fit_semi_c_reducible(metric, st) for st in states]
            return "semi_c", {
                "p_values": [r.p for r in rows],
                "residual_max": max(r.residual for r in rows),
            }
        except (RiemannianPoint, UndefinedFit) as e:
            return "semi_c", {"error": f"{type(e).__name__}: {e}"}
    try:
        frames = [berwald_frame(metric, st, with_mu=True) for st in states]
        return "principal_scalar", {
            "I_values": [f.I_scalar for f in frames],
            "mu_values": [f.mu for f in frames],
        }
    except (RiemannianPoint, DimensionError) as e:
        return "principal_scalar", {"error": f"{type(e).__name__}: {e}"}
