"""Independent numerical oracles used by the test-suite.

Most of this is deliberately dumb and derivative-free of the library
internals: central finite differences, textbook closed forms, and plain
ODE integration.  Tests compare engine output against these.

The last section keeps the straightforward jet-by-jet forms of four
kernel steps that the library runs in truncated or batched form: the
full-order Horner composition, the full-order Neumann inverse and the
entry-by-entry horizontal and vertical derivatives.  They use the same jet arithmetic,
so tests require the library to match them bit for bit.  It also keeps the
pair-by-pair build of the product and derivative tables, which the library
builds with array operations; the tables must be equal.
"""

import math

import numpy as np

from finslerlab.jets import Jet


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
# full-order reference forms of truncated / batched kernel steps


def compose_full(jet, series):
    """Horner evaluation of sum series[k] * u^k, every step at the jet's order.

    Same signature as ``Jet._compose``, so a test can patch it in and run
    the library's own series constructors (sqrt, exp, powers, ...).
    """
    u = Jet(jet.alg, jet.coef.copy())
    u.coef[0] = 0.0
    out = Jet.constant(jet.alg, series[-1])
    for k in range(len(series) - 2, -1, -1):
        out = out * u + series[k]
    return out


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


def g_inv_full(scope):
    """Neumann-series inverse of the scope's g, every iteration at g's order."""
    n = scope.n
    g = scope.field("g")
    inv0 = scope.field("ginv0")
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


def hderiv_loop(scope, T, valence=()):
    """Berwald horizontal derivative of T, one jet product at a time."""
    n = scope.n
    N = scope.field("N")
    if isinstance(T, Jet):
        out = np.empty((n,), dtype=object)
        dy = [T.deriv(n + m) for m in range(n)]
        for k in range(n):
            acc = T.deriv(k)
            for m in range(n):
                acc = acc - N[m, k] * dy[m]
            out[k] = acc
        return out
    Gamma = scope.field("Gamma")
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


def mul_table_loop(alg):
    """The product table (mi, mj, mo) of ``alg``, built pair by pair."""
    mi, mj, mo = [], [], []
    for i, ei in enumerate(alg.exponents):
        limit = alg.count_through_order[alg.order - sum(ei)]
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
