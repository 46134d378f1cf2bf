"""Independent numerical oracles used by the test-suite.

Most of this is deliberately dumb and derivative-free of the library
internals: central finite differences, textbook closed forms, and plain
ODE integration.  Tests compare engine output against these.

The last section keeps the straightforward jet-by-jet forms of the kernel
steps and field builders that the library runs in truncated or batched
form: the full-order Horner composition, the full-order Neumann inverse,
the entry-by-entry horizontal and vertical derivatives, and one loop per
``FieldScope`` builder, each filling an object array of ``Jet`` one entry at
a time.  They use the same jet arithmetic, so tests require the library's
coefficient arrays to match them bit for bit.  It also keeps the
pair-by-pair build of the product and derivative tables, which the library
builds with array operations; the tables must be equal.
"""

import itertools
import math

import numpy as np

from finslerlab.jets import Jet, _algebra


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


def jet_partial(jet, alpha):
    """The mixed partial d^alpha f at the base point: coefficient times alpha!."""
    return jet.coefficient(alpha) * math.prod(math.factorial(e) for e in alpha)


def as_jets(scope, T, alg=None):
    """A scope's coefficient array (*shape, size) as one Jet per entry; a
    scalar field comes back as one Jet.  ``alg`` is the array's jet algebra,
    by default that of the cached field T is."""
    alg = scope._alg_of(T) if alg is None else alg
    if T.ndim == 1:
        return Jet(alg, T.copy())
    out = np.empty(T.shape[:-1], dtype=object)
    for idx in np.ndindex(out.shape):
        out[idx] = Jet(alg, T[idx].copy())
    return out


def as_coefs(T):
    """Coefficient array of a Jet, an object array of jets or a tuple of
    them; float arrays pass through."""
    if isinstance(T, Jet):
        return T.coef
    if isinstance(T, tuple):
        return np.stack([as_coefs(t) for t in T])
    if T.dtype != object:
        return T
    return np.array([j.coef for j in T.flat]).reshape(T.shape + (-1,))


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
    g = as_jets(scope, scope.field("g"))
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


def hderiv_loop(scope, T, valence=(), N=None, Gamma=None):
    """Berwald horizontal derivative of jets T, one jet product at a time;
    N and Gamma default to the scope's fields at full order."""
    n = scope.n
    N = as_jets(scope, scope.field("N")) if N is None else N
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
        Gamma = as_jets(scope, scope.field("Gamma"))
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


def contract_loop(scope, H):
    """Trailing slot of jets H contracted with the y seeds, entry by entry."""
    n = scope.n
    shape = H.shape[:-1]
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        acc = H[idx + (0,)] * scope.yj[0]
        for s in range(1, n):
            acc = acc + H[idx + (s,)] * scope.yj[s]
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
                Mt[i, j] = M[i, j].truncated(t)
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
    dx = [F2.deriv(k) for k in range(n)]
    brk = []
    for l in range(n):
        acc = None
        for k in range(n):
            term = dx[k].deriv(n + l) * sc.yj[k]
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
    dxG = [[G[i].deriv(k) for k in range(n)] for i in range(n)]
    out = np.empty((n, n), dtype=object)
    for i in range(n):
        for k in range(n):
            acc = dxG[i][k] * 2.0
            for j in range(n):
                acc = acc - dxG[i][j].deriv(n + k) * sc.yj[j]
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
    for i in range(2):
        ell[i] = sc.yj[i] * recF
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
