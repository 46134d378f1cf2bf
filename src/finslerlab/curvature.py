"""Curvature tower of a Finsler metric at one point of the slit tangent bundle.

Everything is computed from truncated jets of F^2 seeded at (x, y).  A
:class:`FieldScope` owns the seeds and lazily builds named tensor fields
whose entries are jets; public functions extract float-valued blocks.

Conventions (indices i,j,k,...; ``_{.k}`` vertical, ``_{|k}`` horizontal):

* g_ij      = 1/2 d^2 F^2 / dy^i dy^j
* C_ijk     = 1/4 d^3 F^2 / dy^i dy^j dy^k,  I_k = g^{ij} C_ijk
* h_ij      = g_ij - F^{-2} y_i y_j
* G^i       = 1/4 g^{il} (y^k d^2F^2/dx^k dy^l - dF^2/dx^l)
* N^i_j     = dG^i/dy^j,  Gamma^i_jk = dN^i_j/dy^k,  B^i_jkl = dGamma^i_jk/dy^l
* E_jk      = 1/2 B^m_jkm
* R^i_k     = 2 dG^i/dx^k - y^j d^2G^i/dx^j dy^k + 2 G^j Gamma^i_jk - N^i_j N^j_k
* R_j^i_kl  = 1/3 (R^i_{k.l} - R^i_{l.k})_{.j}
* L_ijk     = -1/2 y_m B^m_ijk  (equivalently C_{ijk|s} y^s)
* J_i       = g^{kl} L_ikl      (equivalently I_{i|s} y^s)
* Sigma_ijkl= 2 (L_{ijk|l} - L_{ijl|k})
* K(y, u)   = g(u, R(u)) / (g(y,y) g(u,u) - g(y,u)^2)  with R(u)^i = R^i_k u^k

The horizontal derivative uses the Berwald connection: for a scalar f,
f_{|k} = df/dx^k - N^m_k df/dy^m; tensor slots add/subtract Gamma terms.
It runs on stacked coefficient arrays, one row-wise product per term, and
adds the terms in the order of the entry-by-entry jet formula.  The
vertical derivative is one row-wise derivative per y slot.

The inverse metric is the Neumann series X_t = g0^{-1} + M X_{t-1} with
M = -g0^{-1}(g - g0), run in growing order: M has no constant term, so X_t
is exact through order t, and iteration t runs in the order-t algebra.
Both give the same coefficients as the full-order jet loops, bit for bit.

Truncation orders come from the executable ledger ``LEDGER``: each field
names its inputs and how many derivatives it takes of each, ``DEPTH`` and
``MIN_ORDER`` follow from it, and every scope builds a field only to the
deepest order any reader in the ledger asks of it (``_plan``).  Dropping
the coefficients above that order is an exact truncation: every
coefficient left is summed from the same pairs in the same order, so it is
the prefix of the full-order field bit for bit.

The direct spray path (``spray_values`` and the integrators) builds no
scope.  It reads float partials of F^2 from one jet and solves A u = b with
A = g, b_l = y^k d^2F^2/dx^k dy^l - dF^2/dx^l and u = 4G, then differentiates
that system in y:

* u_{,j}  = A^{-1} (b_{,j} - A_{,j} u),                              N = u_{,j}/4
* u_{,jk} = A^{-1} (b_{,jk} - A_{,jk} u - A_{,j} u_{,k} - A_{,k} u_{,j}),  Gamma = u_{,jk}/4

g and G need F^2 at order 2, N at order 3 (third partials yyy, xyy), Gamma
at order 4 (fourth partials yyyy, xyyy).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    BadConfig,
    CrossCheckFailure,
    DegenerateFlag,
    DimensionError,
    OrderExceeded,
    OutOfChart,
    RiemannianPoint,
    ShapeMismatch,
    SingularMetric,
    UndefinedFit,
    ZeroVector,
)
from .jets import Jet, JetConfig, _algebra, deriv_rows, mul_rows, seed_variables

BUNDLE_ORDER = 7

#: The truncation ledger: each field's inputs as (input, extra depth).  Built
#: at jet order p, a field reads each input through order p + depth, the
#: number of derivatives its builder takes of that input.  ``_build_<field>``
#: takes the inputs in this order and under these names; F reads the seeds.
#: gv and RhhV are vertical derivatives of g and Rhh; the horizontal
#: derivatives (``HDERIVS``) join the ledger below it.
LEDGER = {
    "F": (),
    "F2": (("F", 0),),
    "recF": (("F", 0),),
    "recF2": (("F2", 0),),
    "g": (("F2", 2),),
    "g0": (("g", 0),),
    "ginv0": (("g0", 0),),
    "g_inv": (("g", 0), ("ginv0", 0)),
    "ylow": (("g", 0),),
    "h": (("g", 0), ("ylow", 0), ("recF2", 0)),
    "C": (("F2", 3),),
    "I": (("g_inv", 0), ("C", 0)),
    "G": (("F2", 2), ("g_inv", 0)),
    "N": (("G", 1),),
    "Gamma": (("N", 1),),
    "B": (("Gamma", 1),),
    "E": (("B", 0),),
    "R1": (("G", 2), ("N", 0), ("Gamma", 0)),
    "Rhh": (("R1", 2),),
    "RhhV": (("Rhh", 1),),
    "gv": (("g", 1),),
    "L_C": (("Ch", 0),),
    "L_B": (("ylow", 0), ("B", 0)),
    "Sigma": (("Lh", 0),),
    "D": (("Ch", 0),),
    "J_L": (("g_inv", 0), ("L_B", 0)),
    "J_I": (("Ih", 0),),
    "phi": (("g_inv", 0), ("L_C", 0)),
    "frame2": (("g", 0), ("recF", 0)),
    "I2": (("frame2", 0), ("C", 0), ("F", 0)),
    "mu2": (("I2", 1), ("N", 0), ("recF", 0)),
    "cratio": (("Sigma", 0), ("D", 0), ("F", 0)),
}

#: Horizontal derivatives as (tensor, valence of its slots), built by
#: ``FieldScope._hderiv``: each reads its tensor at +1 and N, and Gamma when
#: the tensor has slots, at +0.
HDERIVS = {
    "Fh": ("F", ()),
    "gh": ("g", ("lo", "lo")),
    "Ch": ("C", ("lo",) * 3),
    "Bh": ("B", ("up", "lo", "lo", "lo")),
    "Lh": ("L_C", ("lo",) * 3),
    "Ih": ("I", ("lo",)),
}
LEDGER.update(
    (name, ((T, 1), ("N", 0)) + ((("Gamma", 0),) if valence else ()))
    for name, (T, valence) in HDERIVS.items()
)


def _depths(ledger):
    """Orders each field loses below the seed order: at seed order K its full
    order is K - depth, so it has values only when K >= depth."""
    depth = {}

    def visit(name):
        if name not in depth:
            depth[name] = max((visit(src) + d for src, d in ledger[name]), default=0)
        return depth[name]

    for name in ledger:
        visit(name)
    return depth


DEPTH = _depths(LEDGER)

#: fields whose values each public extraction reads; ``MIN_ORDER`` follows
READS = {
    "fundamental": ("g0", "ginv0", "h", "F"),
    "cartan": ("C", "I"),
    "spray": ("G", "N", "Gamma"),
    "berwald": ("B", "E"),
    "riemann": ("R1", "Rhh"),
    "landsberg": ("L_B", "L_C"),
    "mean_landsberg": ("J_L", "J_I"),
    "stretch": ("Sigma",),
    "flag": ("g0", "R1"),
}
# every block of the bundle, then what its diagnostics add: Fh, the horizontal
# derivative of F, and y_i (and RhhV at seed order >= 7)
READS["bundle"] = (
    "g0", "ginv0", "h", "F", "C", "I", "G", "N", "Gamma", "B", "E", "R1", "Rhh",
    "L_B", "L_C", "J_L", "J_I", "Sigma", "Fh", "ylow",
)

#: least seed order at which every field an extraction reads has values
MIN_ORDER = {op: max(2, *(DEPTH[f] for f in reads)) for op, reads in READS.items()}


@functools.lru_cache(maxsize=None)
def _plan(order):
    """Build order of every field at seed order ``order``.

    Every field's values are read (order 0), and each read is closed over
    the ledger: an input is needed through the largest order any reader
    asks of it, capped at the field's full order ``order - DEPTH``.
    """
    need = {}
    todo = [(name, 0) for name in LEDGER]
    while todo:
        name, q = todo.pop()
        if need.get(name, -1) < q:
            need[name] = q
            todo.extend((src, q + d) for src, d in LEDGER[name])
    return {name: min(q, order - DEPTH[name]) for name, q in need.items()}


ROUTE_TOLERANCE = 1e-6  # agreement required between independent routes


@dataclass(frozen=True)
class PointState:
    """A point (x, y) of the slit tangent bundle."""

    x: tuple
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        if len(self.x) != len(self.y):
            raise ShapeMismatch(f"x has {len(self.x)} components, y has {len(self.y)}")
        if all(v == 0.0 for v in self.y):
            raise ZeroVector("y must be nonzero")

    @property
    def n(self):
        return len(self.x)


@dataclass
class TensorBlock:
    """Float-valued tensor components plus slot variance metadata."""

    name: str
    values: np.ndarray
    valence: tuple

    @property
    def norm(self):
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0


@dataclass
class SprayData:
    G: np.ndarray       # spray coefficients G^i
    N: np.ndarray       # nonlinear connection N^i_j
    Gamma: np.ndarray   # Berwald connection Gamma^i_jk


def rel_residual(lhs, rhs=None, floor=1e-12):
    """Max-norm difference normalized by the larger of the two operands."""
    lhs = np.asarray(lhs, dtype=float)
    rhs = np.zeros_like(lhs) if rhs is None else np.asarray(rhs, dtype=float)
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), floor)
    return float(np.max(np.abs(lhs - rhs))) / scale


def _values(obj):
    if isinstance(obj, Jet):
        return obj.value
    if obj.dtype != object:  # a float field (g0, ginv0)
        return obj
    return np.fromiter((j.coef[0] for j in obj.flat), float, obj.size).reshape(obj.shape)


def _seed_point(metric, x, y, order):
    """Gate (x, y) against the metric's dimension and chart, then seed jets.

    ``seed_variables`` rejects a y of the wrong length and a zero y.
    """
    if len(x) != metric.n:
        raise ShapeMismatch(f"point has dimension {len(x)}, metric has {metric.n}")
    if not metric.chart.contains(x):
        raise OutOfChart(f"x = {x} outside metric chart")
    return seed_variables(x, y, JetConfig(n=metric.n, order=order))


def _F_jet(metric, xj, yj):
    """F on seeded jets; F must propagate jets and be positive."""
    f = metric.F(xj, yj)
    if not isinstance(f, Jet):
        raise BadConfig("metric evaluator did not propagate jets")
    if not f.value > 0.0:
        raise SingularMetric(f"F(x, y) = {f.value:.6g} is not positive")
    return f


def _require_positive_definite(g0, x, y):
    """Raise SingularMetric unless the float fundamental tensor is positive definite."""
    scale = max(float(np.max(np.abs(g0))), 1.0)
    eigs = np.linalg.eigvalsh(g0)
    if eigs[0] <= 1e-12 * scale:
        raise SingularMetric(
            f"fundamental tensor not positive definite at {x}, "
            f"{y}: min eigenvalue {eigs[0]:.3e}",
            min_eigenvalue=float(eigs[0]),
        )


def _stack(T, size):
    """Coefficients 0..size-1 of an object array of jets, shape (*T.shape, size)."""
    return np.array([j.coef[:size] for j in T.flat]).reshape(T.shape + (size,))


def _jets(alg, coef, degs=None):
    """Object array of jets of ``alg`` from coefficient rows (..., alg.size)."""
    rows = coef.reshape(-1, alg.size)
    degs = [None] * len(rows) if degs is None else degs
    out = np.empty(len(rows), dtype=object)
    out[:] = [Jet(alg, row, deg) for row, deg in zip(rows, degs)]
    return out.reshape(coef.shape[:-1])


def _order(T):
    """Jet order of a field: the least over its entries; floats have no bound."""
    if isinstance(T, Jet):
        return T.order
    if isinstance(T, tuple):
        return min(_order(t) for t in T)
    if T.dtype != object:
        return math.inf
    return min(j.order for j in T.flat)


def _truncated(T, order):
    """A field with every jet entry truncated to ``order``; floats pass through."""
    if isinstance(T, Jet):
        return T.truncated(order)
    if isinstance(T, tuple):
        return tuple(_truncated(t, order) for t in T)
    if T.dtype != object:
        return T
    if _order(T) < order:
        raise OrderExceeded(f"cannot extend a field of order {_order(T)} to order {order}")
    alg = _algebra(T.flat[0].n_vars, order)
    out = np.empty(T.size, dtype=object)
    out[:] = [Jet(alg, j.coef[: alg.size].copy(), min(j.deg, order)) for j in T.flat]
    return out.reshape(T.shape)


def require_stretch_design(num, den):
    """Raise UndefinedFit unless the stretch ratio c = num / den is defined.

    ``num`` = <Sigma, F D> and ``den`` = |F D|^2 at one point, with
    D_ijkl = C_{ijk|l} - C_{ijl|k}.  The pointwise ``cratio`` field and the
    fitted ratio both apply this one rule.
    """
    if den <= (1e-8 * (1.0 + abs(num))) ** 2 and den < 1e-12:
        raise UndefinedFit(
            "stretch-ratio design tensor F(C_{|l} - C_{|k}) is numerically zero"
        )


def _matmul(A, B):
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


class FieldScope:
    """Lazy cache of jet-valued tensor fields at one bundle point.

    :meth:`values` builds each field at its planned order (``_plan``), the
    deepest any reader in ``LEDGER`` needs.  A field read through
    :meth:`field` without an order is built at the full order the seed
    allows; a shallower planned field already built is then rebuilt there.
    """

    def __init__(self, metric, point: PointState, order: int):
        if order < 2:
            raise BadConfig(f"scope order must be >= 2, got {order}")
        self.metric = metric
        self.point = point
        self.order = order
        self.n = metric.n
        self.xj, self.yj = _seed_point(metric, point.x, point.y, order)
        self._plan = _plan(order)
        self._cache = {}
        self._built = {}  # jet order of each cached field
        self._cuts = {}   # name -> {order: truncated copy of the cached field}

    # --- variable bookkeeping ---

    def _xv(self, i):
        return i

    def _yv(self, i):
        return self.n + i

    def field(self, name, order=None):
        """Field ``name`` through at least jet ``order``, by default its full
        order ``self.order - DEPTH[name]``.

        A field is built at the larger of the asked and the planned order,
        at most the full one, from its ledger inputs read through that order
        plus their depth (at least 0: a field with no values raises in the
        derivative that runs out of order).  A deeper input is handed over
        truncated, except N and Gamma in a horizontal derivative:
        ``_hderiv`` slices them to its tensor's order itself.
        """
        if name not in LEDGER:
            raise BadConfig(f"unknown field {name!r}")
        full = self.order - DEPTH[name]
        want = full if order is None else order
        if self._built.get(name, -math.inf) < want:
            p = min(max(want, self._plan[name]), full)
            inputs = []
            for i, (src, d) in enumerate(LEDGER[name]):
                q = max(p + d, 0)
                self.field(src, q)
                inputs.append(self._cache[src] if i and name in HDERIVS else self._cut(src, q))
            if name in HDERIVS:
                self._cache[name] = self._hderiv(inputs[0], HDERIVS[name][1], *inputs[1:])
            else:
                self._cache[name] = getattr(self, "_build_" + name)(*inputs)
            self._built[name] = _order(self._cache[name])
            self._cuts[name] = {}
        return self._cache[name]

    def _cut(self, name, order):
        """Cached field ``name`` through ``order``: the field itself if it is
        no deeper, else a truncated copy kept until the field is rebuilt."""
        if self._built[name] <= order:
            return self._cache[name]
        cuts = self._cuts[name]
        if order not in cuts:
            cuts[order] = _truncated(self._cache[name], order)
        return cuts[order]

    def values(self, name):
        """Float values of a field, built at its planned order or deeper."""
        return _values(self.field(name, self._plan.get(name)))

    # --- derivative operators ---

    def vderiv(self, T):
        """Vertical derivative: one extra lower y-slot.

        T is stacked into one coefficient array and each slot m is one
        row-wise derivative in y^m, so every entry equals ``Jet.deriv``.
        """
        n = self.n
        if isinstance(T, Jet):
            T = np.array(T, dtype=object)
        order = min(j.order for j in T.flat)
        if order == 0:
            raise OrderExceeded("derivative of an order-0 jet is not determined")
        hi = _algebra(2 * n, order)
        Tc = _stack(T, hi.size)
        out = np.stack([deriv_rows(hi, Tc, self._yv(m)) for m in range(n)], axis=-2)
        degs = [min(max(j.deg - 1, 0), order - 1) for j in T.flat for _ in range(n)]
        return _jets(_algebra(2 * n, order - 1), out, degs)

    def hderiv(self, T, valence=()):
        """Horizontal (Berwald) derivative with N and Gamma at full order."""
        return self._hderiv(
            T, valence, self.field("N"), self.field("Gamma") if valence else None
        )

    def _hderiv(self, T, valence, N, Gamma=None):
        """Horizontal (Berwald) derivative: one extra lower slot.

        ``valence`` must describe T's existing slots ("up"/"lo") so the
        connection terms get the right sign.  Per entry and new slot k:

            T_{|k} = dT/dx^k - sum_m N^m_k dT/dy^m
                     + sum_m T[..m..] Gamma^s_mk   (each "up" slot s)
                     - sum_m T[..m..] Gamma^m_sk   (each "lo" slot s)

        T, N and Gamma are stacked into coefficient arrays, and each term
        (one per m, and per slot and m) is one row-wise product over all
        entries.  Terms are added in the order written, each product is
        summed like ``Jet.__mul__``, and the result lives in the algebra the
        entry-by-entry jet arithmetic would truncate to, so every entry
        equals that loop's jet bit for bit.
        """
        n = self.n
        if isinstance(T, Jet):
            T, valence = np.array(T, dtype=object), ()
        elif len(valence) != T.ndim:
            raise ShapeMismatch(
                f"valence has {len(valence)} slots, tensor has {T.ndim}"
            )
        order = min(j.order for j in T.flat) - 1
        for conn in (N, Gamma) if valence else (N,):
            order = min(order, min(j.order for j in conn.flat))
        if order < 0:
            raise OrderExceeded("derivative of an order-0 jet is not determined")
        hi = _algebra(2 * n, order + 1)
        lo = _algebra(2 * n, order)
        Tc = _stack(T, hi.size)
        acc = np.stack([deriv_rows(hi, Tc, self._xv(k)) for k in range(n)], axis=-2)
        Nc = _stack(N, lo.size)
        for m in range(n):
            dy = deriv_rows(hi, Tc, self._yv(m))
            acc -= mul_rows(lo, Nc[m], dy[..., None, :])
        if valence:
            Gc = _stack(Gamma, lo.size)
            rank = T.ndim
            for slot, kind in enumerate(valence):
                for m in range(n):
                    Tm = np.expand_dims(np.take(Tc, m, axis=slot), (slot, rank))
                    G = Gc[:, m] if kind == "up" else Gc[m]  # axes (s, k)
                    G = G.reshape((1,) * slot + (n,) + (1,) * (rank - slot - 1) + G.shape[1:])
                    if kind == "up":
                        acc += mul_rows(lo, Tm, G)
                    else:
                        acc -= mul_rows(lo, Tm, G)
        return _jets(lo, acc)

    def directional(self, T, valence=()):
        """Contraction T_{...|s} y^s of the horizontal derivative."""
        return self._contract_last(self.hderiv(T, valence))

    def _contract_last(self, H):
        """Contract the trailing slot of a jet tensor with y; a scalar comes
        back as a jet."""
        n = self.n
        shape = H.shape[:-1]
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            acc = H[idx + (0,)] * self.yj[0]
            for s in range(1, n):
                acc = acc + H[idx + (s,)] * self.yj[s]
            out[idx] = acc
        return out if shape else out[()]

    # --- field builders: inputs as LEDGER lists them, read to its depths ---

    def _build_F(self):
        return _F_jet(self.metric, self.xj, self.yj)

    def _build_F2(self, F):
        return F * F

    def _build_recF(self, F):
        return F.reciprocal()

    def _build_recF2(self, F2):
        return F2.reciprocal()

    def _build_g(self, F2):
        n = self.n
        d1 = [F2.deriv(self._yv(i)) for i in range(n)]
        g = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                gij = d1[i].deriv(self._yv(j)) * 0.5
                g[i, j] = gij
                g[j, i] = gij
        return g

    def _build_g0(self, g):
        g0 = _values(g)
        _require_positive_definite(g0, self.point.x, self.point.y)
        return g0

    def _build_ginv0(self, g0):
        return np.linalg.inv(g0)

    def _build_g_inv(self, g, ginv0):
        """Inverse metric as jets: Horner form of the Neumann series.

        With g = g0 + dev (dev has zero constant part), the truncated
        inverse is sum_k (-g0^{-1} dev)^k g0^{-1}.  M = -g0^{-1} dev has no
        constant term, so X_t = g0^{-1} + M X_{t-1} is exact through order
        t: iteration t runs in the order-t algebra, with X_{t-1} zero-padded
        into it, and `order` iterations give the full inverse.
        """
        n = self.n
        alg = g[0, 0].alg
        M = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                acc = None
                for k in range(n):
                    dev = g[k, j] - g[k, j].value
                    term = (-ginv0[i, k]) * dev
                    acc = term if acc is None else acc + term
                M[i, j] = acc
        X = np.empty((n, n), dtype=object)
        alg0 = _algebra(alg.n_vars, 0)
        for i in range(n):
            for j in range(n):
                X[i, j] = Jet.constant(alg0, ginv0[i, j])
        for t in range(1, alg.order + 1):
            alg_t = _algebra(alg.n_vars, t)
            Mt = np.empty((n, n), dtype=object)
            for i in range(n):
                for j in range(n):
                    Mt[i, j] = M[i, j].truncated(t)
                    X[i, j] = X[i, j]._padded(alg_t)
            X = _matmul(Mt, X)
            for i in range(n):
                for j in range(n):
                    X[i, j] = Jet.constant(alg_t, ginv0[i, j]) + X[i, j]
        return X

    def _build_ylow(self, g):
        n = self.n
        out = np.empty((n,), dtype=object)
        for i in range(n):
            acc = g[i, 0] * self.yj[0]
            for j in range(1, n):
                acc = acc + g[i, j] * self.yj[j]
            out[i] = acc
        return out

    def _build_h(self, g, ylow, recF2):
        n = self.n
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                hij = g[i, j] - ylow[i] * ylow[j] * recF2
                out[i, j] = hij
                out[j, i] = hij
        return out

    def _build_C(self, F2):
        n = self.n
        out = np.empty((n, n, n), dtype=object)
        for i in range(n):
            di = F2.deriv(self._yv(i))
            for j in range(i, n):
                dij = di.deriv(self._yv(j))
                for k in range(j, n):
                    val = dij.deriv(self._yv(k)) * 0.25
                    for p in set(itertools.permutations((i, j, k))):
                        out[p] = val
        return out

    def _build_I(self, g_inv, C):
        n = self.n
        out = np.empty((n,), dtype=object)
        for k in range(n):
            acc = None
            for i in range(n):
                for j in range(n):
                    term = g_inv[i, j] * C[i, j, k]
                    acc = term if acc is None else acc + term
            out[k] = acc
        return out

    def _build_G(self, F2, g_inv):
        n = self.n
        dx = [F2.deriv(self._xv(k)) for k in range(n)]
        brk = []
        for l in range(n):
            acc = None
            for k in range(n):
                term = dx[k].deriv(self._yv(l)) * self.yj[k]
                acc = term if acc is None else acc + term
            brk.append(acc - dx[l])
        out = np.empty((n,), dtype=object)
        for i in range(n):
            acc = g_inv[i, 0] * brk[0]
            for l in range(1, n):
                acc = acc + g_inv[i, l] * brk[l]
            out[i] = acc * 0.25
        return out

    def _build_N(self, G):
        n = self.n
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                out[i, j] = G[i].deriv(self._yv(j))
        return out

    def _build_Gamma(self, N):
        n = self.n
        out = np.empty((n, n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                dij = N[i, j]
                for k in range(j, n):
                    val = dij.deriv(self._yv(k))
                    out[i, j, k] = val
                    out[i, k, j] = val
        return out

    def _build_B(self, Gamma):
        n = self.n
        out = np.empty((n, n, n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                for k in range(j, n):
                    base = Gamma[i, j, k]
                    for l in range(k, n):
                        val = base.deriv(self._yv(l))
                        for p in set(itertools.permutations((j, k, l))):
                            out[(i,) + p] = val
        return out

    def _build_E(self, B):
        n = self.n
        out = np.empty((n, n), dtype=object)
        for j in range(n):
            for k in range(j, n):
                acc = B[0, j, k, 0]
                for m in range(1, n):
                    acc = acc + B[m, j, k, m]
                val = acc * 0.5
                out[j, k] = val
                out[k, j] = val
        return out

    def _build_R1(self, G, N, Gamma):
        n = self.n
        dxG = [[G[i].deriv(self._xv(k)) for k in range(n)] for i in range(n)]
        out = np.empty((n, n), dtype=object)
        for i in range(n):
            for k in range(n):
                acc = dxG[i][k] * 2.0
                for j in range(n):
                    acc = acc - dxG[i][j].deriv(self._yv(k)) * self.yj[j]
                    acc = acc + (G[j] * Gamma[i, j, k]) * 2.0
                    acc = acc - N[i, j] * N[j, k]
                out[i, k] = acc
        return out

    def _build_Rhh(self, R1):
        n = self.n
        dR1 = [
            [[R1[i, k].deriv(self._yv(l)) for l in range(n)] for k in range(n)]
            for i in range(n)
        ]
        out = np.empty((n, n, n, n), dtype=object)
        third = 1.0 / 3.0
        zero = None
        for i in range(n):
            for k in range(n):
                for l in range(k + 1, n):
                    A = dR1[i][k][l] - dR1[i][l][k]
                    for j in range(n):
                        val = A.deriv(self._yv(j)) * third
                        out[i, j, k, l] = val
                        out[i, j, l, k] = -1.0 * val
                        if zero is None:
                            zero = val * 0.0
        if zero is None:  # n == 1: no antisymmetric pairs exist
            zero = dR1[0][0][0].deriv(self._yv(0)) * 0.0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[i, j, k, k] = zero
        return out

    def _build_RhhV(self, Rhh):
        # vertical derivative of R_j^i_kl; axes (i, j, k, l, m)
        return self.vderiv(Rhh)

    def _build_gv(self, g):
        return self.vderiv(g)

    def _build_L_C(self, Ch):
        # L_ijk = C_{ijk|s} y^s
        return self._contract_last(Ch)

    def _build_L_B(self, ylow, B):
        n = self.n
        out = np.empty((n, n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    acc = ylow[0] * B[0, i, j, k]
                    for m in range(1, n):
                        acc = acc + ylow[m] * B[m, i, j, k]
                    val = acc * (-0.5)
                    for p in set(itertools.permutations((i, j, k))):
                        out[p] = val
        return out

    def _build_Sigma(self, Lh):
        n = self.n
        out = np.empty((n, n, n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(k, n):
                        val = (Lh[i, j, k, l] - Lh[i, j, l, k]) * 2.0
                        out[i, j, k, l] = val
                        out[i, j, l, k] = -1.0 * val
        return out

    def _build_D(self, Ch):
        # D_ijkl = C_{ijk|l} - C_{ijl|k}; the stretch tensor is 2*(D h-shifted)
        n = self.n
        out = np.empty((n, n, n, n), dtype=object)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for l in range(k, n):
                        val = Ch[i, j, k, l] - Ch[i, j, l, k]
                        out[i, j, k, l] = val
                        out[i, j, l, k] = -1.0 * val
        return out

    def _build_J_L(self, g_inv, L_B):
        n = self.n
        out = np.empty((n,), dtype=object)
        for i in range(n):
            acc = None
            for k in range(n):
                for l in range(n):
                    term = g_inv[k, l] * L_B[i, k, l]
                    acc = term if acc is None else acc + term
            out[i] = acc
        return out

    def _build_J_I(self, Ih):
        # J_i = I_{i|s} y^s
        return self._contract_last(Ih)

    def _build_phi(self, g_inv, L_C):
        """phi = L^{ijk} L_ijk (squared norm of the Landsberg tensor)."""
        n = self.n
        T = L_C
        for _ in range(3):
            # raise the leading slot, then cycle it to the back
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

    # --- two-dimensional frame fields and scalar ratios ---

    def _build_frame2(self, g, recF):
        """Orthonormal frame (ell, m) with ell = y/F, det[ell m] > 0; jets."""
        if self.n != 2:
            raise DimensionError(f"frame needs n = 2, got n = {self.n}")
        ell = np.empty(2, dtype=object)
        for i in range(2):
            ell[i] = self.yj[i] * recF
        y = np.asarray(self.point.y)
        k0 = int(np.argmin(np.abs(y)))  # seed axis least aligned with y
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

    def _build_I2(self, frame2, C, F):
        """Principal scalar of a 2-D metric: I with C = F^-1 I m x m x m."""
        _, m = frame2
        acc = None
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    term = C[i, j, k] * m[i] * m[j] * m[k]
                    acc = term if acc is None else acc + term
        return F * acc

    def _build_mu2(self, I2, N, recF):
        """mu = I_{|s} y^s / (F I), the log-derivative of the principal scalar."""
        if abs(I2.value) < 1e-8:
            raise RiemannianPoint(
                f"principal scalar {I2.value:.3e} is numerically zero"
            )
        num = self._contract_last(self._hderiv(I2, (), N))
        return num * recF * I2.reciprocal()

    def _build_cratio(self, Sigma, D, F):
        """Pointwise stretch ratio c with Sigma = c F (C_{ijk|l} - C_{ijl|k})."""
        n = self.n
        num = None
        den = None
        for idx in np.ndindex((n,) * 4):
            FD = F * D[idx]
            t1 = Sigma[idx] * FD
            t2 = FD * FD
            num = t1 if num is None else num + t1
            den = t2 if den is None else den + t2
        require_stretch_design(num.value, den.value)
        return num / den


# --- public extraction API ---

def point_scope(metric, point, order=BUNDLE_ORDER) -> FieldScope:
    point = point if isinstance(point, PointState) else PointState(*point)
    return FieldScope(metric, point, order)


def _ensure_scope(metric, point, scope, op):
    need = MIN_ORDER[op]
    if scope is None:
        return point_scope(metric, point, need)
    if scope.order < need:
        raise OrderExceeded(
            f"{op} needs seed order >= {need}, scope has {scope.order}"
        )
    return scope


def fundamental_tensor(metric, point, scope=None):
    """Returns (g, g_inv, h, F) at the point; raises SingularMetric if not PD."""
    scope = _ensure_scope(metric, point, scope, "fundamental")
    g0 = scope.values("g0")
    ginv0 = scope.values("ginv0")
    h0 = scope.values("h")
    F = scope.values("F")
    return (
        TensorBlock("g", g0.copy(), ("lo", "lo")),
        TensorBlock("g_inv", ginv0.copy(), ("up", "up")),
        TensorBlock("h", h0, ("lo", "lo")),
        F,
    )


def cartan_tensor(metric, point, scope=None):
    """Returns (C, I): the Cartan tensor and its mean."""
    scope = _ensure_scope(metric, point, scope, "cartan")
    return (
        TensorBlock("C", scope.values("C"), ("lo", "lo", "lo")),
        TensorBlock("I", scope.values("I"), ("lo",)),
    )


def spray(metric, point, scope=None) -> SprayData:
    scope = _ensure_scope(metric, point, scope, "spray")
    return SprayData(
        G=scope.values("G"),
        N=scope.values("N"),
        Gamma=scope.values("Gamma"),
    )


#: F^2 partials read by the direct spray path, named by differentiation
#: slots with the x slot last: entry [l, j, k] of "yyx" is
#: d^3 F^2 / dy^l dy^j dx^k.  A pattern of length d needs seed order d.
_SPRAY_PARTIALS = ("x", "yy", "yx", "yyy", "yyx", "yyyy", "yyyx")
_SPRAY_SLOTS = {}


def _spray_slots(alg):
    """{pattern: (coefficient indices, factorial scales)} for one jet algebra."""
    key = (alg.n_vars, alg.order)
    slots = _SPRAY_SLOTS.get(key)
    if slots is None:
        n = alg.n_vars // 2
        slots = {}
        for pattern in _SPRAY_PARTIALS:
            if len(pattern) > alg.order:
                continue
            shape = (n,) * len(pattern)
            idx = np.empty(shape, dtype=np.int64)
            scale = np.empty(shape)
            for combo in np.ndindex(shape):
                exps = [0] * alg.n_vars
                for kind, i in zip(pattern, combo):
                    exps[i if kind == "x" else n + i] += 1
                idx[combo] = alg.index[tuple(exps)]
                scale[combo] = math.prod(math.factorial(e) for e in exps)
            slots[pattern] = (idx, scale)
        _SPRAY_SLOTS[key] = slots
    return slots


def _direct_spray(metric, x, y, depth):
    """Float g and spray fields at (x, y) from one F^2 jet of order 2 + depth.

    Returns [g, G] for depth 0, [g, G, N] for depth 1 and [g, G, N, Gamma]
    for depth 2.  With A = g and b_l = y^k d^2F^2/dx^k dy^l - dF^2/dx^l,
    u = 4G solves A u = b; differentiating that system in y gives
    u_{,j} = 4 N_j and u_{,jk} = 4 Gamma_jk (module docstring).  The gates
    are those of :class:`FieldScope`: dimension, chart, zero y, jet
    propagation, F > 0 and positive definiteness of g.
    """
    x = tuple(float(v) for v in x)
    y = tuple(float(v) for v in y)
    f = _F_jet(metric, *_seed_point(metric, x, y, 2 + depth))
    F2 = f * f
    P = {p: F2.coef[idx] * scale for p, (idx, scale) in _spray_slots(F2.alg).items()}
    g = 0.5 * P["yy"]
    _require_positive_definite(g, x, y)
    ginv = np.linalg.inv(g)
    yv = np.asarray(y)
    u = ginv @ (P["yx"] @ yv - P["x"])
    out = [g, 0.25 * u]
    if depth >= 1:
        A1 = 0.5 * P["yyy"]                            # A1[l, m, j] = dA_lm/dy^j
        b1 = P["yx"] - P["yx"].T + P["yyx"] @ yv       # b1[l, j] = db_l/dy^j
        u1 = ginv @ (b1 - A1 @ u)
        out.append(0.25 * u1)
    if depth >= 2:
        Fyyx = P["yyx"]
        b2 = Fyyx + Fyyx.transpose(0, 2, 1) + P["yyyx"] @ yv - Fyyx.transpose(2, 0, 1)
        T = A1 @ u1                                    # T[l, j, k] = (A_{,j} u_{,k})_l
        rhs = b2 - 0.5 * P["yyyy"] @ u - T - T.transpose(0, 2, 1)
        n = len(y)
        out.append(0.25 * (ginv @ rhs.reshape(n, -1)).reshape(n, n, n))
    return out


def spray_values(metric, x, y, with_N=False):
    """G, or (G, N) when ``with_N``, as floats for ODE right-hand sides.

    Takes the direct path: one F^2 jet of order 2 (3 with N) and float
    linear algebra, no :class:`FieldScope`.  It raises what a scope would:
    ShapeMismatch, OutOfChart, ZeroVector, BadConfig and SingularMetric.
    """
    out = _direct_spray(metric, x, y, 1 if with_N else 0)
    return (out[1], out[2]) if with_N else out[1]


def berwald_curvature(metric, point, scope=None):
    """Returns (B, E): Berwald curvature and its mean."""
    scope = _ensure_scope(metric, point, scope, "berwald")
    return (
        TensorBlock("B", scope.values("B"), ("up", "lo", "lo", "lo")),
        TensorBlock("E", scope.values("E"), ("lo", "lo")),
    )


def riemann_curvature(metric, point, scope=None):
    """Returns (R1, Rhh): y-Riemann curvature R^i_k and hh-curvature R_j^i_kl."""
    scope = _ensure_scope(metric, point, scope, "riemann")
    return (
        TensorBlock("R1", scope.values("R1"), ("up", "lo")),
        TensorBlock("Rhh", scope.values("Rhh"), ("up", "lo", "lo", "lo")),
    )


def landsberg_tensor(metric, point, scope=None, check=True):
    """Landsberg tensor via the spray route, cross-checked against C_{|s}y^s."""
    scope = _ensure_scope(metric, point, scope, "landsberg")
    LB = scope.values("L_B")
    if check:
        LC = scope.values("L_C")
        resid = rel_residual(LB, LC, floor=max(1.0, float(np.max(np.abs(LB)))))
        if not resid <= ROUTE_TOLERANCE:  # a NaN residual fails too
            raise CrossCheckFailure(
                f"Landsberg routes disagree: relative residual {resid:.3e}"
            )
    return TensorBlock("L", LB, ("lo", "lo", "lo"))


def mean_landsberg(metric, point, scope=None, check=True):
    """Mean Landsberg J via the trace route, cross-checked against I_{|s}y^s."""
    scope = _ensure_scope(metric, point, scope, "mean_landsberg")
    JL = scope.values("J_L")
    if check:
        JI = scope.values("J_I")
        resid = rel_residual(JL, JI, floor=max(1.0, float(np.max(np.abs(JL)))))
        if not resid <= ROUTE_TOLERANCE:  # a NaN residual fails too
            raise CrossCheckFailure(
                f"mean Landsberg routes disagree: relative residual {resid:.3e}"
            )
    return TensorBlock("J", JL, ("lo",))


def stretch_tensor(metric, point, scope=None):
    """Stretch tensor Sigma_ijkl = 2(L_{ijk|l} - L_{ijl|k})."""
    scope = _ensure_scope(metric, point, scope, "stretch")
    return TensorBlock("Sigma", scope.values("Sigma"), ("lo",) * 4)


def flag_curvature(metric, point, u, scope=None):
    """Sectional (flag) curvature of the plane span(y, u) with pole y."""
    scope = _ensure_scope(metric, point, scope, "flag")
    n = scope.n
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ShapeMismatch(f"flag vector needs {n} components")
    g0 = scope.values("g0")
    R1 = scope.values("R1")
    y = np.asarray(scope.point.y)
    gyy = float(y @ g0 @ y)
    guu = float(u @ g0 @ u)
    gyu = float(y @ g0 @ u)
    denom = gyy * guu - gyu * gyu
    if denom <= 1e-10 * max(gyy * guu, 1e-30):
        raise DegenerateFlag(
            f"flag span(y, u) is degenerate: Gram determinant ratio "
            f"{denom / max(gyy * guu, 1e-30):.3e}"
        )
    num = float(u @ g0 @ (R1 @ u))
    return num / denom


_DERIV_FIELDS = {
    "F": ("F", ()),
    "F2": ("F2", ()),
    "g": ("g", ("lo", "lo")),
    "C": ("C", ("lo", "lo", "lo")),
    "I": ("I", ("lo",)),
    "L": ("L_C", ("lo", "lo", "lo")),
    "J": ("J_I", ("lo",)),
    "E": ("E", ("lo", "lo")),
    "Sigma": ("Sigma", ("lo",) * 4),
}


def horizontal_derivative(metric, point, name, scope=None):
    """Berwald-horizontal derivative of a named field; trailing slot is new."""
    if name not in _DERIV_FIELDS:
        raise BadConfig(
            f"no horizontal-derivative rule for {name!r}; "
            f"known: {sorted(_DERIV_FIELDS)}"
        )
    key, valence = _DERIV_FIELDS[name]
    scope = _ensure_scope(metric, point, scope, "bundle") if scope is None else scope
    H = scope.hderiv(scope.field(key), valence)
    return TensorBlock(name + "_h", _values(H), valence + ("lo",))


def vertical_derivative(metric, point, name, scope=None):
    if name not in _DERIV_FIELDS:
        raise BadConfig(f"no vertical-derivative rule for {name!r}")
    key, valence = _DERIV_FIELDS[name]
    scope = _ensure_scope(metric, point, scope, "cartan") if scope is None else scope
    V = scope.vderiv(scope.field(key))
    return TensorBlock(name + "_v", _values(V), valence + ("lo",))


@dataclass
class CurvatureBundle:
    """Every curvature block at one point, plus route diagnostics."""

    point: PointState
    label: str
    order: int
    F: float
    g: TensorBlock
    g_inv: TensorBlock
    h: TensorBlock
    C: TensorBlock
    I: TensorBlock
    spray: SprayData
    B: TensorBlock
    E: TensorBlock
    R1: TensorBlock
    Rhh: TensorBlock
    L: TensorBlock
    J: TensorBlock
    Sigma: TensorBlock
    diagnostics: dict
    scope: FieldScope = dc_field(repr=False, default=None)

    def block(self, name):
        return getattr(self, name)

    def to_dict(self):
        out = {
            "label": self.label,
            "x": list(self.point.x),
            "y": list(self.point.y),
            "order": self.order,
            "F": self.F,
            "diagnostics": dict(self.diagnostics),
        }
        for name in ("g", "g_inv", "h", "C", "I", "B", "E", "R1", "Rhh", "L", "J", "Sigma"):
            out[name] = self.block(name).values.tolist()
        out["G"] = self.spray.G.tolist()
        out["N"] = self.spray.N.tolist()
        out["Gamma"] = self.spray.Gamma.tolist()
        return out


def curvature_bundle(metric, point, order=BUNDLE_ORDER, scope=None) -> CurvatureBundle:
    """Evaluate the full tower at one point, with route cross-checks.

    Needs order >= 6; the stretch-vs-hh-curvature diagnostic additionally
    needs order >= 7 and reports None below that.
    """
    point = point if isinstance(point, PointState) else PointState(*point)
    if scope is None:
        if order < MIN_ORDER["bundle"]:
            raise OrderExceeded(f"bundle needs seed order >= 6, got {order}")
        scope = FieldScope(metric, point, order)
    g, g_inv, h, F = fundamental_tensor(metric, point, scope)
    C, I = cartan_tensor(metric, point, scope)
    spr = spray(metric, point, scope)
    B, E = berwald_curvature(metric, point, scope)
    R1, Rhh = riemann_curvature(metric, point, scope)
    L = landsberg_tensor(metric, point, scope, check=False)
    J = mean_landsberg(metric, point, scope, check=False)
    Sigma = stretch_tensor(metric, point, scope)

    y = np.asarray(point.y)
    n = scope.n
    diag = {}

    # F is horizontally constant; strong wiring check on G and N.
    Fh = scope.values("Fh")
    diag["horizontal_F"] = float(np.max(np.abs(Fh))) / F

    diag["cartan_y_trace"] = rel_residual(
        np.einsum("i,ijk->jk", y, C.values), floor=max(C.norm, 1.0)
    )
    diag["landsberg_y_trace"] = rel_residual(
        np.einsum("i,ijk->jk", y, L.values), floor=max(L.norm, 1.0)
    )
    diag["landsberg_routes"] = rel_residual(
        L.values, scope.values("L_C"), floor=max(L.norm, 1.0)
    )
    diag["mean_landsberg_routes"] = rel_residual(
        J.values, scope.values("J_I"), floor=max(J.norm, 1.0)
    )
    # y^j y^l R_j^i_kl recovers R^i_k
    diag["riemann_y_trace"] = rel_residual(
        np.einsum("j,l,ijkl->ik", y, y, Rhh.values), R1.values,
        floor=max(R1.norm, 1.0),
    )
    if scope.order >= 7:
        RhhV = scope.values("RhhV")
        ylow0 = scope.values("ylow")
        sigma_b = np.einsum("i,ijklm->jmkl", ylow0, RhhV)
        diag["stretch_bianchi"] = rel_residual(
            Sigma.values, sigma_b, floor=max(Sigma.norm, 1.0)
        )
    else:
        diag["stretch_bianchi"] = None

    return CurvatureBundle(
        point=point,
        label=getattr(metric, "label", ""),
        order=scope.order,
        F=F,
        g=g,
        g_inv=g_inv,
        h=h,
        C=C,
        I=I,
        spray=spr,
        B=B,
        E=E,
        R1=R1,
        Rhh=Rhh,
        L=L,
        J=J,
        Sigma=Sigma,
        diagnostics=diag,
        scope=scope,
    )
