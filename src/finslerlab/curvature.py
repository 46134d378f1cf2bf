"""Curvature tower of a Finsler metric at points of the slit tangent bundle.

Everything is computed from truncated jets of F^2 seeded at (x, y).  A
:class:`FieldScope` owns the seeds of P >= 1 points and lazily builds named
tensor fields; callers read a field's float values by name with
:meth:`FieldScope.values`, and those of its first derivatives with
``vderiv``, ``hderiv`` and ``directional``; :func:`curvature_bundle`
gathers the public blocks (``BLOCKS``) that way.

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

Fields are coefficient arrays.  A field with slots ``shape`` built at jet
order p and x-degree cap c is one float array of shape (*shape, P, size):
per entry and point, its Taylor coefficients in the (p, c) algebra of the
2n seed variables; the scope records (p, c) beside it (g0 and ginv0 are
float arrays (n, n, P)), since sizes collide across caps.  Truncation is a
slice or, to a lower cap, a gather (``_Algebra.cut``), a derivative is
``deriv_rows``, a product of entries is ``mul_rows``, summed like
``Jet.__mul__``, and a product with a y seed is the shift ``mul_seeds``,
equal to it.  Contractions add their terms one slice at a time in the
order of the entry-by-entry jet loops they replace (``tests/oracles.py``),
from the first term, so every coefficient equals those loops' bit for bit.
A closed-form series of a scalar field (recF, recF2, the norm of frame2,
mu2, cratio) is composed one point at a time by ``jets.compose``, the
kernel ``Jet.reciprocal`` and ``Jet.__pow__`` run; no field builds a
``Jet``.

The point axis sits between the slots and the coefficients, so slot code
(positional indexing, folds over a leading slot, slots broadcast against
each other) reads the same for every P, and every kernel works row by row:
each point's coefficients equal those of its single-point scope bit for
bit.  A scope of one PointState is the P = 1 case; it hands out values
without the point axis.  The gates run per point: the chart when the scope
is made, a positive and finite F (one tape call per point) and positive
definiteness of g0 (one batched ``eigvalsh``), each raising for the first
point in order that fails it.  A driver that needs the error a loop over
single-point scopes raises reruns that loop when a batched build raises
(``analysis._point_reads``).

The loops stored one jet in all permuted slots of a symmetric field, so g,
C, Gamma, B, h, E and L_B gather every entry from the entry with its
symmetric slots sorted.  Recomputing an unsorted entry would apply the
integer derivative factors, or the operands of a product, in another order,
which can round differently.  The sign bits follow the loops too:

* antisymmetric fills write -1.0 * val into the k > l half.  Sigma and D
  also write it on the k = l diagonal, where val = +0.0, so it holds -0.0;
* the k = l diagonals of Rhh hold val * 0.0 for the first val computed;
* a Neumann step adds ginv0 as a constant jet, a full row of zeros with
  ginv0 in front, to the products' sum.

A scope builds each field only to the deepest order, and the deepest
x-degree, a reader in the executable ledger ``LEDGER`` asks of it
(``_plan``; ``DEPTH``, ``XDEPTH``, ``SEED_CAP`` and ``MIN_ORDER`` follow
from the ledger too).  The tower never differentiates F^2 more than twice
in x, so no field needs x-degree above 2; the seeds carry SEED_CAP = 3, one
more, which leaves every field room for one horizontal derivative by name
(it reads the field at order 1 and x-degree 1).  Every coefficient kept is
summed from the same pairs in the same order (``jets`` module docstring),
so it equals that coefficient of the full-order, uncapped field bit for
bit, at any seed order deep enough to hold it.
F is read off the metric's tape: a scope's F field, and ``spray_values``,
run the tape's seed program on each point's seed block (``expr.run``).
``spray_values`` builds no scope at all; its F has x-degree cap 1, since
every partial of F^2 it reads holds at most one x, and it sums only the
pairs of F * F that land on those partials, by a plan kept on the tape.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    BadConfig,
    DegenerateFlag,
    DimensionError,
    DomainError,
    OrderExceeded,
    OutOfChart,
    RiemannianPoint,
    ShapeMismatch,
    SingularMetric,
    UndefinedFit,
    ZeroVector,
)
from .expr import seed_program
from .jets import (
    _algebra,
    compose,
    deriv_rows,
    mul_rows,
    mul_seeds,
    power_series,
    product_algebra,
    reciprocal_series,
)

BUNDLE_ORDER = 7

#: Slot kinds of the tensor fields; a horizontal or vertical derivative adds
#: a lower slot (the ``HDERIVS`` fields join below them).  frame2 is not
#: listed: its rows are frame vectors, not tensor slots.
VALENCE = {
    "F": (), "F2": (), "g": ("lo", "lo"), "g_inv": ("up", "up"), "h": ("lo", "lo"),
    "g0": ("lo", "lo"), "ginv0": ("up", "up"), "ylow": ("lo",), "gv": ("lo",) * 3,
    "G": ("up",), "N": ("up", "lo"), "Gamma": ("up", "lo", "lo"),
    "C": ("lo",) * 3, "I": ("lo",), "B": ("up", "lo", "lo", "lo"), "E": ("lo", "lo"),
    "R1": ("up", "lo"), "Rhh": ("up", "lo", "lo", "lo"), "RhhV": ("up",) + ("lo",) * 4,
    "L_B": ("lo",) * 3, "L_C": ("lo",) * 3, "J_L": ("lo",), "J_I": ("lo",),
    "Sigma": ("lo",) * 4, "D": ("lo",) * 4,
}

#: The truncation ledger: each field's inputs as (input, extra depth, extra
#: x-depth).  Built at jet order p and x-degree cap c, a field reads each
#: input through order p + depth and x-degree c + x-depth: the number of
#: derivatives, and of x-derivatives, its builder takes of that input.
#: ``_build_<field>`` takes the inputs in this order and under these names;
#: F reads the seeds.  gv and RhhV are vertical derivatives of g and Rhh; the
#: horizontal derivatives (``HDERIVS``) join the ledger below it.
LEDGER = {
    "F": (),
    "F2": (("F", 0, 0),),
    "recF": (("F", 0, 0),),
    "recF2": (("F2", 0, 0),),
    "g": (("F2", 2, 0),),
    "g0": (("g", 0, 0),),
    "ginv0": (("g0", 0, 0),),
    "g_inv": (("g", 0, 0), ("ginv0", 0, 0)),
    "ylow": (("g", 0, 0),),
    "h": (("g", 0, 0), ("ylow", 0, 0), ("recF2", 0, 0)),
    "C": (("F2", 3, 0),),
    "I": (("g_inv", 0, 0), ("C", 0, 0)),
    "G": (("F2", 2, 1), ("g_inv", 0, 0)),
    "N": (("G", 1, 0),),
    "Gamma": (("N", 1, 0),),
    "B": (("Gamma", 1, 0),),
    "E": (("B", 0, 0),),
    "R1": (("G", 2, 1), ("N", 0, 0), ("Gamma", 0, 0)),
    "Rhh": (("R1", 2, 0),),
    "RhhV": (("Rhh", 1, 0),),
    "gv": (("g", 1, 0),),
    "L_C": (("Ch", 0, 0),),
    "L_B": (("ylow", 0, 0), ("B", 0, 0)),
    "Sigma": (("Lh", 0, 0),),
    "D": (("Ch", 0, 0),),
    "J_L": (("g_inv", 0, 0), ("L_B", 0, 0)),
    "J_I": (("Ih", 0, 0),),
    "phi": (("g_inv", 0, 0), ("L_C", 0, 0)),
    "frame2": (("g", 0, 0), ("recF", 0, 0)),
    "I2": (("frame2", 0, 0), ("C", 0, 0), ("F", 0, 0)),
    "mu2": (("I2", 1, 1), ("N", 0, 0), ("recF", 0, 0)),
    "cratio": (("Sigma", 0, 0), ("D", 0, 0), ("F", 0, 0)),
}

#: Horizontal derivatives and the tensor each differentiates, built by
#: ``FieldScope._hderiv``: each reads its tensor at +1 and x+1, and N, and
#: Gamma when the tensor has slots, at +0.
HDERIVS = {"Fh": "F", "gh": "g", "Ch": "C", "Bh": "B", "Lh": "L_C", "Ih": "I"}
LEDGER.update(
    (name, ((T, 1, 1), ("N", 0, 0)) + ((("Gamma", 0, 0),) if VALENCE[T] else ()))
    for name, T in HDERIVS.items()
)
VALENCE.update((name, VALENCE[T] + ("lo",)) for name, T in HDERIVS.items())

#: fields held as float matrices, with no jet order
_FLOATS = ("g0", "ginv0")


#: Orders and x-degrees each field loses below the seed's: at seed order K
#: its full order is K - DEPTH, so it has values only when K >= DEPTH, and
#: its full x-degree cap is SEED_CAP - XDEPTH.  The longest input paths,
#: relaxed until they no longer change.
DEPTH = XDEPTH = None
_depth, _xdepth = dict.fromkeys(LEDGER, 0), dict.fromkeys(LEDGER, 0)
while (_depth, _xdepth) != (DEPTH, XDEPTH):
    DEPTH, XDEPTH = _depth, _xdepth
    _depth = {f: max((DEPTH[s] + d for s, d, _ in row), default=0) for f, row in LEDGER.items()}
    _xdepth = {f: max((XDEPTH[s] + x for s, _, x in row), default=0) for f, row in LEDGER.items()}

#: x-degree cap of the seeds: every field at its full order can still take
#: one more horizontal derivative
SEED_CAP = 1 + max(XDEPTH.values())

#: Each public block of a bundle and the field it reads.  L and J take the
#: spray and trace routes; the bundle's diagnostics check them against the
#: horizontal-derivative routes L_C and J_I.
BLOCKS = {
    "g": "g0", "g_inv": "ginv0", "h": "h", "C": "C", "I": "I", "G": "G", "N": "N",
    "Gamma": "Gamma", "B": "B", "E": "E", "R1": "R1", "Rhh": "Rhh", "L": "L_B",
    "J": "J_L", "Sigma": "Sigma",
}

#: least seed order at which every field an operation reads has values: a
#: bundle reads its blocks and, for its diagnostics, Fh and y_i (and RhhV at
#: seed order >= 7); a flag curvature reads g0 and R1
MIN_ORDER = {
    op: max(2, *(DEPTH[f] for f in reads))
    for op, reads in (("bundle", (*BLOCKS.values(), "Fh", "ylow")), ("flag", ("g0", "R1")))
}


@functools.lru_cache(maxsize=None)
def _plan(order):
    """Build order and x-degree cap of every field at seed order ``order``.

    Every field's values are read (order 0, cap 0), and each read is closed
    over the ledger: an input is needed through the largest order, and the
    largest x-degree, any reader asks of it, capped at the field's full
    order ``order - DEPTH`` and full cap ``SEED_CAP - XDEPTH``.  A cap above
    the order caps nothing, so it is lowered to the order.
    """
    need = {}
    todo = [(name, 0, 0) for name in LEDGER]
    while todo:
        name, q, c = todo.pop()
        q0, c0 = need.get(name, (-1, -1))
        if q > q0 or c > c0:
            q, c = max(q, q0), max(c, c0)
            need[name] = (q, c)
            todo.extend((src, q + d, c + x) for src, d, x in LEDGER[name])
    plan = {}
    for name, (q, c) in need.items():
        q = min(q, order - DEPTH[name])
        plan[name] = (q, min(c, SEED_CAP - XDEPTH[name], max(q, 0)))
    return plan


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
        if not all(map(math.isfinite, self.x + self.y)):
            raise BadConfig(f"point coordinates must be finite, got x = {self.x}, y = {self.y}")
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


def _check_point(metric, x):
    """Gate x against the metric's dimension and chart."""
    if len(x) != metric.n:
        raise ShapeMismatch(f"point has dimension {len(x)}, metric has {metric.n}")
    if not metric.chart.contains(x):
        raise OutOfChart(f"x = {x} outside metric chart")


def _F_coef(metric, program, x, y):
    """F's coefficients at the seeds of the float point (x, y) in the
    algebra of ``program``, the seed program of the metric's tape
    (``MetricInstance.F_seeded``); F must propagate jets and be positive
    and finite."""
    f = metric.F_seeded(program, x, y)
    if program.deg is None:  # the formula is a constant
        raise BadConfig("metric evaluator did not propagate jets")
    value = f.item(0)
    if not 0.0 < value < math.inf:
        raise SingularMetric(f"F(x, y) = {value:.6g} is not positive and finite")
    return f


def _require_positive_definite(g0, eig, x, y):
    """Raise SingularMetric unless the float fundamental tensor g0 at (x, y),
    whose least eigenvalue is ``eig``, is positive definite; a NaN or
    infinite entry fails too."""
    scale = max(float(np.max(np.abs(g0))), 1.0)
    if not eig > 1e-12 * scale:
        raise SingularMetric(
            f"fundamental tensor not positive definite at {x}, "
            f"{y}: min eigenvalue {eig:.3e}",
            min_eigenvalue=float(eig),
        )


def _clears_gate(g0):
    """Whether Gershgorin's discs put every eigenvalue of the float matrix g0
    above 1e-9 of the scale :func:`_require_positive_definite` uses, so far
    above its gate that the least eigenvalue eigvalsh computes passes it
    too; a NaN or infinite entry never clears it.  Where every row clears,
    no entry exceeds the largest diagonal one, so that is the scale."""
    rows = g0.tolist()
    bar = 1e-9 * max(1.0, *(row[i] for i, row in enumerate(rows)))
    for i, row in enumerate(rows):
        if not 2.0 * row[i] - sum(map(abs, row)) > bar:  # g_ii - sum_{j != i} |g_ij|
            return False
    return True


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


def _fold(terms):
    """Sum over the leading axis, left to right from the first term: the jet loops' order."""
    return functools.reduce(operator.add, terms)


@functools.lru_cache(maxsize=None)
def _sorted_entries(n, rank, lead):
    """Flat index, per entry of an (n,)*rank tensor, of it with slots ``lead:`` sorted."""
    idx = np.indices((n,) * rank).reshape(rank, -1)
    idx[lead:] = np.sort(idx[lead:], axis=0)
    return np.ravel_multi_index(tuple(idx), (n,) * rank)


def _symmetric(T, lead=0):
    """Every entry of T gathered from its sorted-index entry (module docstring)."""
    rank = T.ndim - 2
    flat = T.reshape(T.shape[0] ** rank, -1)
    return flat[_sorted_entries(T.shape[0], rank, lead)].reshape(T.shape)


def _antisymmetric(V):
    """Entry [..., k, l] of V where k < l, else -1.0 * V[..., l, k] (module docstring)."""
    n = V.shape[-3]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)[..., None, None]
    return np.where(upper, V, -1.0 * V.swapaxes(-3, -4))


def _deriv(alg, T, variables):
    """``deriv_rows`` with the new slot last among the slots, before the point axis."""
    return deriv_rows(alg, T, variables).swapaxes(-2, -3)


def _compose_rows(alg, A, series_of):
    """The closed-form function of a scalar field A whose series builder is
    ``series_of`` (``jets.compose``), one point at a time."""
    return np.stack([compose(alg, a, series_of(a.item(0), alg.order)) for a in A])


class FieldScope:
    """Lazy cache of tensor fields, as coefficient arrays, at P bundle points:
    ``point`` is one PointState (P = 1, and ``self.point`` is it) or a
    sequence of P of them (``self.point`` is None), kept in ``self.points``.

    :meth:`values` builds each field at its planned order and x-degree cap
    (``_plan``), the deepest any reader in ``LEDGER`` needs.  A field read
    through :meth:`field` without an order is built at the full order and
    cap the seed allows; a shallower planned field already built is then
    rebuilt there.
    """

    def __init__(self, metric, point, order: int):
        if order < 2:
            raise BadConfig(f"scope order must be >= 2, got {order}")
        self.metric = metric
        self.point = point if isinstance(point, PointState) else None
        self.points = (point,) if self.point is not None else tuple(
            p if isinstance(p, PointState) else PointState(*p) for p in point
        )
        if not self.points:
            raise BadConfig("a scope needs at least one point")
        self.order = order
        self.n = metric.n
        self._xs = range(self.n)
        self._ys = range(self.n, 2 * self.n)
        for p in self.points:
            _check_point(metric, p.x)
        self._y0 = np.array([p.y for p in self.points]).T  # [k, point] = y^k
        self._plan = _plan(order)
        self._cache = {}
        self._built = {}  # (jet order, x-degree cap) of each cached field; inf for floats

    def _at(self, order, cap):
        """The jet algebra of the 2n seed variables at ``order`` and ``cap``."""
        return _algebra(2 * self.n, order, cap)

    def _deeper(self, alg, depth, xdepth=0):
        """The algebra a builder in ``alg`` reads an input of this ledger depth
        in; ``alg`` is None for a field with no values, whose derivative runs out."""
        if alg is None:
            raise OrderExceeded("derivative of an order-0 jet is not determined")
        return self._at(alg.order + depth, alg.cap + xdepth)

    def field(self, name, order=None, cap=None):
        """Field ``name`` through at least jet ``order`` and x-degree ``cap``,
        by default its full order ``self.order - DEPTH[name]`` and full cap
        ``SEED_CAP - XDEPTH[name]``.

        It is built at the larger of the asked, the planned and any order
        and cap already built, at most the full ones, from its ledger inputs
        cut to that order and cap plus their depths (at least 0: a field with
        no values raises in the derivative that runs out of order).
        """
        if name not in LEDGER:
            raise BadConfig(f"unknown field {name!r}")
        full, full_cap = self.order - DEPTH[name], SEED_CAP - XDEPTH[name]
        want = full if order is None else order
        want_cap = full_cap if cap is None else cap
        built, built_cap = self._built.get(name, (-math.inf, -math.inf))
        if built < want or built_cap < min(want_cap, want):
            plan, plan_cap = self._plan[name]
            p = min(max(want, plan, built), full)
            c = min(max(want_cap, plan_cap, built_cap), full_cap, max(p, 0))
            alg = self._at(p, c) if p >= 0 else None
            inputs = [self._cut(src, max(p + d, 0), c + x) for src, d, x in LEDGER[name]]
            if name in HDERIVS:
                out = self._hderiv(alg, *inputs, valence=VALENCE[HDERIVS[name]])
            else:
                out = getattr(self, "_build_" + name)(alg, *inputs)
            self._cache[name] = out
            self._built[name] = (math.inf, math.inf) if name in _FLOATS else (p, c)
        return self._cache[name]

    def _cut(self, name, order, cap):
        """Field ``name`` through ``order`` and ``cap``, cut down if it is built deeper."""
        T = self.field(name, order, cap)
        return T if name in _FLOATS else self._at(*self._built[name]).cut(T, self._at(order, cap))

    def values(self, name):
        """Float values of a field, built at its planned order or deeper: one
        array (P, *slots), or at a single point the (*slots) array, a float
        for a scalar field.  A copy, so a caller may keep or change it."""
        T = self.field(name, *self._plan[name])
        return self._values(T if name in _FLOATS else T[..., 0])

    def _values(self, V):
        """Values V, shape (*slots, P), as :meth:`values` hands them out."""
        if self.point is None:
            return np.moveaxis(V, -1, 0).copy()
        return float(V[0]) if V.ndim == 1 else V[..., 0].copy()

    # --- derivative operators ---

    def _vd(self, T, alg, times=1):
        """``times`` vertical derivatives of T, coefficients in ``alg``, each a new last slot."""
        for _ in range(times):
            T = _deriv(alg, T, self._ys)
            alg = alg.lowered(self.n)
        return T

    def _first_jet(self, name, cap):
        """Field ``name`` through order 1 and x-degree ``cap``: all that the
        values of its first derivatives read."""
        if name in _FLOATS:
            raise BadConfig(f"{name} holds float values, not jets")
        return self._cut(name, 1, cap)

    def vderiv(self, name):
        """Values of the vertical derivative of field ``name``: one extra lower y-slot."""
        return self._values(self._vd(self._first_jet(name, 0), self._at(1, 0))[..., 0])

    def hderiv(self, name):
        """Values of the horizontal derivative of field ``name`` with the
        Berwald connection: one extra lower slot.  Per entry and new slot k,
        with the field's slots as ``VALENCE`` lists them (none if unlisted):

            T_{|k} = dT/dx^k - sum_m N^m_k dT/dy^m
                     + sum_m T[..m..] Gamma^s_mk   (each "up" slot s)
                     - sum_m T[..m..] Gamma^m_sk   (each "lo" slot s)
        """
        return self._values(self._horizontal(name)[..., 0])

    def directional(self, name):
        """Values of T_{...|s} y^s for the field T = ``name``."""
        return self._values(self._contract_y(self._horizontal(name), self._at(0, 0))[..., 0])

    def _horizontal(self, name):
        """:meth:`hderiv` through order 0, from the field at order 1 and
        x-degree 1 and N, and Gamma if the field has slots, at order 0."""
        T = self._first_jet(name, 1)
        valence = VALENCE.get(name, ())
        conn = [self._cut(C, 0, 0) for C in ("N", "Gamma")[: 1 + bool(valence)]]
        return self._hderiv(self._at(0, 0), T, *conn, valence=valence)

    def _hderiv(self, lo, T, N, Gamma=None, valence=()):
        """:meth:`hderiv` in ``lo`` of T in ``_deeper(lo, 1, 1)``, N and Gamma
        in ``lo``: each term one row-wise product over all entries, added in
        the order written."""
        n = self.n
        rank = T.ndim - 2
        if len(valence) != rank:
            raise ShapeMismatch(f"valence has {len(valence)} slots, tensor has {rank}")
        tin = self._deeper(lo, 1, 1)
        acc = _deriv(tin, T, self._xs)
        dy = tin.lowered(n).cut(_deriv(tin, T, self._ys), lo)
        for m in range(n):
            acc -= mul_rows(lo, N[m], dy[..., m, None, :, :])
        if valence:
            T = tin.cut(T, lo)
        for slot, kind in enumerate(valence):
            for m in range(n):
                Tm = np.expand_dims(np.take(T, m, axis=slot), (slot, rank))
                G = Gamma[:, m] if kind == "up" else Gamma[m]  # axes (s, k)
                G = G.reshape((1,) * slot + (n,) + (1,) * (rank - slot - 1) + G.shape[1:])
                term = mul_rows(lo, Tm, G)
                acc = acc + term if kind == "up" else acc - term
        return acc

    def _contract_y(self, H, alg):
        """sum_s H[..., s] y^s, the trailing slot contracted with y."""
        terms = mul_seeds(alg, H, self._y0, axis=-3)
        return _fold(terms[..., s, :, :] for s in range(self.n))

    # --- field builders: the output algebra, then the inputs as LEDGER lists
    # them, each read in ``_deeper(alg, depth, xdepth)``

    def _build_F(self, alg):
        program = seed_program(self.metric.tape, alg)
        return np.stack([_F_coef(self.metric, program, p.x, p.y) for p in self.points])

    def _build_F2(self, alg, F):
        return mul_rows(alg, F, F)

    def _build_recF(self, alg, F):
        return _compose_rows(alg, F, reciprocal_series)

    def _build_recF2(self, alg, F2):
        return _compose_rows(alg, F2, reciprocal_series)

    def _build_g(self, alg, F2):
        return _symmetric(self._vd(F2, self._deeper(alg, 2), 2)) * 0.5

    def _build_g0(self, alg, g):
        g0 = g[..., 0].copy()
        per_point = np.moveaxis(g0, -1, 0)
        for g_p, eig, p in zip(per_point, np.linalg.eigvalsh(per_point)[:, 0], self.points):
            _require_positive_definite(g_p, eig, p.x, p.y)
        return g0

    def _build_ginv0(self, alg, g0):
        return np.moveaxis(np.linalg.inv(np.moveaxis(g0, -1, 0)), 0, -1)

    def _build_g_inv(self, alg, g, ginv0):
        """Inverse metric: the Neumann series X_t = g0^{-1} + M X_{t-1} with
        M = -g0^{-1}(g - g0).  M has no constant term, so X_t is exact through
        order t: iteration t runs in the order-t algebra, X_{t-1} zero-padded."""
        dev = g.copy()
        dev[..., 0] -= g[..., 0]
        M = _fold(-ginv0[:, k, None, :, None] * dev[k] for k in range(self.n))  # [i, j]
        del dev
        X = ginv0[..., None]
        for t in range(1, alg.order + 1):
            at = self._at(t, alg.cap)
            Xt = np.zeros(X.shape[:-1] + (at.size,))
            Xt[..., : X.shape[-1]] = X
            products = mul_rows(at, M[:, :, None], Xt)  # [i, k, j] = M_ik X_kj
            # ginv0 as a constant jet plus the sum: the other coefficients gain + 0.0
            X = _fold(np.swapaxes(products, 0, 1))
            X[..., 0] += ginv0
            X[..., 1:] += 0.0
        return X

    def _build_ylow(self, alg, g):
        return self._contract_y(g, alg)

    def _build_h(self, alg, g, ylow, recF2):
        yy = mul_rows(alg, ylow[:, None], ylow)
        return _symmetric(g - mul_rows(alg, yy, recF2))

    def _build_C(self, alg, F2):
        return _symmetric(self._vd(F2, self._deeper(alg, 3), 3)) * 0.25

    def _build_I(self, alg, g_inv, C):
        products = mul_rows(alg, g_inv[:, :, None], C)  # [i, j, k]
        return _fold(products.reshape((self.n**2,) + products.shape[2:]))

    def _build_G(self, alg, F2, g_inv):
        a2 = self._deeper(alg, 2, 1)
        dx = _deriv(a2, F2, self._xs)  # [k] = dF^2/dx^k
        yterms = mul_seeds(alg, self._vd(dx, a2.lowered(0)), self._y0, axis=0)  # [k, l]
        brk = _fold(yterms) - dx[..., : alg.size]
        return _fold(np.swapaxes(mul_rows(alg, g_inv, brk), 0, 1)) * 0.25

    def _build_N(self, alg, G):
        return self._vd(G, self._deeper(alg, 1))

    def _build_Gamma(self, alg, N):
        return _symmetric(self._vd(N, self._deeper(alg, 1)), lead=1)

    def _build_B(self, alg, Gamma):
        return _symmetric(self._vd(Gamma, self._deeper(alg, 1)), lead=1)

    def _build_E(self, alg, B):
        r = range(self.n)
        return _symmetric(_fold(B[r, :, :, r]) * 0.5)  # [m, j, k] = B^m_jkm

    def _build_R1(self, alg, G, N, Gamma):
        n = self.n
        aG = self._deeper(alg, 2, 1)
        dxG = _deriv(aG, G, self._xs)  # [i, k] = dG^i/dx^k
        yterms = mul_seeds(alg, self._vd(dxG, aG.lowered(0)), self._y0, axis=1)  # [i, j, k]
        gterms = mul_rows(alg, aG.cut(G, alg)[:, None], Gamma) * 2.0  # [i, j, k] = 2 G^j Gamma^i_jk
        nterms = mul_rows(alg, N[:, :, None], N)  # [i, j, k] = N^i_j N^j_k
        acc = dxG[..., : alg.size] * 2.0
        for j in range(n):
            acc = acc - yterms[:, j]
            acc = acc + gterms[:, j]
            acc = acc - nterms[:, j]
        return acc

    def _build_Rhh(self, alg, R1):
        n = self.n
        aR = self._deeper(alg, 2)
        dR = self._vd(R1, aR)  # [i, k, l] = dR^i_k/dy^l
        V = np.moveaxis(self._vd(dR - dR.swapaxes(1, 2), aR.lowered(n)), -3, 1) * (1.0 / 3.0)
        zero = (V[0, 0, 0, 1] if n > 1 else self._vd(dR, aR.lowered(n))[0, 0, 0, 0]) * 0.0
        out = _antisymmetric(V)
        out[:, :, range(n), range(n)] = zero
        return out

    def _build_RhhV(self, alg, Rhh):
        # vertical derivative of R_j^i_kl; axes (i, j, k, l, m)
        return self._vd(Rhh, self._deeper(alg, 1))

    def _build_gv(self, alg, g):
        return self._vd(g, self._deeper(alg, 1))

    def _build_L_C(self, alg, Ch):
        # L_ijk = C_{ijk|s} y^s
        return self._contract_y(Ch, alg)

    def _build_L_B(self, alg, ylow, B):
        products = mul_rows(alg, ylow[:, None, None, None], B)  # [m, i, j, k]
        return _symmetric(_fold(products) * -0.5)

    def _build_Sigma(self, alg, Lh):
        return _antisymmetric((Lh - Lh.swapaxes(2, 3)) * 2.0)

    def _build_D(self, alg, Ch):
        # D_ijkl = C_{ijk|l} - C_{ijl|k}; the stretch tensor is 2*(D h-shifted)
        return _antisymmetric(Ch - Ch.swapaxes(2, 3))

    def _build_J_L(self, alg, g_inv, L_B):
        products = mul_rows(alg, g_inv, L_B)  # [i, k, l]
        return _fold(np.moveaxis(products.reshape((self.n, self.n**2) + products.shape[-2:]), 1, 0))

    def _build_J_I(self, alg, Ih):
        # J_i = I_{i|s} y^s
        return self._contract_y(Ih, alg)

    def _build_phi(self, alg, g_inv, L_C):
        """phi = L^{ijk} L_ijk (squared norm of the Landsberg tensor)."""
        T = L_C
        for _ in range(3):
            # raise the leading slot, then cycle it to the back
            products = mul_rows(alg, g_inv[:, :, None, None], T)  # [a, s, b, c]
            T = np.moveaxis(_fold(np.swapaxes(products, 0, 1)), 0, 2)
        return _fold(mul_rows(alg, T, L_C).reshape((-1,) + L_C.shape[-2:]))

    # --- two-dimensional frame fields and scalar ratios ---

    def _build_frame2(self, alg, g, recF):
        """Orthonormal frame ell = y/F, m with det[ell m] > 0, as rows 0 and 1."""
        if self.n != 2:
            raise DimensionError(f"frame needs n = 2, got n = {self.n}")
        ell = mul_seeds(alg, np.broadcast_to(recF, (2,) + recF.shape), self._y0, axis=0)
        k0 = np.argmin(np.abs(self._y0), axis=0)  # per point, the seed axis least aligned with y
        glu = _fold(mul_rows(alg, g[:, k0, range(k0.size)], ell))
        mt = mul_rows(alg, -1.0 * glu, ell)
        mt[..., 0] += np.eye(2)[k0].T
        nrm2 = _fold(mul_rows(alg, mul_rows(alg, g, mt[:, None]), mt).reshape((4,) + mt.shape[1:]))
        m = mul_rows(alg, mt, _compose_rows(alg, nrm2, functools.partial(power_series, -0.5)))
        flip = ell[0, :, 0] * m[1, :, 0] - ell[1, :, 0] * m[0, :, 0] < 0
        return np.stack([ell, np.where(flip[:, None], -1.0 * m, m)])

    def _build_I2(self, alg, frame2, C, F):
        """Principal scalar of a 2-D metric: I with C = F^-1 I m x m x m."""
        m = frame2[1]
        T = mul_rows(alg, C, m[:, None, None])
        T = mul_rows(alg, mul_rows(alg, T, m[:, None]), m)
        return mul_rows(alg, F, _fold(T.reshape((8,) + T.shape[-2:])))

    def _build_mu2(self, alg, I2, N, recF):
        """mu = I_{|s} y^s / (F I), the log-derivative of the principal scalar."""
        for value in I2[:, 0]:
            if abs(value) < 1e-8:
                raise RiemannianPoint(f"principal scalar {value:.3e} is numerically zero")
        aI = self._deeper(alg, 1, 1)
        num = mul_rows(alg, self._contract_y(self._hderiv(alg, I2, N), alg), recF)
        return mul_rows(alg, num, aI.cut(_compose_rows(aI, I2, reciprocal_series), alg))

    def _build_cratio(self, alg, Sigma, D, F):
        """Pointwise stretch ratio c with Sigma = c F (C_{ijk|l} - C_{ijl|k})."""
        FD = mul_rows(alg, F, D)
        num = _fold(mul_rows(alg, Sigma, FD).reshape((-1,) + FD.shape[-2:]))
        den = _fold(mul_rows(alg, FD, FD).reshape((-1,) + FD.shape[-2:]))
        for a, b in zip(num[:, 0], den[:, 0]):
            require_stretch_design(float(a), float(b))
        return mul_rows(alg, num, _compose_rows(alg, den, reciprocal_series))


# --- public API: scopes, the bundle, the flag curvature and the spray ---

def point_scope(metric, point, order=BUNDLE_ORDER) -> FieldScope:
    point = point if isinstance(point, PointState) else PointState(*point)
    return FieldScope(metric, point, order)


def _ensure_scope(metric, point, scope, op=None, order=None):
    """``scope``, or a new single-point one at ``order`` (by default the
    least ``op`` needs).  A given scope must be a single-point one, or
    BadConfig: a scope made for a list of points gives values with a point
    axis.  With an ``op``, raises OrderExceeded below ``MIN_ORDER[op]``."""
    if scope is not None:
        if scope.point is None:
            raise BadConfig(f"a single-point call needs a single-point scope, got one of "
                            f"{len(scope.points)} point(s)")
        order = scope.order
    elif order is None:
        order = MIN_ORDER[op]
    if op is not None and order < MIN_ORDER[op]:
        raise OrderExceeded(f"{op} needs seed order >= {MIN_ORDER[op]}, got {order}")
    return scope if scope is not None else point_scope(metric, point, order)


#: F^2 partials read by :func:`spray_values`, named by differentiation
#: slots with the x slot last: entry [l, j, k] of "yyx" is
#: d^3 F^2 / dy^l dy^j dx^k.  A pattern of length d needs seed order d.
_SPRAY_PARTIALS = ("x", "yy", "yx", "yyy", "yyx", "yyyy", "yyyx")


class _SprayPlan:
    """What :func:`spray_values` runs at one depth of one tape, resolved
    once and kept in ``tape.plans``: the seed program of F (``program``, in
    the order-(2 + depth), x-degree-cap-1 algebra) and where the partials
    of ``_SPRAY_PARTIALS`` it holds sit in F^2 = F * F.

    Those are the pairs (mi, mj) of the product table of F * F that land on
    a coefficient read, in table order, with that coefficient's place among
    those read (``bins``, ``count`` of them), each partial's coefficient as
    such a place (``where``), its factorial ``scale``, and {pattern:
    (slice, shape)} to split the partials into blocks.  A bincount over
    these pairs adds each coefficient read from the same pairs in the same
    order as the whole product does.  A constant formula has no pairs:
    :func:`_F_coef` rejects it first.
    """

    __slots__ = ("program", "mi", "mj", "bins", "count", "where", "scale", "split")

    def __init__(self, tape, depth):
        alg = _algebra(2 * tape.n, 2 + depth, 1)
        self.program = seed_program(tape, alg)
        if self.program.deg is None:
            return
        product, _ = product_algebra(alg, 2 * self.program.deg)  # the algebra F * F runs in
        n = tape.n
        idx, scale, self.split = [], [], {}
        for pattern in _SPRAY_PARTIALS:
            if len(pattern) > alg.order:
                continue
            shape = (n,) * len(pattern)
            self.split[pattern] = (slice(len(idx), len(idx) + n ** len(pattern)), shape)
            for combo in np.ndindex(shape):
                exps = [0] * alg.n_vars
                for kind, i in zip(pattern, combo):
                    exps[i if kind == "x" else n + i] += 1
                idx.append(alg.index[tuple(exps)])
                scale.append(math.prod(math.factorial(e) for e in exps))
        read, self.where = np.unique(idx, return_inverse=True)
        place = np.full(alg.size, -1)
        place[read] = np.arange(read.size)
        mi, mj, mo = product.mul_table
        keep = place[mo] >= 0
        self.mi, self.mj, self.bins, self.count = mi[keep], mj[keep], place[mo[keep]], read.size
        self.scale = np.array(scale, dtype=float)

    def partials(self, f):
        """The partials of F^2 from F's coefficients f, by pattern: each a
        C-contiguous block, so every matmul on it sums in one order."""
        flat = np.bincount(self.bins, f[self.mi] * f[self.mj], self.count)[self.where] * self.scale
        return {p: flat[part].reshape(shape) for p, (part, shape) in self.split.items()}


def spray_values(metric, x, y, depth=0):
    """Float g and spray fields at (x, y), for ODE right-hand sides: [g, G]
    for depth 0, [g, G, N] for depth 1 and [g, G, N, Gamma] for depth 2;
    any other depth is a BadConfig.

    No :class:`FieldScope` and no ``Jet``: the tape's plan for this depth
    (:class:`_SprayPlan`) runs F's seed program on the point's seed block,
    in the order-(2 + depth) algebra with x-degree cap 1, since every
    pattern in ``_SPRAY_PARTIALS`` holds one x at most.  It sums only the
    coefficients of F^2 those patterns read, and the rest is float linear
    algebra.  With A = g and b_l = y^k d^2F^2/dx^k dy^l - dF^2/dx^l, u = 4G
    solves A u = b, and differentiating that system in y gives

        u_{,j}  = A^{-1} (b_{,j} - A_{,j} u)                                  = 4 N_j
        u_{,jk} = A^{-1} (b_{,jk} - A_{,jk} u - A_{,j} u_{,k} - A_{,k} u_{,j})  = 4 Gamma_jk

    so g and G need F^2 at order 2, N order 3 and Gamma order 4.  The gates
    are a scope's: finite x and y, dimension, chart, y's length, a zero y,
    the metric's domain, jet propagation, F > 0 and positive definiteness
    of g, for which eigvalsh runs only where Gershgorin's discs do not clear
    g (:func:`_clears_gate`).
    """
    if type(depth) is not int or not 0 <= depth <= 2:
        raise BadConfig(f"spray depth must be 0, 1 or 2, got {depth!r}")
    x, y = tuple(map(float, x)), tuple(map(float, y))
    if not all(map(math.isfinite, x + y)):  # a DomainError, which an integrator stage recovers from
        raise DomainError(f"point is not finite: x = {x}, y = {y}")
    _check_point(metric, x)
    plan = metric.tape.plans.get(depth)
    if plan is None:
        plan = metric.tape.plans[depth] = _SprayPlan(metric.tape, depth)
    P = plan.partials(_F_coef(metric, plan.program, x, y))
    g = 0.5 * P["yy"]
    if not _clears_gate(g):
        _require_positive_definite(g, np.linalg.eigvalsh(g)[0], x, y)
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


def _route_residual(scope, name, other):
    """Residual of field ``name`` against the second route ``other``."""
    a = scope.values(name)
    return rel_residual(a, scope.values(other), floor=max(1.0, float(np.max(np.abs(a)))))


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


@dataclass
class CurvatureBundle:
    """Every curvature block at one point, by name (``BLOCKS``), plus route
    diagnostics."""

    point: PointState
    label: str
    order: int
    F: float
    blocks: dict
    diagnostics: dict
    scope: FieldScope = dc_field(repr=False, default=None)

    def block(self, name):
        return self.blocks[name]

    @property
    def spray(self):
        return SprayData(*(self.blocks[k].values for k in ("G", "N", "Gamma")))

    def to_dict(self):
        out = {
            "label": self.label,
            "x": list(self.point.x),
            "y": list(self.point.y),
            "order": self.order,
            "F": self.F,
            "diagnostics": dict(self.diagnostics),
        }
        for name, blk in self.blocks.items():
            out[name] = blk.values.tolist()
        return out


def curvature_bundle(metric, point, order=BUNDLE_ORDER, scope=None) -> CurvatureBundle:
    """Evaluate the full tower at one point, with route cross-checks.

    Needs order >= 6; the stretch-vs-hh-curvature diagnostic additionally
    needs order >= 7 and reports None below that.  Given a ``scope``, it
    reads that scope at its point and order.
    """
    scope = _ensure_scope(metric, point, scope, "bundle", order)
    blocks = {name: TensorBlock(name, scope.values(f), VALENCE[f]) for name, f in BLOCKS.items()}
    F = scope.values("F")
    C, L, R1, Rhh, Sigma = (blocks[k] for k in ("C", "L", "R1", "Rhh", "Sigma"))

    y = np.asarray(scope.point.y)
    diag = {}

    # F is horizontally constant; strong wiring check on G and N.
    Fh = scope.values("Fh")
    diag["horizontal_F"] = float(np.max(np.abs(Fh))) / F

    for key, T in (("cartan_y_trace", C), ("landsberg_y_trace", L)):
        diag[key] = rel_residual(np.einsum("i,ijk->jk", y, T.values), floor=max(T.norm, 1.0))
    diag["landsberg_routes"] = _route_residual(scope, "L_B", "L_C")
    diag["mean_landsberg_routes"] = _route_residual(scope, "J_L", "J_I")
    # y^j y^l R_j^i_kl recovers R^i_k
    diag["riemann_y_trace"] = rel_residual(
        np.einsum("j,l,ijkl->ik", y, y, Rhh.values), R1.values,
        floor=max(R1.norm, 1.0),
    )
    diag["stretch_bianchi"] = None
    if scope.order >= 7:
        RhhV = scope.values("RhhV")
        sigma_b = np.einsum("i,ijklm->jmkl", scope.values("ylow"), RhhV)
        diag["stretch_bianchi"] = rel_residual(Sigma.values, sigma_b, floor=max(Sigma.norm, 1.0))

    return CurvatureBundle(
        point=scope.point,
        label=getattr(metric, "label", ""),
        order=scope.order,
        F=F,
        blocks=blocks,
        diagnostics=diag,
        scope=scope,
    )
