"""Truncated multivariate Taylor arithmetic.

A jet holds the Taylor coefficients of a smooth function of ``n_vars``
real variables around a base point, truncated at a total derivative
order ``K``.  Coefficients are stored in derivative/factorial
normalization: the entry for multi-index ``alpha`` is
``d^alpha f / alpha!`` evaluated at the base point, so products are plain
Cauchy convolutions over the graded monomial basis.

Storage is a dense numpy vector over all monomials of total order <= K,
ordered by total order and then lexicographically.  That ordering makes
the basis of order K a prefix of the basis of order K+1, so truncation
is a slice.  Index bookkeeping (multiplication pairs, per-variable
derivative maps) is precomputed once per algebra and cached.

An algebra may also cap the x-degree: keyed ``(n_vars, K, p)``, it keeps
only the monomials whose degree in the x variables, the first
``n_vars // 2``, is <= p, in the same order, so for a fixed p lowering K
is still a slice; p >= K caps nothing and is today's algebra.  The dropped
monomials form an ideal, so every operation on capped jets gives the kept
coefficients of the uncapped result.  A pair of the uncapped product table
that lands on a kept monomial has both factors kept, so the capped table,
the uncapped one with the other pairs masked out in its own order, sums
the same pairs in the same order: every kept coefficient equals the
uncapped one bit for bit, sign of zero included, even where a factor is
inf or NaN.  A y-derivative maps (K, p) to (K - 1, p), an x-derivative to
(K - 1, p - 1); a cap changes the basis, not only its length, so a jet's
size no longer names its algebra: with 6 variables, (K 3, p 3) and
(K 6, p 0) both hold 84 coefficients.

Seeding a coordinate variable gives the jet of the identity function in
that slot; pushing seeded jets through arithmetic and the closed-form
functions (``Jet.sqrt``, ``exp``, ``log``, ``sin``, ``cos``, powers)
evaluates all mixed partials of the composite expression at once, exactly
up to round-off.  ``Jet.coefficient`` reads one of them, divided by the
factorials of its multi-index.

Closed-form functions compose a univariate series with u = a - a(0) by
Horner's rule.  They run it in growing order: u has no constant term, so
the coefficients of order <= d of a product p * u read only those of p of
order < d, and the Horner value after adding series[k] is needed only
through order K - k.  Each step runs in that algebra, with the jet's cap.
A product's coefficient sums the same pairs in the same order in every
algebra that holds it, so the result equals the full-order evaluation bit
for bit.  ``mul_rows`` and ``deriv_rows`` apply the product and derivative
tables to stacked coefficient arrays, one row per jet, with the same
summation order.

A product with a y seed, a value y0 plus one unit slope in a y variable v,
needs no table (``mul_seeds``): its table sum adds, from +0.0, the product
with the slope, which is a shifted up by v, and y0 * a, each with +-0 terms
between them.  On finite coefficients that is (y0 * a + shifted a) + 0.0
bit for bit, sign of zero included; the shift uses v's derivative table
without its factors, which a y-derivative's unchanged cap keeps in this
algebra.

The tables are built with array operations.  The basis index of an exponent
is a sum of binomial coefficients of its suffix sums (``_Algebra._ranks``);
suffix sums add like exponents, so the row sums of two exponents index their
sum, the entry a pair-by-pair lookup finds.  A capped algebra maps those
uncapped indices to its own through ``pos``.

Each jet carries ``deg``, an upper bound on the degree of the polynomial its
coefficients hold: every coefficient of higher order is +-0.  Seeds have
degree 1 and constants 0.  A sum takes the larger degree and a product the
sum of the two; negation and finite scalars keep it, a derivative lowers it
by one, and compositions and jets built without one get the full order.
Jets of degrees p and q with d = p + q < K multiply in the order-d algebra
of the same cap, zero-padded: a coefficient of order <= d sums the same
pairs in the same order there (the basis is a prefix), and each pair of
higher order has a +-0 factor, so its full-table sum is the +0.0 the padding
gives.  That holds for finite coefficients; where one is inf or NaN, the
full table would put 0 * inf = NaN above order d and the padding keeps +0.0
there, the exact product of the two polynomials.

Products of more than ``_BLOCK`` pairs run ``_BLOCK`` pairs at a time through
``np.add.at``, which adds in the order of one ``np.bincount``.  No
temporary then exceeds 64 KiB, half of glibc's smallest mmap threshold, so
no product maps fresh pages, whatever threshold the allocator's history has
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadConfig,
    DivisionByZero,
    DomainError,
    OrderExceeded,
    ShapeMismatch,
    ZeroVector,
)

_ALGEBRA_CACHE: dict[tuple[int, int, int], "_Algebra"] = {}

#: pairs per product chunk: 64 KiB temporaries (module docstring)
_BLOCK = 8192


def _exponent_tuples(n_vars, degree):
    """All exponent tuples of the given total degree, deterministic order."""
    if n_vars == 1:
        yield (degree,)
        return
    for head in range(degree, -1, -1):
        for rest in _exponent_tuples(n_vars - 1, degree - head):
            yield (head,) + rest


class _Algebra:
    """Index tables for one (n_vars, order, cap) jet space.

    The basis is every monomial of total order <= ``order`` whose x-degree,
    its degree in the first ``n_x = n_vars // 2`` variables, is <= ``cap``,
    in the order of the uncapped basis.  ``kept`` holds their indices in the
    uncapped basis and ``pos`` the inverse map (-1 where dropped); both are
    None for an uncapped algebra (cap == order).
    """

    def __init__(self, n_vars, order, cap):
        self.n_vars = n_vars
        self.order = order
        self.cap = cap
        self.n_x = n_vars // 2
        if cap == order:
            exps = []
            for d in range(order + 1):
                exps.extend(_exponent_tuples(n_vars, d))
            self.kept = self.pos = None
        else:
            full = _algebra(n_vars, order)
            self.kept = np.flatnonzero(full.xdeg <= cap)
            exps = [full.exponents[i] for i in self.kept]
            self.pos = np.full(full.size, -1, dtype=np.int64)
            self.pos[self.kept] = np.arange(self.kept.size)
        self.exponents = exps
        self.size = len(exps)
        self.index = {e: i for i, e in enumerate(exps)}
        self.orders = np.array([sum(e) for e in exps], dtype=np.int64)
        self.xdeg = np.array([sum(e[: self.n_x]) for e in exps], dtype=np.int64)
        self.count_through_order = np.cumsum(np.bincount(self.orders, minlength=order + 1)).tolist()
        self._mul_table = None
        self._deriv_tables = None
        self._stacked = {}
        self._cuts = {}

    def _ranks(self):
        """Exponents, their suffix sums and the binomial tables that rank them.

        With T_c = e_c + ... + e_{n-1}, the index of e in the uncapped basis
        is the sum over c of ``binom[c][T_c]`` = C(T_c + n - c - 1, n - c):
        the c = 0 term counts the monomials of lower order, each later one
        those that share e's first c - 1 entries and have a larger entry at
        c - 1.  Suffix sums add like exponents, so T(e) + T(f) ranks e + f.
        """
        n = self.n_vars
        exps = np.array(self.exponents, dtype=np.int64).reshape(self.size, n)
        suffix = np.cumsum(exps[:, ::-1], axis=1)[:, ::-1]
        binom = [np.array([math.comb(t + n - c - 1, n - c) for t in range(self.order + 1)])
                 for c in range(n)]
        return exps, suffix, binom

    def lowered(self, var):
        """Algebra of a derivative in ``var``: one order lower, and for an x
        variable one x-degree lower."""
        if self.order == 0:
            raise OrderExceeded("derivative of an order-0 jet is not determined")
        cap = self.cap
        if var < self.n_x:
            if cap == 0:
                raise OrderExceeded("x-derivative of a jet with x-degree cap 0 is not determined")
            cap -= 1
        return _algebra(self.n_vars, self.order - 1, cap)

    @property
    def mul_table(self):
        """Pairs (i, j) with e_i + e_j in the basis, row by row, and the index
        of e_i + e_j: the arrays (mi, mj, mo).

        Row i pairs with the columns j of order <= K - order(i) and x-degree
        <= cap - xdeg(i), ascending: the uncapped table with every pair that
        leaves the basis masked out, in its own order.
        """
        if self._mul_table is None:
            _, suffix, binom = self._ranks()
            keys = (self.order - self.orders) * (self.cap + 1) + self.cap - self.xdeg
            cols = {k: np.flatnonzero((self.orders <= k // (self.cap + 1))
                                      & (self.xdeg <= k % (self.cap + 1)))
                    for k in set(keys.tolist())}
            rows = [cols[k] for k in keys.tolist()]
            mi = np.repeat(np.arange(self.size), [r.size for r in rows])
            mj = np.concatenate(rows)
            mo = np.zeros(mi.size, dtype=np.int64)
            for c in range(self.n_vars):
                t = suffix[mi, c]
                t += suffix[mj, c]
                mo += binom[c][t]
            self._mul_table = (mi, mj, mo if self.pos is None else self.pos[mo])
        return self._mul_table

    @property
    def deriv_tables(self):
        """Per variable v, (src, dst, fac): coefficient src of a jet, times
        fac = e_src[v], is coefficient dst of its v-derivative, which lives
        in ``lowered(v)``."""
        if self._deriv_tables is None:
            exps, suffix, binom = self._ranks()
            tables = []
            for v in range(self.n_vars):
                src = np.flatnonzero(exps[:, v])
                dst = np.zeros(src.size, dtype=np.int64)
                for c in range(self.n_vars):
                    dst += binom[c][suffix[src, c] - (c <= v)]
                pos = self.lowered(v).pos if src.size else None
                if pos is not None:
                    dst = pos[dst]
                tables.append((src, dst, exps[src, v].astype(np.float64)))
            self._deriv_tables = tables
        return self._deriv_tables

    def stacked_derivs(self, variables):
        """(src, dst, fac, lower) applying the derivative tables of every
        variable in ``variables`` (a range, all landing in one algebra
        ``lower``) at once: coefficient src times fac is entry dst of the
        derivatives laid out one after the other, each ``lower.size`` long."""
        table = self._stacked.get(variables)
        if table is None:
            lower = self.lowered(variables[0])
            if any(self.lowered(v) is not lower for v in variables):
                raise ShapeMismatch("derivatives in x and in y land in different algebras")
            parts = [self.deriv_tables[v] for v in variables]
            table = (
                np.concatenate([src for src, _, _ in parts]),
                np.concatenate([k * lower.size + dst for k, (_, dst, _) in enumerate(parts)]),
                np.concatenate([fac for _, _, fac in parts]),
                lower,
            )
            self._stacked[variables] = table
        return table

    def cut(self, coef, sub):
        """The coefficients of the algebra ``sub`` (no larger order or cap)
        out of ``coef``, a coefficient array of this one: a slice where
        sub's basis is a prefix of this one, else a gather."""
        if sub is self:
            return coef
        idx = self._cuts.get(sub)
        if idx is None:
            if sub.n_vars != self.n_vars or sub.order > self.order or sub.cap > self.cap:
                raise OrderExceeded(
                    f"cannot cut order {self.order} cap {self.cap} jets "
                    f"to order {sub.order} cap {sub.cap}"
                )
            idx = np.arange(sub.size) if sub.kept is None else sub.kept
            if self.pos is not None:
                idx = self.pos[idx]
            if np.array_equal(idx, np.arange(sub.size)):
                idx = slice(0, sub.size)
            self._cuts[sub] = idx
        return coef[..., idx]


def _convolve(alg, a, b, size):
    """Coefficients through ``alg.order`` of the product of ``a`` and ``b``,
    zero-padded to ``size``.

    Each coefficient adds its pairs in ``alg.mul_table`` order, starting
    from +0.0: in one ``np.bincount`` for up to ``_BLOCK`` pairs, else
    ``_BLOCK`` pairs at a time through ``np.add.at`` (module docstring).
    """
    mi, mj, mo = alg.mul_table
    if mi.size <= _BLOCK:
        return np.bincount(mo, weights=a[mi] * b[mj], minlength=size)
    out = np.zeros(size)
    for s in range(0, mi.size, _BLOCK):
        np.add.at(out, mo[s : s + _BLOCK], a[mi[s : s + _BLOCK]] * b[mj[s : s + _BLOCK]])
    return out


def _algebra(n_vars, order, cap=None):
    """The jet space of ``n_vars`` variables through ``order``, x-degree at
    most ``cap`` (no cap by default; a cap >= order is none)."""
    if cap is None or cap > order or n_vars < 2:
        cap = order
    key = (n_vars, order, cap)
    alg = _ALGEBRA_CACHE.get(key)
    if alg is None:
        if n_vars < 1 or order < 0 or cap < 0:
            raise BadConfig(f"unusable jet space ({n_vars} vars, order {order}, x-degree cap {cap})")
        alg = _Algebra(n_vars, order, cap)
        _ALGEBRA_CACHE[key] = alg
    return alg


@dataclass(frozen=True)
class JetConfig:
    """Dimension and truncation settings for seeded jets.

    ``n`` is the manifold dimension; jets live in 2n variables (x then y).
    """

    n: int
    order: int = 5

    def __post_init__(self):
        if self.n < 1:
            raise BadConfig(f"dimension must be >= 1, got {self.n}")
        if self.order < 1:
            raise BadConfig(f"truncation order must be >= 1, got {self.order}")


class Jet:
    """One truncated Taylor expansion; supports arithmetic and composition."""

    __slots__ = ("alg", "coef", "deg")

    def __init__(self, alg, coef, deg=None):
        self.alg = alg
        self.coef = coef
        # upper bound on the degree of the polynomial the coefficients hold:
        # every coefficient of higher order is +-0 (module docstring)
        self.deg = alg.order if deg is None else deg

    # --- constructors ---

    @staticmethod
    def constant(alg, value):
        c = np.zeros(alg.size)
        c[0] = float(value)
        return Jet(alg, c, 0)

    @staticmethod
    def variable(alg, var, value):
        """The coordinate ``var`` at ``value``; its slope is dropped where the
        algebra holds no such monomial (order 0, or an x variable at cap 0)."""
        c = np.zeros(alg.size)
        c[0] = float(value)
        if alg.order >= 1 and (alg.cap >= 1 or var >= alg.n_x):
            # first-order monomials sit right after the constant; cap 0 keeps the y ones
            c[1 + var - (0 if alg.cap else alg.n_x)] = 1.0
        return Jet(alg, c, min(1, alg.order))

    # --- basic queries ---

    @property
    def value(self):
        return float(self.coef[0])

    @property
    def order(self):
        return self.alg.order

    @property
    def n_vars(self):
        return self.alg.n_vars

    def truncated(self, order):
        if order > self.alg.order:
            raise OrderExceeded(
                f"cannot extend order {self.alg.order} jet to order {order}"
            )
        if order == self.alg.order:
            return self
        alg = _algebra(self.alg.n_vars, order, self.alg.cap)
        return Jet(alg, self.coef[: alg.size].copy(), min(self.deg, order))

    def __repr__(self):
        return f"Jet(n_vars={self.n_vars}, order={self.order}, value={self.value:.6g})"

    # --- alignment ---

    def _with(self, other):
        """Coerce operands to a common algebra (the smaller order and cap)."""
        if isinstance(other, Jet):
            if other.alg is self.alg:
                return self.alg, self.coef, other.coef
            if other.alg.n_vars != self.alg.n_vars:
                raise ShapeMismatch(
                    f"jets in {self.alg.n_vars} and {other.alg.n_vars} variables"
                )
            alg = _algebra(self.alg.n_vars, min(self.alg.order, other.alg.order),
                           min(self.alg.cap, other.alg.cap))
            return alg, self.alg.cut(self.coef, alg), other.alg.cut(other.coef, alg)
        return self.alg, self.coef, None

    # --- ring operations ---

    def __add__(self, other):
        alg, a, b = self._with(other)
        if b is None:
            c = a.copy()
            c[0] += float(other)
            return Jet(alg, c, self.deg)
        deg = self.deg if self.deg > other.deg else other.deg
        return Jet(alg, a + b, deg if deg < alg.order else alg.order)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.alg, -self.coef, self.deg)

    def __sub__(self, other):
        return self.__add__(-other if isinstance(other, Jet) else -float(other))

    def __rsub__(self, other):
        return (-self).__add__(float(other))

    def __mul__(self, other):
        """Product; a scalar keeps the degree unless it is inf or NaN.

        Two jets of degrees p and q with d = p + q < K multiply in the
        order-d algebra, zero-padded (module docstring).
        """
        alg, a, b = self._with(other)
        if b is None:
            s = float(other)
            return Jet(alg, a * s, self.deg if math.isfinite(s) else alg.order)
        d = self.deg + other.deg
        if d < alg.order:
            return Jet(alg, _convolve(_algebra(alg.n_vars, d, alg.cap), a, b, alg.size), d)
        return Jet(alg, _convolve(alg, a, b, alg.size))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self.__mul__(other.reciprocal())
        return self.__mul__(1.0 / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal().__mul__(float(other))

    def __pow__(self, exponent):
        p = float(exponent)
        if p.is_integer():
            return self._int_pow(int(p))
        if self.value <= 0.0:
            raise DomainError(
                f"non-integer power of jet with value {self.value:.6g}"
            )
        a0 = self.value
        series = [a0**p]
        for k in range(1, self.alg.order + 1):
            series.append(series[-1] * (p - (k - 1)) / (k * a0))
        return self._compose(series)

    def _int_pow(self, p):
        if p == 0:
            return Jet.constant(self.alg, 1.0)
        base = self if p > 0 else self.reciprocal()
        m = abs(p)
        out = None
        acc = base
        while m:
            if m & 1:
                out = acc if out is None else out * acc
            m >>= 1
            if m:
                acc = acc * acc
        return out

    # --- composition with univariate series ---

    def _compose(self, series):
        """Horner evaluation of sum series[k] * u^k with u the nilpotent part.

        The value after the step that adds series[k] is needed only through
        order K - k, so that step runs in the order-(K - k) algebra (module
        docstring) with the jet's cap: ``out``, zero-padded into it, times u
        plus series[k], as :meth:`__mul__` and :meth:`__add__` compute them.
        The first step, a constant times u, is a scalar multiply; ``+ 0.0``
        turns -0.0 into 0.0 as a product's bincount does.
        """
        K, cap = self.alg.order, self.alg.cap
        u = self.coef.copy()
        u[0] = 0.0
        top = min(len(series) - 1, K)  # u^k vanishes for k > K
        if top == 0:
            return Jet.constant(self.alg, series[0])
        size = _algebra(self.alg.n_vars, K - top + 1, cap).size
        out = u[:size] * series[top] + 0.0
        out[0] += series[top - 1]
        for k in range(top - 2, -1, -1):
            alg = _algebra(self.alg.n_vars, K - k, cap)
            padded = np.zeros(alg.size)
            padded[: out.size] = out
            out = _convolve(alg, padded, u, alg.size)
            out[0] += series[k]
        return Jet(self.alg, out)

    def reciprocal(self):
        a0 = self.value
        if a0 == 0.0:
            raise DivisionByZero("division by jet with zero value part")
        series = [1.0 / a0]
        for _ in range(self.alg.order):
            series.append(-series[-1] / a0)
        return self._compose(series)

    def sqrt(self):
        a0 = self.value
        if a0 <= 0.0:
            raise DomainError(f"sqrt of jet with value {a0:.6g}")
        series = [math.sqrt(a0)]
        for k in range(1, self.alg.order + 1):
            series.append(series[-1] * (0.5 - (k - 1)) / (k * a0))
        return self._compose(series)

    def exp(self):
        series = [math.exp(self.value)]
        for k in range(1, self.alg.order + 1):
            series.append(series[-1] / k)
        return self._compose(series)

    def log(self):
        a0 = self.value
        if a0 <= 0.0:
            raise DomainError(f"log of jet with value {a0:.6g}")
        series = [math.log(a0), 1.0 / a0]
        for k in range(2, self.alg.order + 1):
            series.append(-series[-1] * (k - 1) / (k * a0))
        return self._compose(series)

    def sin(self):
        return self._trig(math.sin(self.value), math.cos(self.value))

    def cos(self):
        return self._trig(math.cos(self.value), -math.sin(self.value))

    def _trig(self, f0, f1):
        cycle = (f0, f1, -f0, -f1)
        series = []
        fact = 1.0
        for k in range(self.alg.order + 1):
            if k:
                fact *= k
            series.append(cycle[k % 4] / fact)
        return self._compose(series)

    # --- differentiation and coefficient access ---

    def deriv(self, var):
        """Formal partial derivative; result is exact one order lower, and
        for an x variable one x-degree lower."""
        if not 0 <= var < self.alg.n_vars:
            raise ShapeMismatch(f"variable {var} out of range 0..{self.alg.n_vars - 1}")
        lower = self.alg.lowered(var)
        src, dst, fac = self.alg.deriv_tables[var]
        out = np.zeros(lower.size)
        out[dst] = self.coef[src] * fac
        return Jet(lower, out, min(max(self.deg - 1, 0), lower.order))

    def coefficient(self, exponents):
        idx = self.alg.index.get(tuple(exponents))
        if idx is None:
            raise OrderExceeded(
                f"multi-index {tuple(exponents)} beyond truncation order {self.alg.order}"
            )
        return float(self.coef[idx])


# --- row-wise kernels on stacked coefficient arrays ---

def mul_rows(alg, a, b):
    """Products of jets stored as rows: row r is Jet(alg, a[r]) * Jet(alg, b[r]).

    ``a`` and ``b`` are coefficient arrays of shape (..., >= alg.size) that
    broadcast against each other.  One gather (``np.take``), one multiply
    and one bincount with per-row offsets; each row's products are added in
    mul-table order, as in :meth:`Jet.__mul__`, so the rows match it bit for
    bit.  Rows are independent, so above ``_BLOCK`` pairs in all they go in
    blocks of ``_BLOCK // pairs`` rows, which keeps the pair temporaries
    that small.  A single row, and each row where a block would hold one, is
    one ``_convolve``, the product :meth:`Jet.__mul__` forms, with no copies.
    In the order-0 algebra each row is its one pair's product added to +0.0.
    """
    mi, mj, mo = alg.mul_table
    size = alg.size
    if size == 1:
        return np.multiply(a[..., :1], b[..., :1]) + 0.0
    if a.ndim == b.ndim == 1:
        return _convolve(alg, a, b, size)
    rows = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    count = math.prod(rows)
    step = _BLOCK // mi.size
    if step <= 1:
        a, b = (np.broadcast_to(x[..., :size], rows + (size,)) for x in (a, b))
        out = np.empty(rows + (size,))
        for r in np.ndindex(rows):
            out[r] = _convolve(alg, a[r], b[r], size)
        return out
    if count <= step:
        w = np.multiply(np.take(a, mi, axis=-1), np.take(b, mj, axis=-1), order="C")
        slots = (np.arange(count)[:, None] * size + mo).ravel()
        out = np.bincount(slots, weights=w.ravel(), minlength=count * size)  # C order: a view
        return out.reshape(rows + (size,))
    a, b = (np.broadcast_to(x[..., :size], rows + (size,)).reshape(count, size) for x in (a, b))
    slots = (np.arange(step)[:, None] * size + mo).ravel()
    out = np.empty((count, size))
    for r in range(0, count, step):
        n = min(step, count - r)
        w = np.take(a[r : r + n], mi, axis=1)
        w *= np.take(b[r : r + n], mj, axis=1)
        out[r : r + n] = np.bincount(
            slots[: n * mi.size], weights=w.ravel(), minlength=n * size
        ).reshape(n, size)
    return out.reshape(rows + (size,))


def deriv_rows(alg, a, variables):
    """Row-wise :meth:`Jet.deriv` in each of ``variables`` (a range, all x or
    all y): coefficients of shape (..., alg.size) in, (..., len(variables),
    size of ``alg.lowered``) out, one gather for all of them."""
    src, dst, fac, lower = alg.stacked_derivs(variables)
    out = np.zeros(a.shape[:-1] + (len(variables) * lower.size,))
    out[..., dst] = a[..., src] * fac
    return out.reshape(a.shape[:-1] + (len(variables), lower.size))


def mul_seeds(alg, a, values, axis=-2):
    """Row-wise products with the y seeds, without the product table.

    Entry k along ``axis`` of ``a`` (coefficients of shape (..., >=
    alg.size)) is multiplied by ``Jet.variable(alg, n_x + k, values[k])``,
    the seed of the k-th y variable: values[k] * a, plus a shifted up by
    that variable through its derivative table's indices, then + 0.0, which
    equals :func:`mul_rows` with the seed rows bit for bit on finite data
    (module docstring).  A y-derivative keeps the cap, so the shift stays in
    this algebra.
    """
    a = a[..., : alg.size]
    axis %= a.ndim
    shape = [1] * a.ndim
    shape[axis] = len(values)
    out = a * np.reshape(np.asarray(values, dtype=float), shape)
    for k in range(len(values)):
        src, dst, _ = alg.deriv_tables[alg.n_x + k]
        row = (slice(None),) * axis + (k, Ellipsis)
        out[row + (src,)] += a[row + (dst,)]
    out += 0.0
    return out


# --- seeding and named functions ---

def seed_variables(x0, y0, cfg: JetConfig):
    """Seed coordinate jets for a tangent-bundle point (x0, y0).

    Returns ``(x_jets, y_jets)``, lists of length ``cfg.n``, living in a
    2n-variable jet space of order ``cfg.order``.  The y seed must be a
    nonzero vector because all downstream geometry lives on the slit
    tangent bundle.
    """
    return _seeds(_algebra(2 * cfg.n, cfg.order), x0, y0)


def _seeds(alg, x0, y0):
    """:func:`seed_variables` in the jet algebra ``alg``, x-degree cap included."""
    n = alg.n_vars // 2
    x0 = [float(v) for v in x0]
    y0 = [float(v) for v in y0]
    if len(x0) != n or len(y0) != n:
        raise ShapeMismatch(
            f"need {n} components, got x:{len(x0)} y:{len(y0)}"
        )
    if all(v == 0.0 for v in y0):
        raise ZeroVector("y seed must be nonzero")
    xj = [Jet.variable(alg, i, x0[i]) for i in range(n)]
    yj = [Jet.variable(alg, n + i, y0[i]) for i in range(n)]
    return xj, yj


def smooth(value, name):
    """Apply a named function to a float or a jet uniformly."""
    if name not in ("sqrt", "exp", "log", "sin", "cos"):
        raise BadConfig(f"unknown function {name!r}")
    if isinstance(value, Jet):
        return getattr(value, name)()
    v = float(value)
    if name in ("sqrt", "log") and v <= 0.0:
        raise DomainError(f"{name} of {v:.6g}")
    return getattr(math, name)(v)
