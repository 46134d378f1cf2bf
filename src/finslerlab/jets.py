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
derivative maps) is precomputed once per ``(n_vars, K)`` and cached.

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
through order K - k.  Each step runs in that algebra.  A product's
coefficient sums the same pairs in the same order in every algebra that
holds it, so the result equals the full-order evaluation bit for bit.
``mul_rows`` and ``deriv_rows`` apply the product and derivative tables to
stacked coefficient arrays, one row per jet, with the same summation order.

The tables are built with array operations.  The basis index of an exponent
is a sum of binomial coefficients of its suffix sums (``_Algebra._ranks``);
suffix sums add like exponents, so the row sums of two exponents index their
sum, the entry a pair-by-pair lookup finds.

Each jet carries ``deg``, an upper bound on the degree of the polynomial its
coefficients hold: every coefficient of higher order is +-0.  Seeds have
degree 1 and constants 0.  A sum takes the larger degree and a product the
sum of the two; negation and finite scalars keep it, a derivative lowers it
by one, and compositions and jets built without one get the full order.
Jets of degrees p and q with d = p + q < K multiply in the order-d algebra,
zero-padded: a coefficient of order <= d sums the same pairs in the same
order there (the basis is a prefix), and each pair of higher order has a +-0
factor, so its full-table sum is the +0.0 the padding gives.  That holds
for finite coefficients; where one is inf or NaN, the full table would put
0 * inf = NaN above order d and the padding keeps +0.0 there, the exact
product of the two polynomials.

Products of more than ``_BLOCK`` pairs run in blocks through ``np.add.at``,
which adds in the order of one ``np.bincount``.  Unless one row of the
table is longer, no temporary then exceeds 64 KiB, half of glibc's smallest
mmap threshold, so no product maps fresh pages, whatever threshold the
allocator's history has set.
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

_ALGEBRA_CACHE: dict[tuple[int, int], "_Algebra"] = {}

#: pairs per product block: 64 KiB temporaries (module docstring)
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
    """Index tables for one (n_vars, order) jet space."""

    def __init__(self, n_vars, order):
        self.n_vars = n_vars
        self.order = order
        exps = []
        self.count_through_order = []
        for d in range(order + 1):
            exps.extend(_exponent_tuples(n_vars, d))
            self.count_through_order.append(len(exps))
        self.exponents = exps
        self.size = len(exps)
        self.index = {e: i for i, e in enumerate(exps)}
        self.orders = np.array([sum(e) for e in exps], dtype=np.int64)
        self._mul_table = None
        self._mul_blocks = None
        self._deriv_tables = None
        self._stacked = {}

    def _ranks(self):
        """Exponents, their suffix sums and the binomial tables that rank them.

        With T_c = e_c + ... + e_{n-1}, the basis index of e is the sum over
        c of ``binom[c][T_c]`` = C(T_c + n - c - 1, n - c): the c = 0 term
        counts the monomials of lower order, each later one those that share
        e's first c - 1 entries and have a larger entry at c - 1.  Suffix
        sums add like exponents, so T(e) + T(f) ranks e + f.
        """
        n = self.n_vars
        exps = np.array(self.exponents, dtype=np.int64).reshape(self.size, n)
        suffix = np.cumsum(exps[:, ::-1], axis=1)[:, ::-1]
        binom = [np.array([math.comb(t + n - c - 1, n - c) for t in range(self.order + 1)])
                 for c in range(n)]
        return exps, suffix, binom

    @property
    def mul_table(self):
        """Pairs (i, j) with order(i) + order(j) <= K, row by row, and the
        index of e_i + e_j: the arrays (mi, mj, mo)."""
        if self._mul_table is None:
            _, suffix, binom = self._ranks()
            limits = np.array(self.count_through_order)[self.order - self.orders]
            mi = np.repeat(np.arange(self.size), limits)
            mj = np.arange(mi.size)
            mj -= np.repeat(np.cumsum(limits) - limits, limits)
            mo = np.zeros(mi.size, dtype=np.int64)
            for c in range(self.n_vars):
                t = suffix[mi, c]
                t += suffix[mj, c]
                mo += binom[c][t]
            self._mul_table = (mi, mj, mo)
        return self._mul_table

    @property
    def mul_blocks(self):
        """The product table as row blocks (r0, r1, limit, mo slice).

        Rows r0..r1 of one order all pair with columns 0..limit, so a block
        is the outer product of two slices: as many rows as fit in
        ``_BLOCK`` pairs, and at least one.
        """
        if self._mul_blocks is None:
            _, _, mo = self.mul_table
            blocks, start = [], 0
            for p in range(self.order + 1):
                lo = self.count_through_order[p - 1] if p else 0
                limit = self.count_through_order[self.order - p]
                step = max(1, _BLOCK // limit)
                for r0 in range(lo, self.count_through_order[p], step):
                    r1 = min(r0 + step, self.count_through_order[p])
                    stop = start + (r1 - r0) * limit
                    blocks.append((r0, r1, limit, mo[start:stop]))
                    start = stop
            self._mul_blocks = blocks
        return self._mul_blocks

    @property
    def deriv_tables(self):
        """Per variable v, (src, dst, fac): coefficient src of a jet, times
        fac = e_src[v], is coefficient dst of its v-derivative."""
        if self._deriv_tables is None:
            exps, suffix, binom = self._ranks()
            tables = []
            for v in range(self.n_vars):
                src = np.flatnonzero(exps[:, v])
                dst = np.zeros(src.size, dtype=np.int64)
                for c in range(self.n_vars):
                    dst += binom[c][suffix[src, c] - (c <= v)]
                tables.append((src, dst, exps[src, v].astype(np.float64)))
            self._deriv_tables = tables
        return self._deriv_tables

    def stacked_derivs(self, variables):
        """(src, dst, fac, size) applying the derivative tables of every
        variable in ``variables`` (a range) at once: coefficient src times
        fac is entry dst of the derivatives laid out one after the other,
        each ``size`` long (order K - 1)."""
        table = self._stacked.get(variables)
        if table is None:
            size = _algebra(self.n_vars, self.order - 1).size
            parts = [self.deriv_tables[v] for v in variables]
            table = (
                np.concatenate([src for src, _, _ in parts]),
                np.concatenate([k * size + dst for k, (_, dst, _) in enumerate(parts)]),
                np.concatenate([fac for _, _, fac in parts]),
                size,
            )
            self._stacked[variables] = table
        return table


def _convolve(alg, a, b, size):
    """Coefficients through ``alg.order`` of the product of ``a`` and ``b``,
    zero-padded to ``size``.

    Each coefficient adds its pairs in ``alg.mul_table`` order, starting
    from +0.0: in one ``np.bincount`` for up to ``_BLOCK`` pairs, else block
    by block through ``np.add.at`` (module docstring).
    """
    mi, mj, mo = alg.mul_table
    if mi.size <= _BLOCK:
        return np.bincount(mo, weights=a[mi] * b[mj], minlength=size)
    out = np.zeros(size)
    for r0, r1, limit, slots in alg.mul_blocks:
        np.add.at(out, slots, np.multiply.outer(a[r0:r1], b[:limit]).ravel())
    return out


def _algebra(n_vars, order):
    key = (n_vars, order)
    alg = _ALGEBRA_CACHE.get(key)
    if alg is None:
        if n_vars < 1 or order < 0:
            raise BadConfig(f"unusable jet space ({n_vars} vars, order {order})")
        alg = _Algebra(n_vars, order)
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
        c = np.zeros(alg.size)
        c[0] = float(value)
        if alg.order >= 1:
            c[1 + var] = 1.0  # first-order monomials sit right after the constant
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
        alg = _algebra(self.alg.n_vars, order)
        return Jet(alg, self.coef[: alg.size].copy(), min(self.deg, order))

    def __repr__(self):
        return f"Jet(n_vars={self.n_vars}, order={self.order}, value={self.value:.6g})"

    # --- alignment ---

    def _with(self, other):
        """Coerce operands to a common algebra (truncating the deeper one)."""
        if isinstance(other, Jet):
            if other.alg is self.alg:
                return self.alg, self.coef, other.coef
            if other.alg.n_vars != self.alg.n_vars:
                raise ShapeMismatch(
                    f"jets in {self.alg.n_vars} and {other.alg.n_vars} variables"
                )
            order = min(self.alg.order, other.alg.order)
            alg = _algebra(self.alg.n_vars, order)
            return alg, self.coef[: alg.size], other.coef[: alg.size]
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
            return Jet(alg, _convolve(_algebra(alg.n_vars, d), a, b, alg.size), d)
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

    def _padded(self, alg):
        """These coefficients zero-padded into the higher-order algebra ``alg``.

        The padding is not a Taylor extension; callers use it only where the
        new top-order coefficients meet a zero constant term.
        """
        c = np.zeros(alg.size)
        c[: self.alg.size] = self.coef
        return Jet(alg, c, self.deg)

    # --- composition with univariate series ---

    def _compose(self, series):
        """Horner evaluation of sum series[k] * u^k with u the nilpotent part.

        The value after the step that adds series[k] is needed only through
        order K - k, so that step runs in the order-(K - k) algebra (module
        docstring): ``out``, zero-padded into it, times u plus series[k], as
        :meth:`__mul__` and :meth:`__add__` compute them.  The first step, a
        constant times u, is a scalar multiply; ``+ 0.0`` turns -0.0 into
        0.0 as a product's bincount does.
        """
        K = self.alg.order
        u = self.coef.copy()
        u[0] = 0.0
        top = min(len(series) - 1, K)  # u^k vanishes for k > K
        if top == 0:
            return Jet.constant(self.alg, series[0])
        size = _algebra(self.alg.n_vars, K - top + 1).size
        out = u[:size] * series[top] + 0.0
        out[0] += series[top - 1]
        for k in range(top - 2, -1, -1):
            alg = _algebra(self.alg.n_vars, K - k)
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
        """Formal partial derivative; result is exact one order lower."""
        if not 0 <= var < self.alg.n_vars:
            raise ShapeMismatch(f"variable {var} out of range 0..{self.alg.n_vars - 1}")
        if self.alg.order == 0:
            raise OrderExceeded("derivative of an order-0 jet is not determined")
        src, dst, fac = self.alg.deriv_tables[var]
        lower = _algebra(self.alg.n_vars, self.alg.order - 1)
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
    broadcast against each other.  One gather, one multiply and one bincount
    with per-row offsets; each row's products are added in mul-table order,
    as in :meth:`Jet.__mul__`, so the rows match it bit for bit.  Rows are
    independent, so above ``_BLOCK`` pairs in all they go in blocks of
    ``_BLOCK // pairs`` rows, which keeps the pair temporaries that small.
    A single row, and each row where a block would hold one, is one
    ``_convolve``, the product :meth:`Jet.__mul__` forms, with no copies.
    """
    mi, mj, mo = alg.mul_table
    size = alg.size
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
        w = np.multiply(a[..., mi], b[..., mj], order="C")  # C order: ravel is a view
        slots = (np.arange(count)[:, None] * size + mo).ravel()
        out = np.bincount(slots, weights=w.ravel(), minlength=count * size)
        return out.reshape(rows + (size,))
    a, b = (np.broadcast_to(x[..., :size], rows + (size,)).reshape(count, size) for x in (a, b))
    slots = (np.arange(step)[:, None] * size + mo).ravel()
    out = np.empty((count, size))
    for r in range(0, count, step):
        n = min(step, count - r)
        w = np.multiply(a[r : r + n, mi], b[r : r + n, mj])
        out[r : r + n] = np.bincount(
            slots[: n * mi.size], weights=w.ravel(), minlength=n * size
        ).reshape(n, size)
    return out.reshape(rows + (size,))


def deriv_rows(alg, a, variables):
    """Row-wise :meth:`Jet.deriv` in each of ``variables`` (a range):
    coefficients of shape (..., alg.size) in, (..., len(variables), size of
    the order-(K - 1) algebra) out, one gather for all of them."""
    src, dst, fac, size = alg.stacked_derivs(variables)
    out = np.zeros(a.shape[:-1] + (len(variables) * size,))
    out[..., dst] = a[..., src] * fac
    return out.reshape(a.shape[:-1] + (len(variables), size))


# --- seeding and named functions ---

def seed_variables(x0, y0, cfg: JetConfig):
    """Seed coordinate jets for a tangent-bundle point (x0, y0).

    Returns ``(x_jets, y_jets)``, lists of length ``cfg.n``, living in a
    2n-variable jet space of order ``cfg.order``.  The y seed must be a
    nonzero vector because all downstream geometry lives on the slit
    tangent bundle.
    """
    x0 = [float(v) for v in x0]
    y0 = [float(v) for v in y0]
    if len(x0) != cfg.n or len(y0) != cfg.n:
        raise ShapeMismatch(
            f"need {cfg.n} components, got x:{len(x0)} y:{len(y0)}"
        )
    if all(v == 0.0 for v in y0):
        raise ZeroVector("y seed must be nonzero")
    alg = _algebra(2 * cfg.n, cfg.order)
    xj = [Jet.variable(alg, i, x0[i]) for i in range(cfg.n)]
    yj = [Jet.variable(alg, cfg.n + i, y0[i]) for i in range(cfg.n)]
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
