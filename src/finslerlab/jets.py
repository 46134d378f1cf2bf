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

Every operation on jets is defined once, as a kernel on coefficient arrays:
:func:`step` lowers an operation, given the algebra and the operands'
supports (or a constant operand), to its kernel, the result's support and
the product pairs one run of the kernel sums.
``Jet`` is the public handle over those kernels: each operator lowers
through ``step`` and runs the kernel.  The compiled seed programs of
``expr``, the only route by which the package evaluates a metric on jets,
lower each tape op through the same ``step`` once per algebra, so the two
agree bit for bit, errors included.  No computation of the package builds
a ``Jet``.

Closed-form functions compose a univariate series with u = a - a(0) by
Horner's rule.  They run it in growing order: u has no constant term, so
the coefficients of order <= d of a product p * u read only those of p of
order < d, and the Horner value after adding series[K - d] is needed only
through order d.  So Horner step d is a product in the order-d algebra of
the same cap (``_Algebra.horner``): for a fixed cap its basis is a prefix
of the order-K one, and its product table holds exactly the order-K pairs
that land on order <= d, in the same order.  Every coefficient a step
keeps sums the pairs the full-order step sums, in the same order, so the
result equals the full-order evaluation bit for bit.
Integer powers run the products of binary powering (``power_chain``).
``mul_rows`` and ``deriv_rows`` apply the product and derivative tables to
stacked coefficient arrays, one row per jet, with the same summation order.

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
uncapped indices to its own through ``pos``.  A filtered table is built the
same way from its own rows and columns (``_Algebra._table``), so no product
of two supports needs the whole table first.

Each jet carries its support, the mask of basis monomials its coefficients
can be nonzero on: every other coefficient is +-0.  A seed's support is its
value and its own slope (``_Algebra.seed_supports``, read off ``seed_rows``,
never off the point's values) and a constant's its value.  A sum takes the
union of the two, negation and a finite scale keep the mask and a
non-finite scale makes it full, since it turns a +-0 coefficient into NaN;
a shift adds the constant, and a derivative maps the mask through its
table.  A product sums only the pairs (i, j) of the algebra's product table
with i in one support and j in the other, in table order
(``_Algebra.product``, cached by the two supports, so equal structures
share one table), and its support is where those pairs land; powers,
quotients and Horner steps are products.  An int d stands for the support
{orders <= d}, the degree bound jets carried before supports, and
``Jet.deg`` reads the largest order in a support back.

On finite coefficients a product over the filtered pairs equals the whole
table's bit for bit, sign of zero included: each dropped pair has a +-0
factor, so its term is +-0; a bincount sum starts at +0.0, and a sum of two
floats is -0.0 only when both are, so the running sum is never -0.0 and
adding a +-0 term leaves it as it was.  Where a factor is inf or NaN, the
whole table would put 0 * inf = NaN on a dropped pair; the filtered one
keeps there the exact product of the two polynomials.  ``Jet`` and the seed
programs run the same kernels on the same supports, so they agree bit for
bit on any data, NaN signs included.

Products of more than ``_BLOCK`` pairs run ``_BLOCK`` pairs at a time through
``np.add.at``, which adds in the order of one ``np.bincount``.  No
temporary then exceeds 64 KiB, half of glibc's smallest mmap threshold, so
no product maps fresh pages, whatever threshold the allocator's history has
set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

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

#: ``np.bincount`` without its ``__array_function__`` dispatch, which costs
#: a fifth of a small product; numpy releases without ``_implementation``
#: dispatch through ``np.bincount`` itself
_bincount = getattr(np.bincount, "_implementation", np.bincount)


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
        self._mul_table = None
        self._deriv_tables = None
        self._stacked = {}
        self._cuts = {}
        self._row_slots = np.empty(0, dtype=np.int64)
        self._rank_tables = None
        self._seed_rows = None
        self._seed_supports = None
        self._through = {}
        self._products = {}
        self._horners = {}

    def _ranks(self):
        """Suffix sums of the exponents, row c holding T_c, and the binomial
        tables that rank them, built once.

        With T_c = e_c + ... + e_{n-1}, the index of e in the uncapped basis
        is the sum over c of ``binom[c][T_c]`` = C(T_c + n - c - 1, n - c):
        the c = 0 term counts the monomials of lower order, each later one
        those that share e's first c - 1 entries and have a larger entry at
        c - 1.  Suffix sums add like exponents, so T(e) + T(f) ranks e + f;
        they are at most K, so they are kept as int8.
        """
        if self._rank_tables is None:
            n = self.n_vars
            exps = np.array(self.exponents, dtype=np.int8).reshape(self.size, n)
            suffix = np.ascontiguousarray(np.cumsum(exps[:, ::-1], axis=1, dtype=np.int8)[:, ::-1].T)
            binom = np.array([[math.comb(t + n - c - 1, n - c) for t in range(self.order + 1)]
                              for c in range(n)])
            self._rank_tables = (suffix, binom)
        return self._rank_tables

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
            self._mul_table = self._table(np.arange(self.size), None)
        return self._mul_table

    def _table(self, rows, sb):
        """The pairs of ``mul_table`` in the rows ``rows`` (ascending) whose
        column j is in support sb (every monomial for None), in table order:
        row i pairs with the columns of order <= K - order(i) and x-degree
        <= cap - xdeg(i), ascending, which are a prefix of those of that
        x-degree, since the order grows along the basis."""
        suffix, binom = self._ranks()
        cols = np.arange(self.size) if sb is None else np.flatnonzero(sb)
        by_xdeg = [cols[self.xdeg[cols] <= c] for c in range(self.cap + 1)]
        ends = [np.searchsorted(self.orders[c], np.arange(self.order + 1), side="right") for c in by_xdeg]
        parts = [by_xdeg[c][: ends[c][t]] for t, c in zip((self.order - self.orders[rows]).tolist(),
                                                           (self.cap - self.xdeg[rows]).tolist())]
        mi = np.repeat(rows, [p.size for p in parts])
        mj = np.concatenate(parts) if parts else rows
        mo = np.zeros(mi.size, dtype=np.int64)
        for c in range(self.n_vars):
            t = suffix[c][mi]
            t += suffix[c][mj]
            mo += binom[c][t]
        return mi, mj, mo if self.pos is None else self.pos[mo]

    @property
    def deriv_tables(self):
        """Per variable v, (src, dst, fac): coefficient src of a jet, times
        fac = e_src[v], is coefficient dst of its v-derivative, which lives
        in ``lowered(v)``."""
        if self._deriv_tables is None:
            suffix, binom = self._ranks()
            # row v: the exponents e_v = T_v - T_{v+1}
            exps = suffix - np.append(suffix[1:], np.zeros((1, self.size), suffix.dtype), axis=0)
            tables = []
            for v in range(self.n_vars):
                src = np.flatnonzero(exps[v])
                dst = np.zeros(src.size, dtype=np.int64)
                for c in range(self.n_vars):
                    dst += binom[c][suffix[c][src] - (c <= v)]
                pos = self.lowered(v).pos if src.size else None
                if pos is not None:
                    dst = pos[dst]
                tables.append((src, dst, exps[v][src].astype(np.float64)))
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

    def row_slots(self, rows):
        """The product table's output index ``mo`` for ``rows`` stacked rows,
        row r's offset by r * size: the bincount slots of :func:`mul_rows`.
        Built for the most rows asked so far; fewer rows read its prefix."""
        need = rows * self.mul_table[2].size
        if self._row_slots.size < need:
            self._row_slots = (np.arange(rows)[:, None] * self.size + self.mul_table[2]).ravel()
        return self._row_slots[:need]

    @property
    def seed_rows(self):
        """Every variable's seed at value 0, as rows: row v holds the unit
        slope of variable v, dropped where the algebra holds no such monomial
        (order 0, or an x variable at cap 0)."""
        if self._seed_rows is None:
            rows = np.zeros((self.n_vars, self.size))
            if self.order >= 1:
                # first-order monomials sit right after the constant; cap 0 keeps the y ones
                slopes = range(self.n_vars) if self.cap else range(self.n_x, self.n_vars)
                rows[slopes, range(1, 1 + len(slopes))] = 1.0
            self._seed_rows = rows
        return self._seed_rows

    @property
    def seed_supports(self):
        """Row v: the support of variable v's seed, its value and the slope
        of ``seed_rows`` where the algebra holds one."""
        if self._seed_supports is None:
            supports = self.seed_rows != 0
            supports[:, 0] = True
            self._seed_supports = _frozen(supports)
        return self._seed_supports

    def through(self, d):
        """The support {orders <= d}: every monomial for d >= K."""
        mask = self._through.get(d)
        if mask is None:
            mask = self._through[d] = _frozen(self.orders <= d)
        return mask

    def degree(self, support):
        """The largest order in ``support``, 0 for an empty one."""
        return int(self.orders[support].max(initial=0))

    def product(self, sa, sb):
        """The product of jets of supports sa and sb as (table, support): the
        product table filtered, in its own order, to the pairs (i, j) with i
        in sa and j in sb, and the monomials they land on (module
        docstring).  Cached by the supports, so equal structures share one
        table."""
        key = (_key(sa), _key(sb))
        hit = self._products.get(key)
        if hit is None:
            if sa.all() and sb.all():
                table = self.mul_table
            else:
                table = self._table(np.flatnonzero(sa), sb)
            support = np.zeros(self.size, dtype=bool)
            support[table[2]] = True
            hit = self._products[key] = (table, _frozen(support))
        return hit

    def horner(self, support):
        """The Horner steps of a series composition on an argument of
        ``support``, cached by it: a :class:`_Horner`.

        u is the argument less its value, of support ``support`` without the
        constant.  Step d, for d = 1 .. K, is the product of the value so far
        and u in the order-d algebra of this cap, plus series[K - d] (module
        docstring): ``_algebra(n_vars, d, cap).product`` on the supports cut
        to that algebra's basis, a prefix of this one's.  The value entering
        step d holds only monomials of order < d, so its coefficients are a
        prefix too.  The steps are those products' (table, support), shared
        with every other product of those algebras, a lower order's Horner
        steps included.
        """
        key = _key(support)
        plan = self._horners.get(key)
        if plan is None:
            value = self.through(0).copy()  # series[K]
            u = support & ~value
            tables = []
            for d in range(1, self.order + 1):
                alg = _algebra(self.n_vars, d, self.cap)
                tables.append(alg.product(value[: alg.size], u[: alg.size]))
                value[: alg.size] = tables[-1][1]
                value[0] = True  # plus series[K - d]
            plan = self._horners[key] = _Horner(
                self, tuple(tables), _frozen(value), sum(t[0].size for t, _ in tables[1:]))
        return plan

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


def _frozen(mask):
    """``mask`` made read-only: supports are shared between jets and tables."""
    mask.flags.writeable = False
    return mask


def _key(mask):
    """A support as a dictionary key: its bits, packed."""
    return np.packbits(mask).tobytes()


@dataclass(frozen=True, eq=False)
class _Horner:
    """The Horner steps of a series composition on arguments of one support
    (``_Algebra.horner``): step d's product as (table, support) in the
    order-d algebra, the support of the result and the pairs the steps sum,
    step 1, a constant times u, not counted."""

    alg: _Algebra
    tables: tuple
    support: np.ndarray
    pairs: int


def _convolve(table, size, a, b):
    """The product of ``a`` and ``b`` over the pairs (mi, mj, mo) of
    ``table``, a product table or a filtered one (``_Algebra.product``),
    into ``size`` coefficients.  The operands come last, so :func:`step`
    binds the table and size positionally (``functools.partial``).

    Each coefficient adds its pairs in table order, starting from +0.0: in
    one ``np.bincount`` for up to ``_BLOCK`` pairs, else ``_BLOCK`` pairs at
    a time through ``np.add.at`` (module docstring).  No pairs give +0.0.
    """
    mi, mj, mo = table
    if mi.size <= _BLOCK:
        # bincount of no pairs would give integer zeros
        return _bincount(mo, a[mi] * b[mj], size) if mi.size else np.zeros(size)
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
    """One truncated Taylor expansion; supports arithmetic and composition.

    Every operator lowers through :func:`step`, to the kernels the seed
    programs of ``expr`` run too, and applies the kernel to the coefficient
    arrays; a second jet is first cut to the algebra both hold.
    """

    __slots__ = ("alg", "coef", "support")

    def __init__(self, alg, coef, support=None):
        self.alg = alg
        self.coef = coef
        # the monomials the coefficients can be nonzero on (module docstring):
        # a mask, or an int d for every monomial of order <= d; all by default
        if support is None:
            support = alg.order
        self.support = support if isinstance(support, np.ndarray) else alg.through(support)

    # --- constructors ---

    @staticmethod
    def constant(alg, value):
        c = np.zeros(alg.size)
        c[0] = float(value)
        return Jet(alg, c, 0)

    @staticmethod
    def variable(alg, var, value):
        """The coordinate ``var`` at ``value``: row ``var`` of ``alg.seed_rows``."""
        c = alg.seed_rows[var].copy()
        c[0] = float(value)
        return Jet(alg, c, alg.seed_supports[var])

    # --- basic queries ---

    @property
    def value(self):
        return self.coef.item(0)

    @property
    def deg(self):
        """The largest order in the support: every coefficient of higher
        order is +-0."""
        return self.alg.degree(self.support)

    @property
    def order(self):
        return self.alg.order

    @property
    def n_vars(self):
        return self.alg.n_vars

    def __repr__(self):
        return f"Jet(n_vars={self.n_vars}, order={self.order}, value={self.value:.6g})"

    # --- operations, each one lowering ---

    def _apply(self, kind, other=None):
        """``self kind other`` by the kernel :func:`step` gives: ``other`` is
        None for a unary operation, a jet, cut with ``self`` to the smaller
        order and cap, or a number."""
        alg, a, sa = self.alg, self.coef, self.support
        if isinstance(other, Jet):
            b, sb = other.coef, other.support
            if other.alg is not alg:
                if other.alg.n_vars != alg.n_vars:
                    raise ShapeMismatch(f"jets in {alg.n_vars} and {other.alg.n_vars} variables")
                alg = _algebra(alg.n_vars, min(alg.order, other.alg.order),
                               min(alg.cap, other.alg.cap))
                a, b = self.alg.cut(a, alg), other.alg.cut(b, alg)
                sa, sb = self.alg.cut(sa, alg), other.alg.cut(sb, alg)
            kernel, support, _ = step(kind, alg, sa, sb)
        else:
            b = a
            kernel, support, _ = step(kind, alg, sa, None if other is None else float(other))
        return Jet(alg, kernel(a, b), support)

    def __add__(self, other):
        return self._apply("+", other)

    __radd__ = __add__

    def __neg__(self):
        return self._apply("neg")

    def __sub__(self, other):
        return self._apply("-", other)

    def __rsub__(self, other):
        return self._apply("r-", other)

    def __mul__(self, other):
        return self._apply("*", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._apply("/", other)

    def __rtruediv__(self, other):
        return self._apply("r/", other)

    def __pow__(self, exponent):
        return self._apply("^", exponent)

    def reciprocal(self):
        return self._apply("reciprocal")

    def sqrt(self):
        return self._apply("sqrt")

    def exp(self):
        return self._apply("exp")

    def log(self):
        return self._apply("log")

    def sin(self):
        return self._apply("sin")

    def cos(self):
        return self._apply("cos")

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
        support = np.zeros(lower.size, dtype=bool)
        support[dst] = self.support[src]
        return Jet(lower, out, support)

    def coefficient(self, exponents):
        idx = self.alg.index.get(tuple(exponents))
        if idx is None:
            raise OrderExceeded(
                f"multi-index {tuple(exponents)} beyond truncation order {self.alg.order}"
            )
        return float(self.coef[idx])


# --- closed-form functions on coefficient arrays ---
#
# A series builder takes the value a0 of the argument and the order K and
# returns the function's Taylor coefficients at a0 through order K, raising
# where a0 is outside its domain; the kernel :func:`step` lowers a series to
# applies them to a coefficient array (``_run_horner``).

def reciprocal_series(a0, K):
    if a0 == 0.0:
        raise DivisionByZero("division by jet with zero value part")
    series = [1.0 / a0]
    for _ in range(K):
        series.append(-series[-1] / a0)
    return series


def power_series(p, a0, K):
    """Series of t ** p for a non-integer p, which needs a0 > 0."""
    if a0 <= 0.0:
        raise DomainError(f"non-integer power of jet with value {a0:.6g}")
    series = [a0**p]
    for k in range(1, K + 1):
        series.append(series[-1] * (p - (k - 1)) / (k * a0))
    return series


def sqrt_series(a0, K):
    if a0 <= 0.0:
        raise DomainError(f"sqrt of jet with value {a0:.6g}")
    series = [math.sqrt(a0)]
    for k in range(1, K + 1):
        series.append(series[-1] * (0.5 - (k - 1)) / (k * a0))
    return series


def exp_series(a0, K):
    series = [math.exp(a0)]
    for k in range(1, K + 1):
        series.append(series[-1] / k)
    return series


def log_series(a0, K):
    if a0 <= 0.0:
        raise DomainError(f"log of jet with value {a0:.6g}")
    series = [math.log(a0), 1.0 / a0]
    for k in range(2, K + 1):
        series.append(-series[-1] * (k - 1) / (k * a0))
    return series


def _trig_series(f0, f1, K):
    cycle = (f0, f1, -f0, -f1)
    series = []
    fact = 1.0
    for k in range(K + 1):
        if k:
            fact *= k
        series.append(cycle[k % 4] / fact)
    return series


def sin_series(a0, K):
    return _trig_series(math.sin(a0), math.cos(a0), K)


def cos_series(a0, K):
    return _trig_series(math.cos(a0), -math.sin(a0), K)


#: the series builders of the unary operations :func:`step` composes
SERIES = {"reciprocal": reciprocal_series, "sqrt": sqrt_series, "exp": exp_series,
          "log": log_series, "sin": sin_series, "cos": cos_series}


def power_chain(m):
    """The products that raise a base to the power m >= 1 by binary
    powering, as register pairs: register 0 holds the base, product t of
    the pair (a, b) goes to register t + 1, and the last register holds the
    power."""
    pairs, out, acc = [], None, 0
    while m:
        if m & 1:
            if out is None:
                out = acc
            else:
                pairs.append((out, acc))
                out = len(pairs)
        m >>= 1
        if m:
            pairs.append((acc, acc))
            acc = len(pairs)
    return pairs


def _run_horner(horner, coef, series):
    """Sum series[k] * u^k, k <= K, by the steps of ``horner``
    (``_Algebra.horner``), each as the jet product and the shift by a
    constant compute it.  The steps' tables never read coefficient 0 of
    ``coef``, so u is ``coef`` itself."""
    K = horner.alg.order
    out = np.array([float(series[K])])
    for d, (table, support) in enumerate(horner.tables, 1):
        out = _convolve(table, support.size, out, coef)
        out[0] += series[K - d]
    return out


# --- the one lowering of every jet operation ---

def step(kind, alg, sa, other=None):
    """Kernel, support and pair count of the operation ``kind`` on a jet of
    ``alg`` of support sa and ``other``.

    ``other`` is None for a unary operation ("neg", or a function of
    ``SERIES``), the support of a second jet of ``alg`` for "+", "-", "*"
    and "/", or a float constant: the right operand of "+", "-", "*", "/"
    and of "^", the left one of "r-" and "r/".  The kernel maps the
    coefficient arrays of the two operands (a unary one or a constant's
    ignores its second) to new ones, and one run of it sums the pairs
    counted: its products', power chain's and Horner steps'.  ``Jet``'s
    operators and the seed programs of ``expr`` both run these kernels, so
    they agree bit for bit, errors included: a series raises where its
    value is outside the domain when the kernel runs, and so does a
    division by the constant 0.
    """
    if other is None:
        return (_negate, sa, 0) if kind == "neg" else _series_step(alg, SERIES[kind], sa)
    if isinstance(other, float):
        return _scalar_step(kind, alg, sa, other)
    if kind == "*":
        table, support = alg.product(sa, other)
        return partial(_convolve, table, alg.size), support, table[0].size
    if kind == "/":  # times the reciprocal
        horner = alg.horner(other)
        table, support = alg.product(sa, horner.support)
        return partial(_quotient, table, horner), support, table[0].size + horner.pairs
    return np.add if kind == "+" else _subtract, sa | other, 0


def _series_step(alg, series_of, sa):
    """:func:`step` for the series ``series_of`` of a jet of support sa."""
    horner = alg.horner(sa)
    return partial(_series, horner, series_of), horner.support, horner.pairs


def _scalar_step(kind, alg, sa, s):
    """:func:`step` for a jet of support sa and the float constant s."""
    if kind in ("+", "-"):
        return partial(_shift, s if kind == "+" else -s), sa | alg.through(0), 0
    if kind == "r-":
        return partial(_shift_negated, s), sa | alg.through(0), 0
    if kind == "/":
        try:
            s = 1.0 / s
        except ZeroDivisionError as e:
            return partial(_fail, DivisionByZero, str(e)), sa, 0
        kind = "*"
    if kind == "*":
        return partial(_scale, s), sa if math.isfinite(s) else alg.through(alg.order), 0
    if kind == "r/":
        horner = alg.horner(sa)
        support = horner.support if math.isfinite(s) else alg.through(alg.order)
        return partial(_scale_reciprocal, horner, s), support, horner.pairs
    # kind == "^": the power s, by a series unless s is an integer
    if not s.is_integer():
        return _series_step(alg, partial(power_series, s), sa)
    m = int(s)
    if m == 0:
        return partial(_one, alg.size), alg.through(0), 0
    invert, pairs = None, 0
    if m < 0:
        invert, sa, pairs = _series_step(alg, reciprocal_series, sa)
    supports, products = [sa], []
    for a, b in power_chain(abs(m)):
        table, support = alg.product(supports[a], supports[b])
        products.append((a, b, partial(_convolve, table, alg.size)))
        supports.append(support)
        pairs += table[0].size
    return partial(_int_power, invert, tuple(products)), supports[-1], pairs


# kernels: each takes two coefficient arrays, and a unary one ignores the second

def _subtract(a, b):
    return a + -b  # a minus b adds the negation: a NaN's sign follows it


def _negate(a, _):
    return -a


def _shift(s, a, _):
    out = a.copy()
    out[0] += s
    return out


def _shift_negated(s, a, _):
    out = -a
    out[0] += s
    return out


def _scale(s, a, _):
    return a * s


def _one(size, a, _):
    out = np.zeros(size)
    out[0] = 1.0
    return out


def _fail(error, message, a, _):
    raise error(message)


def _series(horner, series_of, a, _):
    return _run_horner(horner, a, series_of(a.item(0), horner.alg.order))


def _scale_reciprocal(horner, s, a, _):
    return _series(horner, reciprocal_series, a, a) * s


def _quotient(table, horner, a, b):
    return _convolve(table, horner.alg.size, a, _series(horner, reciprocal_series, b, b))


def _int_power(invert, products, a, _):
    regs = [a if invert is None else invert(a, a)]
    for i, j, product in products:
        regs.append(product(regs[i], regs[j]))
    return regs[-1]


# --- row-wise kernels on stacked coefficient arrays ---

def mul_rows(alg, a, b):
    """Products of jets stored as rows: row r is Jet(alg, a[r]) * Jet(alg, b[r]).

    ``a`` and ``b`` are coefficient arrays of shape (..., >= alg.size) that
    broadcast against each other.  One gather (``np.take``), one multiply
    and one bincount with per-row offsets (``_Algebra.row_slots``); each
    row's products are added in mul-table order, as in :meth:`Jet.__mul__`,
    so the rows match it bit for bit, however many rows are stacked.  Rows
    are independent, so above ``_BLOCK`` pairs in all they go in blocks of
    ``_BLOCK // pairs`` rows, which keeps the pair temporaries that small.
    A single row, and each row where a block would hold one, is one
    ``_convolve``, the product :meth:`Jet.__mul__` forms.  In the order-0
    algebra each row is its one pair's product added to +0.0.
    """
    mi, mj, mo = alg.mul_table
    size = alg.size
    if size == 1:
        return np.multiply(a[..., :1], b[..., :1]) + 0.0
    rows = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    count = math.prod(rows)
    if count == 1:
        return _convolve(alg.mul_table, size, a.reshape(-1), b.reshape(-1)).reshape(rows + (size,))
    step = _BLOCK // mi.size
    if step <= 1:
        a, b = (np.broadcast_to(x[..., :size], rows + (size,)) for x in (a, b))
        out = np.empty(rows + (size,))
        for r in np.ndindex(rows):
            out[r] = _convolve(alg.mul_table, size, a[r], b[r])
        return out
    if count <= step:
        w = np.multiply(np.take(a, mi, axis=-1), np.take(b, mj, axis=-1), order="C")
        out = np.bincount(alg.row_slots(count), weights=w.ravel(), minlength=count * size)
        return out.reshape(rows + (size,))  # C order: a view
    # each block gathers its rows through their flat indices in a and in b,
    # so no operand is copied out to all ``count`` rows
    ra, rb = (np.broadcast_to(np.arange(math.prod(x.shape[:-1])).reshape(x.shape[:-1]), rows).ravel()
              for x in (a, b))
    a, b = (x.reshape(-1, x.shape[-1]) for x in (a, b))
    slots = alg.row_slots(step)
    out = np.empty((count, size))
    for r in range(0, count, step):
        n = min(step, count - r)
        w = np.take(a[ra[r : r + n], :size], mi, axis=1)
        w *= np.take(b[rb[r : r + n], :size], mj, axis=1)
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
    terms = a[..., src]
    terms *= fac
    out[..., dst] = terms
    return out.reshape(a.shape[:-1] + (len(variables), lower.size))


def mul_seeds(alg, a, values, axis=-2):
    """Row-wise products with the y seeds, without the product table.

    Entry k along ``axis`` of ``a`` (coefficients of shape (..., >=
    alg.size)) is multiplied by ``Jet.variable(alg, n_x + k, values[k])``,
    the seed of the k-th y variable: values[k] * a, plus a shifted up by
    that variable through its derivative table's indices, then + 0.0, which
    equals :func:`mul_rows` with the seed rows bit for bit on finite data
    (module docstring).  A y-derivative keeps the cap, so the shift stays in
    this algebra.  ``values`` has shape (count,) or (count, *rows): then
    values[k] holds one seed value per row and broadcasts against the axes
    of ``a`` just before its coefficients, one y per stacked point.
    """
    a = a[..., : alg.size]
    axis %= a.ndim
    v = np.asarray(values, dtype=float)
    shape = v.shape[:1] + (1,) * (a.ndim - axis - v.ndim - 1) + v.shape[1:] + (1,)
    out = a * v.reshape(shape)
    for k in range(v.shape[0]):
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
    alg = _algebra(2 * cfg.n, cfg.order)
    rows = seed_block(alg, [float(v) for v in x0], [float(v) for v in y0])
    seeds = [Jet(alg, row, support) for row, support in zip(rows, alg.seed_supports)]
    return seeds[: cfg.n], seeds[cfg.n :]


def seed_block(alg, x0, y0):
    """The seeds of the point (x0, y0) in the jet algebra ``alg``, x-degree
    cap included, as one (n_vars, size) array: ``alg.seed_rows`` with the
    point in column 0.  Row v is the coefficients of the seed of variable
    v, of support ``alg.seed_supports[v]``.  x0 and y0 need n_vars / 2
    components each, or ShapeMismatch, and y0 must be nonzero, or
    ZeroVector."""
    n = alg.n_vars // 2
    if len(x0) != n or len(y0) != n:
        raise ShapeMismatch(f"need {n} components, got x:{len(x0)} y:{len(y0)}")
    if not any(y0):
        raise ZeroVector("y seed must be nonzero")
    rows = alg.seed_rows.copy()
    rows[:, 0] = (*x0, *y0)
    return rows

