"""Metric catalog: build, evaluate, and sanity-check Finsler metrics.

A metric is specified declaratively (family plus parameters, possibly
with coordinate-dependent entries given in the expression language).
:func:`build_metric` turns every family into one expression tree and
compiles it once to a tape (:func:`expr.compile_tape`).  A
:class:`MetricInstance` holds that tape and its domain gate as data: ``F(x,
y)`` on floats is the gate plus ``expr.evaluate``, and ``F_seeded``, F's
one jet entry, is the gate plus the tape's seed program on a point's seed
block, the route the curvature layer reads.  A malformed expression (an
undeclared name, a vector constant in scalar position, ``dot`` of vectors
of different lengths, a constant subtree outside its domain) raises
SpecError there, before any evaluation.

Families:

* ``riemannian``: F = sqrt(a_ij(x) y^i y^j)
* ``randers``:    F = sqrt(a_ij(x) y^i y^j) + b_i(x) y^i
* ``funk``:       unit-ball metric with drift vector ``a``
* ``custom``:     any 1-homogeneous expression in x1..xn, y1..yn

The funk family with ``a = 0`` is defined on the whole open unit ball.
For ``a != 0`` the formula stays finite on the ball but loses strong
convexity where the effective Randers 1-form reaches unit length; the
worst direction gives the bound |x| < 1 - |a|, which is what the chart
declares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import Optional

import numpy as np

from . import expr
from .errors import DomainError, FinslerError, OutOfChart, SingularMetric, SpecError
from .jets import seed_block

_FAMILIES = ("riemannian", "randers", "funk", "custom")


@dataclass(frozen=True)
class Chart:
    """Domain of validity for the x coordinates."""

    kind: str = "all"  # "all" | "ball"
    radius: float = math.inf

    def contains(self, x) -> bool:
        if self.kind == "all":
            return True
        r2 = sum(float(v) ** 2 for v in x)
        return r2 < self.radius**2

    @property
    def sample_radius(self) -> float:
        """Finite radius usable by samplers even on unbounded charts."""
        return self.radius if math.isfinite(self.radius) else 1.0


@dataclass(frozen=True)
class MetricSpec:
    """Declarative metric description; JSON-serializable."""

    n: int
    family: str
    a: Optional[tuple] = None  # matrix entries: floats or expression strings
    b: Optional[tuple] = None  # covector entries
    drift: Optional[tuple] = None  # funk drift vector
    expression: Optional[str] = None
    constants: Optional[tuple] = None  # ((name, scalar-or-vector-tuple), ...)
    chart_radius: Optional[float] = None
    label: str = ""

    # --- constructors ---

    @staticmethod
    def euclidean(n, label="euclidean"):
        eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))
        return MetricSpec(n=n, family="riemannian", a=eye, label=label)

    @staticmethod
    def sphere_chart(n, label="sphere"):
        """Round sphere in the conformal chart a_ij = 4 delta_ij/(1+|x|^2)^2."""
        entry = "4/(1 + abs2(x))^2"
        a = tuple(tuple(entry if i == j else 0.0 for j in range(n)) for i in range(n))
        return MetricSpec(n=n, family="riemannian", a=a, label=label)

    @staticmethod
    def randers(n, a, b, chart_radius=None, label="randers"):
        return MetricSpec(
            n=n,
            family="randers",
            a=tuple(tuple(row) for row in a),
            b=tuple(b),
            chart_radius=chart_radius,
            label=label,
        )

    @staticmethod
    def funk(n, drift=None, label="funk"):
        drift = tuple(0.0 for _ in range(n)) if drift is None else tuple(drift)
        return MetricSpec(n=n, family="funk", drift=drift, label=label)

    @staticmethod
    def custom(n, expression, constants=None, chart_radius=None, label="custom"):
        packed = None
        if constants:
            packed = tuple(
                (k, tuple(v) if hasattr(v, "__len__") else float(v))
                for k, v in sorted(constants.items())
            )
        return MetricSpec(
            n=n,
            family="custom",
            expression=expression,
            constants=packed,
            chart_radius=chart_radius,
            label=label,
        )

    # --- serialization ---

    def to_dict(self):
        out = {"dimension": self.n, "family": self.family}
        if self.label:
            out["label"] = self.label
        if self.a is not None:
            out["a"] = [list(row) for row in self.a]
        if self.b is not None:
            out["b"] = list(self.b)
        if self.drift is not None:
            out["drift"] = list(self.drift)
        if self.expression is not None:
            out["expression"] = self.expression
        if self.constants:
            out["constants"] = {
                k: (list(v) if isinstance(v, tuple) else v) for k, v in self.constants
            }
        if self.chart_radius is not None:
            out["chart_radius"] = self.chart_radius
        return out

    @staticmethod
    def from_dict(d):
        if not isinstance(d, dict):
            raise SpecError("metric spec must be a JSON object")
        try:
            n = _spec_dimension(d["dimension"])
            family = d["family"]
        except KeyError as e:
            raise SpecError(f"metric spec missing key {e}") from e
        if family not in _FAMILIES:
            raise SpecError(f"unknown family {family!r}; expected one of {_FAMILIES}")
        kw = {}
        if "a" in d:
            kw["a"] = tuple(_spec_array(row, "a row") for row in _spec_array(d["a"], "a"))
        if "b" in d:
            kw["b"] = _spec_array(d["b"], "b")
        if "drift" in d or "funk_a" in d:  # "funk_a" is the spec-file spelling
            drift = _spec_array(d.get("drift", d.get("funk_a")), "drift")
            kw["drift"] = tuple(_spec_number(v, "drift") for v in drift)
        if "expression" in d:
            kw["expression"] = d["expression"]
        if "constants" in d:
            if not isinstance(d["constants"], dict):
                raise SpecError("constants must be a JSON object")
            kw["constants"] = tuple(
                (k, _spec_constant(v, f"constant {k!r}"))
                for k, v in sorted(d["constants"].items())
            )
        if "chart_radius" in d:
            kw["chart_radius"] = _spec_number(d["chart_radius"], "chart_radius")
        elif "chart" in d:  # {"radius": r} or a bare number
            ch = d["chart"]
            kw["chart_radius"] = _spec_number(
                ch.get("radius") if isinstance(ch, dict) else ch, "chart radius"
            )
        return MetricSpec(n=n, family=family, label=d.get("label", ""), **kw)


def _spec_dimension(v):
    """An integral, non-boolean dimension from a spec entry."""
    if isinstance(v, bool) or (isinstance(v, float) and not v.is_integer()):
        raise SpecError(f"dimension must be an integer, got {v!r}")
    try:
        return int(v)
    except (TypeError, ValueError) as e:
        raise SpecError(f"dimension must be an integer, got {v!r}") from e


def _spec_number(v, where):
    """A finite float from a spec entry; booleans are not numbers."""
    if isinstance(v, bool):
        raise SpecError(f"{where}: expected a number, got {v!r}")
    try:
        out = float(v)
    except (TypeError, ValueError) as e:
        raise SpecError(f"{where}: expected a number, got {v!r}") from e
    if not math.isfinite(out):
        raise SpecError(f"{where}: {v!r} is not finite")
    return out


def _spec_array(v, where):
    """A tuple from a spec entry that must be an array."""
    if not isinstance(v, (list, tuple)):
        raise SpecError(f"{where}: expected an array, got {v!r}")
    return tuple(v)


def _spec_constant(v, where):
    """A finite scalar, or a vector kept as given after checking its entries."""
    if isinstance(v, (list, tuple)):
        for entry in v:
            _spec_number(entry, where)
        return tuple(v)
    return _spec_number(v, where)


def _expression(text, n, constants, where, groups="xy"):
    """A spec expression parsed and folded (:func:`expr.fold`); every error is
    a SpecError naming ``where``."""
    try:
        ast = expr.parse(text)
    except Exception as e:
        raise SpecError(f"{where}: {e}") from e
    for group, index in expr.variables_used(ast):
        if group not in groups:
            raise SpecError(f"{where}: coefficient may not depend on y")
        if index > n:
            raise SpecError(f"{where}: {group}{index} exceeds dimension {n}")
    try:
        return expr.fold(ast, n, constants)
    except (FinslerError, ArithmeticError) as e:
        raise SpecError(f"{where}: {e}") from e


def _entry(entry, n, constants, where):
    """One matrix/covector entry as a folded tree of the x coordinates."""
    if isinstance(entry, (int, float)):  # bool is an int: _spec_number rejects it
        return expr.Num(_spec_number(entry, where))
    if not isinstance(entry, str):
        raise SpecError(f"{where}: entry must be a number or an expression string")
    return _expression(entry, n, constants, where, "x")


def _zero(node):
    return isinstance(node, expr.Num) and node.value == 0.0


def _plus(s, t):
    return expr.Bin("+", s, t)


@dataclass
class MetricInstance:
    """Compiled metric: its formula as a tape (``expr.compile_tape``), its
    domain gate and its chart.  ``unit_ball`` is funk's gate: F raises
    OutOfChart unless |x| < 1.  With a drift the chart is smaller, and float
    F stays defined in between."""

    spec: MetricSpec
    n: int
    chart: Chart
    label: str
    tape: expr.Tape = field(repr=False)
    unit_ball: bool = False

    def F(self, x, y):
        """Metric value at the float point (x, y).  Components are taken as
        Python floats, so numpy scalars follow Python's error rules too.  An
        overflow in the evaluator is a DomainError.  F's jets come from
        :meth:`F_seeded`."""
        x, y = tuple(map(float, x)), tuple(map(float, y))
        self._gate(x)
        try:
            return expr.evaluate(self.tape, x, y)
        except OverflowError as e:
            raise _overflow(x, e) from e

    def F_seeded(self, program, x, y):
        """F's coefficients at the seeds of the float point (x, y), as F on
        those seed jets would give them, gates and errors included: y's
        length and a zero y (``jets.seed_block``), the domain gate, then
        ``program``, the tape's seed program of some algebra
        (``expr.seed_program``), run on the seed block (``expr.run``).  The
        formula's float where it is a constant."""
        rows = seed_block(program.alg, x, y)
        self._gate(x)
        try:
            return expr.run(self.tape, program, rows)
        except OverflowError as e:
            raise _overflow(x, e) from e

    def _gate(self, x):
        """The domain gate on x.  0.0 + v * v is exact, so xx is the left fold
        abs2(x) runs."""
        if self.unit_ball:
            xx = 0.0
            for v in x:
                v = float(v)
                xx += v * v
            if xx >= 1.0:
                raise OutOfChart(f"|x| = {math.sqrt(xx):.4f} >= 1")


def _overflow(x, e):
    return DomainError(f"F overflows at x = {tuple(map(float, x))}: {e}")


#: the unit-ball metric, F = (sqrt(|y|^2 - (|x|^2 |y|^2 - <x,y>^2)) + <x,y> + <a,y>) / (1 - |x|^2)
_FUNK = "(sqrt(abs2(y) - (abs2(x)*abs2(y) - dot(x,y)*dot(x,y))) + dot(x,y){}) / (1 - abs2(x))"


def build_metric(spec: MetricSpec) -> MetricInstance:
    """Validate a spec and compile its evaluator; raises SpecError if bad."""
    n = spec.n
    if n < 1:
        raise SpecError(f"dimension must be >= 1, got {n}")
    if spec.family not in _FAMILIES:
        raise SpecError(f"unknown family {spec.family!r}")

    constants = {}
    if spec.constants:
        for name, v in spec.constants:
            constants[name] = np.asarray(v, dtype=float) if isinstance(v, tuple) else v

    chart = Chart()
    if spec.chart_radius is not None:
        if spec.chart_radius <= 0:
            raise SpecError("chart_radius must be positive")
        chart = Chart("ball", float(spec.chart_radius))

    if spec.family in ("riemannian", "randers"):
        if spec.a is None or len(spec.a) != n or any(len(r) != n for r in spec.a):
            raise SpecError(f"family {spec.family!r} needs an {n}x{n} matrix a")
        for i in range(n):
            for j in range(i + 1, n):
                if spec.a[i][j] != spec.a[j][i]:
                    raise SpecError(f"a[{i}][{j}] != a[{j}][{i}]: matrix must be symmetric")
        a = [[_entry(spec.a[i][j], n, constants, f"a[{i}][{j}]") for j in range(n)] for i in range(n)]
        b = []
        if spec.family == "randers":
            if spec.b is None or len(spec.b) != n:
                raise SpecError(f"family 'randers' needs a length-{n} covector b")
            b = [_entry(spec.b[i], n, constants, f"b[{i}]") for i in range(n)]
        # sqrt((a_11 y1) y1 + (a_12 y1) y2 + ...) + b_1 y1 + ..., left folds
        # without the constant zero entries
        y = [expr.Var("y", i + 1) for i in range(n)]
        alpha2 = [expr.Bin("*", expr.Bin("*", a[i][j], y[i]), y[j])
                  for i in range(n) for j in range(n) if not _zero(a[i][j])]
        if not alpha2:
            raise SpecError(f"family {spec.family!r} needs a nonzero matrix a")
        beta = [expr.Bin("*", bi, yi) for bi, yi in zip(b, y) if not _zero(bi)]
        tree = reduce(_plus, beta, expr.Call("sqrt", (reduce(_plus, alpha2),)))
        return MetricInstance(spec, n, chart, spec.label or spec.family, expr.compile_tape(tree, n))

    if spec.family == "funk":
        drift = np.asarray(spec.drift if spec.drift is not None else np.zeros(n), dtype=float)
        if len(drift) != n:
            raise SpecError(f"funk drift must have {n} components")
        d = float(np.linalg.norm(drift))
        if d >= 1.0:
            raise SpecError(f"funk drift must satisfy |a| < 1, got {d:.4f}")
        radius = 1.0 if d == 0.0 else 1.0 - d
        if spec.chart_radius is not None:
            radius = min(radius, spec.chart_radius)
        ast = expr.parse(_FUNK.format(" + dot(a,y)" if any(c != 0.0 for c in drift) else ""))
        tape = expr.compile_tape(ast, n, {"a": drift})
        return MetricInstance(spec, n, Chart("ball", radius), spec.label or "funk", tape, unit_ball=True)

    # custom
    if not spec.expression:
        raise SpecError("family 'custom' needs an expression")
    tape = expr.compile_tape(_expression(spec.expression, n, constants, "expression"), n)
    return MetricInstance(spec, n, chart, spec.label or "custom", tape)


# --- validation ---

@dataclass
class ValidationReport:
    label: str
    n: int
    samples: int
    seed: int
    tolerance: float
    homogeneity_max: float
    min_eigenvalue: float
    failures: list
    passed: bool

    def summary(self):
        state = "pass" if self.passed else "FAIL"
        return (
            f"{self.label}: {state} ({self.samples} samples, "
            f"homogeneity {self.homogeneity_max:.2e}, min eig {self.min_eigenvalue:.3e}, "
            f"{len(self.failures)} failure(s))"
        )


def sample_chart_points(m: MetricInstance, count, rng, r_range=(0.15, 0.85)):
    """Deterministic chart samples: x in a shell, y on the unit sphere."""
    R = m.chart.sample_radius
    lo, hi = r_range
    pts = []
    for _ in range(count):
        u = rng.normal(size=m.n)
        u /= np.linalg.norm(u)
        r = R * (lo + (hi - lo) * rng.uniform() ** (1.0 / m.n))
        y = rng.normal(size=m.n)
        while np.linalg.norm(y) < 1e-6:
            y = rng.normal(size=m.n)
        y /= np.linalg.norm(y)
        pts.append((r * u, y))
    return pts


def validate(m: MetricInstance, samples=50, seed=0, tolerance=1e-10) -> ValidationReport:
    """Positive homogeneity and strong convexity over random chart samples."""
    from . import curvature  # deferred: layering

    rng = np.random.default_rng(seed)
    failures = []
    homo_max = 0.0
    min_eig = math.inf
    for x, y in sample_chart_points(m, samples, rng):
        try:
            f1 = float(m.F(tuple(x), tuple(y)))
        except Exception as e:  # noqa: BLE001 - report, do not crash
            failures.append({"x": list(x), "y": list(y), "problem": f"evaluation: {e}"})
            continue
        if not f1 > 0.0:
            failures.append({"x": list(x), "y": list(y), "problem": f"F = {f1:.6g} <= 0"})
            continue
        for s in (0.5, 2.0):
            fs = float(m.F(tuple(x), tuple(s * y)))
            resid = abs(fs - s * f1) / (s * abs(f1))
            homo_max = max(homo_max, resid)
            if resid > tolerance:
                failures.append(
                    {"x": list(x), "y": list(y), "problem": f"homogeneity residual {resid:.3e}"}
                )
        try:
            # SingularMetric unless g is positive definite
            g0 = curvature.spray_values(m, x, y)[0]
            min_eig = min(min_eig, float(np.linalg.eigvalsh(g0)[0]))
        except SingularMetric as e:
            ev = e.min_eigenvalue if e.min_eigenvalue is not None else float("nan")
            min_eig = min(min_eig, ev) if not math.isnan(ev) else min_eig
            failures.append({"x": list(x), "y": list(y), "problem": f"singular g: {e}"})
        except Exception as e:  # noqa: BLE001
            failures.append({"x": list(x), "y": list(y), "problem": f"g evaluation: {e}"})
    return ValidationReport(
        label=m.label,
        n=m.n,
        samples=samples,
        seed=seed,
        tolerance=tolerance,
        homogeneity_max=homo_max,
        min_eigenvalue=min_eig if min_eig is not math.inf else float("nan"),
        failures=failures,
        passed=not failures,
    )


# --- built-in corpus used by tests and example scripts ---

_BUILTIN_REGISTRY = {
        "euclidean2": lambda: MetricSpec.euclidean(2, label="euclidean2"),
        "euclidean3": lambda: MetricSpec.euclidean(3, label="euclidean3"),
        "sphere2": lambda: MetricSpec.sphere_chart(2, label="sphere2"),
        "sphere3": lambda: MetricSpec.sphere_chart(3, label="sphere3"),
        "mink-randers3": lambda: MetricSpec.randers(
            3,
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [0.2, 0.0, 0.0],
            label="mink-randers3",
        ),
        "randers3x": lambda: MetricSpec.randers(
            3,
            [
                ["1 + 0.2*abs2(x)" if i == j else 0.0 for j in range(3)]
                for i in range(3)
            ],
            [0.15, 0.0, 0.0],
            label="randers3x",
        ),
        "funk2": lambda: MetricSpec.funk(2, label="funk2"),
        "funk3": lambda: MetricSpec.funk(3, label="funk3"),
        "funk2-drift": lambda: MetricSpec.funk(2, drift=(0.2, 0.0), label="funk2-drift"),
        "quartic2": lambda: MetricSpec.custom(
            2, "(y1^4 + y2^4)^(1/4)", label="quartic2"
        ),
        "abq3": lambda: MetricSpec.custom(
            3,
            "sqrt(abs2(y)) + (0.2*y1)^2/sqrt(abs2(y))",
            label="abq3",
        ),
}

BUILTIN_NAMES = tuple(_BUILTIN_REGISTRY)


def builtin(name: str) -> MetricSpec:
    """Named example specs covering the families and edge behaviors."""
    if name not in _BUILTIN_REGISTRY:
        raise SpecError(f"unknown builtin metric {name!r}")
    return _BUILTIN_REGISTRY[name]()
