"""Per-layer tracing of finslerlab from outside the package.

``Tracer.install`` replaces public functions and methods of the package's
modules with timing wrappers, in the current process only, and
``uninstall`` puts the originals back.  No source file is touched.

Two kinds of wrapper:

* spans, around the public calls of ``curvature``, ``analysis``,
  ``transport`` and ``cli`` and around ``FieldScope.field``.  They nest on a
  stack, so each gets a self time (its duration minus that of its child
  spans).  Spans of public calls are also kept as records
  ``(name, start, end, parent, job)`` and written out when the run ends;
  ``FieldScope.field`` spans are too many to keep and are only summed.
* counters, around the hot kernel calls (``Jet`` products, derivatives and
  series compositions, ``expr.evaluate``, ``MetricInstance.F``).  They sum
  calls and inclusive time and do not enter the span stack.  Reentrant
  ones (``expr.evaluate`` recursion, a power that takes a reciprocal)
  count only the outermost call.

Names bound at import are wrapped where they are bound: ``cli`` binds
``curvature_bundle``, ``flag_curvature``, ``integrate_geodesic`` and
``parallelogram_holonomy``, and ``jets._FUNCS`` holds the composition
methods that ``jets.smooth`` calls.  ``analysis`` and ``transport`` bind
``point_scope``, so scopes are counted at ``FieldScope.__init__`` and
``FieldScope.field`` instead.  ``transport`` imports ``spray_values`` at
call time, so wrapping it in ``curvature`` covers it.  A hook that no
longer exists is listed in ``missing`` and its metrics read 0.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from math import comb
from time import perf_counter

from finslerlab import analysis, cli, curvature, errors, expr, jets, metrics, transport

ALGEBRAS = tuple(f"{nv}x{k}" for nv in (4, 6) for k in range(8))
SCOPE_ORDERS = tuple(range(2, 8))
FIELDS = ("F", "F2", "g", "g0", "ginv0", "g_inv", "ylow", "h", "C", "I", "G", "N", "Gamma",
          "B", "E", "R1", "Rhh", "RhhV", "Ch", "L_C", "L_B", "Lh", "Sigma", "D", "J_L",
          "Ih", "J_I", "phi", "frame2", "I2", "mu2", "cratio", "recF", "recF2")
COMPOSE = ("reciprocal", "sqrt", "__pow__", "exp", "log", "sin", "cos")
CLI_COMMANDS = ("report", "verify", "classify", "geodesic")

#: (public name, owners that bind it) for the stored spans
_PUBLIC = (
    ("curvature_bundle", (curvature, cli), "curvature.bundle"),
    ("flag_curvature", (curvature, cli), "curvature.flag"),
    ("spray_values", (curvature,), "curvature.spray_values"),
    ("classify", (analysis,), "analysis.classify"),
    ("fit_relative_stretch", (analysis,), "analysis.fit_relative_stretch"),
    ("check_constant_flag_chain", (analysis,), "analysis.constant_flag"),
    ("fit_semi_c_reducible", (analysis,), "analysis.semi_c"),
    ("integrate_geodesic", (transport, cli), "transport.geodesic"),
    ("parallelogram_holonomy", (transport, cli), "transport.parallelogram"),
) + tuple((f"cmd_{c}", (cli,), f"cli.{c}") for c in CLI_COMMANDS)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans = []                       # [name, start, end, parent, job]
        self.count = defaultdict(int)
        self.seconds = defaultdict(float)     # inclusive
        self.self_seconds = defaultdict(float)
        self.missing = []
        self.job = None
        self._stack = []                      # frames [nearest kept span, child seconds]
        self._depth = defaultdict(int)
        self._patches = []

    # --- wrappers ---

    def _span(self, fn, key_of, keep):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(args, kwargs)
            anchor = self._stack[-1][0] if self._stack else None
            t0 = perf_counter()
            if keep:
                self.spans.append([key, t0, None, anchor, self.job])
                anchor = len(self.spans) - 1
            frame = [anchor, 0.0]
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                dt = t1 - t0
                self.count[key] += 1
                self.seconds[key] += dt
                self.self_seconds[key] += dt - frame[1]
                if self._stack:
                    self._stack[-1][1] += dt
                if keep:
                    self.spans[anchor][2] = t1
        return wrapper

    def _counter(self, fn, key_of, group=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = key_of(args, kwargs)
            if key is None or (group and self._depth[group]):
                return fn(*args, **kwargs)
            if group:
                self._depth[group] += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.seconds[key] += perf_counter() - t0
                self.count[key] += 1
                if group:
                    self._depth[group] -= 1
        return wrapper

    def _integrate(self, fn):
        @functools.wraps(fn)
        def wrapper(rhs, *args, **kwargs):
            def counted_rhs(*a, **k):
                self.count["transport.rhs_calls"] += 1
                return rhs(*a, **k)
            try:
                path = fn(counted_rhs, *args, **kwargs)
            except errors.StepFailure:
                self.count["transport.step_failures"] += 1
                raise
            self.count["transport.accepted_steps"] += len(path.t) - 1
            return path
        return wrapper

    # --- installing ---

    def _patch(self, owner, name, make):
        is_dict = isinstance(owner, dict)
        orig = owner.get(name) if is_dict else getattr(owner, name, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', 'dict')}.{name}")
            return
        self._patches.append((owner, name, orig))
        if is_dict:
            owner[name] = make(orig)
        else:
            setattr(owner, name, make(orig))

    def install(self):
        Jet = jets.Jet

        def mul_key(args, kwargs):
            a, b = args
            if not isinstance(b, Jet):
                return None
            return f"jets.mul.{a.n_vars}x{min(a.order, b.order)}"

        for name in ("__mul__", "__rmul__"):
            self._patch(Jet, name, lambda f: self._counter(f, mul_key))
        self._patch(Jet, "deriv", lambda f: self._counter(f, lambda a, k: "jets.deriv"))
        for name in COMPOSE:
            self._patch(Jet, name, lambda f: self._counter(f, lambda a, k: "jets.compose", "compose"))
        for name in list(getattr(jets, "_FUNCS", {})):
            self._patch(jets._FUNCS, name, lambda f: self._counter(f, lambda a, k: "jets.compose", "compose"))

        self._patch(expr, "evaluate", lambda f: self._counter(f, lambda a, k: "expr.evaluate", "expr"))

        def F_key(args, kwargs):
            y = _arg(args, kwargs, 2, "y", ())
            return "metrics.F_jet" if any(isinstance(v, Jet) for v in y) else "metrics.F_float"

        self._patch(metrics.MetricInstance, "F", lambda f: self._counter(f, F_key))

        Scope = curvature.FieldScope

        def scope_key(args, kwargs):
            return f"curvature.scope.o{_arg(args, kwargs, 3, 'order')}"

        def field_key(args, kwargs):
            scope, name = args[0], _arg(args, kwargs, 1, "name")
            if name in getattr(scope, "_cache", ()):
                self.count["curvature.field_hits"] += 1
            return "curvature.field." + str(name)

        self._patch(Scope, "__init__", lambda f: self._counter(f, scope_key))
        self._patch(Scope, "field", lambda f: self._span(f, field_key, keep=False))

        for name, owners, key in _PUBLIC:
            for owner in owners:
                self._patch(owner, name, lambda f, key=key: self._span(f, lambda a, k: key, keep=True))

        def transport_key(args, kwargs):
            return "transport.transport." + str(_arg(args, kwargs, 3, "mode", "linear"))

        self._patch(transport, "parallel_transport", lambda f: self._span(f, transport_key, keep=True))
        self._patch(transport, "_integrate", self._integrate)
        return self

    def uninstall(self):
        for owner, name, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._patches.clear()

    # --- results ---

    def dump(self):
        return {"count": dict(self.count), "seconds": dict(self.seconds),
                "self_seconds": dict(self.self_seconds), "spans": self.spans,
                "missing": self.missing}

    def merge(self, dump, job):
        """Add a child process's dump, its spans relabelled with ``job``."""
        for attr in ("count", "seconds", "self_seconds"):
            target = getattr(self, attr)
            for k, v in dump[attr].items():
                target[k] += v
        base = len(self.spans)
        for name, t0, t1, parent, _ in dump["spans"]:
            self.spans.append([name, t0, t1, None if parent is None else parent + base, job])
        self.missing.extend(m for m in dump["missing"] if m not in self.missing)


def layer_metrics(tr: Tracer):
    """Per-layer metrics as {name: (value, unit)}; every named metric is present."""
    c, s, ss = tr.count, tr.seconds, tr.self_seconds
    out = {}
    algebras = list(ALGEBRAS) + sorted(
        {k.split(".")[-1] for k in c if k.startswith("jets.mul.")} - set(ALGEBRAS))
    pairs = 0
    for alg in algebras:
        n = c.get(f"jets.mul.{alg}", 0)
        out[f"jets.mul_count.{alg}"] = (n, "count")
        out[f"jets.mul_s.{alg}"] = (s.get(f"jets.mul.{alg}", 0.0), "s")
        nv, k = (int(p) for p in alg.split("x"))
        pairs += n * comb(2 * nv + k, k)
    out["jets.mul_count"] = (sum(c.get(f"jets.mul.{a}", 0) for a in algebras), "count")
    out["jets.mul_s"] = (sum(s.get(f"jets.mul.{a}", 0.0) for a in algebras), "s")
    out["jets.mul_pairs"] = (pairs, "count")
    for op in ("deriv", "compose"):
        out[f"jets.{op}_count"] = (c.get(f"jets.{op}", 0), "count")
        out[f"jets.{op}_s"] = (s.get(f"jets.{op}", 0.0), "s")
    out["expr.evaluate_calls"] = (c.get("expr.evaluate", 0), "count")
    out["expr.evaluate_s"] = (s.get("expr.evaluate", 0.0), "s")
    for kind in ("float", "jet"):
        out[f"metrics.F_{kind}_calls"] = (c.get(f"metrics.F_{kind}", 0), "count")
        out[f"metrics.F_{kind}_s"] = (s.get(f"metrics.F_{kind}", 0.0), "s")
    for k in SCOPE_ORDERS:
        out[f"curvature.scope_count.o{k}"] = (c.get(f"curvature.scope.o{k}", 0), "count")
    fields = list(FIELDS) + sorted(
        {k.split(".", 2)[2] for k in ss if k.startswith("curvature.field.")} - set(FIELDS))
    for name in fields:
        out[f"curvature.field_self_s.{name}"] = (ss.get(f"curvature.field.{name}", 0.0), "s")
    calls = sum(c.get(f"curvature.field.{name}", 0) for name in fields)
    out["curvature.field_calls"] = (calls, "count")
    out["curvature.field_hit_ratio"] = (c.get("curvature.field_hits", 0) / calls if calls else 0.0, "ratio")
    out["curvature.bundle_s"] = (s.get("curvature.bundle", 0.0), "s")
    out["curvature.spray_values_calls"] = (c.get("curvature.spray_values", 0), "count")
    out["curvature.spray_values_s"] = (s.get("curvature.spray_values", 0.0), "s")
    out["curvature.flag_s"] = (s.get("curvature.flag", 0.0), "s")
    for name in ("classify", "fit_relative_stretch", "constant_flag", "semi_c"):
        out[f"analysis.{name}_s"] = (s.get(f"analysis.{name}", 0.0), "s")
    out["transport.geodesic_s"] = (s.get("transport.geodesic", 0.0), "s")
    for mode in ("linear", "nonlinear"):
        out[f"transport.transport_s.{mode}"] = (s.get(f"transport.transport.{mode}", 0.0), "s")
    out["transport.parallelogram_s"] = (s.get("transport.parallelogram", 0.0), "s")
    rhs, steps = c.get("transport.rhs_calls", 0), c.get("transport.accepted_steps", 0)
    out["transport.rhs_calls"] = (rhs, "count")
    out["transport.accepted_steps"] = (steps, "count")
    out["transport.rhs_per_step"] = (rhs / steps if steps else 0.0, "rhs/step")
    out["transport.step_failures"] = (c.get("transport.step_failures", 0), "count")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = (s.get(f"cli.{cmd}", 0.0), "s")
    return out


#: counts that must repeat exactly between two traced runs of one seed
def exact_counts(layer):
    return {k: v for k, (v, unit) in layer.items()
            if unit == "count" and (k.startswith(("jets.mul_count.", "curvature.scope_count."))
                                    or k in ("transport.rhs_calls", "transport.accepted_steps"))}
