"""Dynamics along the spray: geodesics, parallel transport, loop experiments.

The integrator is an explicit adaptive Dormand-Prince 5(4) pair with two
extra acceptance gates beyond the embedded error estimate:

* a user-supplied invariant (for geodesics, relative drift of F, which
  is a first integral of the spray ODE) rejects steps that degrade it;
* the chart predicate; when an accepted step lands outside, the exit
  time is bracketed by bisection on the dense output and reported via
  :class:`~finslerlab.errors.ChartExit` (carrying the partial solution).

Transport comes in two modes, differing in where the connection is
evaluated:

* ``linear``     dV^i/dt + Gamma^i_jk(x, xdot) V^j xdot^k = 0
* ``nonlinear``  dV^i/dt + N^i_j(x, V) xdot^j = 0

Along a geodesic the linear mode reduces to dV/dt = -N(x, xdot) V
because Gamma^i_jk(x, y) y^k = N^i_j(x, y) by homogeneity.  In the
nonlinear mode F(x, V(t)) is conserved *identically* (dF(x,V) along the
curve equals the horizontal derivative of F, which vanishes), so the
parallelogram experiment's F-length channel measures integrator noise
for every metric; the support/probe channel below is the one that
resolves the stretch tensor.  See the probe description on
:func:`parallelogram_holonomy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curvature import PointState, _direct_spray, point_scope
from .errors import (
    BadConfig,
    ChartExit,
    DomainError,
    OutOfChart,
    ShapeMismatch,
    SingularMetric,
    StepFailure,
    VanishingVector,
    ZeroVector,
)

# Dormand-Prince 5(4) tableau
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

_RECOVERABLE = (DomainError, OutOfChart, SingularMetric, ZeroVector, FloatingPointError)


@dataclass
class _Path:
    """Accepted nodes with derivatives; cubic-Hermite dense output."""

    t: np.ndarray
    z: np.ndarray
    f: np.ndarray

    def state(self, t):
        ts = self.t
        if t <= ts[0]:
            return self.z[0].copy()
        if t >= ts[-1]:
            return self.z[-1].copy()
        k = int(np.searchsorted(ts, t, side="right") - 1)
        h = ts[k + 1] - ts[k]
        s = (t - ts[k]) / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return (
            h00 * self.z[k]
            + h10 * h * self.f[k]
            + h01 * self.z[k + 1]
            + h11 * h * self.f[k + 1]
        )


def _integrate(
    rhs,
    z0,
    span,
    rtol=1e-10,
    atol=1e-12,
    invariant=None,
    invariant_tol=5e-8,
    inside=None,
    max_steps=100000,
):
    """Adaptive RK step loop; returns a _Path over t in [0, span] (span > 0)."""
    z = np.asarray(z0, dtype=float)
    t = 0.0
    f = rhs(t, z)
    ts, zs, fs = [0.0], [z.copy()], [np.asarray(f, dtype=float)]
    h = span / 64.0
    hmin = span * 1e-13
    rejected_in_a_row = 0
    for _ in range(max_steps):
        if t >= span:
            return _Path(np.asarray(ts), np.asarray(zs), np.asarray(fs))
        h = min(h, span - t)
        k = [fs[-1]]
        try:
            for stage in range(1, 7):
                zi = z + h * sum(a * ki for a, ki in zip(_A[stage], k))
                k.append(np.asarray(rhs(t + _C[stage] * h, zi), dtype=float))
        except _RECOVERABLE:
            # A chart boundary dead ahead starves the step loop (stages keep
            # raising); detect it with a first-order probe and walk onto it.
            if inside is not None and not inside(z + h * fs[-1]):
                lo, hi = 0.0, h
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if inside(z + mid * fs[-1]):
                        lo = mid
                    else:
                        hi = mid
                    if hi - lo < 1e-15 * max(span, 1.0):
                        break
                if hi <= max(8 * hmin, 1e-12 * span):
                    partial = _Path(np.asarray(ts), np.asarray(zs), np.asarray(fs))
                    exc = ChartExit(
                        f"trajectory leaves the chart at t = {t + hi:.9g}",
                        t_exit=t + hi,
                    )
                    exc.partial = partial
                    raise exc from None
                h = max(0.9 * lo, 4 * hmin)  # step to just inside the boundary
                continue
            h *= 0.5
            rejected_in_a_row += 1
            if h < hmin or rejected_in_a_row > 60:
                raise StepFailure(
                    f"step size collapsed at t = {t:.6g} (right-hand side "
                    f"not evaluable; likely a chart or convexity boundary)"
                ) from None
            continue
        z5 = zi  # the last stage sits at (t + h, z5): _A[6] is _B5[:6], _C[6] is 1
        err = h * sum((b5 - b4) * ki for b5, b4, ki in zip(_B5, _B4, k))
        scale = atol + rtol * np.maximum(np.abs(z), np.abs(z5))
        enorm = float(np.sqrt(np.mean((err / scale) ** 2)))
        ok = enorm <= 1.0
        if ok and invariant is not None and not np.all(np.isfinite(z5)):
            ok = False
        if ok and invariant is not None:
            try:
                defect = invariant(z5)
            except _RECOVERABLE:
                defect = math.inf
            if defect > invariant_tol:
                ok = False
                enorm = max(enorm, 4.0)  # force a real shrink
        if not ok:
            h *= max(0.2, 0.9 * (1.0 / max(enorm, 1e-10)) ** 0.2)
            rejected_in_a_row += 1
            if h < hmin or rejected_in_a_row > 60:
                raise StepFailure(
                    f"cannot satisfy tolerances at t = {t:.6g} "
                    f"(error norm {enorm:.3g})"
                )
            continue
        rejected_in_a_row = 0
        f5 = k[6]  # first same as last: the next step's first stage
        if inside is not None and not inside(z5):
            # exit happened inside this step: bisect the Hermite interpolant
            piece = _Path(
                np.array([t, t + h]),
                np.stack([z, z5]),
                np.stack([fs[-1], f5]),
            )
            lo, hi = t, t + h
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if inside(piece.state(mid)):
                    lo = mid
                else:
                    hi = mid
                if hi - lo < 1e-14 * max(1.0, abs(span)):
                    break
            partial = _Path(np.asarray(ts), np.asarray(zs), np.asarray(fs))
            exc = ChartExit(
                f"trajectory leaves the chart at t = {hi:.9g}", t_exit=hi
            )
            exc.partial = partial
            raise exc
        t += h
        z = z5
        ts.append(t)
        zs.append(z.copy())
        fs.append(f5)
        h *= min(5.0, max(0.2, 0.9 * (1.0 / max(enorm, 1e-10)) ** 0.2))
    raise StepFailure(f"step budget exhausted after {max_steps} steps at t = {t:.6g}")


# --- geodesics ---

@dataclass
class GeodesicSolution:
    """Accepted nodes of one spray trajectory, with dense evaluation.

    ``t`` carries the caller's time labels (monotone); internally the
    trajectory is parameterized by elapsed time.  ``F_drift`` is the
    largest relative deviation of F(x, xdot) from its initial value over
    the accepted nodes -- the first-integral quality of the run.
    """

    label: str
    n: int
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    F0: float
    F_drift: float
    unit_speed: bool
    _path: _Path = field(repr=False, default=None)
    _sign: float = field(repr=False, default=1.0)

    @property
    def t_final(self):
        return float(self.t[-1])

    def state(self, t):
        """(x, y) at time t (cubic Hermite between accepted nodes)."""
        tau = self._sign * (t - float(self.t[0]))  # elapsed internal time
        z = self._path.state(tau)
        n = self.n
        return z[:n].copy(), z[n:].copy()

    def sample(self, ts):
        xs, ys = [], []
        for t in ts:
            x, y = self.state(float(t))
            xs.append(x)
            ys.append(y)
        return np.asarray(xs), np.asarray(ys)


def integrate_geodesic(metric, x0, y0, t_span, tol=1e-10, unit_speed=False):
    """Integrate xddot + 2 G(x, xdot) = 0 from (x0, y0).

    ``t_span`` is a duration T (may be negative: the same orbit is
    traced backwards) or a pair (t0, t1).  ``tol`` sets the relative
    step-error target; F-constancy is enforced as an additional
    accept/reject gate at 5e-8 relative.
    """
    n = metric.n
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if x0.shape != (n,) or y0.shape != (n,):
        raise ShapeMismatch(f"x0 and y0 need {n} components")
    if not np.any(y0):
        raise ZeroVector("geodesic needs a nonzero initial velocity")
    if not metric.chart.contains(x0):
        raise OutOfChart(f"x0 = {x0.tolist()} outside metric chart")
    if np.ndim(t_span) == 0:
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = (float(v) for v in t_span)
    if t1 == t0:
        raise BadConfig("empty integration span")
    F0 = float(metric.F(tuple(x0), tuple(y0)))
    if unit_speed:
        y0 = y0 / F0
        F0 = 1.0
    sign = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)

    from .curvature import spray_values

    def rhs(_t, z):
        x, y = z[:n], z[n:]
        G = spray_values(metric, x, y)
        return np.concatenate([sign * y, -2.0 * sign * G])

    def f_defect(z):
        return abs(float(metric.F(tuple(z[:n]), tuple(z[n:]))) - F0) / F0

    def inside(z):
        return metric.chart.contains(z[:n])

    try:
        path = _integrate(
            rhs,
            np.concatenate([x0, y0]),
            span,
            rtol=tol,
            atol=tol * 1e-2,
            invariant=f_defect,
            inside=inside,
        )
    except ChartExit as exc:
        exc.t_exit = t0 + sign * exc.t_exit
        if getattr(exc, "partial", None) is not None:
            exc.partial = _wrap_geodesic(
                metric, exc.partial, t0, sign, F0, unit_speed
            )
        raise
    return _wrap_geodesic(metric, path, t0, sign, F0, unit_speed)


def _wrap_geodesic(metric, path, t0, sign, F0, unit_speed):
    n = metric.n
    x = path.z[:, :n]
    y = path.z[:, n:]
    Fs = np.array([float(metric.F(tuple(xi), tuple(yi))) for xi, yi in zip(x, y)])
    drift = float(np.max(np.abs(Fs - F0)) / F0)
    return GeodesicSolution(
        label=getattr(metric, "label", ""),
        n=n,
        t=t0 + sign * path.t,
        x=x,
        y=y,
        F0=F0,
        F_drift=drift,
        unit_speed=unit_speed,
        _path=path,
        _sign=sign,
    )


# --- parallel transport ---

@dataclass
class TransportResult:
    mode: str
    t: np.ndarray
    V: np.ndarray
    length: np.ndarray      # g-length of V with g at the mode's reference vector
    F_drift: float          # geodesic first-integral drift of the joint run
    length_drift: float     # relative drift of the length column


def parallel_transport(metric, geodesic: GeodesicSolution, V0, mode="linear", tol=1e-10):
    """Transport V0 along a geodesic in the selected mode.

    The joint system (x, y, V) is re-integrated from the geodesic's own
    initial data, so no interpolation error enters the transport.
    """
    if mode not in ("linear", "nonlinear"):
        raise BadConfig(f"transport mode must be linear or nonlinear, got {mode!r}")
    n = metric.n
    V0 = np.asarray(V0, dtype=float)
    if V0.shape != (n,):
        raise ShapeMismatch(f"V0 needs {n} components")
    vscale = float(np.linalg.norm(V0))
    if vscale == 0.0:
        raise ZeroVector("V0 must be nonzero")
    x0, y0 = geodesic.x[0], geodesic.y[0]
    F0 = geodesic.F0
    sign = geodesic._sign
    span = abs(geodesic.t_final - float(geodesic.t[0]))

    from .curvature import spray_values

    def rhs(_t, z):
        x, y, V = z[:n], z[n : 2 * n], z[2 * n :]
        if mode == "nonlinear" and np.linalg.norm(V) < 1e-10 * vscale:
            raise VanishingVector(
                "transported vector collapsed; nonlinear mode undefined"
            )
        if mode == "linear":
            G, N = spray_values(metric, x, y, with_N=True)
            dV = -N @ V
        else:
            G = spray_values(metric, x, y)
            _, Nv = spray_values(metric, x, V, with_N=True)
            dV = -Nv @ y
        return np.concatenate([sign * y, -2.0 * sign * G, sign * dV])

    def f_defect(z):
        return abs(float(metric.F(tuple(z[:n]), tuple(z[n : 2 * n]))) - F0) / F0

    def inside(z):
        return metric.chart.contains(z[:n])

    path = _integrate(
        rhs,
        np.concatenate([x0, y0, V0]),
        span,
        rtol=tol,
        atol=tol * 1e-2,
        invariant=f_defect,
        inside=inside,
    )
    x = path.z[:, :n]
    y = path.z[:, n : 2 * n]
    V = path.z[:, 2 * n :]
    lengths = np.empty(len(path.t))
    for row, (xi, yi, vi) in enumerate(zip(x, y, V)):
        ref = yi if mode == "linear" else vi
        g0 = _direct_spray(metric, xi, ref, 0)[0]
        lengths[row] = math.sqrt(max(float(vi @ g0 @ vi), 0.0))
    Fs = np.array([float(metric.F(tuple(xi), tuple(yi))) for xi, yi in zip(x, y)])
    scale = max(float(np.max(lengths)), 1e-300)
    return TransportResult(
        mode=mode,
        t=geodesic.t[0] + sign * path.t,
        V=V,
        length=lengths,
        F_drift=float(np.max(np.abs(Fs - F0)) / F0),
        length_drift=float((np.max(lengths) - np.min(lengths)) / scale),
    )


# --- the parallelogram experiment ---

@dataclass
class ParallelogramExperiment:
    """Loop-transport length defects at several scales.

    Two channels are recorded per scale eps:

    * ``delta``: the F-length defect |F(x0, w_end) - F(x0, w0)| of w0
      transported in nonlinear mode.  Since nonlinear transport
      conserves F(x, V) identically, this channel is integrator noise
      for *every* metric; it confirms the conservation law rather than
      resolving curvature.
    * ``delta_probe``: a support vector Y (starting at ``support0``) is
      transported nonlinearly while the probe w0 is transported linearly
      with the connection evaluated at Y; the defect is measured in the
      g-length at reference Y.  This channel scales like eps^2 with a
      coefficient controlled by the stretch/curvature structure, and
      vanishes identically for locally Minkowski metrics (no connection)
      and for Riemannian ones (metric transport).

    ``exponent``/``exponent_probe`` are least-squares slopes of log
    defect vs log eps (NaN when the channel sits at noise level).
    """

    x0: np.ndarray
    u: np.ndarray
    v: np.ndarray
    w0: np.ndarray
    support0: np.ndarray
    eps: np.ndarray
    delta: np.ndarray
    delta_probe: np.ndarray
    return_defect: np.ndarray     # |w_end - w0|_inf, nonlinear channel
    w_final: np.ndarray
    exponent: float
    exponent_probe: float


def _fit_exponent(eps, delta, noise=1e-12):
    mask = delta > noise
    if np.count_nonzero(mask) < 2:
        return float("nan")
    slope = np.polyfit(np.log(eps[mask]), np.log(delta[mask]), 1)[0]
    return float(slope)


def parallelogram_holonomy(
    metric, x0, u, v, w0, eps_list, support0=None, tol=1e-11
):
    """Transport around the chart-straight loop x0, x0+eps*u, x0+eps*(u+v), x0+eps*v.

    ``support0`` seeds the probe channel's support vector; it defaults
    to u + v and must not be parallel to w0 (a support equal to the
    probe makes the linear and nonlinear transports coincide by
    homogeneity, which empties the probe channel).
    """
    n = metric.n
    x0 = np.asarray(x0, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    for name, vec in (("x0", x0), ("u", u), ("v", v), ("w0", w0)):
        if vec.shape != (n,):
            raise ShapeMismatch(f"{name} needs {n} components")
    if np.linalg.norm(np.outer(u, v) - np.outer(v, u)) < 1e-14:
        raise BadConfig("u and v must be linearly independent")
    support0 = u + v if support0 is None else np.asarray(support0, dtype=float)
    if np.linalg.norm(support0) < 1e-14:
        raise ZeroVector("support0 must be nonzero")
    eps_arr = np.asarray(sorted(float(e) for e in eps_list))
    if eps_arr.size == 0 or eps_arr[0] <= 0:
        raise BadConfig("eps_list must contain positive scales")

    corners = [x0, x0 + u, x0 + u + v, x0 + v]
    emax = eps_arr[-1]
    for c in corners:
        if not metric.chart.contains(x0 + emax * (c - x0)):
            raise ChartExit(
                f"parallelogram corner {(x0 + emax * (c - x0)).tolist()} "
                f"leaves the chart at eps = {emax:g}"
            )

    from .curvature import spray_values

    def length_at(ref, w):
        g0 = _direct_spray(metric, x0, ref, 0)[0]
        return math.sqrt(max(float(w @ g0 @ w), 0.0))

    len_F0 = float(metric.F(tuple(x0), tuple(w0)))
    len_probe0 = length_at(support0, w0)
    wscale = float(np.linalg.norm(w0))
    sscale = float(np.linalg.norm(support0))

    deltas, deltas_probe, returns, finals = [], [], [], []
    for eps in eps_arr:
        state = np.concatenate([w0, support0, w0])  # (w nonlinear, Y support, W probe)
        edges = [
            (x0, u),
            (x0 + eps * u, v),
            (x0 + eps * (u + v), -u),
            (x0 + eps * v, -v),
        ]
        for origin, d in edges:

            def rhs(s, z, _o=origin, _d=d, _e=eps):
                x = _o + s * _e * _d
                wn, Y, W = z[:n], z[n : 2 * n], z[2 * n :]
                if np.linalg.norm(wn) < 1e-10 * wscale:
                    raise VanishingVector("nonlinear transport vector collapsed")
                if np.linalg.norm(Y) < 1e-10 * sscale:
                    raise VanishingVector("support vector collapsed")
                _, N_w = spray_values(metric, x, wn, with_N=True)
                _, _, N_Y, Gamma_Y = _direct_spray(metric, x, Y, 2)
                return np.concatenate(
                    [
                        -_e * (N_w @ _d),
                        -_e * (N_Y @ _d),
                        -_e * np.einsum("ijk,j,k->i", Gamma_Y, W, _d),
                    ]
                )

            path = _integrate(rhs, state, 1.0, rtol=tol, atol=tol * 1e-2)
            state = path.z[-1]
        wn_end, Y_end, W_end = state[:n], state[n : 2 * n], state[2 * n :]
        deltas.append(abs(float(metric.F(tuple(x0), tuple(wn_end))) - len_F0))
        deltas_probe.append(abs(length_at(Y_end, W_end) - len_probe0))
        returns.append(float(np.max(np.abs(wn_end - w0))))
        finals.append(wn_end)

    deltas = np.asarray(deltas)
    deltas_probe = np.asarray(deltas_probe)
    return ParallelogramExperiment(
        x0=x0,
        u=u,
        v=v,
        w0=w0,
        support0=support0,
        eps=eps_arr,
        delta=deltas,
        delta_probe=deltas_probe,
        return_defect=np.asarray(returns),
        w_final=np.asarray(finals),
        exponent=_fit_exponent(eps_arr, deltas),
        exponent_probe=_fit_exponent(eps_arr, deltas_probe),
    )


# --- scalar quantities along a geodesic ---

_FLOW_QUANTITIES = ("phi", "phidot", "L_norm", "mu", "p", "c")


@dataclass
class ScalarFlow:
    """Point evaluations of scalar invariants along one geodesic.

    ``columns`` maps quantity name -> array over ``t``; a quantity whose
    evaluation failed is reported in ``status`` and filled with NaN.
    When a stretch constant ``c`` is supplied, two residual columns are
    added: ``flow_resid`` = phidot - c*F*phi (the rate law the engine
    measures) and ``flow_resid_doubled`` = phidot - 2*c*F*phi (the same
    law with a doubled rate constant, kept for comparison; see the
    ledger note on the factor of two).
    """

    label: str
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    columns: dict
    status: dict
    c_used: float = None


def scalar_flows(metric, geodesic: GeodesicSolution, quantities=("phi", "L_norm"), c=None, samples=25):
    for q in quantities:
        if q not in _FLOW_QUANTITIES:
            raise BadConfig(
                f"unknown flow quantity {q!r}; known: {_FLOW_QUANTITIES}"
            )
    from . import analysis

    ts = np.linspace(float(geodesic.t[0]), geodesic.t_final, samples)
    names = list(quantities)
    if c is not None:
        if "phi" not in names:
            names.append("phi")
        if "phidot" not in names:
            names.append("phidot")
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
                    cols[name][row] = scope.field("phi")[0]
                elif name == "phidot":
                    cols[name][row] = scope.directional(scope.field("phi"))[0]
                elif name == "L_norm":
                    cols[name][row] = math.sqrt(max(float(scope.field("phi")[0]), 0.0))
                elif name == "p":
                    cols[name][row] = analysis.fit_semi_c_reducible(metric, None, scope).p
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
    return ScalarFlow(
        label=getattr(metric, "label", ""),
        t=ts,
        x=xs,
        y=ys,
        columns=cols,
        status=status,
        c_used=c,
    )
