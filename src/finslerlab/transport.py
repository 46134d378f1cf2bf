"""Dynamics along the spray: geodesics, parallel transport, loop experiments.

The integrator is an explicit adaptive Dormand-Prince 5(4) pair with two
extra acceptance gates beyond the embedded error estimate:

* a user-supplied invariant (for geodesics, relative drift of F, which
  is a first integral of the spray ODE) rejects steps that degrade it; its
  largest value over the nodes is the run's ``F_drift``;
* the chart, which the right-hand side gates at every stage, the last one
  at the step's end point; where stages fail, a first-order probe brackets
  the exit time by bisection and reports it via
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

A transport integrates V alone, on the geodesic's own accepted steps: the
geodesic run keeps each step's seven stage states with N at each, and g at
each node.  So it is as accurate as the geodesic it rides, and V's error
takes no part in the step control.

Every float spray read here is one call of
:func:`finslerlab.curvature.spray_values`, looked up on that module at call
time: g, G and N for a geodesic right-hand side at depth 1 (its G is depth
0's bit for bit), N at (x, V) for a nonlinear transport stage at depth 1,
N and Gamma for the parallelogram's probe at depth 2, and g for the probe's
lengths at depth 0.  A linear transport makes no call: its slopes read the
geodesic's N, and its lengths the geodesic's g at the nodes.  A nonlinear
transport's lengths read the g of its own call at each node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, curvature
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

# Dormand-Prince 5(4) tableau: stage s reads row s of _A, zero from column s
# on; its last row is the fifth-order weights _B5, _B5 - _B4 the error estimate's
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([row + [0.0] * (7 - len(row)) for row in [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]])
_B5 = _A[6]
_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
#: the weights of stage s's sum as a column, _A[s, :s, None], and the error
#: estimate's: no stage slices the tableau or adds an axis
_A_COLS = tuple(_A[s, :s, None] for s in range(7))
_E_COL = (_B5 - _B4)[:, None]

_RECOVERABLE = (DomainError, OutOfChart, SingularMetric, ZeroVector, FloatingPointError)

#: relative drift of F, a first integral of the spray, that an accepted step
#: may leave; the step budget of one integration
_F_TOL = 5e-8
_MAX_STEPS = 100000


@dataclass
class _Path:
    """Accepted nodes with derivatives, cubic-Hermite dense output, and the
    invariant's largest value over the nodes (None without one)."""

    t: np.ndarray
    z: np.ndarray
    f: np.ndarray
    drift: float = None

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


def _bisect(inside, at, lo, hi, width):
    """Halve [lo, hi], with at(lo) inside and at(hi) not, until it is
    narrower than ``width`` or 80 times; returns the last (lo, hi)."""
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if inside(at(mid)):
            lo = mid
        else:
            hi = mid
        if hi - lo < width:
            break
    return lo, hi


def _fold(w, k):
    """sum_j w[j] k[j] over the rows of k, for the column of weights w
    (``_A_COLS``, ``_E_COL``): one left fold from +0.0 as the generator
    ``sum`` over (w[j] * k[j]) gives it, bit for bit, so never a -0.0
    entry."""
    return np.add.reduce(w * k, axis=0, initial=0.0)


def _rms(q):
    """The root mean square of the 1-D array q, bit for bit
    ``np.sqrt(np.mean(q ** 2))`` without ``np.mean``'s wrappers: the same
    pairwise sum of the same squares, divided by the same count."""
    return math.sqrt(np.add.reduce(q * q) / q.size)


def _norm(v):
    """The Euclidean length of the 1-D float array v, bit for bit
    ``np.linalg.norm(v)``, which computes sqrt(v . v) for such a vector."""
    return math.sqrt(v.dot(v))


def _integrate(rhs, z0, span, tol=1e-10, invariant=None, inside=None, accepted=None):
    """Adaptive RK step loop; returns a _Path over t in [0, span] (span > 0).

    ``tol`` is the relative step-error target and tol * 1e-2 the absolute
    one; a step must also end at a finite state.  ``invariant(z)`` is a
    defect each node must hold to ``_F_TOL``, and the path's ``drift`` its
    largest value.  rhs must raise OutOfChart wherever the chart predicate
    ``inside`` fails, so a step ends inside, its last stage being its end
    point.  ``accepted`` is called with no arguments once per accepted
    node, the first included, right after the rhs call at that node (the
    last stage of its step), so an rhs can keep what it computed there.
    """
    z = np.asarray(z0, dtype=float)
    t = 0.0
    f = rhs(t, z)
    if accepted is not None:
        accepted()
    drift = None if invariant is None else invariant(z)
    ts, zs, fs = [0.0], [z.copy()], [np.asarray(f, dtype=float)]
    k = np.empty((7, z.size))  # the stages of the step at hand
    h = span / 64.0
    hmin = span * 1e-13
    atol = tol * 1e-2
    rejected_in_a_row = 0
    for _ in range(_MAX_STEPS):
        if t >= span:
            return _Path(np.asarray(ts), np.asarray(zs), np.asarray(fs), drift)
        h = min(h, span - t)
        k[0] = fs[-1]
        try:
            for stage in range(1, 7):
                zi = z + h * _fold(_A_COLS[stage], k[:stage])
                k[stage] = rhs(t + _C[stage] * h, zi)
        except _RECOVERABLE:
            # A chart boundary dead ahead starves the step loop (stages keep
            # raising); detect it with a first-order probe and walk onto it.
            if inside is not None and not inside(z + h * fs[-1]):
                lo, hi = _bisect(inside, lambda s: z + s * fs[-1], 0.0, h, 1e-15 * max(span, 1.0))
                if hi <= max(8 * hmin, 1e-12 * span):
                    exc = ChartExit(f"trajectory leaves the chart at t = {t + hi:.9g}", t_exit=t + hi)
                    exc.partial = _Path(np.asarray(ts), np.asarray(zs), np.asarray(fs), drift)
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
        err = h * _fold(_E_COL, k)
        scale = atol + tol * np.maximum(np.abs(z), np.abs(z5))
        enorm = _rms(err / scale)
        ok = enorm <= 1.0
        gate = None  # the gate that rejected a step the error norm passed
        if ok and not np.isfinite(z5).all():  # an infinite scale passes any error
            gate = "finite"
        elif ok and invariant is not None:
            try:
                defect = invariant(z5)
            except _RECOVERABLE:
                defect = math.inf
            if not defect <= _F_TOL:  # a NaN defect fails too
                gate = "invariant"
        if gate is not None:
            ok, enorm = False, max(enorm, 4.0)  # force a real shrink
        if not ok:
            h *= max(0.2, 0.9 * (1.0 / max(enorm, 1e-10)) ** 0.2)
            rejected_in_a_row += 1
            if h < hmin or rejected_in_a_row > 60:
                cause = ("step end not finite" if gate == "finite" else
                         f"relative F drift {defect:.6g} above the gate's {_F_TOL:g}" if gate else
                         f"error norm {enorm:.3g}")
                raise StepFailure(f"cannot satisfy tolerances at t = {t:.6g} ({cause})")
            continue
        rejected_in_a_row = 0
        if invariant is not None:
            drift = max(drift, defect)
        t += h
        z = z5
        ts.append(t)
        zs.append(z.copy())
        fs.append(k[6].copy())  # first same as last: the next step's first stage
        if accepted is not None:
            accepted()
        h *= min(5.0, max(0.2, 0.9 * (1.0 / max(enorm, 1e-10)) ** 0.2))
    raise StepFailure(f"step budget exhausted after {_MAX_STEPS} steps at t = {t:.6g}")


def _vectors(n, *groups):
    """The vectors of ``groups``, (label, vector, ...) tuples, as float arrays.

    Every vector must have n components, or ShapeMismatch names its group
    ("x0 and y0 need 2 components"); then every one must be finite, or
    BadConfig.
    """
    out = []
    for label, *vecs in groups:
        vecs = [np.asarray(v, dtype=float) for v in vecs]
        if any(v.shape != (n,) for v in vecs):
            raise ShapeMismatch(f"{label} need{'' if len(vecs) > 1 else 's'} {n} components")
        out += [(label, v) for v in vecs]
    for label, v in out:
        if not np.all(np.isfinite(v)):
            raise BadConfig(f"{label} must be finite, got {v.tolist()}")
    return [v for _, v in out]


def _tolerance(tol):
    """An integrator tolerance as a float; BadConfig unless it is finite and > 0."""
    tol = float(tol)
    if not 0.0 < tol < math.inf:
        raise BadConfig(f"tol must be finite and > 0, got {tol!r}")
    return tol


def _length(g, w):
    """Length of w in the fundamental tensor g."""
    return math.sqrt(max(float(w @ g @ w), 0.0))


def _g_length(metric, x, ref, w):
    """Length of w in the fundamental tensor at (x, ref)."""
    return _length(curvature.spray_values(metric, x, ref)[0], w)


# --- geodesics ---

@dataclass
class GeodesicSolution:
    """Accepted nodes of one spray trajectory, with dense evaluation.

    ``t`` carries the caller's time labels (monotone); internally the
    trajectory is parameterized by elapsed time.  ``F_drift`` is the
    largest relative deviation of F(x, xdot) from its initial value over
    the accepted nodes -- the first-integral quality of the run.  Per
    accepted step the run keeps its seven stage states (x, y), stage 0 the
    step's start node, and N there, and g at each node, for
    :func:`parallel_transport`.
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
    _stage_z: np.ndarray = field(repr=False, default=None)  # (steps, 7, 2n)
    _stage_N: np.ndarray = field(repr=False, default=None)  # (steps, 7, n, n)
    _node_g: np.ndarray = field(repr=False, default=None)   # (nodes, n, n)

    @property
    def t_final(self):
        return float(self.t[-1])

    def state(self, t):
        """(x, y) at time t (cubic Hermite between accepted nodes)."""
        tau = self._sign * (t - float(self.t[0]))  # elapsed internal time
        z = self._path.state(tau)
        n = self.n
        return z[:n].copy(), z[n:].copy()


def geodesic_start(metric, x0, y0):
    """x0 and y0 as float arrays, checked as :func:`integrate_geodesic` checks
    them before the chart: n components each (ShapeMismatch), finite
    (BadConfig) and a nonzero y0 (ZeroVector)."""
    x0, y0 = _vectors(metric.n, ("x0 and y0", x0, y0))
    if not np.any(y0):
        raise ZeroVector("geodesic needs a nonzero initial velocity")
    return x0, y0


def geodesic_span(t_span):
    """(t0, t1) of a duration T, which is (0, T), or of a pair (t0, t1),
    checked as :func:`integrate_geodesic` checks it: finite, and t1 != t0
    (BadConfig)."""
    if np.ndim(t_span) == 0:
        t0, t1 = 0.0, float(t_span)
    else:
        t0, t1 = (float(v) for v in t_span)
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise BadConfig(f"integration span must be finite, got {t_span!r}")
    if t1 == t0:
        raise BadConfig("empty integration span")
    return t0, t1


def integrate_geodesic(metric, x0, y0, t_span, tol=1e-10, unit_speed=False):
    """Integrate xddot + 2 G(x, xdot) = 0 from (x0, y0).

    ``t_span`` is a duration T (may be negative: the same orbit is
    traced backwards) or a pair (t0, t1).  ``tol`` sets the relative
    step-error target, finite and > 0; F-constancy is enforced as an
    additional accept/reject gate at 5e-8 relative.
    """
    tol = _tolerance(tol)
    n = metric.n
    x0, y0 = geodesic_start(metric, x0, y0)
    if not metric.chart.contains(x0):
        raise OutOfChart(f"x0 = {x0.tolist()} outside metric chart")
    t0, t1 = geodesic_span(t_span)
    F0 = float(metric.F(tuple(x0), tuple(y0)))
    if unit_speed:
        y0 = y0 / F0
        F0 = 1.0
    sign = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)

    calls, nodes = [], []  # (z, g, N) of each rhs call since the last node, and of each node
    stage_z, stage_N = [], []  # per accepted step, its 7 stages' z and N

    def rhs(_t, z):
        x, y = z[:n], z[n:]
        g, G, N = curvature.spray_values(metric, x, y, 1)
        calls.append((z, g, N))
        return np.concatenate([sign * y, -2.0 * sign * G])

    def accepted():
        if nodes:  # a step's stages: the node it starts from, then its last six rhs calls
            stages = [nodes[-1], *calls[-6:]]
            stage_z.append(np.array([z for z, _, _ in stages]))
            stage_N.append(np.array([N for _, _, N in stages]))
        nodes.append(calls[-1])
        calls.clear()

    def wrap(path):
        return GeodesicSolution(
            label=getattr(metric, "label", ""), n=n, t=t0 + sign * path.t, x=path.z[:, :n],
            y=path.z[:, n:], F0=F0, F_drift=path.drift, unit_speed=unit_speed, _path=path,
            _sign=sign, _stage_z=np.array(stage_z).reshape(-1, 7, 2 * n),
            _stage_N=np.array(stage_N).reshape(-1, 7, n, n),
            _node_g=np.array([g for _, g, _ in nodes]),
        )

    try:
        path = _integrate(
            rhs, np.concatenate([x0, y0]), span, tol,
            invariant=lambda z: abs(float(metric.F(z[:n], z[n:])) - F0) / F0,
            inside=lambda z: metric.chart.contains(z[:n]), accepted=accepted,
        )
    except ChartExit as exc:
        exc.t_exit = t0 + sign * exc.t_exit
        if getattr(exc, "partial", None) is not None:
            exc.partial = wrap(exc.partial)
        raise
    return wrap(path)


# --- parallel transport ---

@dataclass
class TransportResult:
    mode: str
    t: np.ndarray
    V: np.ndarray
    length: np.ndarray      # g-length of V with g at the mode's reference vector
    F_drift: float          # first-integral drift of the geodesic it rides
    length_drift: float     # relative drift of the length column


def parallel_transport(metric, geodesic: GeodesicSolution, V0, mode="linear"):
    """Transport V0 along a geodesic in the selected mode.

    V is integrated on the geodesic's own accepted steps, with its
    Dormand-Prince tableau and stage sums: stage s of a step sits at the
    geodesic's stage state (x_s, y_s), where V's slope is -N(x_s, y_s) V_s
    from the N the geodesic kept (linear mode, no spray call) or
    -N(x_s, V_s) y_s from one depth-1 call (nonlinear mode); a step's first
    stage is the last one's last.  No interpolation enters, and the
    transport is as accurate as the geodesic it rides: V's own embedded
    error estimate takes no part in the step control.  Where V's slope
    varies faster than the geodesic's, as in nonlinear mode near the edge
    of a Funk ball, digits are lost; ``length_drift``, the drift of an
    invariant of both modes, shows it.
    """
    if mode not in ("linear", "nonlinear"):
        raise BadConfig(f"transport mode must be linear or nonlinear, got {mode!r}")
    n = metric.n
    (V0,) = _vectors(n, ("V0", V0))
    vscale = _norm(V0)
    if vscale == 0.0:
        raise ZeroVector("V0 must be nonzero")
    sign, zs, Ns = geodesic._sign, geodesic._stage_z, geodesic._stage_N

    def slope(step, s, V):
        """dV/dt at stage s of the step; in nonlinear mode also g at (x_s, V)."""
        if mode == "linear":
            return sign * -(Ns[step, s] @ V), None
        if _norm(V) < 1e-10 * vscale:
            raise VanishingVector("transported vector collapsed; nonlinear mode undefined")
        g, _, N = curvature.spray_values(metric, zs[step, s, :n], V, 1)
        return sign * -(N @ zs[step, s, n:]), g

    k = np.empty((7, n))  # V's slopes at the stages of the step at hand
    Vs, gs = [V0], [None]
    if len(zs):
        k[6], gs[0] = slope(0, 0, V0)
    for step, h in enumerate(np.diff(geodesic._path.t)):
        k[0] = k[6]
        for s in range(1, 7):
            V = Vs[-1] + h * _fold(_A_COLS[s], k[:s])
            k[s], g = slope(step, s, V)
        Vs.append(V)  # the last stage sits at the step's end: _A[6] is _B5[:6]
        gs.append(g)
    if mode == "linear":
        gs = geodesic._node_g
    elif gs[0] is None:  # a ChartExit's partial geodesic of node 0 alone
        gs[0] = curvature.spray_values(metric, geodesic.x[0], V0)[0]
    lengths = np.array([_length(g, v) for g, v in zip(gs, Vs)])
    scale = max(float(np.max(lengths)), 1e-300)
    return TransportResult(
        mode=mode,
        t=geodesic.t,
        V=np.array(Vs),
        length=lengths,
        F_drift=geodesic.F_drift,
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
    exponent: float
    exponent_probe: float


def _fit_exponent(eps, delta, noise=1e-12):
    mask = delta > noise
    if np.count_nonzero(mask) < 2:
        return float("nan")
    slope = np.polyfit(np.log(eps[mask]), np.log(delta[mask]), 1)[0]
    return float(slope)


def loop_inputs(metric, x0, u, v, w0, eps_list, support0=None):
    """The inputs of :func:`parallelogram_holonomy` as float arrays (x0, u,
    v, w0, support0, sorted eps), checked as it checks them before the
    chart: n components each (ShapeMismatch), finite, u and v linearly
    independent and positive scales (BadConfig), a nonzero w0 and support0
    (ZeroVector)."""
    n = metric.n
    x0, u, v, w0 = _vectors(n, ("x0", x0), ("u", u), ("v", v), ("w0", w0))
    if not np.any(w0):
        raise ZeroVector("w0 must be nonzero")
    if np.linalg.norm(np.outer(u, v) - np.outer(v, u)) < 1e-14:
        raise BadConfig("u and v must be linearly independent")
    (support0,) = _vectors(n, ("support0", u + v if support0 is None else support0))
    if np.linalg.norm(support0) < 1e-14:
        raise ZeroVector("support0 must be nonzero")
    eps_arr = np.asarray(sorted(float(e) for e in eps_list))
    if not np.all(np.isfinite(eps_arr)):
        raise BadConfig(f"eps_list must hold finite scales, got {eps_arr.tolist()}")
    if eps_arr.size == 0 or eps_arr[0] <= 0:
        raise BadConfig("eps_list must contain positive scales")
    return x0, u, v, w0, support0, eps_arr


def parallelogram_holonomy(
    metric, x0, u, v, w0, eps_list, support0=None, tol=1e-11
):
    """Transport around the chart-straight loop x0, x0+eps*u, x0+eps*(u+v), x0+eps*v.

    ``support0`` seeds the probe channel's support vector; it defaults
    to u + v and must not be parallel to w0 (a support equal to the
    probe makes the linear and nonlinear transports coincide by
    homogeneity, which empties the probe channel).  ``tol``, the relative
    step-error target of each leg, must be finite and > 0.
    """
    tol = _tolerance(tol)
    n = metric.n
    x0, u, v, w0, support0, eps_arr = loop_inputs(metric, x0, u, v, w0, eps_list, support0)

    corners = [x0, x0 + u, x0 + u + v, x0 + v]
    emax = eps_arr[-1]
    for c in corners:
        if not metric.chart.contains(x0 + emax * (c - x0)):
            raise ChartExit(
                f"parallelogram corner {(x0 + emax * (c - x0)).tolist()} "
                f"leaves the chart at eps = {emax:g}"
            )

    len_F0 = float(metric.F(tuple(x0), tuple(w0)))
    len_probe0 = _g_length(metric, x0, support0, w0)
    wscale = _norm(w0)
    sscale = _norm(support0)

    deltas, deltas_probe, returns = [], [], []
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
                if _norm(wn) < 1e-10 * wscale:
                    raise VanishingVector("nonlinear transport vector collapsed")
                if _norm(Y) < 1e-10 * sscale:
                    raise VanishingVector("support vector collapsed")
                N_w = curvature.spray_values(metric, x, wn, 1)[2]
                _, _, N_Y, Gamma_Y = curvature.spray_values(metric, x, Y, 2)
                return np.concatenate(
                    [
                        -_e * (N_w @ _d),
                        -_e * (N_Y @ _d),
                        -_e * np.einsum("ijk,j,k->i", Gamma_Y, W, _d),
                    ]
                )

            path = _integrate(rhs, state, 1.0, tol)
            state = path.z[-1]
        wn_end, Y_end, W_end = state[:n], state[n : 2 * n], state[2 * n :]
        deltas.append(abs(float(metric.F(tuple(x0), tuple(wn_end))) - len_F0))
        deltas_probe.append(abs(_g_length(metric, x0, Y_end, W_end) - len_probe0))
        returns.append(float(np.max(np.abs(wn_end - w0))))

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
        exponent=_fit_exponent(eps_arr, deltas),
        exponent_probe=_fit_exponent(eps_arr, deltas_probe),
    )


# --- scalar quantities along a geodesic ---

#: per flow quantity, the keys of ``analysis._point_reads`` it reads and its
#: value from them at one point of an n-dimensional metric
_FLOWS = {
    "phi": (("phi",), lambda n, read: read("phi")),
    "phidot": ((("directional", "phi"),), lambda n, read: read(("directional", "phi"))),
    "L_norm": (("phi",), lambda n, read: math.sqrt(max(read("phi"), 0.0))),
    "mu": (("mu2",), lambda n, read: read("mu2")),
    "p": (analysis._SEMI_C_FIELDS, lambda n, read: analysis._semi_c_fit(n, read).p),
    "c": (("cratio",), lambda n, read: read("cratio")),
}
_FLOW_QUANTITIES = tuple(_FLOWS)


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


def flow_inputs(quantities, c=None):
    """Check the quantities and rate constant of :func:`scalar_flows` as it
    checks them: each quantity known, and c None or finite (BadConfig)."""
    for q in quantities:
        if q not in _FLOWS:
            raise BadConfig(f"unknown flow quantity {q!r}; known: {_FLOW_QUANTITIES}")
    if c is not None and not math.isfinite(c):
        raise BadConfig(f"rate constant c must be finite, got {c!r}")


def scalar_flows(metric, geodesic: GeodesicSolution, quantities=("phi", "L_norm"), c=None, samples=25):
    flow_inputs(quantities, c)
    ts, states = analysis._geodesic_states(geodesic, samples)
    names = list(quantities)
    if c is not None:
        if "phi" not in names:
            names.append("phi")
        if "phidot" not in names:
            names.append("phidot")
    keys = tuple(dict.fromkeys(["F", *(key for name in names for key in _FLOWS[name][0])]))
    cols = {name: np.full(samples, np.nan) for name in names}
    cols["F"] = np.full(samples, np.nan)
    status = {name: "ok" for name in names}
    for row, (_, read) in enumerate(analysis._point_reads(metric, states, keys)):
        cols["F"][row] = read("F")
        for name in names:
            if status[name] != "ok":
                continue
            try:
                cols[name][row] = _FLOWS[name][1](metric.n, read)
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
        x=np.array([st.x for st in states]),
        y=np.array([st.y for st in states]),
        columns=cols,
        status=status,
        c_used=c,
    )
