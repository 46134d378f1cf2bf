"""Flag curvature by geodesic deviation: a second route for K that shares no
code with the tower's jets.

Take a unit-speed geodesic c with c'(0) = T, and the Jacobi field J along it
with J(0) = 0 and DJ(0) = W, where W is g_T-orthonormal to T.  The Chern
connection is g_{c'}-compatible along a geodesic and DDJ = -R(J), so

    Q(t) = g_{c'(t)}(J(t), J(t)) = t^2 - K(T, W) t^4 / 3 + O(t^5)

(Bao-Chern-Shen, *An Introduction to Riemann-Finsler Geometry*, ch. 5).  J
is the s-derivative of the geodesics from x with initial velocity T + s W,
taken here as the central difference of their end points at s = +-h.  Each
geodesic is integrated by ``integrate_geodesic`` in one chained run through
the sample times, so the route reads only the float spray
(``spray_values``: g and G), never the R1 chain of the tower.

K is the constant term of a quartic fitted to f(t) = 3 (t^2 - Q(t)) / t^4 =
K + O(t) at six times of a window.  Its error has three sources: the fit's
truncation, which grows with the window; the round-off of the difference
quotient, about 1e-16 / h in J and so about 1e-11 / t^3 in f, which grows as
the window shrinks; and the s-truncation, O(h^2).  funk2-drift's flag
curvature changes fast (it reaches 11.4 at one of the points below), so it
takes a narrower window.

Each tolerance sits below the shift that dropping 2 G^j Gamma^i_jk from R^i_k
causes (ROADMAP item 4: at least 2.7e-5 on randers3x, 9.8e-4 on sphere3 and
0.19 on funk2-drift), and several times above the error seen at these points.
"""

import math

import numpy as np
import pytest

from finslerlab import analysis, metrics
from finslerlab.curvature import PointState, flag_curvature, spray_values
from finslerlab.transport import integrate_geodesic

#: spacing in s of the two geodesics whose difference is J
H = 1e-4
#: relative step-error target of each geodesic run
GEODESIC_TOL = 1e-10
#: the window of sample times, by default and per metric
WINDOW = {"funk2-drift": (0.005, 0.03)}
DEFAULT_WINDOW = (0.04, 0.24)
#: largest |K_jacobi - K| allowed, by metric.  The largest error seen at these
#: points is 1.5e-7 on randers3x, 2.6e-7 on the spheres, 8.2e-7 on funk2 and
#: funk3 (the s-truncation), 1.4e-4 on funk2-drift and 1.6e-7 on the metrics
#: with K = 0.  Without 2 G^j Gamma^i_jk in R^i_k the errors at the same
#: points are at least 8.7e-4 on randers3x, 5.9e-2 on the spheres, 0.34 on
#: funk2-drift and 0.5 on funk2 and funk3.
TOLERANCE = {"funk2": 1e-5, "funk3": 1e-5, "funk2-drift": 1e-3}
DEFAULT_TOLERANCE = 2e-6


def _end_points(metric, x, v, times):
    """(x, y) of the geodesic from (x, v) at each of the increasing ``times``."""
    out, t0 = [], 0.0
    for t in times:
        sol = integrate_geodesic(metric, x, v, t - t0, tol=GEODESIC_TOL)
        x, v, t0 = sol.x[-1], sol.y[-1], t
        out.append((x, v))
    return out


def jacobi_K(metric, x, T, W, window):
    """K(T, W) at x from the deviation of the geodesics x + t (T + s W)."""
    times = np.linspace(*window, 6)
    base, plus, minus = (_end_points(metric, x, T + s * W, times) for s in (0.0, H, -H))
    Q = []
    for (c, v), (cp, _), (cm, _) in zip(base, plus, minus):
        J = (cp - cm) / (2 * H)
        Q.append(J @ spray_values(metric, c, v)[0] @ J)
    f = 3.0 * (times**2 - np.array(Q)) / times**4
    return np.polynomial.polynomial.polyfit(times, f, 4, w=times**2)[0]


def unit_flag(metric, state, rng):
    """x, T = y / F(x, y) and a W drawn g_T-orthonormal to T."""
    x, y = np.array(state.x), np.array(state.y)
    T = y / metric.F(state.x, state.y)
    g = spray_values(metric, x, T)[0]
    v = rng.normal(size=metric.n)
    W = v - (T @ g @ v) * T
    return x, T, W / math.sqrt(W @ g @ W)


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_flag_curvature_matches_geodesic_deviation(corpus, name):
    m = corpus[name]
    rng = np.random.default_rng(7)
    for state in analysis.sample_states(m, 3, seed=41):
        x, T, W = unit_flag(m, state, rng)
        K = flag_curvature(m, PointState(x, T), W)
        got = jacobi_K(m, x, T, W, WINDOW.get(name, DEFAULT_WINDOW))
        assert abs(got - K) <= TOLERANCE.get(name, DEFAULT_TOLERANCE), (state, K, got)
