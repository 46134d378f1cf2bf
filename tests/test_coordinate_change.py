"""Metamorphic oracle: a linear change of coordinates.

F~(x~, y~) = F(A x~, A y~) is the same Finsler metric in the chart x = A x~,
whose tangent map is y = A y~.  A mixes x with x only, so it keeps every
jet's x-degree.  Under a linear change the second derivatives of the
coordinate map vanish, so the spray coefficients, the nonlinear connection
and the Riemann curvature transform as tensors too:

* g~ = A^T g A, and C, L and Sigma are covariant tensors;
* G~ = A^-1 G, N and R^i_k are (1,1) tensors, B a (1,3) tensor;
* the flag curvature K(x~, A^-1 y, A^-1 u) equals K(x, y, u);
* the classification flags do not change.

A general well-conditioned A is used where the chart is all of space, an
orthogonal one on the ball charts, which map to themselves only under those.
What this cannot see: a dropped term that is itself a tensor under linear
changes (such as 2 G^j Gamma^i_jk in R^i_k), or one scaled by a constant,
transforms like the rest; the closed-form and acceptance tests guard those.
"""

import numpy as np
import pytest

from finslerlab import analysis, metrics
from finslerlab.curvature import PointState, curvature_bundle, flag_curvature

from oracles import linear_change, rel_err, rewritten

BALL_CHARTS = ("funk2", "funk3", "funk2-drift")
TOL = 1e-10


def change_matrix(name, n):
    """Seeded A: orthogonal on the ball charts, else singular values in [0.7, 1.4]."""
    rng = np.random.default_rng(sum(map(ord, name)))
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    if name in BALL_CHARTS:
        return q1
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q1 @ np.diag(rng.uniform(0.7, 1.4, n)) @ q2


def changed(metric, A):
    """The metric in the chart x = A x~, as a tape."""
    apply = linear_change(A)
    return rewritten(metric, x=apply, y=apply, label=metric.label + "~")


@pytest.fixture(scope="module")
def pairs():
    out = {}
    for name in metrics.BUILTIN_NAMES:
        m = metrics.build_metric(metrics.builtin(name))
        A = change_matrix(name, m.n)
        out[name] = (m, changed(m, A), A)
    return out


def _transform(T, A, Ainv, valence):
    """Components of T in the changed chart: A^-1 on each upper slot, A on each lower."""
    for slot, kind in enumerate(valence):
        M = Ainv if kind == "up" else A.T
        T = np.moveaxis(np.tensordot(M, T, axes=(1, slot)), 0, slot)
    return T


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_tensors_transform_under_a_linear_change(pairs, name):
    m, mt, A = pairs[name]
    Ainv = np.linalg.inv(A)
    for st in analysis.sample_states(mt, 2, seed=17):
        x, y = A @ np.array(st.x), A @ np.array(st.y)
        assert m.chart.contains(x)
        ref = curvature_bundle(m, PointState(x, y))
        got = curvature_bundle(mt, st)
        assert rel_err(got.F, ref.F) < TOL
        for block in ("g", "C", "B", "R1", "L", "Sigma"):
            T = ref.block(block)
            want = _transform(T.values, A, Ainv, T.valence)
            assert rel_err(got.block(block).values, want, floor=1.0) < TOL, block
        for field, valence in (("G", ("up",)), ("N", ("up", "lo")), ("Gamma", ("up", "lo", "lo"))):
            want = _transform(getattr(ref.spray, field), A, Ainv, valence)
            assert rel_err(getattr(got.spray, field), want, floor=1.0) < TOL, field
        u = np.roll(y, 1) + 0.3 * y[::-1]
        K = flag_curvature(m, PointState(x, y), u)
        assert abs(flag_curvature(mt, st, Ainv @ u) - K) <= TOL * max(1.0, abs(K))


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
def test_classification_is_coordinate_free(pairs, name):
    m, mt, _ = pairs[name]
    assert analysis.classify(mt, samples=3, seed=4).flags == analysis.classify(m, samples=3, seed=4).flags
