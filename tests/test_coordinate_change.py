"""Metamorphic oracle: a linear change of coordinates, as property tests.

F~(x~, y~) = F(A x~, A y~) is the same Finsler metric in the chart x = A x~,
whose tangent map is y = A y~.  A mixes x with x only, so it keeps every
jet's x-degree.  Under a linear change the second derivatives of the
coordinate map vanish, so the spray coefficients, the nonlinear connection
and the Riemann curvature transform as tensors too:

* g~ = A^T g A, and C, L and Sigma are covariant tensors;
* G~ = A^-1 G, N and R^i_k are (1,1) tensors, B a (1,3) tensor;
* the flag curvature K(x~, A^-1 y, A^-1 u) equals K(x, y, u);
* the classification flags do not change.

A is drawn as Q1 diag(s) Q2 with orthogonal Q1, Q2 and singular values s in
[0.7, 1]: then |A x~| <= |x~|, so A maps every ball chart about the origin
into itself, and every built-in, funk and sphere included, takes a
non-orthogonal A, under which upper and lower slots transform differently.
What this cannot see: a dropped term that is itself a tensor under linear
changes (such as 2 G^j Gamma^i_jk in R^i_k), or one scaled by a constant,
transforms like the rest; the closed-form, acceptance and geodesic-deviation
tests guard those.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from finslerlab import analysis, metrics
from finslerlab.curvature import BLOCKS, VALENCE, PointState, curvature_bundle, flag_curvature

from oracles import linear_change, rel_err, rewritten

TOL = 1e-10


@st.composite
def change_matrices(draw, n):
    """A = Q1 diag(s) Q2, Q1 and Q2 the orthogonal factors of two drawn
    matrices, s in [0.7, 1]."""
    entries = arrays(np.float64, (n, n), elements=st.floats(-1.0, 1.0, allow_subnormal=False))
    q1, q2 = (np.linalg.qr(draw(entries))[0] for _ in range(2))
    s = draw(arrays(np.float64, n, elements=st.floats(0.7, 1.0)))
    return q1 @ np.diag(s) @ q2


def changed(metric, A):
    """The metric in the chart x = A x~, as a tape."""
    apply = linear_change(A)
    return rewritten(metric, x=apply, y=apply, label=metric.label + "~")


def _transform(T, A, Ainv, valence):
    """Components of T in the changed chart: A^-1 on each upper slot, A on each lower."""
    for slot, kind in enumerate(valence):
        M = Ainv if kind == "up" else A.T
        T = np.moveaxis(np.tensordot(M, T, axes=(1, slot)), 0, slot)
    return T


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
@settings(max_examples=4, deadline=None)
@given(data=st.data(), seed=st.integers(0, 10_000))
def test_tensors_transform_under_a_linear_change(corpus, name, data, seed):
    m = corpus[name]
    A = data.draw(change_matrices(m.n), label="A")
    mt, Ainv = changed(m, A), np.linalg.inv(A)
    for state in analysis.sample_states(mt, 2, seed=seed):
        x, y = A @ np.array(state.x), A @ np.array(state.y)
        assert m.chart.contains(x)
        ref = curvature_bundle(m, PointState(x, y))
        got = curvature_bundle(mt, state)
        assert rel_err(got.F, ref.F) < TOL
        for block in ("g", "C", "B", "R1", "L", "Sigma"):
            T = ref.block(block)
            want = _transform(T.values, A, Ainv, VALENCE[BLOCKS[block]])
            assert rel_err(got.block(block).values, want, floor=1.0) < TOL, block
        for field, valence in (("G", ("up",)), ("N", ("up", "lo")), ("Gamma", ("up", "lo", "lo"))):
            want = _transform(getattr(ref.spray, field), A, Ainv, valence)
            assert rel_err(getattr(got.spray, field), want, floor=1.0) < TOL, field
        u = np.roll(y, 1) + 0.3 * y[::-1]
        K = flag_curvature(m, PointState(x, y), u)
        assert abs(flag_curvature(mt, state, Ainv @ u) - K) <= TOL * max(1.0, abs(K))


@pytest.mark.parametrize("name", metrics.BUILTIN_NAMES)
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_classification_is_coordinate_free(corpus, name, data):
    m = corpus[name]
    mt = changed(m, data.draw(change_matrices(m.n), label="A"))
    assert analysis.classify(mt, samples=3, seed=4).flags == analysis.classify(m, samples=3, seed=4).flags
