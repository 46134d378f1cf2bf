"""End-to-end acceptance scorecard.

Ten criteria, each a single test that prints one ``[PASS]``/``[FAIL]`` line
directly on the controlling terminal (bypassing pytest capture) so a full run
reads as a scorecard.  Tolerances are stated inline; the measured numbers are
included in every line so a log is self-contained.

The torsion rate law in criterion 9 is asserted in the form
phidot = c * F * phi.  The doubled-rate variant phidot = 2 c F phi is also
measured and reported on the same line; on the example corpus it fails by a
relative margin near 1, consistent with the factor-two analysis recorded in
the project notes.
"""

import time

import numpy as np
import pytest

from finslerlab import analysis as an
from finslerlab.curvature import (
    PointState,
    flag_curvature,
    point_scope,
    rel_residual,
)
from finslerlab.errors import DegenerateFlag
from finslerlab.transport import (
    integrate_geodesic,
    parallelogram_holonomy,
    scalar_flows,
)
from oracles import berwald_frame, rk4_scalar

_T0 = time.monotonic()


@pytest.fixture()
def scorecard(capfd):
    """``scorecard(num, ok, detail)``: print the line past capture, then gate."""

    def emit(num, ok, detail):
        tag = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"[{tag}] acceptance {num:02d}: {detail}", flush=True)
        assert ok, f"acceptance {num}: {detail}"

    return emit


def _vals(sc, name):
    return sc.values(name)


@pytest.fixture(scope="module")
def funk2_geodesic(corpus):
    return integrate_geodesic(
        corpus["funk2"], (0.1, -0.2), (0.5, 0.3), 1.2, unit_speed=True
    )


def test_01_stretch_ratio_on_ball_metrics(corpus, scorecard):
    """Fitted stretch ratio c = -1 on the ball metric in n = 2 and 3."""
    t0 = time.monotonic()
    fits = {n: an.fit_relative_stretch(corpus[f"funk{n}"], count=20, seed=0)
            for n in (2, 3)}
    dt = time.monotonic() - t0
    ok = all(
        abs(f.c + 1.0) <= 1e-3 and f.spread <= 1e-3 and f.residual <= 1e-5
        for f in fits.values()
    ) and dt <= 60.0
    scorecard(
        1, ok,
        f"stretch ratio c(n=2) = {fits[2].c:+.12f}, c(n=3) = {fits[3].c:+.12f}, "
        f"spreads {fits[2].spread:.2e}/{fits[3].spread:.2e}, "
        f"residuals {fits[2].residual:.2e}/{fits[3].residual:.2e}, {dt:.1f}s "
        f"(tol: |c+1| <= 1e-3, spread <= 1e-3, residual <= 1e-5, 60 s)",
    )


def test_02_flag_curvature_sample(corpus, scorecard):
    """Fifty flag curvatures on the ball metric: constant and negative."""
    m = corpus["funk3"]
    rng = np.random.default_rng(17)
    ks = []
    for st in an.sample_states(m, 50, seed=5):
        sc = point_scope(m, st, 4)
        while True:
            try:
                ks.append(flag_curvature(m, st, rng.normal(size=3), scope=sc))
                break
            except DegenerateFlag:
                continue
    ks = np.asarray(ks)
    spread = float(ks.max() - ks.min())
    ok = spread <= 1e-4 and ks.max() < 0.0 and len(ks) == 50
    scorecard(
        2, ok,
        f"50 flag curvatures, mean {ks.mean():+.10f}, spread {spread:.2e} "
        f"(tol: spread <= 1e-4, all negative)",
    )


def test_03_constant_flag_chain(corpus, scorecard):
    """The constant-flag identity chain on the 3-D ball metric, measured c."""
    res = an.check_constant_flag_chain(corpus["funk3"], samples=10, tolerance=1e-5)
    worst = max(res.residuals.values())
    ok = res.passed() and worst <= 1e-5
    scorecard(
        3, ok,
        f"chain residual max {worst:.2e}, lambda = {res.data['lambda']:+.8f}, "
        f"c = {np.mean(res.data['c_values']):+.8f} (tol 1e-5)",
    )


def test_04_curvature_derivative_identity(corpus, scorecard):
    """Antisymmetrized horizontal derivative of the Berwald tensor equals the
    vertical derivative of the hh-curvature, on five structurally distinct
    metrics at ten points each."""
    worst = 0.0
    names = ("euclidean3", "sphere3", "mink-randers3", "funk3", "funk2-drift")
    for name in names:
        m = corpus[name]
        for st in an.sample_states(m, 10, seed=2):
            sc = point_scope(m, st, 7)
            RhhV = sc.values("RhhV")
            Bh = sc.hderiv("B")
            rhs = np.einsum("ijmlk->ijklm", Bh) - np.einsum("ijmkl->ijklm", Bh)
            worst = max(worst, rel_residual(RhhV, rhs, floor=1.0))
    ok = worst <= 1e-5
    scorecard(4, ok, f"curvature-derivative identity over {len(names)} metrics x 10 "
                 f"points, worst residual {worst:.2e} (tol 1e-5)")


def test_05_stretch_from_curvature(corpus, scorecard):
    """Stretch tensor equals y contracted into the vertical derivative of the
    hh-curvature where torsion is present; it vanishes outright on the locally
    Minkowski and Berwald examples."""
    worst_rel = 0.0
    for name in ("funk2", "funk3", "funk2-drift", "randers3x"):
        m = corpus[name]
        for st in an.sample_states(m, 6, seed=4):
            sc = point_scope(m, st, 7)
            RhhV = sc.values("RhhV")
            pred = np.einsum("i,ijklm->jmkl", sc.values("ylow"), RhhV)
            worst_rel = max(
                worst_rel, rel_residual(sc.values("Sigma"), pred, floor=1.0)
            )
    worst_norm = 0.0
    for name in ("quartic2", "abq3", "mink-randers3"):
        m = corpus[name]
        for st in an.sample_states(m, 6, seed=4):
            sc = point_scope(m, st, 5)
            worst_norm = max(worst_norm, float(np.max(np.abs(sc.values("Sigma")))))
    ok = worst_rel <= 1e-5 and worst_norm <= 1e-9
    scorecard(5, ok, f"stretch identity residual {worst_rel:.2e} (tol 1e-5); "
                 f"Berwald stretch norm {worst_norm:.2e} (tol 1e-9)")


def test_06_two_route_torsion_and_metric_derivatives(corpus, scorecard):
    """Both evaluation routes for the Landsberg and mean Landsberg tensors
    agree, and the metric's horizontal / vertical derivatives reduce to the
    torsion tensors, across the whole corpus."""
    worst_route = 0.0
    worst_gderiv = 0.0
    for m in corpus.values():
        for st in an.sample_states(m, 4, seed=6):
            sc = point_scope(m, st, 7)
            worst_route = max(
                worst_route,
                rel_residual(sc.values("L_C"), sc.values("L_B"), floor=1.0),
                rel_residual(sc.values("J_I"), sc.values("J_L"), floor=1.0),
            )
            gh = sc.hderiv("g")
            gv = sc.vderiv("g")
            worst_gderiv = max(
                worst_gderiv,
                rel_residual(gh, -2.0 * sc.values("L_C"), floor=1.0),
                rel_residual(gv, 2.0 * sc.values("C"), floor=1.0),
            )
    ok = worst_route <= 1e-6 and worst_gderiv <= 1e-8
    scorecard(6, ok, f"two-route torsion residual {worst_route:.2e} (tol 1e-6); "
                 f"metric-derivative residual {worst_gderiv:.2e} (tol 1e-8)")


def test_07_semi_c_reducibility(corpus, scorecard):
    """Semi-C-reducible decomposition of the Cartan torsion on the 3-D
    Randers-type corpus (plus the quadratic-ratio example)."""
    worst = 0.0
    ps = {}
    for name in ("mink-randers3", "randers3x", "funk3", "abq3"):
        m = corpus[name]
        fits = [an.fit_semi_c_reducible(m, st) for st in an.sample_states(m, 6, seed=8)]
        worst = max(worst, max(f.residual for f in fits))
        ps[name] = [float(f.p) for f in fits]
    randers_ok = all(abs(p - 1.0) < 1e-8
                     for k in ("mink-randers3", "randers3x", "funk3")
                     for p in ps[k])
    ok = worst <= 1e-6 and randers_ok
    scorecard(7, ok, f"semi-C residual max {worst:.2e} (tol 1e-6); "
                 f"p = 1 on randers-type, direction-dependent on abq3 "
                 f"(range [{min(ps['abq3']):+.2f}, {max(ps['abq3']):+.2f}])")


def test_08_frame_and_principal_scalar(corpus, funk2_geodesic, scorecard):
    """Along a unit-speed geodesic of the 2-D ball metric: the torsion frame
    reconstructs C, the Landsberg tensor is mu*F*C, and the principal-scalar
    transport relation holds."""
    m = corpus["funk2"]
    worst_rec = 0.0
    worst_lfc = 0.0
    for t in np.linspace(funk2_geodesic.t[0], funk2_geodesic.t_final, 10):
        x, y = funk2_geodesic.state(float(t))
        st = PointState(x=tuple(x), y=tuple(y))
        sc = point_scope(m, st, 5)
        fr = berwald_frame(m, st, scope=sc, with_mu=True)
        C = sc.values("C")
        F = sc.values("F")
        rec = fr.I_scalar / F * np.einsum("i,j,k->ijk", fr.m_low, fr.m_low, fr.m_low)
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - C)))
                        / max(float(np.max(np.abs(C))), 1.0))
        L = sc.values("L_C")
        pred = fr.mu * F * C
        worst_lfc = max(worst_lfc, float(np.max(np.abs(L - pred)))
                        / max(float(np.max(np.abs(L))), 1.0))
    res = an.check_principal_scalar_relation(m, funk2_geodesic, samples=15,
                                             tolerance=1e-5)
    rel = res.residuals.get("relation", 0.0)
    ok = worst_rec <= 1e-8 and worst_lfc <= 1e-7 and res.passed()
    scorecard(8, ok, f"C reconstruction {worst_rec:.2e} (tol 1e-8); "
                 f"L = mu F C {worst_lfc:.2e} (tol 1e-7); "
                 f"principal-scalar relation {rel:.2e} (tol 1e-5)")


def test_09_scalar_flows_along_geodesic(corpus, funk2_geodesic, scorecard):
    """Torsion-norm rate law and principal-scalar evolution along the flow.

    phidot = c F phi is gated at 1e-5 (relative to the phidot scale); the
    doubled-rate variant is measured and reported, not gated.  The engine's
    mu(t) is compared against a fixed-step RK4 integration of
    mu' = (c mu / 2 - mu^2) F.
    """
    m = corpus["funk2"]
    c = an.fit_relative_stretch(m, count=5, seed=0).c
    flow = scalar_flows(m, funk2_geodesic, quantities=("phi", "phidot", "mu"),
                        c=c, samples=25)
    scale = float(np.max(np.abs(flow.columns["phidot"])))
    resid = float(np.max(np.abs(flow.columns["flow_resid"]))) / scale
    resid2 = float(np.max(np.abs(flow.columns["flow_resid_doubled"]))) / scale
    good = np.abs(flow.columns["phi"] * flow.columns["F"]) > 1e-12
    ratio = float(np.mean(flow.columns["phidot"][good]
                          / (flow.columns["F"][good] * flow.columns["phi"][good])))

    ts = np.asarray(flow.t)
    F_of = lambda t: float(np.interp(t, ts, flow.columns["F"]))
    mu0 = float(flow.columns["mu"][0])
    oracle = np.array([
        rk4_scalar(lambda t, mu: (c * mu / 2.0 - mu * mu) * F_of(t),
                   ts[0], mu0, t, steps=800)
        for t in ts
    ])
    mu_err = float(np.max(np.abs(flow.columns["mu"] - oracle)))

    ok = resid <= 1e-5 and mu_err <= 1e-4
    scorecard(9, ok, f"rate law |phidot - cFphi| {resid:.2e} (tol 1e-5), "
                 f"doubled form {resid2:.2e} [reported], "
                 f"measured phidot/(F phi) = {ratio:+.6f} with c = {c:+.6f}; "
                 f"mu(t) vs ODE oracle {mu_err:.2e} (tol 1e-4)")


def test_10_structural_checks(corpus, scorecard):
    """Degeneration on quadratic metrics, the round-sphere flag value, the
    Riemannian holonomy parallelogram, scale invariance, and total runtime."""
    worst_degen = 0.0
    for name in ("euclidean3", "sphere3"):
        m = corpus[name]
        for st in an.sample_states(m, 4, seed=9):
            sc = point_scope(m, st, 7)
            for field in ("C", "I", "L_C", "J_I", "E", "B", "Sigma"):
                worst_degen = max(
                    worst_degen, float(np.max(np.abs(sc.values(field))))
                )

    m2 = corpus["sphere2"]
    rng = np.random.default_rng(23)
    worst_flag = max(
        abs(flag_curvature(m2, st, rng.normal(size=2)) - 1.0)
        for st in an.sample_states(m2, 10, seed=10)
    )

    par = parallelogram_holonomy(
        m2, np.array([0.1, -0.2]), np.array([1.0, 0.0]), np.array([0.0, 1.0]),
        np.array([0.8, 0.3]), [0.04, 0.08],
    )
    worst_par = max(np.max(np.abs(par.delta)), np.max(np.abs(par.delta_probe)))

    worst_homog = 0.0
    for name in ("funk2", "randers3x", "quartic2"):
        m = corpus[name]
        for st in an.sample_states(m, 3, seed=11):
            f1 = m.F(np.asarray(st.x), np.asarray(st.y))
            f2 = m.F(np.asarray(st.x), 1.7 * np.asarray(st.y))
            worst_homog = max(worst_homog, abs(f2 - 1.7 * f1) / abs(f1))

    dt = time.monotonic() - _T0
    ok = (worst_degen <= 1e-10 and worst_flag <= 1e-6
          and worst_par <= 1e-9 and worst_homog <= 1e-10 and dt <= 600.0)
    scorecard(10, ok, f"quadratic degeneration {worst_degen:.2e} (tol 1e-10); "
                  f"sphere flag |K-1| {worst_flag:.2e} (tol 1e-6); "
                  f"parallelogram defects {worst_par:.2e} (tol 1e-9); "
                  f"homogeneity {worst_homog:.2e} (tol 1e-10); "
                  f"scorecard wall time {dt:.1f}s (limit 600s)")
