"""Scalar fits and identity checks built on the pointwise tensor engine.

Everything here reduces tensors at sampled points of the slit tangent
bundle to a few scalars — the relative-stretch ratio c defined by
Sigma_ijkl = c F (C_ijk|l - C_ijl|k), the torsion-shape weights (p, q)
of the decomposition

    C_ljm = p/(n+1) (I_l h_jm + I_j h_lm + I_m h_jl) + q/||I||^2 I_l I_j I_m,
    p + q = 1,

and, in dimension two, the principal scalar I with C = F^-1 I m x m x m
and its logarithmic derivative mu = I_{|s} y^s / (F I) — or to pass/fail
verdicts on identities those scalars must satisfy (constant-flag-curvature
chains, geodesic relations for mu and c, classification by vanishing
tensors).

Verdict-label convention: a metric is labelled "relatively nonnegative"
when the fitted ratio c is non-positive, and "relatively nonpositive" when
c is non-negative.  The label describes the stretch form, whose sign is
opposite to c's; the raw sign of c is always reported alongside so nothing
hinges on remembering the inversion.
"""

import functools
import math
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .curvature import (
    FieldScope,
    PointState,
    least_order,
    point_scope,
    rel_residual,
    require_stretch_design,
)
from .errors import (
    BadConfig,
    CrossCheckFailure,
    DimensionError,
    NotConstantCurvature,
    RiemannianPoint,
    UndefinedFit,
)
from .metrics import sample_chart_points

_FLOOR = 1e-12


# --------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class RelativeStretchFit:
    """Least-squares ratio c in Sigma = c F (C_{|l} - C_{|k}) over sampled points."""

    c: float
    residual: float          # worst relative fit residual among the points
    c_values: tuple          # per-point ratios
    spread: float            # max(c_values) - min(c_values)
    convention_label: str    # inverted-sign label, see module docstring
    raw_sign: str            # sign of c itself: negative / zero / positive


@dataclass(frozen=True)
class SemiCFit:
    """Weights of the reduced Cartan-torsion shape at one point (n >= 3)."""

    p: float
    q: float                 # exactly 1 - p
    residual: float          # max-norm misfit of the model, relative to ||C||


@dataclass(frozen=True)
class IdentityCheckResult:
    """Outcome of one identity check: residuals, verdict, sampled series."""

    verdict: str             # "pass" | "fail" | "vacuous"
    residuals: dict
    data: dict = _dc_field(default_factory=dict)


#: which tensor's max-abs norm decides each flag, in the order in which the
#: flags are computed and reported
_FLAG_FIELDS = {
    "riemannian": "C",
    "berwald": "B",
    "landsberg": "L_C",
    "weak_landsberg": "J_I",
    "weak_berwald": "E",
    "stretch": "Sigma",
    "r_quadratic": "RhhV",
}
CLASS_FLAGS = tuple(_FLAG_FIELDS)

DEFAULT_CLASS_THRESHOLDS = {name: 1e-6 for name in CLASS_FLAGS}

#: a true flag forces these other flags true
_IMPLICATIONS = {
    "riemannian": ("berwald",),
    "berwald": ("landsberg", "weak_berwald", "r_quadratic"),
    "landsberg": ("weak_landsberg", "stretch"),
}


@dataclass(frozen=True)
class ClassificationVerdict:
    """Vanishing-tensor classification of a metric from sampled points."""

    label: str
    n: int
    samples: int
    seed: int
    flags: dict              # flag -> bool, implication-closed
    residuals: dict          # flag -> max tensor norm over the samples
    thresholds: dict
    consistent: bool         # raw threshold verdicts already satisfied the implications

    def to_dict(self):
        return {
            "label": self.label,
            "n": self.n,
            "samples": self.samples,
            "seed": self.seed,
            "flags": dict(self.flags),
            "residuals": _json_safe(self.residuals),
            "thresholds": _json_safe(self.thresholds),
            "consistent": self.consistent,
        }


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):   # before int: bool subclasses int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None   # strict JSON: no NaN/Inf tokens
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


# --------------------------------------------------------------------------
# sampling


def sample_states(metric, count, seed=0, r_range=(0.15, 0.85)):
    """Deterministic (x, y) samples inside the chart, y on the unit sphere."""
    rng = np.random.default_rng(seed)
    return [
        PointState(x=x, y=y)
        for x, y in sample_chart_points(metric, count, rng, r_range)
    ]


def _as_states(metric, points, count, seed):
    """The states a driver reads: ``points``, a PointState or a sequence of
    them, or, where it is None, ``count`` seeded samples.  None at all
    raises BadConfig: a verdict or a fit over no point means nothing."""
    if points is None:
        states = sample_states(metric, count, seed)
    elif isinstance(points, PointState):
        states = [points]
    else:
        states = list(points)
    if not states:
        got = f"{count} samples" if points is None else "no points"
        raise BadConfig(f"need at least one point, got {got}")
    return states


def _geodesic_states(geodesic, samples, least=1):
    """The times linspace(t0, t_final, samples) of a geodesic and its states
    there; BadConfig for fewer than ``least`` samples."""
    if samples < least:
        raise BadConfig(f"samples must be >= {least}, got {samples}")
    ts = np.linspace(float(geodesic.t[0]), geodesic.t_final, samples)
    return ts, [PointState(*geodesic.state(t)) for t in ts]


def _read(scope, key):
    """``scope.values(key)``, or ``scope.directional(name)`` for a key ("directional", name)."""
    if isinstance(key, tuple):
        return scope.directional(key[1])
    return scope.values(key)


def _point_reads(metric, states, keys):
    """Yield, per state in sample order, (state, read): ``read(key)`` gives
    the float values of ``key`` (see :func:`_read`) there, as a single-point
    scope gives them.

    Every scope is made at the least seed order that holds ``keys``
    (``curvature.least_order``); values do not depend on it.  One scope
    holds every state and reads ``keys`` up front; each point's
    values equal its single-point scope's bit for bit.  If that raises, each
    state gets its own scope instead, made when the caller reaches it, so
    the caller raises what a loop over single-point scopes raises: the
    error of the first failing state, or of the first failing read there.
    """
    order = least_order(keys)
    try:
        scope = FieldScope(metric, states, order)
        table = {key: _read(scope, key) for key in keys}
    except Exception:  # noqa: BLE001 - rerun point by point for that point's own error
        for st in states:
            yield st, functools.partial(_read, point_scope(metric, st, order))
        return
    for p, st in enumerate(states):
        yield st, functools.partial(_at_point, table, p)


def _at_point(table, p, key):
    values = table[key][p]
    return float(values) if values.ndim == 0 else values


# --------------------------------------------------------------------------
# relative stretch


def _stretch_ratio_values(S, D, F):
    """(c, residual) from tensor values at one point."""
    FD = F * D
    den = float(np.sum(FD * FD))
    num = float(np.sum(S * FD))
    require_stretch_design(num, den)
    c = num / den
    scale = max(np.max(np.abs(S)), np.max(np.abs(FD)), _FLOOR)
    residual = float(np.max(np.abs(S - c * FD)) / scale)
    return c, residual


def fit_relative_stretch(metric, points=None, count=20, seed=0):
    """Fit the ratio c in Sigma = c F (C_{|l} - C_{|k}) over sampled points.

    ``points`` may be a PointState, a sequence of them, or None (then
    ``count`` seeded samples are drawn).  Raises UndefinedFit when the
    design tensor vanishes at some point — a degenerate fit is never
    reported as c = 0.
    """
    states = _as_states(metric, points, count, seed)
    cs, resids = [], []
    for _, read in _point_reads(metric, states, ("Sigma", "D", "F")):
        c, r = _stretch_ratio_values(read("Sigma"), read("D"), read("F"))
        cs.append(c)
        resids.append(r)
    c_mean = float(np.mean(cs))
    if c_mean < 0:
        label, sign = "relatively nonnegative", "negative"
    elif c_mean > 0:
        label, sign = "relatively nonpositive", "positive"
    else:
        label, sign = "relatively nonnegative", "zero"
    return RelativeStretchFit(
        c=c_mean,
        residual=float(np.max(resids)),
        c_values=tuple(cs),
        spread=float(np.max(cs) - np.min(cs)),
        convention_label=label,
        raw_sign=sign,
    )


# --------------------------------------------------------------------------
# torsion shape (semi-C-reducibility)


#: the fields the torsion-shape weights read at a point
_SEMI_C_FIELDS = ("g_inv", "h", "C", "I")


def _semi_c_weights(n, g_inv, h, C, I):
    """(p, residual) of the torsion-shape model at one point."""
    cnorm = float(np.max(np.abs(C)))
    if cnorm < 1e-10:
        raise RiemannianPoint(
            "Cartan torsion vanishes; torsion-shape weights are undefined"
        )
    i2 = float(np.einsum("ij,i,j->", g_inv, I, I))
    if i2 < 1e-12 * (1.0 + cnorm * cnorm):
        raise RiemannianPoint(
            "mean Cartan torsion vanishes; the cubic term cannot be normalized"
        )
    X = (
        np.einsum("l,jm->ljm", I, h)
        + np.einsum("j,lm->ljm", I, h)
        + np.einsum("m,jl->ljm", I, h)
    )
    T = np.einsum("l,j,m->ljm", I, I, I) / i2
    A = X / (n + 1.0) - T
    b = C - T
    aa = float(np.sum(A * A))
    if aa <= (1e-10 * (1.0 + cnorm)) ** 2:
        raise UndefinedFit("torsion-shape design tensor is numerically zero")
    p = float(np.sum(A * b) / aa)
    model = p * X / (n + 1.0) + (1.0 - p) * T
    residual = float(np.max(np.abs(model - C)) / cnorm)
    return p, residual


def _semi_c_fit(n, read):
    """SemiCFit of an n-dimensional metric at the point whose field values
    ``read`` gives; DimensionError below n = 3, before any read."""
    if n < 3:
        raise DimensionError(f"torsion-shape fit needs n >= 3, got n = {n}")
    p, residual = _semi_c_weights(n, *map(read, _SEMI_C_FIELDS))
    return SemiCFit(p=p, q=1.0 - p, residual=residual)


def fit_semi_c_reducible(metric, point):
    """Weights (p, q), p + q = 1, of the reduced torsion shape at one point."""
    read = None if metric.n < 3 else point_scope(metric, point, least_order(_SEMI_C_FIELDS)).values
    return _semi_c_fit(metric.n, read)


def check_characteristic_constancy(metric, geodesic, samples=15, tolerance=1e-6):
    """Sample the weight p along a geodesic and test that it stays constant."""
    ts, states = _geodesic_states(geodesic, samples, least=2)  # np.gradient needs 2
    ps = np.asarray([
        _semi_c_fit(metric.n, read).p
        for _, read in _point_reads(metric, states, _SEMI_C_FIELDS)
    ])
    variation = float(np.max(np.abs(ps - ps[0])))
    pprime = np.gradient(ps, ts)
    return IdentityCheckResult(
        verdict="pass" if variation <= tolerance else "fail",
        residuals={"variation": variation, "pprime_max": float(np.max(np.abs(pprime)))},
        data={"t": ts, "p": ps, "pprime": pprime},
    )


def check_principal_scalar_relation(metric, geodesic, samples=15, tolerance=1e-5):
    """Test 2 mu' + 2 mu^2 F - c mu F = 0 along a geodesic of a 2-D metric.

    mu' is the derivative of mu along the geodesic flow, evaluated as the
    horizontal directional derivative mu_{|s} y^s (no finite differencing),
    and c is the pointwise stretch ratio (the ``cratio`` field) at each
    sample.  Riemannian samples make the relation vacuous (it multiplies C).
    """
    ts, states = _geodesic_states(geodesic, samples)
    keys = (("directional", "mu2"), "cratio", "mu2", "F")
    mus, mups, Qs, cs, Fs = [], [], [], [], []
    for t, (_, read) in zip(ts, _point_reads(metric, states, keys)):
        try:
            mup = read(("directional", "mu2"))
            cval = read("cratio")
        except (RiemannianPoint, UndefinedFit) as err:
            return IdentityCheckResult(
                verdict="vacuous",
                residuals={},
                data={"reason": str(err), "t_failed": float(t)},
            )
        mu = read("mu2")
        F = read("F")
        mus.append(mu)
        mups.append(mup)
        cs.append(cval)
        Fs.append(F)
        Qs.append(2.0 * mup + 2.0 * mu * mu * F - cval * mu * F)
    scale = max(
        max(abs(2.0 * m_ * m_ * f) for m_, f in zip(mus, Fs)),
        max(abs(2.0 * m_) for m_ in mups),
        max(abs(cv * m_ * f) for cv, m_, f in zip(cs, mus, Fs)),
        _FLOOR,
    )
    residual = float(np.max(np.abs(Qs)) / scale)
    return IdentityCheckResult(
        verdict="pass" if residual <= tolerance else "fail",
        residuals={"relation": residual},
        data={
            "t": ts,
            "mu": np.asarray(mus),
            "mu_prime": np.asarray(mups),
            "Q": np.asarray(Qs),
            "c": np.asarray(cs),
            "F": np.asarray(Fs),
        },
    )


# --------------------------------------------------------------------------
# constant flag curvature chain


def _guarded_residual(lhs, rhs, vacuity=1e-9):
    """Relative residual, falling back to absolute when both sides vanish.

    Identities of the form A = B with both sides numerically zero would
    otherwise score noise/noise ratios of order one.
    """
    if np.max(np.abs(lhs)) < vacuity and np.max(np.abs(rhs)) < vacuity:
        return float(np.max(np.abs(np.asarray(lhs) - np.asarray(rhs))))
    return rel_residual(lhs, rhs)


def _isotropic_lambda(R1, F, y, ylow, spread_tolerance):
    """LS coefficient lam in R^i_k = lam (F^2 d^i_k - y^i y_k), with misfit gate."""
    n = len(y)
    M = F * F * np.eye(n) - np.outer(y, ylow)
    lam = float(np.sum(R1 * M) / np.sum(M * M))
    misfit = rel_residual(R1, lam * M)
    if misfit > spread_tolerance:
        raise NotConstantCurvature(
            f"R^i_k deviates from the isotropic form by {misfit:.3e}"
        )
    return lam, misfit


#: the fields the constant-flag chain reads at each sample
_CHAIN_FIELDS = ("R1", "F", "ylow", "g", "C", "Rhh", "Sigma", "D", "L_C", "J_I", "I")


def check_constant_flag_chain(
    metric,
    points=None,
    samples=10,
    seed=0,
    tolerance=1e-5,
    spread_tolerance=1e-4,
):
    """For a constant-flag-curvature metric, verify the linked identities.

    With lam the measured flag curvature and c the stretch ratio at each point:

      (a) R_j^i_kl = lam (g_jl d^i_k - g_jk d^i_l)
      (b) Sigma_jmkl = 2 lam (C_jlm y_k - C_jkm y_l)
      (c) L_jmk + (2 lam / c) F C_jmk = 0
      (d) J_k + (2 lam / c) F I_k = 0

    lam is fitted from R^i_k at every point; a poor isotropic fit or a
    spread above ``spread_tolerance`` raises NotConstantCurvature.  At
    points where the stretch ratio is undefined, or lam is numerically
    zero, (c) and (d) are skipped and noted.  n = 1 has no flag: DimensionError.
    """
    if metric.n < 2:
        raise DimensionError(f"constant-flag chain needs n >= 2, got n = {metric.n}")
    states = _as_states(metric, points, samples, seed)
    lams, iso_resids = [], []
    reads = []
    for st, read in _point_reads(metric, states, _CHAIN_FIELDS):
        lam, misfit = _isotropic_lambda(
            read("R1"),
            float(read("F")),
            np.asarray(st.y, dtype=float),
            read("ylow"),
            spread_tolerance,
        )
        lams.append(lam)
        iso_resids.append(misfit)
        reads.append(read)
    lam_spread = float(np.max(lams) - np.min(lams))
    lam = float(np.mean(lams))
    if lam_spread > spread_tolerance * (1.0 + abs(lam)):
        raise NotConstantCurvature(
            f"flag curvature varies by {lam_spread:.3e} across the samples"
        )

    res_a, res_b, res_c, res_d, c_vals = [], [], [], [], []
    notes = []
    for read in reads:
        g = read("g")
        C = read("C")
        ylow = read("ylow")
        eye = np.eye(metric.n)
        pred_a = lam * (
            np.einsum("jl,ik->ijkl", g, eye) - np.einsum("jk,il->ijkl", g, eye)
        )
        res_a.append(_guarded_residual(read("Rhh"), pred_a))
        pred_b = 2.0 * lam * (
            np.einsum("ijl,k->ijkl", C, ylow) - np.einsum("ijk,l->ijkl", C, ylow)
        )
        res_b.append(_guarded_residual(read("Sigma"), pred_b))
        try:
            cv = _stretch_ratio_values(read("Sigma"), read("D"), read("F"))[0]
        except UndefinedFit as err:
            notes.append(f"stretch ratio undefined: {err}")
            continue
        if abs(cv) < 1e-6:
            notes.append(f"stretch ratio {cv:.1e} too small to divide by")
            continue
        c_vals.append(cv)
        F = float(read("F"))
        coef = 2.0 * lam / cv * F
        res_c.append(_guarded_residual(read("L_C"), -coef * C))
        res_d.append(_guarded_residual(read("J_I"), -coef * read("I")))

    residuals = {
        "curvature_form": float(np.max(res_a)),
        "stretch_form": float(np.max(res_b)),
    }
    if res_c:
        residuals["landsberg_torsion"] = float(np.max(res_c))
        residuals["mean_landsberg_torsion"] = float(np.max(res_d))
    verdict = "pass" if all(r <= tolerance for r in residuals.values()) else "fail"
    data = {
        "lambda": lam,
        "lambda_values": np.asarray(lams),
        "lambda_spread": lam_spread,
        "isotropic_misfit": float(np.max(iso_resids)),
        "c_values": np.asarray(c_vals),
    }
    if notes:
        data["notes"] = notes
    return IdentityCheckResult(verdict=verdict, residuals=residuals, data=data)


def check_stretch_dichotomy(metric, geodesic, samples=15, tolerance=1e-5,
                            spread_tolerance=1e-4):
    """Along a geodesic of a constant-flag-curvature metric, report

        W(t) = 2 c c' + c^2 F + 4 lam F

    and test the compatibility bracket

        -lam F^2 - (2 lam F / c)(c' + 2 lam F / c) = 0

    that two equivalent evolutions of the Landsberg tensor force.  W is
    reported without a verdict (it separates the constant-ratio and
    exponential branches); the bracket residual decides pass/fail.  c' is
    the directional derivative of the fitted ratio field along the flow.
    """
    if metric.n < 2:
        raise DimensionError(f"stretch dichotomy needs n >= 2, got n = {metric.n}")
    ts, states = _geodesic_states(geodesic, samples)
    keys = (("directional", "cratio"), "cratio", "F", "R1", "ylow")
    rows = {"c": [], "c_prime": [], "lambda": [], "W": [], "bracket": []}
    resids = []
    for t, (st, read) in zip(ts, _point_reads(metric, states, keys)):
        try:
            cp = read(("directional", "cratio"))
        except UndefinedFit as err:
            return IdentityCheckResult(
                verdict="vacuous",
                residuals={},
                data={"reason": str(err), "t_failed": float(t)},
            )
        cv = read("cratio")
        F = read("F")
        lam, _ = _isotropic_lambda(
            read("R1"), F, np.asarray(st.y, dtype=float), read("ylow"), spread_tolerance
        )
        A = 2.0 * lam * F / cv
        bracket = -lam * F * F - A * (cp + A)
        W = 2.0 * cv * cp + cv * cv * F + 4.0 * lam * F
        scale = max(abs(lam) * F * F, abs(A * cp), A * A, _FLOOR)
        resids.append(abs(bracket) / scale)
        rows["c"].append(cv)
        rows["c_prime"].append(cp)
        rows["lambda"].append(lam)
        rows["W"].append(W)
        rows["bracket"].append(bracket)
    residual = float(np.max(resids))
    return IdentityCheckResult(
        verdict="pass" if residual <= tolerance else "fail",
        residuals={"bracket": residual},
        data={"t": ts, **{k: np.asarray(v) for k, v in rows.items()}},
    )


# --------------------------------------------------------------------------
# classification


def classify(metric, samples=12, seed=0, thresholds=None):
    """Classify a metric by which curvature tensors vanish on sampled points.

    Each flag compares the max-abs norm of one tensor over the samples with
    a threshold.  Logical implications between the classes (riemannian =>
    berwald => landsberg/weak_berwald/r_quadratic, landsberg =>
    weak_landsberg/stretch) are closed over the raw verdicts; ``consistent``
    records whether the raw verdicts already satisfied them.  A norm that
    is not finite raises CrossCheckFailure: it decides no flag.
    """
    thr = dict(DEFAULT_CLASS_THRESHOLDS)
    thr.update(thresholds or {})
    states = _as_states(metric, None, samples, seed)
    norms = {name: 0.0 for name in CLASS_FLAGS}
    for st, read in _point_reads(metric, states, tuple(_FLAG_FIELDS.values())):
        for name in CLASS_FLAGS:
            norm = float(np.max(np.abs(read(_FLAG_FIELDS[name]))))
            if not math.isfinite(norm):
                raise CrossCheckFailure(
                    f"{_FLAG_FIELDS[name]} norm is {norm} at x = {st.x}, y = {st.y}"
                )
            norms[name] = max(norms[name], norm)
    raw = {name: norms[name] < thr[name] for name in CLASS_FLAGS}
    flags = dict(raw)
    changed = True
    while changed:
        changed = False
        for src, targets in _IMPLICATIONS.items():
            if flags[src]:
                for tgt in targets:
                    if not flags[tgt]:
                        flags[tgt] = True
                        changed = True
    return ClassificationVerdict(
        label=metric.label,
        n=metric.n,
        samples=samples,
        seed=seed,
        flags=flags,
        residuals=norms,
        thresholds=thr,
        consistent=flags == raw,
    )
