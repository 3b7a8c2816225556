"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line.  Criterion 4 is split: the null
witness construction and its oracle match (test_04a), and the sign
clause (test_04b).  The paper's odd-dimensional statement is for a
*causal* Killing or homothetic field X, so f = g(X,X)/2 <= 0 everywhere
and every point where X is null has f = 0, a global maximum of f.  The
Hessian identity of criterion 2, Hess f(v,v) = -g(R(v,X)X,v) +
g(A_X v, A_X v), loses its last term for a kernel vector v of the
quotient operator (A_X v lies in span{X}), so Hess f(v,v) <= 0 at the
maximum forces K_X(v) = g(R(v,X)X,v)/g(v,v) >= 0 under the convention
of criterion 1.  On the lifted torus the value is -c^2 f''(0) =
+1.5*pi^2.
"""

import math

import numpy as np

from lorentzgeo.catalog import build_example, list_examples
from lorentzgeo.curvature import (
    ScalarDerivs,
    point_geometry,
    sectional_curvature,
    symmetry_residuals,
)
from lorentzgeo.manifold import (
    CausalCharacter,
    TangentPlane,
    field_energy_expr,
)
from lorentzgeo.obstruction import (
    Verdict,
    circle_lift,
    conformal_bound_check,
    extremum_witness,
    interpolate_path,
    _flip,
    lorentzianize,
    plane_sign_scan,
    scan_extrema,
)
from lorentzgeo.symmetry import (
    hessian_identity_residual,
    perp_frame,
    restricted_operator,
    kernel_direction,
)

PI = math.pi


def _metric_compatibility_residual(geo):
    """max |nabla_k g_ij| / max |g| from the engine's Gamma: zero for the
    Levi-Civita connection."""
    g, dg, gamma = geo.metric, geo.dmetric, geo.christoffel
    # nabla_k g_ij = d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il
    cov = dg - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
    return float(np.max(np.abs(cov))) / float(np.max(np.abs(g)))


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{tail}")


def _random_plane_through(spec, fieldname, p, rng):
    X = spec.field_eval(fieldname, p)
    while True:
        w = rng.normal(size=spec.dim)
        if np.linalg.matrix_rank(np.stack([w, X]), tol=1e-6) == 2:
            return TangentPlane(p, w, X)


def test_01_convention_gate():
    """One sign convention: round 2-sphere +1, round 3-sphere +1, Lorentz
    Hopf sphere -1 on planes through the fiber field (tol 1e-8, 50
    random points/planes each)."""
    rng = np.random.default_rng(101)
    s2 = build_example("round_s2").spec
    worst_s2 = 0.0
    for p in s2.sample_points(50, rng):
        u, v = rng.normal(size=2), rng.normal(size=2)
        if abs(np.linalg.det(np.stack([u, v]))) < 1e-3:
            continue
        worst_s2 = max(worst_s2, abs(sectional_curvature(s2, TangentPlane(p, u, v)) - 1.0))

    s3 = build_example("round_s3").spec
    worst_s3 = 0.0
    for p in s3.sample_points(50, rng):
        u, v = rng.normal(size=3), rng.normal(size=3)
        worst_s3 = max(worst_s3, abs(sectional_curvature(s3, TangentPlane(p, u, v)) - 1.0))

    hopf = build_example("hopf_lorentz_s3").spec
    worst_h = 0.0
    for p in hopf.sample_points(50, rng):
        pl = _random_plane_through(hopf, "X", p, rng)
        worst_h = max(worst_h, abs(sectional_curvature(hopf, pl) + 1.0))

    ok = worst_s2 < 1e-8 and worst_s3 < 1e-8 and worst_h < 1e-8
    _report(1, "convention gate", ok,
            f"s2 dev {worst_s2:.2e}, s3 dev {worst_s3:.2e}, hopf dev {worst_h:.2e}")
    assert worst_s2 < 1e-8
    assert worst_s3 < 1e-8
    assert worst_h < 1e-8


def test_02_hessian_identity():
    """Residual of Hess f = -g(R(.,X)X,.) + g(A_X., A_X.) below 1e-7 at
    20 random points on four charts with their Killing fields."""
    cases = [("torus_family", "X"), ("hopf_lorentz_s3", "X"),
             ("minkowski4", "X"), ("circle_lift_torus", "Xbar")]
    rng = np.random.default_rng(102)
    devs = {}
    for name, fieldname in cases:
        spec = build_example(name).spec
        devs[name] = max(hessian_identity_residual(spec, fieldname, p)
                         for p in spec.sample_points(20, rng))
    ok = all(v < 1e-7 for v in devs.values())
    _report(2, "hessian identity", ok,
            ", ".join(f"{k} {v:.1e}" for k, v in devs.items()))
    for name, v in devs.items():
        assert v < 1e-7, name


def test_03_timelike_witness_torus():
    """Minimum at x = 0.5 (1e-4) with witness curvature pi^2 (1e-4) and
    verdict PASS; at the maximum x = 0 the planes span{w, X} of 32 seeded
    random vectors w have curvature -pi^2 (1e-4), nonpositive."""
    entry = build_example("torus_family")
    scan = scan_extrema(entry.spec, "X", grid=64)
    rec_min = scan.minima()[0]
    ok_min_loc = abs(rec_min.point[0] - 0.5) <= 1e-4
    w = extremum_witness(entry.spec, "X", rec_min)
    ok_min_val = abs(w.value - PI ** 2) <= 1e-4 and w.verdict is Verdict.PASS

    rec_max = scan.maxima()[0]
    x_max = min(rec_max.point[0], 1.0 - rec_max.point[0])
    ok_max_loc = x_max <= 1e-4
    X = entry.spec.field_eval("X", rec_max.point)
    ws = np.random.default_rng(3).standard_normal((32, 2))
    vals = [sectional_curvature(entry.spec, TangentPlane(rec_max.point, w, X)) for w in ws]
    ok_max_val = all(abs(v + PI ** 2) <= 1e-4 and v <= 1e-6 for v in vals)

    ok = ok_min_loc and ok_min_val and ok_max_loc and ok_max_val
    _report(3, "timelike witness (torus)", ok,
            f"min x={rec_min.point[0]:.6f} K={w.value:.6f}, "
            f"max x={x_max:.6f} K range [{min(vals):.6f},{max(vals):.6f}]")
    assert ok_min_loc and ok_min_val and ok_max_loc and ok_max_val


def test_04a_null_witness_construction_and_oracle():
    """Lift of the torus with c^2 = 3/2: the lightlike locus is found at
    x = 0, the quotient construction succeeds, and the engine's null
    curvature matches a brute-force contraction of the lowered tensor
    within 1e-8."""
    base = build_example("torus_family").spec
    lift = circle_lift(base, "X", math.sqrt(1.5), grid=64)
    locus_x = min(min(abs(p[0]), abs(1.0 - p[0])) for p in lift.lightlike_locus)
    ok_locus = locus_x <= 1e-9

    spec = lift.spec
    p = np.array([0.0, 0.25, 0.5])
    frame = perp_frame(spec, "Xbar", p)
    op = restricted_operator(frame, spec.field_derivs("Xbar", p))
    kv, _ = kernel_direction(op)
    ok_quotient = kv is not None and op.shape == (1, 1)

    v = kv @ frame.basis
    X = spec.field_eval("Xbar", p)
    from lorentzgeo.curvature import null_sectional_curvature
    k_engine = null_sectional_curvature(spec, p, X, v)
    R = point_geometry(spec, p).riemann
    g = spec.metric_eval(p)
    num = 0.0
    for i in range(3):
        for j in range(3):
            for a in range(3):
                for b in range(3):
                    num += R[i, j, a, b] * v[i] * X[j] * v[a] * X[b]
    k_brute = num / float(v @ g @ v)
    ok_oracle = abs(k_engine - k_brute) <= 1e-8

    ok = ok_locus and ok_quotient and ok_oracle
    _report(4, "null witness construction + oracle", ok,
            f"locus x={locus_x:.1e}, K={k_engine:.6f}, brute={k_brute:.6f}")
    assert ok_locus
    assert ok_quotient
    assert ok_oracle


def test_04b_null_witness_minimum_side_inequality():
    """Sign clause of criterion 4 on the lifted torus (c^2 = 3/2, grid
    [32, 8, 8]), as the paper states it for a causal field.

    f = g(X,X)/2 <= 0 for a causal field, so a lightlike point has
    f = 0 and is a global maximum of f.  The minimum-side hypothesis
    (a lightlike minimum) therefore never arises: the only minimum is
    timelike and out of scope on the odd-dimensional chart.  At the
    lightlike maximum the kernel vector v of the quotient operator has
    A_X v in span{X}, so the Hessian identity gives
    Hess f(v,v) = -g(R(v,X)X,v) <= 0, i.e. the null curvature
    K_X(v) >= 0.  The witness must report that inequality with verdict
    PASS, and its value must equal -Hess f(v,v)/g(v,v) computed from
    the energy tree alone, without the Riemann tensor.
    """
    entry = build_example("circle_lift_torus")
    spec = entry.spec
    scan = scan_extrema(spec, "Xbar", grid=[32, 8, 8])

    minima = scan.minima()
    n_null_min = sum(r.causal is CausalCharacter.LIGHTLIKE for r in minima)
    ok_no_null_min = n_null_min == 0
    min_reports = [extremum_witness(spec, "Xbar", r) for r in minima]
    ok_min_scope = (len(minima) == 1
                    and minima[0].causal is CausalCharacter.TIMELIKE
                    and min_reports[0].verdict is Verdict.SCOPE
                    and "m=3" in min_reports[0].scope_reason)

    null_maxima = [r for r in scan.maxima() if r.causal is CausalCharacter.LIGHTLIKE]
    assert null_maxima, "no lightlike maximum found on circle_lift_torus"
    rec = null_maxima[0]
    w = extremum_witness(spec, "Xbar", rec)
    ok_side = (w.case == "lightlike_odd" and w.inequality == ">= 0"
               and w.verdict is Verdict.PASS)
    ok_sign = w.value >= -1e-6

    v = w.plane.u
    hess = ScalarDerivs(spec, field_energy_expr(spec, "Xbar")).covariant_hessian(rec.point)
    k_hess = -float(v @ hess @ v) / float(v @ spec.metric_eval(rec.point) @ v)
    ok_hess = abs(w.value - k_hess) <= 1e-9 * abs(k_hess)

    ok = ok_no_null_min and ok_min_scope and ok_side and ok_sign and ok_hess
    _report(4, "null witness sign at the lightlike maximum", ok,
            f"K_X = {w.value:.6f} ({w.inequality}), "
            f"-Hess f/g = {k_hess:.6f}, lightlike minima {n_null_min}")
    assert ok_no_null_min, [r.causal for r in minima]
    assert ok_min_scope, [(r.causal, m.verdict, m.scope_reason)
                          for r, m in zip(minima, min_reports)]
    assert ok_side, (w.case, w.inequality, w.verdict)
    assert ok_sign, w.value
    assert ok_hess, (w.value, k_hess)


def test_05_sign_scan_convergence():
    """The curvature zero on the torus path sits at x = 0.25 within 2/N
    for N = 64 and N = 128, with the error at worst 0.75x when the
    resolution doubles."""
    entry = build_example("torus_family")
    errs = {}
    for n in (64, 128):
        pts = interpolate_path(entry.paths["min_to_max"], n)
        rep = plane_sign_scan(entry.spec, "X", pts, planes_per_point=4)
        z = rep.first_zero()
        errs[n] = abs(z.point[0] - 0.25)
    ok_tol = errs[64] <= 2 / 64 and errs[128] <= 2 / 128
    ok_halving = errs[128] <= 0.75 * errs[64] + 1e-9
    _report(5, "sign-scan zero convergence", ok_tol and ok_halving,
            f"err(64)={errs[64]:.2e}, err(128)={errs[128]:.2e}")
    assert ok_tol
    assert ok_halving


def test_06_conformal_counterexample():
    """Energy minimum at the origin (1e-4); K(0,0) = -2 (1e-6); K < 0 at
    100 random points; the unconditional sign check FAILs while the
    lower bound PASSes; sigma(0,0) = 0 (1e-9) with X(sigma) < 0; the
    computed X(sigma) = -8 is recorded and flagged against the published
    -4."""
    entry = build_example("conformal_counterexample")
    spec = entry.spec
    scan = scan_extrema(spec, "X", grid=64)
    rec = scan.minima()[0]
    ok_loc = float(np.linalg.norm(rec.point)) <= 1e-4

    k0 = sectional_curvature(spec, TangentPlane([0.0, 0.0], [1.0, 0.0], [0.0, 1.0]))
    ok_k0 = abs(k0 + 2.0) <= 1e-6

    rng = np.random.default_rng(106)
    ok_neg = all(
        sectional_curvature(spec, TangentPlane(p, [1.0, 0.0], [0.0, 1.0])) < 0
        for p in spec.sample_points(100, rng))

    rep = conformal_bound_check(spec, "X", rec)
    ok_verdicts = (rep.nonnegativity_verdict is Verdict.FAIL
                   and rep.bound_verdict is Verdict.PASS)
    ok_sigma = abs(rep.sigma_at_point) <= 1e-9 and rep.x_sigma < 0
    ok_xsigma_value = abs(rep.x_sigma + 8.0) <= 1e-9

    row = next(r for r in entry.expected if r.quantity == "x_sigma_at_origin")
    ok_flag = "-4" in row.note and row.expected == -8.0

    ok = ok_loc and ok_k0 and ok_neg and ok_verdicts and ok_sigma \
        and ok_xsigma_value and ok_flag
    _report(6, "conformal counterexample", ok,
            f"K(0,0)={k0:.6f}, X(sigma)={rep.x_sigma:.6f}, bound={rep.bound:.3f}")
    assert ok_loc and ok_k0 and ok_neg and ok_verdicts
    assert ok_sigma and ok_xsigma_value and ok_flag


def test_07_schwarzschild():
    """Vacuum: |Ricci| < 1e-6 at 50 sampled points with r in [2.5, 20];
    the energy profile is m/r - 1/2 within 1e-10; no interior minimum."""
    spec = build_example("schwarzschild_exterior").spec
    rng = np.random.default_rng(107)
    worst_ric = 0.0
    worst_prof = 0.0
    fexpr = field_energy_expr(spec, "X")
    m_par = spec.params["m"]
    for p in spec.sample_points(50, rng):
        ric = point_geometry(spec, p).ricci
        worst_ric = max(worst_ric, float(np.max(np.abs(ric))))
        worst_prof = max(worst_prof,
                         abs(spec.evaluate(fexpr, p) - (m_par / p[1] - 0.5)))
    scan = scan_extrema(spec, "X", grid=[8, 16, 8, 8])
    n_min = len(scan.minima())
    ok = worst_ric < 1e-6 and worst_prof < 1e-10 and n_min == 0
    _report(7, "schwarzschild vacuum + profile", ok,
            f"|Ric| {worst_ric:.1e}, profile dev {worst_prof:.1e}, minima {n_min}")
    assert worst_ric < 1e-6
    assert worst_prof < 1e-10
    assert n_min == 0


def test_08_lorentzian_flip_round_trip():
    """The flip of the round 3-sphere along the fiber field equals the
    stored Lorentz chart (1e-10) and flipping twice returns the input."""
    s3 = build_example("round_s3").spec
    stored = build_example("hopf_lorentz_s3").spec
    flipped = lorentzianize(s3, "X")
    twice = _flip(flipped, "X")
    rng = np.random.default_rng(108)
    worst_match = 0.0
    worst_invol = 0.0
    for p in s3.sample_points(30, rng):
        worst_match = max(worst_match, float(np.max(np.abs(
            flipped.metric_eval(p) - stored.metric_eval(p)))))
        worst_invol = max(worst_invol, float(np.max(np.abs(
            twice.metric_eval(p) - s3.metric_eval(p)))))
    ok = worst_match < 1e-10 and worst_invol < 1e-12
    _report(8, "metric flip round trip", ok,
            f"match {worst_match:.1e}, involution {worst_invol:.1e}")
    assert worst_match < 1e-10
    assert worst_invol < 1e-12


def test_09_tensor_property_suite():
    """Curvature symmetries, the cyclic identity, and metric
    compatibility on every catalog entry, 50 random points each,
    relative tolerance 1e-8."""
    rng = np.random.default_rng(109)
    worst = {}
    for name in list_examples():
        spec = build_example(name).spec
        w = 0.0
        for p in spec.sample_points(50, rng):
            geo = point_geometry(spec, p)
            w = max(w, max(symmetry_residuals(geo).values()))
            w = max(w, _metric_compatibility_residual(geo))
        worst[name] = w
    ok = all(v < 1e-8 for v in worst.values())
    top = max(worst, key=worst.get)
    _report(9, "tensor property suite", ok, f"worst {top} {worst[top]:.1e}")
    for name, v in worst.items():
        assert v < 1e-8, name


def test_10_submersion_curvature_shift():
    """Horizontal planes of the Lorentz Hopf chart: the holomorphic
    span{u, iu} has curvature 7 (1e-6), and subtracting the 3*g(iu,v)^2
    shift recovers the base holomorphic value 4 (1e-6)."""
    spec = build_example("hopf_lorentz_s3").spec
    rng = np.random.default_rng(110)
    worst_k = 0.0
    worst_base = 0.0
    for p in spec.sample_points(25, rng):
        u = spec.field_eval("U", p)
        iu = spec.field_eval("IU", p)
        g = spec.metric_eval(p)
        k = sectional_curvature(spec, TangentPlane(p, u, iu))
        shift = 3.0 * float(iu @ g @ iu) ** 2
        worst_k = max(worst_k, abs(k - 7.0))
        worst_base = max(worst_base, abs(k - shift - 4.0))
    ok = worst_k < 1e-6 and worst_base < 1e-6
    _report(10, "submersion curvature shift", ok,
            f"holomorphic dev {worst_k:.1e}, base dev {worst_base:.1e}")
    assert worst_k < 1e-6
    assert worst_base < 1e-6
