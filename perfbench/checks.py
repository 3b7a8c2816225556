"""Checks of the program's outputs against closed forms, an independent
symbolic oracle, or properties the method must have.

Every check takes plain values (the program's output and the inputs it
was given) and returns a list of error strings; an empty list means the
output is correct.  None of the expected values is a recording of the
program's own output.
"""

from __future__ import annotations

import math

import numpy as np

PI2 = math.pi ** 2
REL = 1e-9            # closed-form curvature values, relative
F_TOL = 1e-12         # energy values, absolute
POINT_TOL = 1e-6      # located extremum, chart units
RESIDUAL_MAX = 1e-7   # Hessian identity residual


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(b), 1e-300)


def _periodic_gap(a: float, b: float, period: float = 1.0) -> float:
    d = abs(a - b) % period
    return min(d, period - d)


# ---------------------------------------------------------------------------
# grid_witness
# ---------------------------------------------------------------------------

def _records(scan, kind: str):
    return [r for r in scan.records if r.kind.value == kind]


def _report_for(reports, record):
    for rep in reports:
        if rep.extremum is record:
            return rep
    return None


def check_torus_witness(scan, tag: str, reports, shift: float) -> list[str]:
    """f = -1 + cos(2 pi (x - shift))/4: a minimum at x = 1/2 + shift with
    f = -5/4 and witness K = f''= pi^2, a maximum at x = shift with
    f = -3/4 whose planes through X all have K = -pi^2."""
    errs = []
    if tag != "killing":
        errs.append(f"torus: X classified as {tag}, want killing")
    mins, maxs = _records(scan, "local_min"), _records(scan, "local_max")
    if len(mins) != 1 or len(maxs) != 1 or len(scan.records) != 2:
        return errs + [f"torus: want one minimum and one maximum, got "
                       f"{[r.kind.value for r in scan.records]}"]
    for rec, x0, f0, k0, ineq in ((mins[0], 0.5 + shift, -1.25, PI2, ">= 0"),
                                  (maxs[0], shift, -0.75, -PI2, "<= 0")):
        what = f"torus {rec.kind.value}"
        x = float(rec.point[0])
        if _periodic_gap(x, x0) > POINT_TOL:
            errs.append(f"{what}: x = {x!r}, want {x0!r}")
        if abs(rec.f_value - f0) > F_TOL:
            errs.append(f"{what}: f = {rec.f_value!r}, want {f0!r}")
        if rec.causal.value != "timelike":
            errs.append(f"{what}: X is {rec.causal.value}, want timelike")
        rep = _report_for(reports, rec)
        if rep is None:
            errs.append(f"{what}: no witness report")
            continue
        if rep.verdict.value != "PASS" or rep.inequality != ineq:
            errs.append(f"{what}: verdict {rep.verdict.value} {rep.inequality}, "
                        f"want PASS {ineq}")
        if rep.value is None or not _close(rep.value, k0, REL):
            errs.append(f"{what}: witness K = {rep.value!r}, want {k0!r}")
    return errs


def check_schwarzschild_scan(scan, tag: str, reports, m: float,
                             r_lo: float, r_hi: float) -> list[str]:
    """f = m/r - 1/2 is strictly monotone in r: no interior extremum, and
    the grid's energy range lies inside the closed-form range."""
    errs = []
    if tag != "killing":
        errs.append(f"schwarzschild: X classified as {tag}, want killing")
    if scan.plateau:
        errs.append("schwarzschild: flagged as a plateau")
    if scan.records or reports:
        errs.append(f"schwarzschild: want no interior extremum, got "
                    f"{[r.kind.value for r in scan.records]}")
    f_lo, f_hi = m / r_hi - 0.5, m / r_lo - 0.5
    if not (f_lo - F_TOL <= scan.f_min < scan.f_max <= f_hi + F_TOL):
        errs.append(f"schwarzschild: energy range [{scan.f_min!r}, {scan.f_max!r}] "
                    f"outside the closed-form range [{f_lo!r}, {f_hi!r}]")
    return errs


def check_lift_witness(scan, tag: str, reports, c: float) -> list[str]:
    """The circle lift of the torus with c^2 = -max g(X,X) = 3/2: the lifted
    energy is f + c^2/2, lightlike exactly at its maximum x = 0, where the
    null witness is -c^2 f''(0) = 3/2 pi^2 >= 0 (PASS).  The timelike
    minimum is out of scope in odd dimension."""
    errs = []
    if tag != "killing":
        errs.append(f"circle lift: Xbar classified as {tag}, want killing")
    mins, maxs = _records(scan, "local_min"), _records(scan, "local_max")
    if len(mins) != 1 or len(maxs) != 1:
        return errs + [f"circle lift: want one minimum and one maximum, got "
                       f"{[r.kind.value for r in scan.records]}"]
    half_c2 = 0.5 * c * c
    mn, mx = mins[0], maxs[0]
    if _periodic_gap(float(mn.point[0]), 0.5) > POINT_TOL or \
            abs(mn.f_value - (-1.25 + half_c2)) > F_TOL:
        errs.append(f"circle lift minimum at {mn.point.tolist()} f = {mn.f_value!r}")
    if _periodic_gap(float(mx.point[0]), 0.0) > POINT_TOL or \
            abs(mx.f_value - (-0.75 + half_c2)) > F_TOL:
        errs.append(f"circle lift maximum at {mx.point.tolist()} f = {mx.f_value!r}")
    if mx.causal.value != "lightlike":
        errs.append(f"circle lift maximum: Xbar is {mx.causal.value}, want lightlike")
    rep = _report_for(reports, mx)
    want = -c * c * (-PI2)                       # -c^2 f''(0), f'' = -pi^2 cos(2 pi x)
    if rep is None or rep.verdict.value != "PASS" or rep.inequality != ">= 0" \
            or rep.case != "lightlike_odd":
        errs.append("circle lift maximum: want a PASS lightlike_odd witness with >= 0")
    elif not _close(rep.value, want, REL):
        errs.append(f"circle lift null witness {rep.value!r}, want {want!r}")
    rep = _report_for(reports, mn)
    if rep is None or rep.verdict.value != "SCOPE":
        errs.append("circle lift minimum: want a SCOPE verdict (timelike, m = 3)")
    return errs


# ---------------------------------------------------------------------------
# point_tensors
# ---------------------------------------------------------------------------

def numerator(R: np.ndarray, u, v) -> float:
    """g(R(u,v)v, u) under the lowered convention R[i,j,k,l] =
    g(R(e_i,e_j)e_l, e_k)."""
    return float(np.einsum("ijkl,i,j,k,l->", R, u, v, u, v))


def plane_k(R: np.ndarray, g: np.ndarray, u, v) -> float:
    q = float(u @ g @ u) * float(v @ g @ v) - float(u @ g @ v) ** 2
    return numerator(R, u, v) / q


def kretschmann(R: np.ndarray, ginv: np.ndarray) -> float:
    up = np.einsum("abcd,ae,bf,cg,dh->efgh", R, ginv, ginv, ginv, ginv)
    return float(np.einsum("abcd,abcd->", R, up))


def check_tensor_identities(geo, planes, residual: float) -> list[str]:
    """Properties every chart must show: the curvature symmetries, the
    plane curvatures agreeing with the returned tensor, and the Hessian
    identity."""
    errs = []
    R = geo.riemann
    scale = max(float(np.max(np.abs(R))), 1e-300)
    for label, dev in (("antisymmetry (ij)", R + R.transpose(1, 0, 2, 3)),
                       ("antisymmetry (kl)", R + R.transpose(0, 1, 3, 2)),
                       ("pair symmetry", R - R.transpose(2, 3, 0, 1)),
                       ("first Bianchi", R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3))):
        if float(np.max(np.abs(dev))) > REL * scale:
            errs.append(f"Riemann {label} violated by {float(np.max(np.abs(dev))):.3e}")
    for u, v, k in planes:
        want = plane_k(R, geo.metric, u, v)
        if not abs(k - want) <= REL * max(abs(want), scale):
            errs.append(f"sectional curvature {k!r} disagrees with the tensor ({want!r})")
    if not residual <= RESIDUAL_MAX:
        errs.append(f"Hessian identity residual {residual!r} > {RESIDUAL_MAX}")
    return errs


def check_schwarzschild_point(geo, x_plane_ks, m: float, r: float) -> list[str]:
    """Vacuum: Ricci = 0; Kretschmann = 48 m^2/r^6; the planes through the
    static field have K between the tangential -m/r^3 and radial 2m/r^3."""
    errs = []
    tidal = m / r ** 3
    ric = float(np.max(np.abs(geo.ricci)))
    if ric > REL * tidal:
        errs.append(f"schwarzschild r={r!r}: |Ricci| = {ric:.3e}, want 0")
    kr, want = kretschmann(geo.riemann, geo.inverse), 48.0 * m * m / r ** 6
    if not _close(kr, want, 1e-8):
        errs.append(f"schwarzschild r={r!r}: Kretschmann {kr!r}, want {want!r}")
    lo, hi = -tidal * (1 + REL), 2 * tidal * (1 + REL)
    bad = [k for k in x_plane_ks if not lo <= k <= hi]
    if bad or not x_plane_ks:
        errs.append(f"schwarzschild r={r!r}: K through X {bad} outside [{lo!r}, {hi!r}]")
    return errs


def check_hopf_point(geo, x_plane_ks) -> list[str]:
    """The flipped Hopf fibration: g(X,X) = -1 and K = -1 on every plane
    through the fiber field X = (0, 1, 1)."""
    errs = []
    X = np.array([0.0, 1.0, 1.0])
    gxx = float(X @ geo.metric @ X)
    if abs(gxx + 1.0) > 1e-12:
        errs.append(f"hopf: g(X,X) = {gxx!r}, want -1")
    bad = [k for k in x_plane_ks if abs(k + 1.0) > REL]
    if bad or not x_plane_ks:
        errs.append(f"hopf: K through X = {bad}, want -1")
    return errs


def check_torus3_point(geo, x: float) -> list[str]:
    """z = const slices are totally geodesic (g_ab independent of z, no
    cross terms), so K(d_x, d_y) is the 2-d value f''(x) = -pi^2 cos(2 pi x)."""
    k = plane_k(geo.riemann, geo.metric, np.array([1.0, 0, 0]), np.array([0, 1.0, 0]))
    want = -PI2 * math.cos(2 * math.pi * x)
    if abs(k - want) > REL * PI2:
        return [f"torus3 x={x!r}: K(dx, dy) = {k!r}, want {want!r}"]
    return []


# ---------------------------------------------------------------------------
# chart_build
# ---------------------------------------------------------------------------

def sympy_metric_jet(entries: dict[tuple[int, int], str], coords, points):
    """(g, dg, ddg) at each point from sympy's derivatives of the entry
    texts, laid out as ManifoldSpec.metric_derivs lays them out."""
    import sympy as sp

    syms = sp.symbols(" ".join(coords))
    m = len(coords)
    jets = [(np.zeros((m, m)), np.zeros((m, m, m)), np.zeros((m, m, m, m))) for _ in points]
    for (i, j), text in entries.items():
        e = sp.sympify(text.replace("^", "**"), locals=dict(zip(coords, syms)))
        d1 = [sp.diff(e, s) for s in syms]
        d2 = {(k, l): sp.diff(d1[k], syms[l]) for k in range(m) for l in range(k, m)}
        for p, (g, dg, ddg) in zip(points, jets):
            at = dict(zip(syms, (sp.Float(float(c), 17) for c in p)))
            for a, b in {(i, j), (j, i)}:
                g[a, b] = float(e.xreplace(at))
                for k in range(m):
                    dg[k, a, b] = float(d1[k].xreplace(at))
                for (k, l), d in d2.items():
                    ddg[k, l, a, b] = ddg[l, k, a, b] = float(d.xreplace(at))
    return jets


def check_metric_jet(program, oracle, label: str) -> list[str]:
    errs = []
    for name, got, want in zip(("g", "dg", "ddg"), program, oracle):
        dev = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
        if dev > REL:
            errs.append(f"{label}: {name} differs from sympy by {dev:.3e}")
    return errs


def check_round_trip(g_loaded: np.ndarray, g_rebuilt: np.ndarray, label: str) -> list[str]:
    dev = float(np.max(np.abs(g_loaded - g_rebuilt)))
    if dev > 1e-12 * max(1.0, float(np.max(np.abs(g_loaded)))):
        return [f"{label}: to_document round trip changes the metric by {dev:.3e}"]
    return []


def check_flip(g: np.ndarray, x) -> list[str]:
    """The flip along the unit Hopf field of the round 3-sphere:
    g(X,X) = -g_R(X,X) = -1, and exactly one negative eigenvalue."""
    errs = []
    gxx = float(x @ g @ x)
    if abs(gxx + 1.0) > 1e-12:
        errs.append(f"flipped round_s3: g(X,X) = {gxx!r}, want -1")
    neg = int(np.sum(np.linalg.eigvalsh(g) < 0))
    if neg != 1:
        errs.append(f"flipped round_s3: {neg} negative eigenvalues, want 1")
    return errs


# ---------------------------------------------------------------------------
# catalog_verify
# ---------------------------------------------------------------------------

def check_catalog_report(name: str, code: int, report: dict) -> list[str]:
    """Exit code 0 and every expected-value row PASS, with each verdict
    re-derived here from the row's expected value and tolerance."""
    errs = []
    if code != 0:
        errs.append(f"catalog run {name}: exit code {code}")
    rows = report.get("results", [])
    if not rows:
        errs.append(f"catalog run {name}: empty report")
    if report.get("summary", {}).get("verdict") != "PASS":
        errs.append(f"catalog run {name}: summary verdict {report.get('summary')}")
    for row in rows:
        vals = row["values"]
        exp, got, tol = vals["expected"], vals["computed"], row["tolerance"]
        if isinstance(exp, str):
            ok = str(got) == exp
        else:
            ok = got is not None and math.isfinite(got) and abs(got - exp) <= tol
        if row["verdict"] != "PASS" or not ok:
            errs.append(f"catalog run {name}: {row['op']} = {got!r}, expected {exp!r} "
                        f"(tol {tol}), verdict {row['verdict']}")
    return errs
