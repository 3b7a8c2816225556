"""Self-test of the benchmark's checks: each check must accept the
program's real output and reject a slightly wrong one.

    python3 perfbench/selftest.py

Exit status 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import charts  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402

SEED = 1
results: list[tuple[str, bool]] = []


def expect(label: str, errors: list[str], want_reject: bool):
    ok = bool(errors) == want_reject
    results.append((label, ok))
    verdict = "rejected" if errors else "accepted"
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}"
          + (f" ({errors[0]})" if errors else ""))


def grid_cases():
    wl = workloads.GridWitness()
    st = wl.setup(SEED)
    scan, tag, reports = wl.op(st, 0)                     # torus_family
    expect("torus witness, as computed", wl.check(st, 0, (scan, tag, reports)), False)
    mn = next(r for r in reports if r.extremum.kind.value == "local_min")
    scaled = [dataclasses.replace(r, value=r.value * 1.00001) if r is mn else r
              for r in reports]
    expect("torus witness value x 1.00001", wl.check(st, 0, (scan, tag, scaled)), True)
    moved = dataclasses.replace(scan, records=tuple(
        dataclasses.replace(r, f_value=r.f_value + 1e-9) for r in scan.records))
    expect("torus energy + 1e-9", wl.check(st, 0, (moved, tag, reports)), True)

    out = wl.op(st, 2)                                    # circle_lift_torus
    expect("null witness, as computed", wl.check(st, 2, out), False)
    scan, tag, reports = out
    flipped = [dataclasses.replace(r, value=-r.value)
               if r.case == "lightlike_odd" else r for r in reports]
    expect("null witness sign flipped", wl.check(st, 2, (scan, tag, flipped)), True)

    out = wl.op(st, 1)                                    # schwarzschild_exterior
    expect("schwarzschild scan, as computed", wl.check(st, 1, out), False)
    scan, tag, reports = out
    fake = dataclasses.replace(scan, records=(scan.records + (
        wl.op(st, 0)[0].records[0],)))
    expect("schwarzschild scan with an interior minimum", wl.check(st, 1, (fake, tag, reports)),
           True)


def point_cases():
    wl = workloads.PointTensors()
    st = wl.setup(SEED)
    for i, kind in enumerate(wl.kinds):
        out = wl.op(st, i)
        expect(f"{kind} point, as computed", wl.check(st, i, out), False)
        p, geo, ks, x_ks, residual = out
        if kind == "schwarzschild_exterior":
            # only the Kretschmann comparison sees the bent tensor
            r = float(p[1])
            expect("Kretschmann check alone, as computed",
                   checks.check_schwarzschild_point(geo, x_ks, st.m, r), False)
            bent = dataclasses.replace(geo, riemann=geo.riemann * (1 + 5e-7))
            expect("Kretschmann off by 1e-6 relative",
                   checks.check_schwarzschild_point(bent, x_ks, st.m, r), True)
        if kind == "hopf_lorentz_s3":
            off = [k * (1 + 1e-8) for k in x_ks]
            expect("hopf K through X off by 1e-8", wl.check(st, i, (p, geo, ks, off, residual)), True)
        if kind == "torus3_null_variant":
            bad = [(u, v, k * (1 + 1e-6)) for u, v, k in ks]
            expect("sectional curvature off by 1e-6", wl.check(st, i, (p, geo, bad, x_ks, residual)),
                   True)
            expect("Hessian residual 1e-6", wl.check(st, i, (p, geo, ks, x_ks, 1e-6)), True)


def chart_cases():
    import lorentzgeo.expr as ex

    wl = workloads.ChartBuild()
    st = wl.setup(SEED)
    entries, p = st.entries[0], st.points[0][0]
    M, rebuilt = wl.op(st, 0)
    expect("generated chart round trip, as computed", wl.check(st, 0, (M, rebuilt)), False)
    oracle = checks.sympy_metric_jet(entries, charts.GEN_COORDS, [p])[0]
    g, dg, ddg = M.metric_derivs(p)
    expect("generated chart jet, as computed", checks.check_metric_jet((g, dg, ddg), oracle, "gen"),
           False)
    # drop the d/dx of one term of g.0.0 from the program's first derivatives
    text = entries[(0, 0)]
    scale = float(text.split("*(", 1)[0].split("+")[1])
    terms, depth, start = [], 0, text.index("*(") + 2
    for k, c in enumerate(text[start:-1], start):
        depth += {"(": 1, ")": -1}.get(c, 0)
        if c == "+" and depth == 0:
            terms.append(text[start:k])
            start = k + 1
    at = dict(zip(charts.GEN_COORDS, p))
    lost = next(scale * d for d in (
        ex.evaluate(ex.differentiate(ex.parse_expression(t, charts.GEN_COORDS), "x"), at)
        for t in terms) if d != 0.0)
    dg_bad = dg.copy()
    dg_bad[1, 0, 0] -= lost
    expect(f"lost derivative term ({lost:.3e})", checks.check_metric_jet((g, dg_bad, ddg), oracle,
                                                                         "gen"), True)
    off = rebuilt.metric_eval(p) * (1 + 1e-9)
    expect("round trip off by 1e-9", checks.check_round_trip(M.metric_eval(p), off, "gen"), True)
    F, Fr = wl.op(st, 3)
    q = st.flip_points[0]
    expect("flipped round_s3, as computed", wl.check(st, 3, (F, Fr)), False)
    expect("flipped g(X,X) not flipped", checks.check_flip(
        st.round_s3.metric_eval(q), F.field_eval("X", q)), True)


def catalog_cases():
    import contextlib
    import io

    import lorentzgeo.cli as cli

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["catalog", "run", "torus_family", "--json", path])
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    expect("catalog report, as computed", checks.check_catalog_report("torus_family", code, report),
           False)
    bad = json.loads(json.dumps(report))
    bad["results"][3]["verdict"] = "FAIL"
    expect("one catalog row flipped to FAIL", checks.check_catalog_report("torus_family", 0, bad),
           True)
    bad = json.loads(json.dumps(report))
    row = next(r for r in bad["results"] if r["tolerance"])
    row["values"]["computed"] = row["values"]["expected"] + 2 * row["tolerance"]
    expect("computed value outside its tolerance, verdict PASS",
           checks.check_catalog_report("torus_family", 0, bad), True)
    expect("exit code 1", checks.check_catalog_report("torus_family", 1, report), True)


def main() -> int:
    grid_cases()
    point_cases()
    chart_cases()
    catalog_cases()
    bad = [label for label, ok in results if not ok]
    print(f"{len(results) - len(bad)}/{len(results)} checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
