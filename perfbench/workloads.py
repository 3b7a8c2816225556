"""The four workloads.

A workload sets up its inputs from the seed (``setup``), then runs
rounds of operations in a fixed interleaved order: ``kinds`` names the
operations of one round, ``op`` runs one of them through the public API
of ``lorentzgeo`` and returns its output, and ``check`` tests that
output outside the timed interval.  ``finish`` runs the checks that
need an oracle too slow to run after every operation.

The program is reached only through module attributes at call time
(``ob.scan_extrema``, never a name bound at import), so the traced run
sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from types import SimpleNamespace

import numpy as np

import charts
import checks

X_PLANES = 8             # planes through X per point in point_tensors
POINT_POOL = 512         # seeded points per chart in point_tensors, used in turn
CHECK_POINTS = 2         # sympy check points per generated chart


def _lg():
    import lorentzgeo
    import lorentzgeo.cli  # noqa: F401  (not imported by the package itself)
    return lorentzgeo


class GridWitness:
    """The witness pipeline on one chart: scan_extrema, classify_field,
    then extremum_witness on every record.  Grids hold about 10^4 nodes so
    the four operations cost about the same."""

    name = "grid_witness"
    kinds = ("torus_family", "schwarzschild_exterior", "circle_lift_torus", "torus_shifted")
    GRIDS = {"torus_family": [100, 100], "schwarzschild_exterior": [10, 12, 10, 10],
             "circle_lift_torus": [160, 8, 8], "torus_shifted": [100, 100]}
    LIFT_C = math.sqrt(1.5)          # c^2 = -max g(X,X) on the torus

    def setup(self, seed: int):
        lg = _lg()
        mf, ob = lg.manifold, lg.obstruction
        m = charts.schwarzschild_mass(seed)
        torus = mf.load_spec(charts.torus_document())
        lift = ob.circle_lift(torus, "X", self.LIFT_C, grid=64)
        cases = {
            "torus_family": (torus, "X"),
            "schwarzschild_exterior": (mf.load_spec(charts.schwarzschild_document(m)), "X"),
            "circle_lift_torus": (lift.spec, lift.field),
            "torus_shifted": (mf.load_spec(charts.torus_document(charts.TORUS_OFFSET)), "X"),
        }
        st = SimpleNamespace(lg=lg, m=m, cases=cases, last_scan=None, energy=None,
                             grad_norm_max=0.0)
        for i in range(len(self.kinds)):
            with contextlib.suppress(ValueError):
                self.op(st, i)
        return st

    def op(self, st, i):
        lg, kind = st.lg, self.kinds[i]
        M, x = st.cases[kind]
        st.last_scan = None
        scan = lg.obstruction.scan_extrema(M, x, grid=self.GRIDS[kind])
        st.last_scan = scan
        cls = lg.symmetry.classify_field(M, x)
        reports = [lg.obstruction.extremum_witness(M, x, rec, classification=cls)
                   for rec in scan.witness_records(M, x)]
        return scan, cls.tag.value, reports

    def check(self, st, i, out):
        kind = self.kinds[i]
        if kind == "torus_family":
            return checks.check_torus_witness(*out, shift=0.0)
        if kind == "torus_shifted":
            return checks.check_torus_witness(*out, shift=charts.TORUS_OFFSET)
        if kind == "schwarzschild_exterior":
            return checks.check_schwarzschild_scan(*out, m=st.m, r_lo=2.5, r_hi=20.0)
        return checks.check_lift_witness(*out, c=self.LIFT_C)

    def finish(self, st):
        return []

    def after_op(self, st, i, tracer):
        """Traced run: |grad f| at the refined records, from the energy's
        own gradient trees."""
        if st.last_scan is None:
            return
        lg = st.lg
        with tracer.paused():
            if st.energy is None:
                st.energy = {k: lg.curvature.ScalarDerivs(M, lg.manifold.field_energy_expr(M, x))
                             for k, (M, x) in st.cases.items()}
            fd = st.energy[self.kinds[i]]
            for rec in st.last_scan.records:
                st.grad_norm_max = max(st.grad_norm_max,
                                       float(np.linalg.norm(fd.gradient(rec.point))))


class PointTensors:
    """Full pointwise analysis at one seeded interior point: point_geometry,
    sectional curvature of random planes, the planes through X
    (plane_sign_scan at that point) and the Hessian identity residual."""

    name = "point_tensors"
    kinds = ("hopf_lorentz_s3", "schwarzschild_exterior", "torus3_null_variant")
    POINT = {"hopf_lorentz_s3": charts.hopf_point,
             "schwarzschild_exterior": charts.schwarzschild_point,
             "torus3_null_variant": charts.torus3_point}
    # random planes per point: more where a point's geometry is cheaper,
    # so that the three operations cost about the same
    PLANES = {"hopf_lorentz_s3": 4, "schwarzschild_exterior": 5, "torus3_null_variant": 9}

    def setup(self, seed: int):
        lg = _lg()
        m = charts.schwarzschild_mass(seed)
        specs = {
            "hopf_lorentz_s3": lg.catalog.build_example("hopf_lorentz_s3").spec,
            "schwarzschild_exterior": lg.manifold.load_spec(charts.schwarzschild_document(m)),
            "torus3_null_variant": lg.catalog.build_example("torus3_null_variant").spec,
        }
        rng = np.random.default_rng([seed, 4])
        inputs = {}
        for kind, M in specs.items():
            pts = []
            for _ in range(POINT_POOL):
                p = self.POINT[kind](rng)
                pts.append((p, self._planes(lg, M, p, rng, self.PLANES[kind])))
            inputs[kind] = pts
        st = SimpleNamespace(lg=lg, m=m, specs=specs, inputs=inputs,
                             cursor=dict.fromkeys(specs, 0))
        for i in range(len(self.kinds)):
            self.op(st, i)
        st.cursor = dict.fromkeys(specs, 0)
        return st

    @staticmethod
    def _planes(lg, M, p, rng, count):
        """Random planes, kept well away from the degenerate ones (|Q| at
        least 1e-3 of |u|^2 |v|^2)."""
        g = lg.manifold.metric_at(M, p)[0]
        out = []
        while len(out) < count:
            u, v = rng.normal(size=M.dim), rng.normal(size=M.dim)
            q = float(u @ g @ u) * float(v @ g @ v) - float(u @ g @ v) ** 2
            if abs(q) >= 1e-3 * float(u @ u) * float(v @ v):
                out.append((u, v))
        return out

    def op(self, st, i):
        lg, kind = st.lg, self.kinds[i]
        cv = lg.curvature
        M = st.specs[kind]
        n = st.cursor[kind]
        st.cursor[kind] = (n + 1) % POINT_POOL
        p, planes = st.inputs[kind][n]
        geo = cv.point_geometry(M, p)
        ks = [(u, v, cv.sectional_curvature(M, lg.manifold.TangentPlane(p, u, v)))
              for u, v in planes]
        scan = lg.obstruction.plane_sign_scan(M, "X", [p], planes_per_point=X_PLANES)
        residual = lg.symmetry.hessian_identity_residual(M, "X", p)
        return p, geo, ks, list(scan.scans[0].values), residual

    def check(self, st, i, out):
        p, geo, ks, x_ks, residual = out
        errs = checks.check_tensor_identities(geo, ks, residual)
        kind = self.kinds[i]
        if kind == "schwarzschild_exterior":
            errs += checks.check_schwarzschild_point(geo, x_ks, st.m, float(p[1]))
        elif kind == "hopf_lorentz_s3":
            errs += checks.check_hopf_point(geo, x_ks)
        else:
            errs += checks.check_torus3_point(geo, float(p[0]))
        return errs

    def finish(self, st):
        return []


class ChartBuild:
    """load_spec (with its signature check) of a seeded generated 4-D chart,
    then the rebuild from to_document; every fourth operation flips
    round_s3 with lorentzianize instead (and rebuilds the flipped chart)."""

    name = "chart_build"
    kinds = ("generated_0", "generated_1", "generated_2", "lorentzianize_round_s3")

    def setup(self, seed: int):
        lg = _lg()
        entries = [charts.generated_entries(seed, k) for k in range(3)]
        round_s3 = lg.catalog.build_example("round_s3").spec
        st = SimpleNamespace(
            lg=lg, entries=entries,
            docs=[charts.generated_document(e, k) for k, e in enumerate(entries)],
            points=[charts.generated_points(seed, k, CHECK_POINTS) for k in range(3)],
            round_s3=round_s3,
            flip_points=round_s3.sample_points(3, np.random.default_rng([seed, 5])),
            last={}, fingerprint={})
        for i in range(len(self.kinds)):
            self.op(st, i)
        return st

    def op(self, st, i):
        mf = st.lg.manifold
        if i < 3:
            M = mf.load_spec(st.docs[i])
        else:
            M = st.lg.obstruction.lorentzianize(st.round_s3, "X")
        return M, mf.load_spec(mf.to_document(M))

    def check(self, st, i, out):
        M, rebuilt = out
        label = self.kinds[i]
        points = st.points[i] if i < 3 else st.flip_points
        errs = []
        for p in points:
            g = M.metric_eval(p)
            errs += checks.check_round_trip(g, rebuilt.metric_eval(p), label)
            if i == 3:
                errs += checks.check_flip(g, M.field_eval("X", p))
        # every operation on one document must build the same chart
        fp = M.metric_eval(points[0]).tobytes()
        if st.fingerprint.setdefault(i, fp) != fp:
            errs.append(f"{label}: the same document built a different chart")
        st.last[i] = M
        return errs

    def finish(self, st):
        errs = []
        for k in range(3):
            M = st.last.get(k)
            if M is None:
                return [f"generated_{k}: never built"]
            oracle = checks.sympy_metric_jet(st.entries[k], charts.GEN_COORDS, st.points[k])
            for p, want in zip(st.points[k], oracle):
                errs += checks.check_metric_jet(M.metric_derivs(p), want, f"generated_{k}")
        return errs


class CatalogVerify:
    """One pass of ``lorentzgeo catalog run <entry> --json FILE`` over every
    catalog entry, through cli.main in process.  Each step of the round is
    one entry; the round, one pass, is the operation."""

    name = "catalog_verify"
    round_is_operation = True

    def __init__(self):
        import lorentzgeo.catalog
        self.kinds = tuple(lorentzgeo.catalog.list_examples())

    def setup(self, seed: int):
        lg = _lg()
        out = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                           f"catalog-{os.getpid()}")
        os.makedirs(out, exist_ok=True)
        st = SimpleNamespace(lg=lg, out=out, tracer=None, entry_s={})
        self._run(st, "minkowski2")
        return st

    def _run(self, st, name):
        with contextlib.redirect_stdout(io.StringIO()):
            return st.lg.cli.main(["catalog", "run", name, "--json",
                                   os.path.join(st.out, f"{name}.json")])

    def op(self, st, i):
        name, tr = self.kinds[i], st.tracer
        if tr is None:
            return self._run(st, name)
        before = tr.stat("catalog.run_entry")[1]
        code = self._run(st, name)
        st.entry_s[name] = st.entry_s.get(name, 0.0) + tr.stat("catalog.run_entry")[1] - before
        return code

    def check(self, st, i, code):
        name = self.kinds[i]
        with open(os.path.join(st.out, f"{name}.json"), encoding="utf-8") as fh:
            return checks.check_catalog_report(name, code, json.load(fh))

    def finish(self, st):
        for name in os.listdir(st.out):
            os.remove(os.path.join(st.out, name))
        os.rmdir(st.out)
        return []


WORKLOADS = {w.name: w for w in (GridWitness, PointTensors, ChartBuild, CatalogVerify)}
