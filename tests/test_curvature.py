"""Connection and curvature against known closed forms.

Oracle values come from independent hand computations on the catalog
metrics: the round-sphere Christoffels/curvatures, the null-coordinate
torus family (all nonzero symbols are built from the profile derivative
alone), and the conformally flat chart with its explicit Gauss
curvature.
"""

import math
import sys
import threading
import types

import numpy as np
import pytest

from lorentzgeo import curvature
from lorentzgeo import expr as ex
from lorentzgeo.catalog import build_example
from lorentzgeo.curvature import (
    DegeneratePlaneError,
    NullCurvatureInputError,
    ScalarDerivs,
    christoffel_at,
    gradient_vector,
    hessian_scalar_at,
    metric_compatibility_residual,
    null_sectional_curvature,
    point_geometry,
    ricci_at,
    riemann_at,
    sectional_curvature,
    shape_operator_at,
    symmetry_residuals,
)
from lorentzgeo.manifold import (
    CausalCharacter,
    ManifoldSpec,
    TangentPlane,
    TangentVector,
    field_energy_expr,
)
from lorentzgeo.obstruction import (
    ExtremumKind,
    ExtremumRecord,
    extremum_witness,
    plane_sign_scan,
)
from lorentzgeo.symmetry import (
    classify_field,
    hessian_identity_residual,
    restricted_operator,
)

PI = math.pi


def torus_profile(x):
    f = -1 + math.cos(2 * PI * x) / 4
    fp = -PI / 2 * math.sin(2 * PI * x)
    fpp = -PI ** 2 * math.cos(2 * PI * x)
    return f, fp, fpp


class TestChristoffel:
    def test_minkowski_vanishes(self, mink2):
        assert np.max(np.abs(christoffel_at(mink2.spec, [0.0, 0.0]))) == 0.0

    def test_round_sphere_closed_form(self, entry):
        """g = d(theta)^2 + sin^2(theta) d(phi)^2 has
        Gamma^th_phph = -sin cos and Gamma^ph_thph = cot."""
        s2 = entry("round_s2").spec
        th = PI / 3
        gam = christoffel_at(s2, [th, 1.0])
        assert gam[0, 1, 1] == pytest.approx(-math.sin(th) * math.cos(th), abs=1e-12)
        assert gam[0, 1, 1] == pytest.approx(-math.sqrt(3) / 4, abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(1 / math.tan(th), abs=1e-12)
        assert gam[1, 1, 0] == gam[1, 0, 1]

    def test_torus_symbols_from_profile_derivative_only(self, torus):
        """Nonzero symbols: G^x_xy = f', G^x_yy = 2 f f', G^y_yy = -f'."""
        spec = torus.spec
        for x in (0.1, 0.37, 0.8):
            f, fp, _ = torus_profile(x)
            gam = christoffel_at(spec, [x, 0.0])
            expect = np.zeros((2, 2, 2))
            expect[0, 0, 1] = expect[0, 1, 0] = fp
            expect[0, 1, 1] = 2 * f * fp
            expect[1, 1, 1] = -fp
            assert np.max(np.abs(gam - expect)) < 1e-12


class TestRiemann:
    def test_minkowski_vanishes(self, entry):
        assert np.max(np.abs(riemann_at(entry("minkowski4").spec,
                                        [0.0, 0.0, 0.0, 0.0]))) == 0.0

    def test_round_sphere_component(self, entry):
        """R_[th,ph,th,ph] = sin^2(theta) under the engine convention."""
        s2 = entry("round_s2").spec
        for th in (PI / 6, PI / 3, 2.0):
            R = riemann_at(s2, [th, 1.0])
            assert R[0, 1, 0, 1] == pytest.approx(math.sin(th) ** 2, rel=1e-12)

    def test_round_s3_constant_curvature_one(self, entry, rng):
        s3 = entry("round_s3").spec
        for p in s3.sample_points(10, rng):
            u, v = rng.normal(size=3), rng.normal(size=3)
            k = sectional_curvature(s3, TangentPlane(p, u, v))
            assert k == pytest.approx(1.0, abs=1e-10)


class TestRicci:
    def test_minkowski(self, entry):
        ric, scal = ricci_at(entry("minkowski4").spec, [0.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(ric)) == 0.0 and scal == 0.0

    def test_schwarzschild_vacuum_point(self, entry):
        ric, _ = ricci_at(entry("schwarzschild_exterior").spec,
                          [1.0, 4.0, PI / 2, 1.0])
        assert np.max(np.abs(ric)) < 1e-8

    def test_round_sphere_is_einstein(self, entry):
        s2 = entry("round_s2").spec
        p = [PI / 3, 1.0]
        ric, scal = ricci_at(s2, p)
        assert np.allclose(ric, s2.metric_eval(p), atol=1e-12)
        assert scal == pytest.approx(2.0, abs=1e-12)


class TestSectional:
    def test_hopf_planes_through_field(self, hopf, rng):
        spec = hopf.spec
        for p in spec.sample_points(10, rng):
            X = spec.field_eval("X", p)
            w = rng.normal(size=3)
            k = sectional_curvature(spec, TangentPlane(p, w, X))
            assert k == pytest.approx(-1.0, abs=1e-10)

    def test_torus_curvature_equals_profile_second_derivative(self, torus):
        spec = torus.spec
        for x in (0.0, 0.2, 0.5, 0.77):
            _, _, fpp = torus_profile(x)
            k = sectional_curvature(spec, TangentPlane([x, 0.0], [1.0, 0.0], [0.0, 1.0]))
            assert k == pytest.approx(fpp, rel=1e-10, abs=1e-10)

    def test_conformal_chart_closed_form(self, entry, rng):
        """K(x,y) = -2 exp(2(x^2 + 2 y^2)) on the conformally flat chart."""
        spec = entry("conformal_counterexample").spec
        for p in spec.sample_points(10, rng, collar=0.5):
            k = sectional_curvature(spec, TangentPlane(p, [1.0, 0.0], [0.0, 1.0]))
            want = -2 * math.exp(2 * (p[0] ** 2 + 2 * p[1] ** 2))
            assert k == pytest.approx(want, rel=1e-10)

    def test_basis_invariance(self, hopf, rng):
        spec = hopf.spec
        p = np.array([PI / 5, 0.3, 2.0])
        u, v = np.array([1.0, 0.2, 0.0]), np.array([0.0, 1.0, -1.0])
        base = sectional_curvature(spec, TangentPlane(p, u, v))
        for _ in range(20):
            A = rng.normal(size=(2, 2))
            if abs(np.linalg.det(A)) < 0.2:
                continue
            uu = A[0, 0] * u + A[0, 1] * v
            vv = A[1, 0] * u + A[1, 1] * v
            k = sectional_curvature(spec, TangentPlane(p, uu, vv))
            assert k == pytest.approx(base, rel=1e-9)

    def test_degenerate_plane_routed_to_error(self, entry):
        spec = entry("minkowski4").spec
        pi = TangentPlane([0.0] * 4, [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
        with pytest.raises(DegeneratePlaneError):
            sectional_curvature(spec, pi)


class TestNullSectional:
    def _locus_frame(self, circle_lift_torus):
        spec = circle_lift_torus.spec
        p = np.array([0.0, 0.2, 1.0])
        X = spec.field_eval("Xbar", p)
        c = X[2]
        v = np.array([-c, 0.0, 1.0])     # orthogonal to X, spacelike, unit
        return spec, p, X, v

    def test_minkowski_flat(self, entry):
        spec = entry("minkowski4").spec
        p = [0.0] * 4
        k = null_sectional_curvature(spec, p,
                                     TangentVector(p, [1.0, 1.0, 0.0, 0.0]),
                                     TangentVector(p, [0.0, 0.0, 1.0, 0.0]))
        assert k == 0.0

    def test_independent_of_spanning_vector(self, circle_lift_torus):
        """Replacing v by v + t X or by 2 v leaves the value unchanged."""
        spec, p, X, v = self._locus_frame(circle_lift_torus)
        base = null_sectional_curvature(spec, p, TangentVector(p, X), TangentVector(p, v))
        for w in (v + 0.7 * X, 2.0 * v, v - 1.3 * X):
            k = null_sectional_curvature(spec, p, TangentVector(p, X), TangentVector(p, w))
            assert k == pytest.approx(base, abs=1e-10)

    def test_sign_reversal_of_reference(self, circle_lift_torus):
        spec, p, X, v = self._locus_frame(circle_lift_torus)
        a = null_sectional_curvature(spec, p, TangentVector(p, X), TangentVector(p, v))
        b = null_sectional_curvature(spec, p, TangentVector(p, -X), TangentVector(p, v))
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_brute_force_contraction(self, circle_lift_torus):
        """Engine value vs an explicit loop contraction of the lowered
        tensor, and vs the closed form -c^2 f''(0) = 1.5 pi^2."""
        spec, p, X, v = self._locus_frame(circle_lift_torus)
        k = null_sectional_curvature(spec, p, TangentVector(p, X), TangentVector(p, v))
        R = riemann_at(spec, p)
        g = spec.metric_eval(p)
        num = 0.0
        for i in range(3):
            for j in range(3):
                for a in range(3):
                    for b in range(3):
                        num += R[i, j, a, b] * v[i] * X[j] * v[a] * X[b]
        brute = num / float(v @ g @ v)
        assert k == pytest.approx(brute, abs=1e-8)
        assert k == pytest.approx(1.5 * PI ** 2, rel=1e-12)

    def test_input_validation(self, circle_lift_torus):
        spec, p, X, v = self._locus_frame(circle_lift_torus)
        with pytest.raises(NullCurvatureInputError):
            null_sectional_curvature(spec, p, TangentVector(p, v), TangentVector(p, X))
        with pytest.raises(NullCurvatureInputError):
            null_sectional_curvature(spec, p, TangentVector(p, X),
                                     TangentVector(p, 2.0 * X))

    def test_null_limit_continuity(self, circle_lift_torus):
        """Timelike planes through the lifted field degenerating to the
        null plane: Q*K converges to the null numerator."""
        spec, p0, X0, v = self._locus_frame(circle_lift_torus)
        g0 = spec.metric_eval(p0)
        target = null_sectional_curvature(
            spec, p0, TangentVector(p0, X0), TangentVector(p0, v)) * float(v @ g0 @ v)
        errs = []
        for x in (0.1, 0.05, 0.025, 0.0125):
            p = np.array([x, 0.2, 1.0])
            X = spec.field_eval("Xbar", p)
            g = spec.metric_eval(p)
            guu = float(v @ g @ v)
            gXX = float(X @ g @ X)
            guX = float(v @ g @ X)
            q = guu * gXX - guX ** 2
            k = sectional_curvature(spec, TangentPlane(p, v, X))
            errs.append(abs(q * k - target))
        # the gap closes quadratically in the offset from the null locus
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] < errs[0] / 20


class TestHessianAndShapeOperator:
    def test_flat_quadratic(self, mink2):
        from lorentzgeo.expr import parse_expression
        e = parse_expression("x^2", frozenset({"t", "x"}))
        h = hessian_scalar_at(mink2.spec, e, [0.3, 0.1])
        assert np.allclose(h, np.diag([0.0, 2.0]))

    def test_torus_energy_hessian_at_minimum(self, torus):
        spec = torus.spec
        h = hessian_scalar_at(spec, field_energy_expr(spec, "X"), [0.5, 0.0])
        assert np.allclose(h, np.diag([PI ** 2, 0.0]), atol=1e-9)
        assert np.min(np.linalg.eigvalsh(h)) >= -1e-9

    def test_constant_energy_hessian_vanishes(self, hopf):
        spec = hopf.spec
        h = hessian_scalar_at(spec, field_energy_expr(spec, "X"), [PI / 5, 0.3, 2.0])
        assert np.max(np.abs(h)) < 1e-12

    def test_shape_operator_flat(self, entry):
        spec = entry("minkowski4").spec
        A = shape_operator_at(spec, "X", [0.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(A)) == 0.0

    def test_hopf_operator_is_pointwise_isometry_on_complement(self, hopf, rng):
        """g(A_X v, A_X v) = g(v,v) for v orthogonal to X."""
        spec = hopf.spec
        for p in spec.sample_points(10, rng):
            g = spec.metric_eval(p)
            X = spec.field_eval("X", p)
            A = shape_operator_at(spec, "X", p)
            w = rng.normal(size=3)
            v = w - (float(w @ g @ X) / float(X @ g @ X)) * X
            av = A @ v
            assert float(av @ g @ av) == pytest.approx(float(v @ g @ v), rel=1e-9)

    def test_torus_operator_applied_to_field_gives_gradient(self, torus, rng):
        """A_X(X) equals the metric gradient of the energy f = g(X,X)/2
        for a Killing field."""
        spec = torus.spec
        f = field_energy_expr(spec, "X")
        for p in spec.sample_points(10, rng):
            A = shape_operator_at(spec, "X", p)
            X = spec.field_eval("X", p)
            grad = gradient_vector(spec, f, p)
            assert np.allclose(A @ X, grad, atol=1e-12)

    def test_coordinate_hessian_walks_the_upper_triangle(self, entry, count_calls,
                                                         monkeypatch):
        """The coordinate Hessian is symmetric, so on the 4-D Schwarzschild
        chart it walks its 10 trees with i <= j, not all 16.  f = m/r - 1/2
        there, so the only nonzero entry is d_r d_r f = 2m/r^3."""
        spec = entry("schwarzschild_exterior").spec
        derivs = ScalarDerivs(spec, field_energy_expr(spec, "X"))
        # count the tree walks curvature starts, not the walker's recursion
        monkeypatch.setattr(curvature, "ex", types.SimpleNamespace(**vars(ex)))
        walks = count_calls(curvature.ex, "evaluate")
        p = np.array([1.0, 4.0, 1.2, 0.7])
        h = derivs.coordinate_hessian(p)
        assert len(walks) == 10
        expected = np.zeros((4, 4))
        expected[1, 1] = 2 * spec.params["m"] / 4.0 ** 3
        assert np.allclose(h, expected, rtol=1e-12, atol=1e-15)


class TestTensorProperties:
    NAMES = ("torus_family", "hopf_lorentz_s3", "schwarzschild_exterior",
             "torus3_null_variant", "conformal_counterexample")

    @pytest.mark.parametrize("name", NAMES)
    def test_symmetries_and_bianchi(self, entry, rng, name):
        spec = entry(name).spec
        for p in spec.sample_points(10, rng):
            res = symmetry_residuals(point_geometry(spec, p))
            assert max(res.values()) < 1e-8, (name, res)

    @pytest.mark.parametrize("name", NAMES)
    def test_metric_compatibility(self, entry, rng, name):
        spec = entry(name).spec
        for p in spec.sample_points(10, rng):
            assert metric_compatibility_residual(spec, p) < 1e-10


def _witness_at(point, kind, causal):
    record = ExtremumRecord(np.array(point), 0.0, kind, causal, ())
    return lambda M, x, cls: extremum_witness(M, x, record, classification=cls)


# one top-level pointwise operation each: (catalog entry, operation)
POINTWISE = {
    "hessian_identity": ("hopf_lorentz_s3", lambda M, x, cls:
                         hessian_identity_residual(M, x, [0.6, 0.7, 1.9])),
    "restricted_orthogonal": ("torus_family", lambda M, x, cls:
                              restricted_operator(M, x, [0.5, 0.0])),
    "restricted_quotient": ("circle_lift_torus", lambda M, x, cls:
                            restricted_operator(M, x, [0.0, 0.3, 1.0], mode="quotient")),
    "witness_torus_min": ("torus_family", _witness_at(
        [0.5, 0.0], ExtremumKind.MIN, CausalCharacter.TIMELIKE)),
    "witness_torus_max": ("torus_family", _witness_at(
        [0.0, 0.0], ExtremumKind.MAX, CausalCharacter.TIMELIKE)),
    "witness_lift_lightlike_max": ("circle_lift_torus", _witness_at(
        [0.0, 0.3, 1.0], ExtremumKind.MAX, CausalCharacter.LIGHTLIKE)),
    "sign_scan_one_point": ("torus_family", lambda M, x, cls:
                            plane_sign_scan(M, x, [[0.37, 0.2]])),
}


@pytest.mark.parametrize("case", sorted(POINTWISE))
def test_one_metric_jet_per_point(count_calls, case):
    """A pointwise operation evaluates the metric jet once, on a spec that
    has not seen the point before: one metric_derivs call and at most
    one metric_eval call."""
    name, operation = POINTWISE[case]
    e = build_example(name)
    cls = classify_field(e.spec, e.field_name)
    derivs = count_calls(ManifoldSpec, "metric_derivs")
    evals = count_calls(ManifoldSpec, "metric_eval")
    result = operation(e.spec, e.field_name, cls)
    if case.startswith("witness"):
        assert result.verdict.value == "PASS"
    assert len(derivs) == 1
    assert len(evals) <= 1


class TestGeometryMemo:
    """The spec memoizes the geometry of the last point asked for."""

    def test_same_point_and_periodic_image_build_no_jet(self, count_calls):
        M = build_example("torus_family").spec
        derivs = count_calls(ManifoldSpec, "metric_derivs")
        restricted_operator(M, "X", [0.5, 0.25])
        assert len(derivs) == 1
        restricted_operator(M, "X", [0.5, 0.25])
        assert len(derivs) == 1
        # wraps exactly onto (0.5, 0.25)
        restricted_operator(M, "X", [1.5, -0.75])
        assert len(derivs) == 1
        restricted_operator(M, "X", [0.0, 0.25])
        assert len(derivs) == 2

    def test_memoized_geometry_is_fresh_and_read_only(self):
        p = [0.6, 0.7, 1.9]
        M = build_example("hopf_lorentz_s3").spec
        first = point_geometry(M, p)
        hessian_identity_residual(M, "X", p)
        extremum_witness(M, "X", ExtremumRecord(np.array(p), 0.0, ExtremumKind.MAX,
                                                CausalCharacter.TIMELIKE, ()))
        geo = point_geometry(M, p)
        assert geo is first
        fresh = point_geometry(build_example("hopf_lorentz_s3").spec, p)
        for name in ("point", "metric", "inverse", "dmetric", "christoffel",
                     "riemann", "ricci", "scalar"):
            a, b = getattr(geo, name), getattr(fresh, name)
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
        for a, b in zip(geo.riem_frame, fresh.riem_frame):
            assert a.tobytes() == b.tobytes()
        for target in (geo.metric, geo.riemann, geo.point, geo.riem_frame[1]):
            with pytest.raises(ValueError):
                target[0] = 1.0
        assert geo.metric.tobytes() == fresh.metric.tobytes()

    def test_threads_racing_on_one_spec_read_the_right_geometry(self):
        """Workers alternating between points on one spec may recompute a
        geometry but must never get the geometry of another point."""
        M = build_example("torus_family").spec
        points = [[0.1, 0.2], [0.3, 0.4], [0.7, 0.9]]
        fresh = build_example("torus_family").spec
        want = [point_geometry(fresh, p).metric.tobytes() for p in points]
        wrong = []

        def work(k):
            for n in range(300):
                i = (n + k) % len(points)
                geo = point_geometry(M, points[i])
                if geo.point.tolist() != points[i] or geo.metric.tobytes() != want[i]:
                    wrong.append((k, n))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert wrong == []

    def test_energy_is_differentiated_once_per_spec(self, count_calls):
        M = build_example("hopf_lorentz_s3").spec
        built = count_calls(ScalarDerivs, "__init__")
        hessian_identity_residual(M, "X", [0.6, 0.7, 1.9])
        hessian_identity_residual(M, "X", [0.5, 1.1, 0.3])
        assert len(built) == 1

    def test_one_eigen_decomposition_per_point(self, count_calls):
        """The Riemannianized norm decomposes g once, with the geometry."""
        e = build_example("circle_lift_torus")
        eigh = count_calls(np.linalg, "eigh")
        op = restricted_operator(e.spec, e.field_name, [0.0, 0.3, 1.0], mode="quotient")
        assert op.mode == "quotient"
        assert len(eigh) == 1
