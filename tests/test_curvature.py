"""Connection and curvature against known closed forms.

Oracle values come from independent hand computations on the catalog
metrics: the round-sphere Christoffels/curvatures, the null-coordinate
torus family (all nonzero symbols are built from the profile derivative
alone), and the conformally flat chart with its explicit Gauss
curvature.  R and Ric are also checked against sympy's derivatives of
the chart texts, assembled by the second-kind route (d Gamma and the
raised tensor) that the engine does not take.
"""

import configparser
import gc
import math
import sys
import threading
import types
import weakref

import numpy as np
import pytest

from lorentzgeo import curvature
from lorentzgeo import expr as ex
from lorentzgeo import catalog
from lorentzgeo.catalog import build_example, list_examples
from lorentzgeo.curvature import (
    DegeneratePlaneError,
    NullCurvatureInputError,
    ScalarDerivs,
    causal_character,
    energy_derivs,
    null_sectional_curvature,
    plane_type,
    point_geometries,
    point_geometry,
    sectional_curvature,
    shape_operator,
    symmetry_residuals,
)
from lorentzgeo.manifold import (
    CausalCharacter,
    DegenerateMetricError,
    DomainError,
    ManifoldSpec,
    PlaneType,
    TangentPlane,
    field_energy_expr,
    load_spec,
    riem_gram,
    to_document,
)
from lorentzgeo.obstruction import (
    ExtremumKind,
    ExtremumRecord,
    conformal_bound_check,
    extremum_witness,
    plane_sign_scan,
)
from lorentzgeo.symmetry import (
    classify_field,
    hessian_identity_residual,
    perp_frame,
    restricted_operator,
)

PI = math.pi


def restricted_at(M, xname, p):
    """A_X restricted on the X-perp frame at p."""
    return restricted_operator(perp_frame(M, xname, p), M.field_derivs(xname, p))


def torus_profile(x):
    f = -1 + math.cos(2 * PI * x) / 4
    fp = -PI / 2 * math.sin(2 * PI * x)
    fpp = -PI ** 2 * math.cos(2 * PI * x)
    return f, fp, fpp


class TestChristoffel:
    def test_minkowski_vanishes(self, mink2):
        assert np.max(np.abs(point_geometry(mink2.spec, [0.0, 0.0]).christoffel)) == 0.0

    def test_round_sphere_closed_form(self, entry):
        """g = d(theta)^2 + sin^2(theta) d(phi)^2 has
        Gamma^th_phph = -sin cos and Gamma^ph_thph = cot."""
        s2 = entry("round_s2").spec
        th = PI / 3
        gam = point_geometry(s2, [th, 1.0]).christoffel
        assert gam[0, 1, 1] == pytest.approx(-math.sin(th) * math.cos(th), abs=1e-12)
        assert gam[0, 1, 1] == pytest.approx(-math.sqrt(3) / 4, abs=1e-12)
        assert gam[1, 0, 1] == pytest.approx(1 / math.tan(th), abs=1e-12)
        assert gam[1, 1, 0] == gam[1, 0, 1]

    def test_torus_symbols_from_profile_derivative_only(self, torus):
        """Nonzero symbols: G^x_xy = f', G^x_yy = 2 f f', G^y_yy = -f'."""
        spec = torus.spec
        for x in (0.1, 0.37, 0.8):
            f, fp, _ = torus_profile(x)
            gam = point_geometry(spec, [x, 0.0]).christoffel
            expect = np.zeros((2, 2, 2))
            expect[0, 0, 1] = expect[0, 1, 0] = fp
            expect[0, 1, 1] = 2 * f * fp
            expect[1, 1, 1] = -fp
            assert np.max(np.abs(gam - expect)) < 1e-12


class TestRiemann:
    def test_minkowski_vanishes(self, entry):
        assert np.max(np.abs(point_geometry(entry("minkowski4").spec,
                                            [0.0, 0.0, 0.0, 0.0]).riemann)) == 0.0

    def test_round_sphere_component(self, entry):
        """R_[th,ph,th,ph] = sin^2(theta) under the engine convention."""
        s2 = entry("round_s2").spec
        for th in (PI / 6, PI / 3, 2.0):
            R = point_geometry(s2, [th, 1.0]).riemann
            assert R[0, 1, 0, 1] == pytest.approx(math.sin(th) ** 2, rel=1e-12)

    def test_round_s3_constant_curvature_one(self, entry, rng):
        s3 = entry("round_s3").spec
        for p in s3.sample_points(10, rng):
            u, v = rng.normal(size=3), rng.normal(size=3)
            k = sectional_curvature(s3, TangentPlane(p, u, v))
            assert k == pytest.approx(1.0, abs=1e-10)


class TestRicci:
    def test_minkowski(self, entry):
        geo = point_geometry(entry("minkowski4").spec, [0.0, 0.0, 0.0, 0.0])
        assert np.max(np.abs(geo.ricci)) == 0.0 and geo.scalar == 0.0

    def test_schwarzschild_vacuum_point(self, entry):
        ric = point_geometry(entry("schwarzschild_exterior").spec,
                             [1.0, 4.0, PI / 2, 1.0]).ricci
        assert np.max(np.abs(ric)) < 1e-8

    def test_round_sphere_is_einstein(self, entry):
        s2 = entry("round_s2").spec
        p = [PI / 3, 1.0]
        geo = point_geometry(s2, p)
        assert np.allclose(geo.ricci, s2.metric_eval(p), atol=1e-12)
        assert geo.scalar == pytest.approx(2.0, abs=1e-12)


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

    @pytest.mark.parametrize("u,v,message", [
        # Q = 2e-12 lies inside the band: K would read the flat chart's 0
        ([1.0, 1.0 + 1e-12, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], "is degenerate at"),
        ([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], "zero spanning vector at"),
        ([1.0, 2.0, 0.0, 0.0], [2.0, 4.0, 0.0, 0.0], "linearly dependent at"),
    ], ids=["near_null", "zero", "dependent"])
    def test_every_unusable_pair_routed_to_error(self, entry, u, v, message):
        spec = entry("minkowski4").spec
        with pytest.raises(DegeneratePlaneError, match=message):
            sectional_curvature(spec, TangentPlane([0.0] * 4, u, v))

    @pytest.mark.parametrize("u,v,message", [
        ([math.nan, 0.0], [0.0, 1.0], r"^plane discriminant Q=nan .* is not finite at"),
        ([math.inf, 0.0], [0.0, 1.0], r"^plane discriminant Q=nan .* is not finite at"),
        ([1e200, 0.0], [0.0, 1e200], r"^plane discriminant Q=nan .* is not finite at"),
        ([0.0, 1.0], [-math.inf, 1.0], r"^plane discriminant Q=.* is not finite at"),
        ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], r"^plane vectors need 2 components, got"),
        ([1.0], [0.0, 1.0], r"^plane vectors need 2 components, got"),
    ], ids=["nan", "inf", "overflow", "inf_second", "too_long", "too_short"])
    def test_bad_plane_vectors_are_a_plain_value_error(self, torus, u, v, message):
        """Not a degenerate plane, which the CLI reports as a value: a
        plain ValueError naming the cause, from every plane reader."""
        pi = TangentPlane([0.1, 0.2], u, v)
        for read in (sectional_curvature, plane_type):
            with pytest.raises(ValueError, match=message) as info:
                read(torus.spec, pi)
            assert not isinstance(info.value, DegeneratePlaneError)


def old_riem_inner(frame, a, b):
    """The Riemannianized inner product of one pair, as it was computed
    before the Gram: the reference of the plane bands."""
    aw, V = frame
    return float(np.sum(aw * (V.T @ a) * (V.T @ b)))


@pytest.mark.parametrize("name", list_examples())
def test_plane_bands_match_three_inner_products(name):
    """At seeded points of every catalog chart, with seeded random planes,
    the plane type, Q and K equal bit for bit those of a reference that
    takes the bands from three riem_inner calls, and the one Gram of
    (u, v) agrees with those three to 1e-14 relative."""
    M = build_example(name).spec
    rng = np.random.default_rng([26, len(name)])
    for p in M.sample_points(6, rng):
        geo = point_geometry(M, p)
        g = geo.metric
        for _ in range(8):
            u, v = rng.normal(size=M.dim), rng.normal(size=M.dim)
            nu, nv, nuv = (old_riem_inner(geo.riem_frame, a, b) for a, b in ((u, u), (v, v), (u, v)))
            guu, gvv, guv = float(u @ g @ u), float(v @ g @ v), float(u @ g @ v)
            q = guu * gvv - guv * guv
            band = curvature.PLANE_EPS * nu * nv
            kind = (PlaneType.TIMELIKE if q < -band else
                    PlaneType.SPACELIKE if q > band else PlaneType.DEGENERATE)
            plane = TangentPlane(p, u, v)
            assert plane_type(M, plane) is kind
            assert curvature._spanning_pair(geo, u, v)[1].hex() == q.hex()
            if kind is PlaneType.DEGENERATE:
                with pytest.raises(DegeneratePlaneError):
                    sectional_curvature(M, plane)
            else:
                k = float(np.einsum("ijkl,i,j,k,l->", geo.riemann, u, v, u, v)) / q
                assert sectional_curvature(M, plane).hex() == k.hex()
            gram = riem_gram(geo.riem_frame, np.array((u, v)))
            ref = np.array([[nu, nuv], [nuv, nv]])
            assert np.max(np.abs(gram - ref)) <= 1e-14 * max(nu, nv)


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
        k = null_sectional_curvature(spec, p, [1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0])
        assert k == 0.0

    def test_independent_of_spanning_vector(self, circle_lift_torus):
        """Replacing v by v + t X or by 2 v leaves the value unchanged."""
        spec, p, X, v = self._locus_frame(circle_lift_torus)
        base = null_sectional_curvature(spec, p, X, v)
        for w in (v + 0.7 * X, 2.0 * v, v - 1.3 * X):
            k = null_sectional_curvature(spec, p, X, w)
            assert k == pytest.approx(base, abs=1e-10)

    def test_sign_reversal_of_reference(self, circle_lift_torus):
        spec, p, X, v = self._locus_frame(circle_lift_torus)
        a = null_sectional_curvature(spec, p, X, v)
        b = null_sectional_curvature(spec, p, -X, v)
        assert a == pytest.approx(b, abs=1e-12)

    def test_matches_brute_force_contraction(self, circle_lift_torus):
        """Engine value vs an explicit loop contraction of the lowered
        tensor, and vs the closed form -c^2 f''(0) = 1.5 pi^2."""
        spec, p, X, v = self._locus_frame(circle_lift_torus)
        k = null_sectional_curvature(spec, p, X, v)
        R = point_geometry(spec, p).riemann
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
            null_sectional_curvature(spec, p, v, X)
        with pytest.raises(NullCurvatureInputError):
            null_sectional_curvature(spec, p, X, 2.0 * X)

    def test_wrong_length_vectors_are_refused(self, circle_lift_torus):
        """A 2-vector on the 3-D lift, as either argument, is a plain
        ValueError naming the count, not a numpy shape error."""
        spec, p, X, v = self._locus_frame(circle_lift_torus)
        for x, w in ((X, [1.0, 0.0]), ([1.0, 1.0], v), ([1.0, 1.0], [0.0, 1.0])):
            with pytest.raises(ValueError, match="^vector needs 3 components, got"):
                null_sectional_curvature(spec, p, x, w)

    def test_null_limit_continuity(self, circle_lift_torus):
        """Timelike planes through the lifted field degenerating to the
        null plane: Q*K converges to the null numerator."""
        spec, p0, X0, v = self._locus_frame(circle_lift_torus)
        g0 = spec.metric_eval(p0)
        target = null_sectional_curvature(spec, p0, X0, v) * float(v @ g0 @ v)
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
        h = ScalarDerivs(mink2.spec, e).covariant_hessian([0.3, 0.1])
        assert np.allclose(h, np.diag([0.0, 2.0]))

    def test_torus_energy_hessian_at_minimum(self, torus):
        spec = torus.spec
        h = ScalarDerivs(spec, field_energy_expr(spec, "X")).covariant_hessian([0.5, 0.0])
        assert np.allclose(h, np.diag([PI ** 2, 0.0]), atol=1e-9)
        assert np.min(np.linalg.eigvalsh(h)) >= -1e-9

    def test_constant_energy_hessian_vanishes(self, hopf):
        spec = hopf.spec
        h = ScalarDerivs(spec, field_energy_expr(spec, "X")).covariant_hessian(
            [PI / 5, 0.3, 2.0])
        assert np.max(np.abs(h)) < 1e-12

    def test_shape_operator_flat(self, entry):
        spec = entry("minkowski4").spec
        p = [0.0, 0.0, 0.0, 0.0]
        A = shape_operator(point_geometry(spec, p), spec.field_eval("X", p),
                           spec.field_derivs("X", p))
        assert np.max(np.abs(A)) == 0.0

    def test_hopf_operator_is_pointwise_isometry_on_complement(self, hopf, rng):
        """g(A_X v, A_X v) = g(v,v) for v orthogonal to X."""
        spec = hopf.spec
        for p in spec.sample_points(10, rng):
            g = spec.metric_eval(p)
            X = spec.field_eval("X", p)
            A = shape_operator(point_geometry(spec, p), X, spec.field_derivs("X", p))
            w = rng.normal(size=3)
            v = w - (float(w @ g @ X) / float(X @ g @ X)) * X
            av = A @ v
            assert float(av @ g @ av) == pytest.approx(float(v @ g @ v), rel=1e-9)

    def test_torus_operator_applied_to_field_gives_gradient(self, torus, rng):
        """A_X(X) equals the metric gradient of the energy f = g(X,X)/2
        for a Killing field."""
        spec = torus.spec
        for p in spec.sample_points(10, rng):
            X = spec.field_eval("X", p)
            A = shape_operator(point_geometry(spec, p), X, spec.field_derivs("X", p))
            grad = point_geometry(spec, p).inverse @ energy_derivs(spec, "X").gradient(p)
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

    def test_covariant_hessian_binds_the_point_once(self, entry, count_calls):
        """The covariant Hessian at a point wraps it once (point_geometry's
        wrap) and reads the bindings the memoized geometry carries; given
        the geometry it neither wraps nor binds.  Both equal its parts bit
        for bit."""
        spec = entry("hopf_lorentz_s3").spec
        derivs = energy_derivs(spec, "X")
        p = [0.6, 7.0, -1.9]
        geo = point_geometry(spec, p)
        wraps = count_calls(ManifoldSpec, "wrap_point")
        binds = count_calls(ManifoldSpec, "bindings")
        h = derivs.covariant_hessian(p)
        assert (len(wraps), len(binds)) == (1, 0)
        assert derivs.covariant_hessian(geo).tobytes() == h.tobytes()
        assert (len(wraps), len(binds)) == (1, 0)
        parts = derivs.coordinate_hessian(p) - np.einsum(
            "kij,k->ij", geo.christoffel, derivs.gradient(p))
        assert h.tobytes() == (0.5 * (parts + parts.T)).tobytes()


def _metric_compatibility_residual(geo):
    """max |nabla_k g_ij| / max |g| from the engine's Gamma: zero for the
    Levi-Civita connection."""
    g, dg, gamma = geo.metric, geo.dmetric, geo.christoffel
    # nabla_k g_ij = d_k g_ij - Gamma^l_ki g_lj - Gamma^l_kj g_il
    cov = dg - np.einsum("lki,lj->kij", gamma, g) - np.einsum("lkj,il->kij", gamma, g)
    return float(np.max(np.abs(cov))) / float(np.max(np.abs(g)))


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
            assert _metric_compatibility_residual(point_geometry(spec, p)) < 1e-10


def _sympy_jet(spec, p):
    """(g, dg, ddg) at p from sympy's derivatives of the chart's entry
    texts, laid out as ManifoldSpec.metric_derivs lays them out."""
    sp = pytest.importorskip("sympy")
    doc = configparser.ConfigParser(interpolation=None)
    doc.optionxform = str
    doc.read_string(to_document(spec))
    names = spec.coord_names()
    syms = sp.symbols(names)
    local = dict(zip(names, syms))
    if doc.has_section("params"):
        local.update({k: sp.Float(v, 17) for k, v in doc["params"].items()})
    at = {s: sp.Float(float(c), 17) for s, c in zip(syms, p)}
    m = spec.dim
    g, dg, ddg = np.zeros((m, m)), np.zeros((m, m, m)), np.zeros((m, m, m, m))
    for key, text in doc["metric"].items():
        i, j = (int(n) for n in key.split(".")[1:])
        e = sp.sympify(text.strip('"').replace("^", "**"), locals=local)
        for a, b in {(i, j), (j, i)}:
            g[a, b] = float(e.xreplace(at))
            for k in range(m):
                dg[k, a, b] = float(sp.diff(e, syms[k]).xreplace(at))
                for l in range(m):
                    ddg[k, l, a, b] = float(sp.diff(e, syms[k], syms[l]).xreplace(at))
    return g, dg, ddg


def _second_kind_curvature(g, dg, ddg):
    """(R, Ric) through Gamma^a_ij, its derivative and the raised tensor
    up[a,i,j,k] = (R(e_i,e_j) e_k)^a, lowered with g at the end."""
    ginv = np.linalg.inv(g)
    # term[i,j,l] = d_i g_jl + d_j g_il - d_l g_ij, dterm[b] = d_b term
    term = dg + dg.transpose(1, 0, 2) - dg.transpose(1, 2, 0)
    dterm = ddg + ddg.transpose(0, 2, 1, 3) - ddg.transpose(0, 2, 3, 1)
    gamma = 0.5 * np.einsum("al,ijl->aij", ginv, term)
    dginv = -np.einsum("ac,bcd,dl->bal", ginv, dg, ginv)               # d_b g^al
    dgamma = 0.5 * (np.einsum("bal,ijl->baij", dginv, term)
                    + np.einsum("al,bijl->baij", ginv, dterm))         # d_b Gamma^a_ij
    up = (np.einsum("iajk->aijk", dgamma) - np.einsum("jaik->aijk", dgamma)
          + np.einsum("aim,mjk->aijk", gamma, gamma)
          - np.einsum("ajm,mik->aijk", gamma, gamma))
    return np.einsum("km,mijl->ijkl", g, up), np.einsum("mmjk->jk", up)


class TestSympyOracle:
    """The engine's first-kind assembly against the second-kind route on
    sympy's jet: no code path is shared beyond the chart document."""

    @pytest.mark.parametrize("name", ("hopf_lorentz_s3", "torus3_null_variant",
                                      "schwarzschild_exterior"))
    def test_riemann_and_ricci_match(self, entry, name):
        spec = entry(name).spec
        for p in spec.sample_points(3, np.random.default_rng(12)):
            geo = point_geometry(spec, p)
            R, ric = _second_kind_curvature(*_sympy_jet(spec, geo.point))
            scale = float(np.max(np.abs(R)))
            assert scale > 0.0
            assert np.max(np.abs(geo.riemann - R)) <= 1e-10 * scale, (name, p)
            ric_scale = scale * float(np.max(np.abs(geo.inverse)))
            assert np.max(np.abs(geo.ricci - ric)) <= 1e-10 * ric_scale, (name, p)


def _witness_at(point, kind, causal):
    record = ExtremumRecord(np.array(point), 0.0, kind, causal, ())
    return lambda M, x, cls: extremum_witness(M, x, record, classification=cls)


# one top-level pointwise operation each: (catalog entry, operation)
POINTWISE = {
    "hessian_identity": ("hopf_lorentz_s3", lambda M, x, cls:
                         hessian_identity_residual(M, x, [0.6, 0.7, 1.9])),
    "restricted_orthogonal": ("torus_family", lambda M, x, cls:
                              restricted_at(M, x, [0.5, 0.0])),
    "restricted_quotient": ("circle_lift_torus", lambda M, x, cls:
                            restricted_at(M, x, [0.0, 0.3, 1.0])),
    "witness_torus_min": ("torus_family", _witness_at(
        [0.5, 0.0], ExtremumKind.MIN, CausalCharacter.TIMELIKE)),
    "witness_torus_max": ("torus_family", _witness_at(
        [0.0, 0.0], ExtremumKind.MAX, CausalCharacter.TIMELIKE)),
    "witness_lift_lightlike_max": ("circle_lift_torus", _witness_at(
        [0.0, 0.3, 1.0], ExtremumKind.MAX, CausalCharacter.LIGHTLIKE)),
    "sign_scan_one_point": ("torus_family", lambda M, x, cls:
                            plane_sign_scan(M, x, [[0.37, 0.2]])),
    "conformal_bound": ("conformal_counterexample", lambda M, x, cls: conformal_bound_check(
        M, x, ExtremumRecord(np.zeros(2), 0.0, ExtremumKind.MIN, CausalCharacter.TIMELIKE, ()),
        classification=cls)),
}


@pytest.mark.parametrize("case", sorted(POINTWISE))
def test_one_metric_jet_per_point(count_calls, case):
    """A pointwise operation evaluates the metric jet once, on a spec that
    has not seen the point before: one metric_derivs call and at most
    one metric_eval call.  It evaluates X once, for its X-perp frame or
    for the Hessian identity, and passes it on; a sign scan reads only
    the frame, so it evaluates no dX.  The conformal check reads X and dX
    once each, for sigma, X(sigma) and the frame alike, and a repeated
    check builds no derivative tree: X(sigma) comes from the spec's
    cached derivatives of f."""
    name, operation = POINTWISE[case]
    e = build_example(name)
    cls = classify_field(e.spec, e.field_name)
    derivs = count_calls(ManifoldSpec, "metric_derivs")
    evals = count_calls(ManifoldSpec, "metric_eval")
    fields = count_calls(ManifoldSpec, "field_eval")
    field_derivs = count_calls(ManifoldSpec, "field_derivs")
    trees = count_calls(ex, "differentiate")
    result = operation(e.spec, e.field_name, cls)
    if case.startswith("witness"):
        assert result.verdict.value == "PASS"
    assert len(derivs) == 1
    assert len(evals) <= 1
    assert len(fields) <= 1
    if case == "sign_scan_one_point":
        assert not field_derivs
    if case == "conformal_bound":
        del fields[:], field_derivs[:], trees[:]
        assert operation(e.spec, e.field_name, cls).x_sigma == result.x_sigma == -8.0
        assert (len(fields), len(field_derivs), len(trees)) == (1, 1, 0)


@pytest.mark.parametrize("name", list_examples())
def test_queries_at_a_point_and_at_its_geometry_agree_bit_for_bit(entry, rng, name):
    """Every per-point query gives the same bits for a point, which it
    wraps and binds, and for the point's geometry, whose bindings it
    reads; the points are periodic images of interior samples."""
    M = entry(name).spec
    shift = np.array([c.period if c.periodic else 0.0 for c in M.coords])
    for p in M.sample_points(4, rng) + shift:
        geo = point_geometry(M, p)
        queries = [lambda at, e=e: M.evaluate(e, at) for row in M.metric for e in row]
        for x in M.fields:
            fd = energy_derivs(M, x)
            queries += [lambda at, x=x: M.field_eval(x, at),
                        lambda at, x=x: M.field_derivs(x, at),
                        fd.value, fd.gradient, fd.coordinate_hessian, fd.covariant_hessian]
            X = M.field_eval(x, geo)
            assert causal_character(M, p, X) is causal_character(M, geo, X)
        for query in queries:
            assert np.asarray(query(p)).tobytes() == np.asarray(query(geo)).tobytes()


GEOMETRY_FIELDS = ("point", "metric", "inverse", "dmetric", "christoffel",
                   "riemann", "ricci", "scalar")


def geometry_bytes(geo):
    """Every field of a PointGeometry, riem_frame included, as bytes."""
    return [np.asarray(getattr(geo, f)).tobytes() for f in GEOMETRY_FIELDS] + \
        [a.tobytes() for a in geo.riem_frame]


# degenerate on x = 0, a pole on y = 0.5
DEGENERATE_AND_POLE = """
[manifold]
dim = 2
coords = x, y
range.x = -1, 1
range.y = -1, 1
signature = riemannian

[metric]
g.0.0 = "x"
g.1.1 = "1/(y - 0.5)"
"""


class TestGeometryMemo:
    """The spec memoizes the geometries of the last batch of points asked
    for; a single point is a batch of one."""

    def test_same_point_and_periodic_image_build_no_jet(self, count_calls):
        M = build_example("torus_family").spec
        derivs = count_calls(ManifoldSpec, "metric_derivs")
        restricted_at(M, "X", [0.5, 0.25])
        assert len(derivs) == 1
        restricted_at(M, "X", [0.5, 0.25])
        assert len(derivs) == 1
        # wraps exactly onto (0.5, 0.25)
        restricted_at(M, "X", [1.5, -0.75])
        assert len(derivs) == 1
        restricted_at(M, "X", [0.0, 0.25])
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

    def test_geometry_carries_its_points_bindings_read_only(self, entry):
        M = entry("schwarzschild_exterior").spec
        pts = [[0.5, 4.0, 1.2, 7.0], [0.1, 5.0, 2.0, -1.0]]    # phi is periodic
        geos = point_geometries(M, pts) + [point_geometry(M, [0.2, 6.0, 1.0, 9.0])]
        for geo in geos:
            assert dict(geo.bindings) == M.bindings(geo.point)
            with pytest.raises(TypeError):
                geo.bindings["r"] = 1.0
            with pytest.raises(TypeError):
                del geo.bindings["r"]

    def test_threads_racing_on_one_spec_read_the_right_geometry(self):
        """Workers alternating between points, and between batches and
        single points, on one spec may recompute a geometry but must never
        get the geometry of another point."""
        M = build_example("torus_family").spec
        points = [[0.1, 0.2], [0.3, 0.4], [0.7, 0.9]]
        batches = [points, points[::-1], points[1:], [points[2], points[0]]]
        fresh = build_example("torus_family").spec
        want = [point_geometry(fresh, p).metric.tobytes() for p in points]
        wrong = []

        def check(k, n, p, geo):
            i = points.index(p)
            if geo.point.tolist() != p or geo.metric.tobytes() != want[i]:
                wrong.append((k, n))

        def work(k):
            for n in range(300):
                if (n + k) % 2:
                    batch = batches[(n + k) % len(batches)]
                    for p, geo in zip(batch, point_geometries(M, batch)):
                        check(k, n, p, geo)
                else:
                    p = points[(n + k) % len(points)]
                    check(k, n, p, point_geometry(M, p))

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

    @pytest.mark.parametrize("name", list_examples())
    def test_batch_equals_a_loop_of_single_points(self, name):
        """Every field of every geometry of a batch, riem_frame included,
        is byte for byte what point_geometry gives on a fresh spec."""
        M = build_example(name).spec
        points = M.sample_points(20, np.random.default_rng(17))
        batch = point_geometries(M, points)
        assert len(batch) == len(points)
        for p, geo in zip(points, batch):
            assert geometry_bytes(geo) == geometry_bytes(point_geometry(build_example(name).spec, p))

    def test_sampled_row_builds_each_point_once(self, count_calls):
        e = build_example("hopf_lorentz_s3")
        derivs = count_calls(ManifoldSpec, "metric_derivs")
        batches = count_calls(catalog, "point_geometries")
        catalog._max_hessian_identity_residual(e)
        assert len(batches) == 1
        assert len(derivs) == 20

    def test_batch_points_and_their_images_are_read_from_the_memo(self, count_calls):
        M = build_example("torus_family").spec
        points = np.array([[0.125, 0.25], [0.5, 0.75], [0.875, 0.0625]])
        first = point_geometries(M, points)
        derivs = count_calls(ManifoldSpec, "metric_derivs")
        for p, geo in zip(points, first):
            assert point_geometry(M, p) is geo
            assert point_geometry(M, p + [2.0, -1.0]) is geo
        # a batch of held rows, images and repeats builds nothing either
        again = point_geometries(M, np.vstack([points[::-1], points + [-1.0, 3.0]]))
        assert again == first[::-1] + first
        assert len(derivs) == 0

    def test_batch_reuses_held_rows_and_repeats(self, count_calls):
        M = build_example("torus_family").spec
        held = point_geometry(M, [0.25, 0.5])
        derivs = count_calls(ManifoldSpec, "metric_derivs")
        batch = point_geometries(M, [[0.25, 0.5], [0.375, 0.5], [1.375, 0.5]])
        assert batch[0] is held
        assert batch[1] is batch[2]
        assert len(derivs) == 1

    def test_sign_scan_at_a_held_point_builds_nothing(self, count_calls):
        M = build_example("hopf_lorentz_s3").spec
        p = [0.6, 0.7, 1.9]
        point_geometry(M, p)
        derivs = count_calls(ManifoldSpec, "metric_derivs")
        plane_sign_scan(M, "X", [p])
        assert len(derivs) == 0

    def test_batch_raises_what_a_loop_raises_first(self):
        M = load_spec(DEGENERATE_AND_POLE, validate=False)
        degenerate_first = [[0.5, 0.1], [0.0, 0.2], [0.3, 0.5]]
        pole_first = [[0.5, 0.1], [0.3, 0.5], [0.0, 0.2]]
        with pytest.raises(DegenerateMetricError, match=r"at \[0\.0, 0\.2\]"):
            point_geometries(M, degenerate_first)
        with pytest.raises(ex.EvalError):
            point_geometries(M, pole_first)
        for rows, error in ((degenerate_first, DegenerateMetricError),
                            (pole_first, ex.EvalError)):
            with pytest.raises(error):
                for p in rows:
                    point_geometry(M, p)
        # every row is wrapped before any jet is evaluated
        with pytest.raises(DomainError):
            point_geometries(M, degenerate_first + [[2.0, 0.0]])

    def test_energy_is_differentiated_once_per_spec(self, count_calls):
        M = build_example("hopf_lorentz_s3").spec
        built = count_calls(ScalarDerivs, "__init__")
        hessian_identity_residual(M, "X", [0.6, 0.7, 1.9])
        hessian_identity_residual(M, "X", [0.5, 1.1, 0.3])
        assert len(built) == 1

    def test_a_spec_nobody_holds_is_freed_at_once(self):
        """The energy derivatives the spec keeps do not keep the spec (and
        its memo of the last batch) alive until the cyclic collector runs."""
        M = build_example("hopf_lorentz_s3").spec
        points = M.sample_points(20, np.random.default_rng(3))
        point_geometries(M, points)
        for p in points:
            hessian_identity_residual(M, "X", p)
        ref = weakref.ref(M)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del M
            assert ref() is None
        finally:
            if enabled:
                gc.enable()

    def test_one_eigen_decomposition_per_point(self, count_calls):
        """The Riemannianized norm decomposes g once, with the geometry."""
        e = build_example("circle_lift_torus")
        eigh = count_calls(np.linalg, "eigh")
        p = [0.0, 0.3, 1.0]
        frame = perp_frame(e.spec, e.field_name, p)
        restricted_operator(frame, e.spec.field_derivs(e.field_name, p))
        assert frame.causal is CausalCharacter.LIGHTLIKE
        assert len(eigh) == 1
