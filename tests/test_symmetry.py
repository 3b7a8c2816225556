"""Lie derivatives, field classification, restricted operators, and the
Hessian identity cross-check."""

import dataclasses
import math
import re

import numpy as np
import pytest

from lorentzgeo import expr as ex
from lorentzgeo import symmetry
from lorentzgeo.catalog import list_examples
from lorentzgeo.curvature import energy_derivs, point_geometry, shape_operator
from lorentzgeo.manifold import CausalCharacter, ManifoldSpec, load_spec
from lorentzgeo.symmetry import (
    FieldClass,
    FieldTag,
    KernelExtractionError,
    SubspaceError,
    _conformal_factor,
    classify_field,
    hessian_identity_residual,
    hessian_identity_sides,
    kernel_direction,
    lie_derivative,
    lie_derivative_metric_exprs,
    perp_frame,
    restricted_operator,
    skew_adjoint_residual,
)

PI = math.pi


def with_extra_field(spec, name, components):
    """Copy of a spec with one more vector field."""
    return ManifoldSpec(name=spec.name, coords=spec.coords,
                        signature=spec.signature, metric=spec.metric,
                        params=spec.params,
                        fields={**spec.fields, name: components},
                        scalars=spec.scalars)


def lie_at(spec, xname, p):
    """L_X g at p, from X and dX evaluated there."""
    return lie_derivative(point_geometry(spec, p), spec.field_eval(xname, p),
                          spec.field_derivs(xname, p))


def restricted_at(spec, xname, p):
    """A_X restricted on the X-perp frame at p."""
    return restricted_operator(perp_frame(spec, xname, p), spec.field_derivs(xname, p))


def conformal_factor_at(spec, xname, p):
    """(sigma, X(sigma)) at p."""
    geo = point_geometry(spec, p)
    return _conformal_factor(energy_derivs(spec, xname), geo, spec.field_eval(xname, p),
                             spec.field_derivs(xname, p))


class TestLieDerivative:
    def test_metric_independent_direction_gives_zero(self, torus, rng):
        spec = torus.spec
        for p in spec.sample_points(10, rng):
            L = lie_at(spec, "X", p)
            assert np.max(np.abs(L)) < 1e-14

    def test_euler_field_is_homothetic_with_factor_two(self, mink2, rng):
        spec = mink2.spec
        for p in spec.sample_points(10, rng):
            L = lie_at(spec, "EULER", p)
            assert np.allclose(L, 2 * spec.metric_eval(p), atol=1e-14)

    def test_conformal_chart_factor(self, entry, rng):
        """L_X g = sigma g with sigma = -8 y on the conformally flat chart."""
        spec = entry("conformal_counterexample").spec
        for p in spec.sample_points(10, rng, collar=0.5):
            L = lie_at(spec, "X", p)
            sigma = -8.0 * p[1]
            assert np.allclose(L, sigma * spec.metric_eval(p), atol=1e-12)


class TestClassify:
    def test_torus_killing(self, torus):
        fc = classify_field(torus.spec, "X")
        assert fc.tag is FieldTag.KILLING
        assert fc.residual < 1e-10

    def test_euler_homothetic(self, mink2):
        fc = classify_field(mink2.spec, "EULER")
        assert fc.tag is FieldTag.HOMOTHETIC
        assert fc.lam == pytest.approx(2.0, abs=1e-10)

    def test_conformal_with_vanishing_factor_at_origin(self, entry):
        spec = entry("conformal_counterexample").spec
        fc = classify_field(spec, "X")
        assert fc.tag is FieldTag.CONFORMAL
        assert conformal_factor_at(spec, "X", [0.0, 0.0])[0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, torus, mink2, tol):
        # the exactly Killing torus field is refused before its early return
        for spec, field in ((torus.spec, "X"), (mink2.spec, "EULER")):
            with pytest.raises(ValueError, match="^tol must be finite and non-negative"):
                classify_field(spec, field, tol=tol)

    def test_generic_field_unclassified(self, mink2):
        spec = with_extra_field(
            mink2.spec, "W",
            [ex.parse_expression("t^2", frozenset({"t", "x"})), ex.ZERO])
        assert classify_field(spec, "W").tag is FieldTag.NONE


KILLING_ENTRIES = ("minkowski2", "minkowski4", "torus_family",
                   "torus3_null_variant", "hopf_lorentz_s3",
                   "schwarzschild_exterior", "static_product",
                   "circle_lift_torus")


@pytest.mark.parametrize("name", KILLING_ENTRIES)
def test_designated_fields_classify_killing_tightly(entry, name):
    fc = classify_field(entry(name).spec, entry(name).field_name)
    assert fc.tag is FieldTag.KILLING
    assert fc.residual < 1e-10


@pytest.mark.parametrize("name", KILLING_ENTRIES)
def test_exact_killing_fields_are_classified_without_sampling(entry, count_calls, name):
    """Every L_X g tree of these fields folds to zero at build time, so
    the verdict is exact and nothing is evaluated."""
    spec, xname = entry(name).spec, entry(name).field_name
    calls = [count_calls(ManifoldSpec, "metric_derivs"),
             count_calls(ManifoldSpec, "evaluate_points"),
             count_calls(ex, "evaluate")]
    assert classify_field(spec, xname) == FieldClass(FieldTag.KILLING, 0.0, 0.0, 0)
    assert [len(c) for c in calls] == [0, 0, 0]


# (entry, field) -> (tag, lam) for every field of the catalog
KILLING = (FieldTag.KILLING, 0.0)
CATALOG_CLASSES = {
    ("circle_lift_torus", "X"): KILLING,
    ("circle_lift_torus", "Xbar"): KILLING,
    ("conformal_counterexample", "X"): (FieldTag.CONFORMAL, None),
    ("hopf_lorentz_s3", "X"): KILLING,
    ("hopf_lorentz_s3", "U"): (FieldTag.NONE, None),
    ("hopf_lorentz_s3", "IU"): (FieldTag.NONE, None),
    ("minkowski2", "X"): KILLING,
    ("minkowski2", "EULER"): (FieldTag.HOMOTHETIC, 2.0),
    ("minkowski4", "X"): KILLING,
    ("round_s3", "X"): KILLING,
    ("schwarzschild_exterior", "X"): KILLING,
    ("static_product", "X"): KILLING,
    ("torus3_null_variant", "X"): KILLING,
    ("torus_family", "X"): KILLING,
    ("torus_family_mixed", "X"): KILLING,
}


def test_classes_table_covers_every_catalog_field(entry):
    fields = {(name, x) for name in list_examples() for x in entry(name).spec.fields}
    assert fields == set(CATALOG_CLASSES)


@pytest.mark.parametrize("name,xname", sorted(CATALOG_CLASSES))
def test_catalog_field_classes(entry, name, xname):
    fc = classify_field(entry(name).spec, xname)
    assert (fc.tag, fc.lam) == CATALOG_CLASSES[name, xname]


def _pointwise_classify_residuals(spec, xname):
    """The fit of classify_field as a loop over its 24 default samples,
    with L_X g from the numeric formula: (r_killing, lam, r_homothetic,
    r_conformal)."""
    points = spec.sample_points(24, np.random.default_rng(0))
    ls = [lie_at(spec, xname, p) for p in points]
    gs = [spec.metric_eval(p) for p in points]
    scales = [np.max(np.abs(g)) for g in gs]
    lam = sum(np.sum(L * g) for L, g in zip(ls, gs)) / sum(np.sum(g * g) for g in gs)
    sigmas = [np.trace(np.linalg.inv(g) @ L) / spec.dim for L, g in zip(ls, gs)]
    return (max(np.max(np.abs(L)) / s for L, s in zip(ls, scales)), lam,
            max(np.max(np.abs(L - lam * g)) / s for L, g, s in zip(ls, gs, scales)),
            max(np.max(np.abs(L - sig * g)) / s
                for L, g, sig, s in zip(ls, gs, sigmas, scales)))


@pytest.mark.parametrize("name,xname", [
    ("conformal_counterexample", "X"), ("hopf_lorentz_s3", "U"),
    ("hopf_lorentz_s3", "IU"), ("minkowski2", "EULER")])
def test_sampled_fit_matches_the_pointwise_loop(entry, name, xname):
    spec = entry(name).spec
    fc = classify_field(spec, xname)
    r_k, lam, r_h, r_c = _pointwise_classify_residuals(spec, xname)
    expected = {FieldTag.HOMOTHETIC: r_h, FieldTag.CONFORMAL: r_c,
                FieldTag.NONE: min(r_k, r_h, r_c)}[fc.tag]
    assert fc.sample_count == 24
    assert fc.residual == pytest.approx(expected, rel=1e-12, abs=1e-13)
    if fc.tag is FieldTag.HOMOTHETIC:
        assert fc.lam == pytest.approx(lam, rel=1e-12)


def _round_s2_rotation(entry, phi_component):
    spec = entry("round_s2").spec
    names = spec.coord_names()
    return with_extra_field(spec, "R", [ex.parse_expression("sin(phi)", names),
                                        ex.parse_expression(phi_component, names)])


def test_killing_field_with_nonzero_trees_is_sampled(entry):
    """The rotation sin(phi) d_theta + cot(theta) cos(phi) d_phi of the
    round sphere is Killing, but three of its four L_X g trees do not
    fold to zero: the verdict comes from the 24 samples."""
    spec = _round_s2_rotation(entry, "cos(theta)/sin(theta)*cos(phi)")
    trees = lie_derivative_metric_exprs(spec, "R")
    assert sum(t != ex.ZERO for row in trees for t in row) == 3
    fc = classify_field(spec, "R")
    assert fc.tag is FieldTag.KILLING
    assert fc.sample_count == 24
    assert fc.residual < 1e-10


@pytest.mark.parametrize("sampled", [True, False])
def test_lie_derivative_trees_are_built_once_per_spec_and_field(entry, count_calls, sampled):
    """classify_field keeps the L_X g trees on the spec: a second call on
    the same field builds no tree and gives an equal class, whether the
    trees are sampled or fold to zero."""
    if sampled:
        spec, xname = _round_s2_rotation(entry, "cos(theta)/sin(theta)*cos(phi)"), "R"
    else:
        base = entry("schwarzschild_exterior").spec
        spec, xname = with_extra_field(base, "K", base.fields["X"]), "K"
    built = count_calls(symmetry, "lie_derivative_metric_exprs")
    products = count_calls(ex, "mul")
    first = classify_field(spec, xname)
    assert len(built) == 1 and products
    products.clear()
    assert classify_field(spec, xname) == first
    assert len(built) == 1 and products == []
    assert first.sample_count == (24 if sampled else 0)


def test_perturbed_rotation_is_not_killing(entry):
    spec = _round_s2_rotation(entry, "cos(theta)/sin(theta)*cos(phi) + 0.001*sin(theta)")
    fc = classify_field(spec, "R")
    assert fc.tag is FieldTag.NONE
    assert fc.sample_count == 24
    assert fc.residual == pytest.approx(3.8e-4, rel=0.05)


class TestSkewResidual:
    @pytest.mark.parametrize("name", KILLING_ENTRIES)
    def test_killing_fields_are_skew(self, entry, rng, name):
        spec = entry(name).spec
        worst = max(skew_adjoint_residual(spec, entry(name).field_name, p)
                    for p in spec.sample_points(20, rng))
        assert worst < 1e-9

    def test_homothetic_field_is_not_skew(self, mink2):
        """The scaling field has A_X = -identity, so the defect is twice
        the metric scale."""
        r = skew_adjoint_residual(mink2.spec, "EULER", [0.3, 0.2])
        assert r == pytest.approx(2.0, rel=1e-12)


class TestRestrictedOperator:
    def test_torus_minimum_gives_trivial_operator(self, torus):
        op = restricted_at(torus.spec, "X", [0.5, 0.0])
        assert op.shape == (1, 1)
        assert abs(op[0, 0]) < 1e-12

    def test_basis_is_g_orthonormal_and_orthogonal_to_field(self, hopf, rng):
        spec = hopf.spec
        for p in spec.sample_points(5, rng):
            basis = perp_frame(spec, "X", p).basis
            g = spec.metric_eval(p)
            X = spec.field_eval("X", p)
            assert np.allclose(basis @ g @ basis.T, np.eye(2), atol=1e-10)
            assert np.max(np.abs(basis @ g @ X)) < 1e-10

    def test_hopf_operator_is_unit_rotation(self, hopf, rng):
        """A_X acts as a complex rotation on the complement: skew 2x2
        with unit off-diagonal entries."""
        spec = hopf.spec
        for p in spec.sample_points(5, rng):
            m = restricted_at(spec, "X", p)
            assert m.shape == (2, 2)
            assert abs(m[0, 0]) < 1e-9 and abs(m[1, 1]) < 1e-9
            assert abs(abs(m[0, 1]) - 1.0) < 1e-9
            assert abs(m[0, 1] + m[1, 0]) < 1e-9

    def test_orthogonal_mode_requires_timelike(self, entry, torus):
        """The causal character at p picks the construction, and the
        orthogonal one is taken for a timelike X only: a spacelike X
        (torus_family_mixed at x = 0) and a zero X are refused, with the
        character named, by the basis builder and the operator alike."""
        mixed = entry("torus_family_mixed").spec
        assert perp_frame(mixed, "X", [0.5, 0.0]).causal is CausalCharacter.TIMELIKE
        assert restricted_at(mixed, "X", [0.5, 0.0]).shape == (1, 1)
        zero = with_extra_field(torus.spec, "Z", [ex.ZERO, ex.ZERO])
        for spec, x, p, cc in ((mixed, "X", [0.0, 0.0], "spacelike"),
                               (zero, "Z", [0.5, 0.0], "zero")):
            for build in (restricted_at, perp_frame):
                with pytest.raises(SubspaceError, match=f"field '{x}' is {cc} at"):
                    build(spec, x, p)

    def test_leak_of_non_homothetic_field_is_refused(self, torus):
        """Y = (1 + sin(2 pi x)/2) d/dy is neither Killing nor homothetic,
        and x = 0.3 is not a critical point of its energy: A_Y does not
        preserve Y-perp there, and the residual is of order one."""
        speed = ex.parse_expression("1 + sin(2*pi*x)/2", torus.spec.coord_names())
        spec = with_extra_field(torus.spec, "Y", [ex.ZERO, speed])
        assert classify_field(spec, "Y").tag is FieldTag.NONE
        with pytest.raises(SubspaceError, match="does not preserve") as err:
            restricted_at(spec, "Y", [0.3, 0.2])
        assert float(re.search(r"residual (\S+)\)", str(err.value)).group(1)) > 1e-3

    def test_leak_is_df_and_names_the_point(self, torus):
        """For any field g(X, A_X b) = -df(b): the Killing X of
        torus_family leaks out of X-perp at x = 0.25, which is not a
        critical point of f, and the refusal names the point."""
        spec, p = torus.spec, np.array([0.25, 0.0])
        frame = perp_frame(spec, "X", p)
        X, dX = frame.field, spec.field_derivs("X", p)
        leak = X @ frame.geo.metric @ shape_operator(frame.geo, X, dX) @ frame.basis.T
        df = energy_derivs(spec, "X").gradient(p)
        assert np.max(np.abs(leak + frame.basis @ df)) <= 1e-14 * np.max(np.abs(df))
        with pytest.raises(SubspaceError, match=re.escape(
                "A_X does not preserve X-perp at [0.25, 0.0] (residual ") + r"\S+\): "
                + re.escape("the point is not a critical point of f = g(X,X)/2")):
            restricted_operator(frame, dX)

    def test_quotient_at_null_locus(self, circle_lift_torus):
        """1x1 quotient operator with value 0; the field itself is a
        kernel eigenvector of A_X (Killing, so eigenvalue 0)."""
        spec = circle_lift_torus.spec
        p = np.array([0.0, 0.2, 1.0])
        op = restricted_at(spec, "Xbar", p)
        assert op.shape == (1, 1)
        assert abs(op[0, 0]) < 1e-10
        X = spec.field_eval("Xbar", p)
        AX = shape_operator(point_geometry(spec, p), X, spec.field_derivs("Xbar", p)) @ X
        lam = -float(AX @ X) / float(X @ X)
        assert lam == pytest.approx(0.0, abs=1e-10)
        assert np.linalg.norm(AX + lam * X) <= 1e-9 * np.linalg.norm(X)

    def test_quotient_mode_requires_lightlike(self, circle_lift_torus, entry):
        """On the lifted torus Xbar is lightlike on x = 0, where the
        operator acts on the 1-dimensional quotient, and timelike at
        x = 0.5, where it acts on the 2-dimensional X-perp.  A lightlike
        X on a 2-D chart has a 0-dimensional quotient and an empty
        operator."""
        spec = circle_lift_torus.spec
        for x, causal, rows in ((0.0, CausalCharacter.LIGHTLIKE, 1),
                                (0.5, CausalCharacter.TIMELIKE, 2)):
            frame = perp_frame(spec, "Xbar", [x, 0.2, 1.0])
            assert (frame.causal, frame.basis.shape) == (causal, (rows, 3))
            assert restricted_at(spec, "Xbar", [x, 0.2, 1.0]).shape == (rows, rows)
        mixed = entry("torus_family_mixed").spec
        assert (perp_frame(mixed, "X", [1 / 6, 0.0]).causal,
                restricted_at(mixed, "X", [1 / 6, 0.0]).shape) == \
            (CausalCharacter.LIGHTLIKE, (0, 0))

    def test_quotient_matrix_unchanged_by_representative_shifts(self, circle_lift_torus, rng):
        spec = circle_lift_torus.spec
        p = np.array([0.0, 0.2, 1.0])
        dX = spec.field_derivs("Xbar", p)
        frame = perp_frame(spec, "Xbar", p)
        op = restricted_operator(frame, dX)
        for _ in range(5):
            shifts = rng.normal(size=len(frame.basis))
            shifted = dataclasses.replace(frame, basis=frame.basis + np.outer(shifts, frame.field))
            assert np.max(np.abs(restricted_operator(shifted, dX) - op)) < 1e-9

    def test_reversed_field_spans_same_subspace(self, hopf):
        spec = with_extra_field(hopf.spec, "XNEG",
                                [ex.neg(c) for c in hopf.spec.fields["X"]])
        p = np.array([PI / 5, 0.4, 2.2])
        b1 = perp_frame(spec, "X", p).basis
        b2 = perp_frame(spec, "XNEG", p).basis
        # same 2-plane: projecting one basis on the other loses nothing
        coeff = np.linalg.lstsq(b1.T, b2.T, rcond=None)[0]
        assert np.max(np.abs(coeff.T @ b1 - b2)) < 1e-9


class TestKernelDirection:
    def test_one_by_one_zero(self):
        v, _ = kernel_direction(np.array([[0.0]]))
        assert np.allclose(v, [1.0])

    def test_block_skew_three_by_three(self):
        a = 1.7
        m = np.array([[0.0, a, 0.0], [-a, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v, _ = kernel_direction(m)
        assert np.allclose(np.abs(v), [0.0, 0.0, 1.0], atol=1e-12)

    def test_residual_is_relative_to_the_operator(self):
        """|op v| / |op|, so the residual of a large operator is not its
        rounding noise: |op v| alone is about 1e-10 here."""
        a = np.random.default_rng(3).normal(size=(3, 3))
        m = 1e6 * (a - a.T)
        v, residual = kernel_direction(m)
        assert 0.0 < residual == pytest.approx(
            float(np.linalg.norm(m @ v)) / float(np.linalg.norm(m, 2)), rel=1e-12)

    def test_even_rotation_reports_no_kernel(self):
        m = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(KernelExtractionError, match="2-dimensional skew operator without a kernel"):
            kernel_direction(m)

    def test_odd_dimension_without_kernel_is_an_error(self):
        # not skew: upstream inconsistency must be surfaced, not hidden
        m = np.diag([1.0, 2.0, 3.0])
        with pytest.raises(KernelExtractionError):
            kernel_direction(m)


class TestHessianIdentity:
    def test_flat_static_field(self, entry):
        spec = entry("minkowski4").spec
        lhs, rhs = hessian_identity_sides(spec, "X", [0.1, 0.2, 0.3, 0.4])
        assert np.max(np.abs(lhs)) == 0.0
        assert np.max(np.abs(rhs)) == 0.0

    @pytest.mark.parametrize("name,field", [
        ("torus_family", "X"),
        ("hopf_lorentz_s3", "X"),
        ("circle_lift_torus", "Xbar"),
    ])
    def test_residual_small_for_killing_fields(self, entry, rng, name, field):
        spec = entry(name).spec
        worst = max(hessian_identity_residual(spec, field, p)
                    for p in spec.sample_points(20, rng))
        assert worst < 1e-7

    def test_homothetic_field_also_satisfies_identity(self, mink2, rng):
        spec = mink2.spec
        worst = max(hessian_identity_residual(spec, "EULER", p)
                    for p in spec.sample_points(20, rng))
        assert worst < 1e-12

    def test_hopf_curvature_term_equals_operator_term(self, hopf, rng):
        """Constant energy kills the left side, equating the curvature
        pairing with g(A_X v, A_X v); that is exactly where the -1 plane
        curvature comes from."""
        spec = hopf.spec
        for p in spec.sample_points(5, rng):
            lhs, rhs = hessian_identity_sides(spec, "X", p)
            assert np.max(np.abs(lhs)) < 1e-12
            assert np.max(np.abs(rhs)) < 1e-9


# flat (t, x) with W = ((t+x)^2/2 + 1/2, (t+x)^2/2): L_W g = 2(t+x) g, so W
# is conformal with sigma = 2(t+x) and W(sigma) = 2((t+x)^2 + 1/2), and
# f = g(W,W)/2 = -((t+x)^2 + 1/2)/4 never vanishes
VARYING_CONFORMAL = """
[manifold]
dim = 2
coords = t, x
range.t = -1, 1
range.x = -1, 1
signature = lorentzian

[metric]
g.0.0 = "-1"
g.1.1 = "1"

[field.W]
components = "(t + x)^2/2 + 1/2", "(t + x)^2/2"
"""


class TestConformalFactor:
    def test_sigma_matches_trace_formula(self, entry, rng):
        spec = entry("conformal_counterexample").spec
        for p in spec.sample_points(10, rng, collar=0.5):
            g = spec.metric_eval(p)
            L = lie_at(spec, "X", p)
            want = float(np.trace(np.linalg.inv(g) @ L)) / 2
            sigma, _ = conformal_factor_at(spec, "X", p)
            assert sigma == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert sigma == pytest.approx(-8.0 * p[1], rel=1e-10, abs=1e-12)

    def test_directional_derivative_along_field(self, entry):
        spec = entry("conformal_counterexample").spec
        assert conformal_factor_at(spec, "X", [0.0, 0.0])[1] == pytest.approx(-8.0, abs=1e-12)
        # sigma = -8y depends on y alone, so X(sigma) is -8 everywhere
        assert conformal_factor_at(spec, "X", [0.7, -0.4])[1] == pytest.approx(-8.0, abs=1e-10)

    def test_directional_derivative_where_it_varies(self, rng):
        """On the conformal counterexample X(sigma) is constant and dX = 0;
        here sigma, X(sigma) and dX all vary, so each term of
        X(sigma) = X(X(f))/f - sigma^2 counts."""
        spec = load_spec(VARYING_CONFORMAL, name="varying_conformal")
        assert classify_field(spec, "W").tag is FieldTag.CONFORMAL
        for t, x in spec.sample_points(10, rng):
            u = t + x
            sigma, x_sigma = conformal_factor_at(spec, "W", [t, x])
            assert sigma == pytest.approx(2 * u, rel=1e-12, abs=1e-15)
            assert x_sigma == pytest.approx(2 * (u * u + 0.5), rel=1e-12)
