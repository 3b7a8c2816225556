"""Lie derivatives, field classification, restricted operators, and the
Hessian identity cross-check."""

import math

import numpy as np
import pytest

from lorentzgeo import expr as ex
from lorentzgeo.catalog import list_examples
from lorentzgeo.curvature import shape_operator_at
from lorentzgeo.manifold import ManifoldSpec
from lorentzgeo.symmetry import (
    ConformalFactor,
    FieldClass,
    FieldTag,
    KernelExtractionError,
    SubspaceError,
    classify_field,
    hessian_identity_residual,
    hessian_identity_sides,
    kernel_direction,
    lie_derivative_metric_at,
    lie_derivative_metric_exprs,
    orthogonal_complement_basis,
    restricted_operator,
    restriction_matrix,
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


class TestLieDerivative:
    def test_metric_independent_direction_gives_zero(self, torus, rng):
        spec = torus.spec
        for p in spec.sample_points(10, rng):
            L = lie_derivative_metric_at(spec, "X", p)
            assert np.max(np.abs(L)) < 1e-14

    def test_euler_field_is_homothetic_with_factor_two(self, mink2, rng):
        spec = mink2.spec
        for p in spec.sample_points(10, rng):
            L = lie_derivative_metric_at(spec, "EULER", p)
            assert np.allclose(L, 2 * spec.metric_eval(p), atol=1e-14)

    def test_conformal_chart_factor(self, entry, rng):
        """L_X g = sigma g with sigma = -8 y on the conformally flat chart."""
        spec = entry("conformal_counterexample").spec
        for p in spec.sample_points(10, rng, collar=0.5):
            L = lie_derivative_metric_at(spec, "X", p)
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
        assert ConformalFactor(spec, "X").sigma([0.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_generic_field_unclassified(self, mink2):
        spec = with_extra_field(
            mink2.spec, "W",
            [ex.parse_expression("t^2", frozenset({"t", "x"})), ex.ZERO])
        assert classify_field(spec, "W").tag is FieldTag.NONE

    def test_too_few_samples(self, torus):
        with pytest.raises(ValueError):
            classify_field(torus.spec, "X", samples=np.zeros((3, 2)))


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
    ls = [lie_derivative_metric_at(spec, xname, p) for p in points]
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
        op = restricted_operator(torus.spec, "X", [0.5, 0.0])
        assert op.matrix.shape == (1, 1)
        assert abs(op.matrix[0, 0]) < 1e-12
        assert op.invariance_residual < 1e-6

    def test_basis_is_g_orthonormal_and_orthogonal_to_field(self, hopf, rng):
        spec = hopf.spec
        for p in spec.sample_points(5, rng):
            basis = orthogonal_complement_basis(spec, "X", p)
            g = spec.metric_eval(p)
            X = spec.field_eval("X", p)
            assert np.allclose(basis @ g @ basis.T, np.eye(2), atol=1e-10)
            assert np.max(np.abs(basis @ g @ X)) < 1e-10

    def test_hopf_operator_is_unit_rotation(self, hopf, rng):
        """A_X acts as a complex rotation on the complement: skew 2x2
        with unit off-diagonal entries."""
        spec = hopf.spec
        for p in spec.sample_points(5, rng):
            op = restricted_operator(spec, "X", p)
            m = op.matrix
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
        assert restricted_operator(mixed, "X", [0.5, 0.0]).mode == "orthogonal"
        zero = with_extra_field(torus.spec, "Z", [ex.ZERO, ex.ZERO])
        for spec, x, p, cc in ((mixed, "X", [0.0, 0.0], "spacelike"),
                               (zero, "Z", [0.5, 0.0], "zero")):
            for build in (restricted_operator, orthogonal_complement_basis):
                with pytest.raises(SubspaceError, match=f"field '{x}' is {cc} at"):
                    build(spec, x, p)

    def test_leak_of_non_homothetic_field_is_refused(self, torus):
        """Y = (1 + sin(2 pi x)/2) d/dy is neither Killing nor homothetic,
        and x = 0.3 is not a critical point of its energy: A_Y does not
        preserve Y-perp there, and the residual is of order one."""
        speed = ex.parse_expression("1 + sin(2*pi*x)/2", torus.spec.coord_names())
        spec = with_extra_field(torus.spec, "Y", [ex.ZERO, speed])
        assert classify_field(spec, "Y").tag is FieldTag.NONE
        p = np.array([0.3, 0.2])
        _, leak = restriction_matrix(spec, "Y", p, orthogonal_complement_basis(spec, "Y", p))
        assert leak > 1e-3
        with pytest.raises(SubspaceError, match="does not preserve"):
            restricted_operator(spec, "Y", p)

    def test_quotient_at_null_locus(self, circle_lift_torus):
        """1x1 quotient operator with value 0; the field itself is a
        kernel eigenvector of A_X (Killing, so eigenvalue 0)."""
        spec = circle_lift_torus.spec
        p = np.array([0.0, 0.2, 1.0])
        op = restricted_operator(spec, "Xbar", p)
        assert op.matrix.shape == (1, 1)
        assert abs(op.matrix[0, 0]) < 1e-10
        X = spec.field_eval("Xbar", p)
        AX = shape_operator_at(spec, "Xbar", p) @ X
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
        for x, mode, rows in ((0.0, "quotient", 1), (0.5, "orthogonal", 2)):
            op = restricted_operator(spec, "Xbar", [x, 0.2, 1.0])
            assert (op.mode, op.basis.shape) == (mode, (rows, 3))
        op = restricted_operator(entry("torus_family_mixed").spec, "X", [1 / 6, 0.0])
        assert (op.mode, op.matrix.shape, op.invariance_residual) == ("quotient", (0, 0), 0.0)

    def test_quotient_matrix_unchanged_by_representative_shifts(self, circle_lift_torus, rng):
        spec = circle_lift_torus.spec
        p = np.array([0.0, 0.2, 1.0])
        op = restricted_operator(spec, "Xbar", p)
        X = spec.field_eval("Xbar", p)
        for _ in range(5):
            shifts = rng.normal(size=len(op.basis))
            shifted = op.basis + np.outer(shifts, X)
            mat, _ = restriction_matrix(spec, "Xbar", p, shifted)
            assert np.max(np.abs(mat - op.matrix)) < 1e-9

    def test_reversed_field_spans_same_subspace(self, hopf):
        spec = with_extra_field(hopf.spec, "XNEG",
                                [ex.neg(c) for c in hopf.spec.fields["X"]])
        p = np.array([PI / 5, 0.4, 2.2])
        b1 = orthogonal_complement_basis(spec, "X", p)
        b2 = orthogonal_complement_basis(spec, "XNEG", p)
        # same 2-plane: projecting one basis on the other loses nothing
        coeff = np.linalg.lstsq(b1.T, b2.T, rcond=None)[0]
        assert np.max(np.abs(coeff.T @ b1 - b2)) < 1e-9


class TestKernelDirection:
    def test_one_by_one_zero(self):
        v = kernel_direction(np.array([[0.0]]))
        assert np.allclose(v, [1.0])

    def test_block_skew_three_by_three(self):
        a = 1.7
        m = np.array([[0.0, a, 0.0], [-a, 0.0, 0.0], [0.0, 0.0, 0.0]])
        v = kernel_direction(m)
        assert np.allclose(np.abs(v), [0.0, 0.0, 1.0], atol=1e-12)

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


class TestConformalFactor:
    def test_sigma_matches_trace_formula(self, entry, rng):
        spec = entry("conformal_counterexample").spec
        cf = ConformalFactor(spec, "X")
        for p in spec.sample_points(10, rng, collar=0.5):
            g = spec.metric_eval(p)
            L = lie_derivative_metric_at(spec, "X", p)
            want = float(np.trace(np.linalg.inv(g) @ L)) / 2
            assert cf.sigma(p) == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert cf.sigma(p) == pytest.approx(-8.0 * p[1], rel=1e-10, abs=1e-12)

    def test_directional_derivative_along_field(self, entry):
        spec = entry("conformal_counterexample").spec
        cf = ConformalFactor(spec, "X")
        assert cf.x_sigma([0.0, 0.0]) == pytest.approx(-8.0, abs=1e-12)
        # sigma = -8y depends on y alone, so X(sigma) is -8 everywhere
        assert cf.x_sigma([0.7, -0.4]) == pytest.approx(-8.0, abs=1e-10)
