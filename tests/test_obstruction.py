"""Extremum scans, witness planes, sign scans, and derived charts."""

import math

import numpy as np
import pytest

from lorentzgeo.manifold import (
    CausalCharacter,
    load_spec,
)
from lorentzgeo.obstruction import (
    LiftError,
    LorentzianizeError,
    Verdict,
    circle_lift,
    conformal_bound_check,
    extremum_witness,
    interpolate_path,
    lorentzianize,
    plane_sign_scan,
    sample_planes_containing,
    scan_extrema,
)
from lorentzgeo import obstruction
from lorentzgeo.symmetry import classify_field

PI = math.pi

FLAT_R2_RIEMANNIAN = """
[manifold]
dim = 2
coords = x, y
range.x = -2, 2
range.y = -2, 2
signature = riemannian

[metric]
g.0.0 = "1"
g.1.1 = "1"

[field.X]
components = "0", "1"
"""

FLAT_TORUS_RIEMANNIAN = """
[manifold]
dim = 2
coords = x, y
range.x = 0, 1
range.y = 0, 1
periodic = x, y
signature = riemannian

[metric]
g.0.0 = "1"
g.1.1 = "1"

[field.X]
components = "0", "1"
"""


class TestScanExtrema:
    def test_torus_min_and_max(self, torus):
        scan = scan_extrema(torus.spec, "X", grid=64)
        assert not scan.plateau
        mins, maxs = scan.minima(), scan.maxima()
        assert len(mins) == 1 and len(maxs) == 1
        assert mins[0].point[0] == pytest.approx(0.5, abs=1e-4)
        assert mins[0].f_value == pytest.approx(-1.25, abs=1e-9)
        assert mins[0].causal is CausalCharacter.TIMELIKE
        assert min(maxs[0].point[0], 1 - maxs[0].point[0]) == pytest.approx(0.0, abs=1e-4)
        assert maxs[0].f_value == pytest.approx(-0.75, abs=1e-9)
        assert mins[0].eig_signs == (0, 1)

    def test_plateau_flag(self, hopf, mink2):
        for e in (hopf, mink2):
            scan = scan_extrema(e.spec, e.field_name, grid=10)
            assert scan.plateau
            assert scan.records == ()
            assert len(scan.plateau_points) >= 4

    def test_schwarzschild_has_no_interior_minimum(self, entry):
        spec = entry("schwarzschild_exterior").spec
        scan = scan_extrema(spec, "X", grid=[8, 16, 8, 8])
        assert scan.minima() == []

    def test_conformal_min_at_origin(self, entry):
        spec = entry("conformal_counterexample").spec
        scan = scan_extrema(spec, "X", grid=64)
        rec = scan.minima()[0]
        assert np.linalg.norm(rec.point) < 1e-4
        assert rec.f_value == pytest.approx(-0.5, abs=1e-9)

    def test_resolution_floor(self, torus):
        with pytest.raises(ValueError):
            scan_extrema(torus.spec, "X", grid=4)


def _reference_clusters(M, spacings, values, points):
    """The pairwise loop that clustered candidates before: union every
    grid-adjacent pair, keep the lowest (value, point) of each cluster."""
    n = len(points)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    def adjacent(a, b):
        for i, c in enumerate(M.coords):
            d = abs(a[i] - b[i])
            if c.periodic:
                d = min(d, c.period - d)
            if d > 1.01 * spacings[i]:
                return False
        return True

    for i in range(n):
        for j in range(i + 1, n):
            if adjacent(points[i], points[j]):
                parent[find(i)] = find(j)
    clusters = {}
    for i in range(n):
        clusters.setdefault(find(i), []).append(i)
    reps = [points[min(members, key=lambda i: (values[i], tuple(points[i])))]
            for members in clusters.values()]
    return sorted(reps, key=tuple)


@pytest.mark.parametrize("name,field,grid,records", [
    ("torus_family", "X", 100, [("local_min", [0.5, 0.0]), ("local_max", [0.0, 0.0])]),
    ("circle_lift_torus", "Xbar", [160, 8, 8],
     [("local_min", [0.5, 0.0, 0.0]), ("local_max", [0.0, 0.0, 0.0])]),
])
def test_clustering_matches_the_pairwise_loop(entry, monkeypatch, name, field, grid, records):
    """Tied lines and tori of candidates: the vectorized clustering gives
    the clusters, representatives and records of the pairwise loop."""
    M = entry(name).spec
    calls = []
    vectorized = obstruction._cluster_representatives

    def spy(M, spacings, values, points):
        reps = vectorized(M, spacings, values, points)
        calls.append((len(points), reps, _reference_clusters(M, spacings, values, points)))
        return reps

    monkeypatch.setattr(obstruction, "_cluster_representatives", spy)
    scan = scan_extrema(M, field, grid=grid)
    assert len(calls) == 2 and all(n >= 64 for n, _, _ in calls)
    for _, reps, want in calls:
        assert [r.tolist() for r in reps] == [w.tolist() for w in want]
    assert [(r.kind.value, r.point.tolist()) for r in scan.records] == records


def test_clustering_in_blocks(monkeypatch, rng):
    """Candidates split over several blocks of the adjacency test, with
    clusters across the periodic seam, cluster as in one block."""
    M = load_spec(FLAT_TORUS_RIEMANNIAN)
    axes = obstruction._grid_axes(M, [16, 16], 0.0)
    nodes = obstruction._grid_points(axes)
    spacings = np.array([1 / 16, 1 / 16])
    pick = nodes[rng.random(len(nodes)) < 0.3]
    values = rng.integers(0, 3, size=len(pick)).astype(float)
    want = _reference_clusters(M, spacings, values, pick)
    monkeypatch.setattr(obstruction, "_PAIR_BLOCK", 7 * len(pick))
    got = obstruction._cluster_representatives(M, spacings, values, pick)
    assert [r.tolist() for r in got] == [w.tolist() for w in want]


class TestWitness:
    def test_torus_minimum(self, torus):
        scan = scan_extrema(torus.spec, "X", grid=64)
        rep = extremum_witness(torus.spec, "X", scan.minima()[0])
        assert rep.verdict is Verdict.PASS
        assert rep.case == "timelike_even"
        assert rep.inequality == ">= 0"
        assert rep.value == pytest.approx(PI ** 2, abs=1e-6)
        assert rep.kernel_residual < 1e-7

    def test_torus_maximum_all_planes_nonpositive(self, torus):
        scan = scan_extrema(torus.spec, "X", grid=64)
        rep = extremum_witness(torus.spec, "X", scan.maxima()[0], planes=32)
        assert rep.verdict is Verdict.PASS
        assert rep.inequality == "<= 0"
        assert len(rep.sampled_values) == 32
        assert all(v == pytest.approx(-PI ** 2, abs=1e-6) for v in rep.sampled_values)

    def test_witness_plane_contains_field(self, torus):
        scan = scan_extrema(torus.spec, "X", grid=64)
        rep = extremum_witness(torus.spec, "X", scan.minima()[0])
        X = torus.spec.field_eval("X", rep.plane.point)
        stack = np.stack([rep.plane.u, rep.plane.v, X])
        assert np.linalg.matrix_rank(stack, tol=1e-9) == 2

    def test_odd_dimension_timelike_is_out_of_scope(self, hopf):
        scan = scan_extrema(hopf.spec, "X", grid=10)
        recs = scan.witness_records(hopf.spec, "X")
        rep = extremum_witness(hopf.spec, "X", recs[0])
        assert rep.verdict is Verdict.SCOPE
        assert "even dimension" in rep.scope_reason

    def test_flat_plateau_is_equality_case(self, mink2):
        scan = scan_extrema(mink2.spec, "X", grid=10)
        recs = scan.witness_records(mink2.spec, "X")
        for rec in recs:
            rep = extremum_witness(mink2.spec, "X", rec)
            assert rep.verdict is Verdict.PASS
            assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_lifted_field_null_maximum(self, circle_lift_torus):
        """At the lightlike locus (the energy maximum) the quotient
        witness carries the maximum-side inequality K_X >= 0."""
        spec = circle_lift_torus.spec
        scan = scan_extrema(spec, "Xbar", grid=[32, 8, 8])
        rec = next(r for r in scan.maxima()
                   if r.causal is CausalCharacter.LIGHTLIKE)
        assert rec.point[0] == pytest.approx(0.0, abs=1e-6)
        rep = extremum_witness(spec, "Xbar", rec)
        assert rep.case == "lightlike_odd"
        assert rep.curvature_kind == "null_sectional"
        assert rep.inequality == ">= 0"
        assert rep.verdict is Verdict.PASS
        assert rep.value == pytest.approx(1.5 * PI ** 2, rel=1e-9)

    def test_lifted_field_timelike_minimum_has_parity_mismatch(self, circle_lift_torus):
        spec = circle_lift_torus.spec
        scan = scan_extrema(spec, "Xbar", grid=[32, 8, 8])
        rec = next(r for r in scan.minima() if r.causal is CausalCharacter.TIMELIKE)
        rep = extremum_witness(spec, "Xbar", rec)
        assert rep.verdict is Verdict.SCOPE
        assert "odd" in rep.scope_reason or "even" in rep.scope_reason

    def test_spacelike_extremum_is_out_of_scope(self, entry):
        mixed = entry("torus_family_mixed")
        scan = scan_extrema(mixed.spec, "X", grid=64)
        rec = next(r for r in scan.maxima() if r.causal is CausalCharacter.SPACELIKE)
        rep = extremum_witness(mixed.spec, "X", rec)
        assert rep.verdict is Verdict.SCOPE

    def test_non_homothetic_field_is_out_of_scope(self, entry):
        spec = entry("conformal_counterexample").spec
        scan = scan_extrema(spec, "X", grid=32)
        rep = extremum_witness(spec, "X", scan.minima()[0])
        assert rep.verdict is Verdict.SCOPE
        assert "conformal" in rep.scope_reason


class TestSignScan:
    def test_torus_zero_near_quarter(self, torus):
        pts = interpolate_path(torus.paths["min_to_max"], 64)
        rep = plane_sign_scan(torus.spec, "X", pts, planes_per_point=4)
        assert rep.sign_change
        z = rep.first_zero()
        assert z.point[0] == pytest.approx(0.25, abs=2 / 64)
        assert rep.k_min == pytest.approx(-PI ** 2, rel=1e-9)
        assert rep.k_max == pytest.approx(PI ** 2, rel=1e-9)

    def test_hopf_constant_negative_no_sign_change(self, hopf):
        pts = interpolate_path(np.array([[PI / 6, 0.2, 0.2], [PI / 3, 2.0, 1.0]]), 16)
        rep = plane_sign_scan(hopf.spec, "X", pts, planes_per_point=8)
        assert not rep.sign_change
        assert rep.k_min == pytest.approx(-1.0, abs=1e-9)
        assert rep.k_max == pytest.approx(-1.0, abs=1e-9)

    def test_flat_chart_is_identically_zero(self, entry):
        spec = entry("static_product").spec
        pts = interpolate_path(np.array([[0.1, 0.1, 0.0], [0.8, 0.4, 0.0]]), 8)
        rep = plane_sign_scan(spec, "X", pts, planes_per_point=4)
        assert rep.k_min == rep.k_max == 0.0
        assert rep.zeros        # every sampled value is an exact zero

    def test_spacelike_field_rejected(self, entry):
        mixed = entry("torus_family_mixed")
        pts = interpolate_path(np.array([[0.5, 0.0], [0.0, 0.0]]), 16)
        with pytest.raises(ValueError):
            plane_sign_scan(mixed.spec, "X", pts)

    def test_scan_crossing_null_locus_uses_null_values(self, circle_lift_torus):
        spec = circle_lift_torus.spec
        pts = interpolate_path(np.array([[0.4, 0.0, 0.0], [0.0, 0.0, 0.0]]), 16)
        rep = plane_sign_scan(spec, "Xbar", pts, planes_per_point=4)
        kinds = {s.curvature_kind for s in rep.scans}
        assert kinds == {"sectional", "null_sectional"}

    def test_interpolate_path_validates(self):
        with pytest.raises(ValueError):
            interpolate_path(np.array([[0.0, 0.0]]), 8)
        with pytest.raises(ValueError):
            interpolate_path(np.array([[0.0, 0.0], [0.0, 0.0]]), 8)


class TestConformalBound:
    def test_counterexample_bound_holds_while_nonnegativity_fails(self, entry):
        e = entry("conformal_counterexample")
        scan = scan_extrema(e.spec, "X", grid=64)
        rep = conformal_bound_check(e.spec, "X", scan.minima()[0])
        assert rep.sigma_at_point == pytest.approx(0.0, abs=1e-9)
        assert rep.x_sigma == pytest.approx(-8.0, abs=1e-9)
        assert rep.x_sigma < 0
        assert rep.bound == pytest.approx(-4.0, abs=1e-9)
        assert rep.curvature == pytest.approx(-2.0, abs=1e-9)
        assert rep.bound_verdict is Verdict.PASS
        assert rep.nonnegativity_verdict is Verdict.FAIL

    def test_killing_field_reduces_to_plain_nonnegativity(self, torus):
        scan = scan_extrema(torus.spec, "X", grid=64)
        rep = conformal_bound_check(torus.spec, "X", scan.minima()[0])
        assert rep.bound == pytest.approx(0.0, abs=1e-10)
        assert rep.bound_verdict is Verdict.PASS
        assert rep.nonnegativity_verdict is Verdict.PASS

    def test_noncritical_point_rejected(self, entry):
        e = entry("conformal_counterexample")
        scan = scan_extrema(e.spec, "X", grid=64)
        rec = scan.minima()[0]
        shifted = type(rec)(point=np.array([0.0, 0.5]), f_value=rec.f_value,
                            kind=rec.kind, causal=rec.causal,
                            hessian_eigs=rec.hessian_eigs)
        with pytest.raises(ValueError):
            conformal_bound_check(e.spec, "X", shifted)


class TestLorentzianize:
    def test_round_s3_matches_catalog_flip(self, entry, hopf, rng):
        s3 = entry("round_s3").spec
        flipped = lorentzianize(s3, "X")
        assert flipped.signature == "lorentzian"
        for p in flipped.sample_points(20, rng):
            assert np.max(np.abs(flipped.metric_eval(p) - hopf.spec.metric_eval(p))) < 1e-10

    def test_flat_plane_flip(self, rng):
        spec = load_spec(FLAT_R2_RIEMANNIAN)
        flipped = lorentzianize(spec, "X")
        for p in flipped.sample_points(10, rng):
            assert np.allclose(flipped.metric_eval(p), np.diag([1.0, -1.0]), atol=1e-14)

    def test_flat_torus_flip_keeps_field_killing(self, rng):
        spec = load_spec(FLAT_TORUS_RIEMANNIAN)
        flipped = lorentzianize(spec, "X")
        fc = classify_field(flipped, "X")
        assert fc.tag.value == "killing"

    def test_double_flip_is_identity(self, entry, rng):
        s3 = entry("round_s3").spec
        once = lorentzianize(s3, "X")
        twice = lorentzianize(once, "X", check_riemannian=False)
        for p in s3.sample_points(20, rng):
            assert np.max(np.abs(twice.metric_eval(p) - s3.metric_eval(p))) < 1e-12

    def test_non_riemannian_input_rejected(self, torus):
        with pytest.raises(LorentzianizeError):
            lorentzianize(torus.spec, "X")

    def test_vanishing_field_rejected(self):
        doc = FLAT_R2_RIEMANNIAN.replace('components = "0", "1"',
                                         'components = "0", "0"')
        spec = load_spec(doc)
        with pytest.raises(LorentzianizeError):
            lorentzianize(spec, "X")


class TestCircleLift:
    def test_lightlike_locus_variant(self, torus):
        lift = circle_lift(torus.spec, "X", math.sqrt(1.5), grid=64)
        assert lift.causal_everywhere
        assert not lift.nowhere_timelike
        assert lift.max_gxx == pytest.approx(-1.5, abs=1e-12)
        xs = sorted(min(abs(p[0]), abs(1 - p[0])) for p in lift.lightlike_locus)
        assert xs[0] == pytest.approx(0.0, abs=1e-9)
        spec = lift.spec
        assert spec.dim == 3
        cc = spec.field_vector("Xbar", [0.0, 0.0, 0.0])
        from lorentzgeo.manifold import causal_character
        assert causal_character(spec, cc) is CausalCharacter.LIGHTLIKE
        assert causal_character(
            spec, spec.field_vector("Xbar", [0.3, 0.0, 0.0])) is CausalCharacter.TIMELIKE

    def test_general_mode_minimum_constant_gives_nowhere_timelike(self, torus):
        lift = circle_lift(torus.spec, "X", math.sqrt(2.5), mode="general", grid=64)
        assert lift.nowhere_timelike
        assert not lift.causal_everywhere
        from lorentzgeo.manifold import causal_character
        assert causal_character(
            lift.spec, lift.spec.field_vector("Xbar", [0.5, 0.0, 0.0])) \
            is CausalCharacter.LIGHTLIKE

    def test_everywhere_lightlike_lift_of_flat_chart(self, mink2):
        lift = circle_lift(mink2.spec, "X", 1.0, grid=16)
        assert lift.causal_everywhere and lift.nowhere_timelike
        from lorentzgeo.manifold import causal_character
        rng = np.random.default_rng(2)
        for p in lift.spec.sample_points(10, rng):
            assert causal_character(lift.spec, lift.spec.field_vector("Xbar", p)) \
                is CausalCharacter.LIGHTLIKE

    def test_wrong_constant_rejected_in_locus_mode(self, torus):
        with pytest.raises(LiftError):
            circle_lift(torus.spec, "X", 1.0, grid=16)

    def test_non_killing_field_rejected(self, mink2):
        with pytest.raises(LiftError):
            circle_lift(mink2.spec, "EULER", 1.0, mode="general", grid=16)

    def test_theta_name_does_not_collide(self, entry):
        spec = entry("schwarzschild_exterior").spec
        lift = circle_lift(spec, "X", math.sqrt(1.0 - 2.0 / 20.0 + 1e-12),
                           mode="general", grid=8)
        assert lift.spec.coord_names()[-1] == "theta1"


class TestPlaneSampling:
    def test_planes_contain_field(self, hopf, rng):
        spec = hopf.spec
        p = spec.sample_points(1, rng)[0]
        planes = sample_planes_containing(spec, "X", p, count=8)
        X = spec.field_eval("X", p)
        for pl in planes:
            assert np.allclose(pl.v, X)
            stack = np.stack([pl.u, pl.v])
            assert np.linalg.matrix_rank(stack, tol=1e-9) == 2
