"""Extremum scans, witness planes, sign scans, and derived charts."""

import math

import numpy as np
import pytest

from lorentzgeo.catalog import _TORUS_FAMILY, list_examples
from lorentzgeo.curvature import (
    ScalarDerivs,
    causal_character,
    null_sectional_curvature,
    point_geometry,
    sectional_curvature,
)
from lorentzgeo.manifold import (
    CausalCharacter,
    TangentPlane,
    field_energy_expr,
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
    scan_extrema,
)
from lorentzgeo import obstruction
from lorentzgeo.symmetry import (
    SubspaceError,
    classify_field,
    lie_derivative_metric_at,
    orthogonal_complement_basis,
    restricted_operator,
)

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


# The torus_family chart with its profile shifted so that both extrema
# fall between the nodes of a 100-point grid.
TORUS_SHIFT = 0.0137
TORUS_SHIFTED = _TORUS_FAMILY.replace("cos(2*pi*x)", f"cos(2*pi*(x - {TORUS_SHIFT}))")

# A static 4-torus, X = d/dt Killing, whose energy f = -F/2 has many
# isolated extrema off the grid nodes and curvature up to about 10^2.
STATIC_FOUR_TORUS = """
[manifold]
dim = 4
coords = x, y, z, t
range.x = 0, 1
range.y = 0, 1
range.z = 0, 1
range.t = 0, 1
periodic = x, y, z, t
signature = lorentzian

[metric]
g.0.0 = "1"
g.1.1 = "1"
g.2.2 = "1"
g.3.3 = "-(3 + cos(2*pi*(x + 2*y)) + 0.3*cos(2*pi*(x - y + z)))"

[field.X]
components = "0", "0", "0", "1"
"""


@pytest.fixture(scope="module")
def static_four_torus():
    M = load_spec(STATIC_FOUR_TORUS)
    return M, scan_extrema(M, "X", grid=[24, 24, 24, 8]), classify_field(M, "X")


class TestRefinement:
    """Newton steps on the exact gradient and Hessian trees."""

    def test_off_grid_torus_extrema_are_exact(self):
        M = load_spec(TORUS_SHIFTED)
        fd = ScalarDerivs(M, field_energy_expr(M, "X"))
        scan = scan_extrema(M, "X", grid=100)
        mins, maxs = scan.minima(), scan.maxima()
        assert len(mins) == 1 and len(maxs) == 1 and len(scan.records) == 2
        for rec in scan.records:
            assert np.linalg.norm(fd.gradient(rec.point)) <= 1e-12
        assert mins[0].point[0] == pytest.approx(0.5 + TORUS_SHIFT, abs=1e-12)
        cls = classify_field(M, "X")
        low = extremum_witness(M, "X", mins[0], classification=cls)
        assert low.verdict is Verdict.PASS
        assert low.value == pytest.approx(PI ** 2, abs=1e-9)
        high = extremum_witness(M, "X", maxs[0], classification=cls)
        assert high.verdict is Verdict.PASS
        assert high.value == pytest.approx(-PI ** 2, abs=1e-4)

    def test_few_gradient_evaluations_per_record(self, torus, count_calls):
        calls = count_calls(ScalarDerivs, "gradient")
        scan = scan_extrema(torus.spec, "X", grid=64)
        assert scan.records
        assert len(calls) <= 20 * len(scan.records)

    def test_step_stays_within_a_grid_spacing(self, torus):
        """From x = 0.27 the first Newton step lands near x = 0.53: it is
        refused with a spacing of 0.01 and taken with a spacing of 0.5."""
        M = torus.spec
        fd = ScalarDerivs(M, field_energy_expr(M, "X"))
        p0 = np.array([0.27, 0.3])
        near = obstruction._refine(M, fd, p0, np.array([0.01, 0.01]))
        assert near.tolist() == p0.tolist()
        far = obstruction._refine(M, fd, p0, np.array([0.5, 0.5]))
        assert far == pytest.approx([0.5, 0.3], abs=1e-12)

    def test_static_four_torus_witnesses_all_pass(self, static_four_torus):
        """The leak guard must not read the rounding noise of a refined
        gradient, scaled by large curvature, as a leak out of X-perp."""
        M, scan, cls = static_four_torus
        assert len(scan.records) == 48
        verdicts = [extremum_witness(M, "X", rec, classification=cls).verdict
                    for rec in scan.records]
        assert verdicts == [Verdict.PASS] * 48


def construction_mismatches(M, xname, records):
    """Records at which the restricted operator does not follow the
    record's causal character: a timelike X must give mode 'orthogonal'
    on m-1 basis rows, a lightlike X mode 'quotient' on m-2, and a
    spacelike or zero X a SubspaceError naming the character."""
    want = {CausalCharacter.TIMELIKE: ("orthogonal", M.dim - 1),
            CausalCharacter.LIGHTLIKE: ("quotient", M.dim - 2)}
    bad = []
    for rec in records:
        try:
            op = restricted_operator(M, xname, rec.point)
            got = (op.mode, len(op.basis))
        except SubspaceError as e:
            got = str(e)
        ok = got == want[rec.causal] if rec.causal in want \
            else f"is {rec.causal.value} at" in got
        if not ok:
            bad.append((rec.point.tolist(), rec.causal.value, got))
    return bad


@pytest.fixture(scope="module")
def catalog_witness_records(entry):
    """(name, spec, field, witness records) of every entry with a
    designated field, on a 16-point grid."""
    out = []
    for name in list_examples():
        e = entry(name)
        if e.field_name:
            scan = scan_extrema(e.spec, e.field_name, grid=16)
            out.append((name, e.spec, e.field_name,
                        scan.witness_records(e.spec, e.field_name)))
    return out


class TestDerivedConstruction:
    """The causal character of X at each witness record picks the X-perp
    construction."""

    def test_catalog_witness_records(self, catalog_witness_records):
        """The records cover the timelike, lightlike and spacelike cases."""
        bad, seen = [], set()
        for name, M, xname, records in catalog_witness_records:
            bad += [(name,) + b for b in construction_mismatches(M, xname, records)]
            seen |= {r.causal for r in records}
        assert bad == []
        assert seen == {CausalCharacter.TIMELIKE, CausalCharacter.LIGHTLIKE,
                        CausalCharacter.SPACELIKE}

    def test_static_four_torus_records(self, static_four_torus):
        M, scan, _ = static_four_torus
        assert construction_mismatches(M, "X", scan.records) == []


def oracle_curvature(M, p, X, v):
    """Curvature of span{v, X} from the guarded public functions, which
    do not read the Jacobi form."""
    if causal_character(M, p, X) is CausalCharacter.LIGHTLIKE:
        return null_sectional_curvature(M, p, X, v)
    return sectional_curvature(M, TangentPlane(p, v, X))


def form_mismatches(M, xname, p, coefficients, values):
    """(point, c, value, oracle) where a value read on the unit
    coefficient row c of the X-perp basis at p differs from the oracle
    of span{c·basis, X} by more than 1e-12 of the largest oracle value
    at p."""
    X = M.field_eval(xname, p)
    basis = orthogonal_complement_basis(M, xname, p)
    want = [oracle_curvature(M, p, X, c @ basis) for c in coefficients]
    scale = max(abs(w) for w in want)
    return [(p.tolist(), c.tolist(), got, w) for c, got, w in zip(coefficients, values, want)
            if not abs(got - w) <= 1e-12 * scale]


def jacobi_mismatches(M, xname, records, rng):
    """form_mismatches of cᵀJc on the frame axes and four seeded random
    unit rows, at every timelike or lightlike record."""
    bad = []
    for rec in records:
        if rec.causal not in (CausalCharacter.TIMELIKE, CausalCharacter.LIGHTLIKE):
            continue
        p, X = rec.point, M.field_eval(xname, rec.point)
        basis = orthogonal_complement_basis(M, xname, p)
        J = obstruction._jacobi_on_frame(M, p, X, basis)
        random = rng.standard_normal((4, len(basis)))
        cs = np.vstack([np.eye(len(basis)), random / np.linalg.norm(random, axis=1)[:, None]])
        bad += form_mismatches(M, xname, p, cs, [float(c @ J @ c) for c in cs])
    return bad


def scan_family(d, count):
    """The scan's unit coefficient rows: e_0 on a 1-row frame, otherwise
    e_q turned towards e_{q+1} by pi k / count with q = k mod (d-1)."""
    cs = np.zeros((count, d))
    for k in range(count):
        if d == 1:
            cs[k, 0] = 1.0
        else:
            q = k % (d - 1)
            cs[k, q], cs[k, q + 1] = math.cos(math.pi * k / count), math.sin(math.pi * k / count)
    return cs


def scan_mismatches(M, xname, waypoints, count=8):
    """form_mismatches of every value of a 32-step sign scan against its
    family plane, and the curvature kinds the scan reported."""
    rep = plane_sign_scan(M, xname, interpolate_path(waypoints, 32), count)
    bad = []
    for s in rep.scans:
        d = len(orthogonal_complement_basis(M, xname, s.point))
        bad += form_mismatches(M, xname, s.point, scan_family(d, count), s.values)
    return bad, {s.curvature_kind for s in rep.scans}


class TestJacobiForm:
    """Every curvature of a plane through X is cᵀJc of the one Jacobi
    form on the X-perp frame; the guarded sectional and null sectional
    curvatures are its oracle."""

    def test_catalog_witness_records(self, catalog_witness_records, rng):
        bad, seen = [], set()
        for name, M, xname, records in catalog_witness_records:
            bad += [(name,) + b for b in jacobi_mismatches(M, xname, records, rng)]
            seen |= {(r.causal, M.dim) for r in records}
        assert bad == []
        assert {(CausalCharacter.TIMELIKE, 2), (CausalCharacter.TIMELIKE, 4),
                (CausalCharacter.LIGHTLIKE, 3)} <= seen

    def test_static_four_torus_records(self, static_four_torus, rng):
        M, scan, _ = static_four_torus
        assert jacobi_mismatches(M, "X", scan.records, rng) == []

    @pytest.mark.parametrize("name,xname,path,kinds", [
        ("torus_family", "X", "min_to_max", {"sectional"}),
        ("circle_lift_torus", "Xbar", "across_locus", {"sectional", "null_sectional"}),
        ("hopf_lorentz_s3", "X", [[PI / 6, 0.2, 0.2], [PI / 3, 2.0, 1.0]], {"sectional"}),
    ], ids=["torus", "circle-lift", "hopf"])
    def test_sign_scan_values(self, entry, name, xname, path, kinds):
        """Each scan value is the oracle curvature of its family plane,
        at timelike and lightlike points, on 1- and 2-row frames."""
        e = entry(name)
        waypoints = e.paths[path] if isinstance(path, str) else np.array(path)
        assert scan_mismatches(e.spec, xname, waypoints) == ([], kinds)

    def test_sign_scan_values_on_a_three_row_frame(self, static_four_torus):
        """The family turns e_q towards e_{q+1} for q = 0 and 1 in turn."""
        M, _, _ = static_four_torus
        waypoints = np.array([[0.0, 0.25, 0.75, 0.0], [0.5, 0.25, 0.75, 0.0]])
        assert scan_mismatches(M, "X", waypoints) == ([], {"sectional"})


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
        # on a 2-D chart span{v, X} is the only plane through X
        scan = scan_extrema(torus.spec, "X", grid=64)
        rep = extremum_witness(torus.spec, "X", scan.maxima()[0])
        assert rep.verdict is Verdict.PASS
        assert rep.inequality == "<= 0"
        assert rep.value == pytest.approx(-PI ** 2, abs=1e-6)
        assert rep.value <= 0

    def test_static_four_torus_maximum_is_the_largest_k(self, static_four_torus):
        """At a maximum the witness reports the largest K over every plane
        through X: no random plane through X exceeds it, and it is the K
        of the plane it reports."""
        M, scan, cls = static_four_torus
        rng = np.random.default_rng(11)
        maxima = scan.maxima()
        assert maxima
        for rec in maxima:
            rep = extremum_witness(M, "X", rec, classification=cls)
            assert rep.verdict is Verdict.PASS and rep.inequality == "<= 0"
            geo = point_geometry(M, rec.point)
            g, X = geo.metric, M.field_eval("X", rec.point)
            U = rng.standard_normal((2000, 4))
            num = np.einsum("ijkl,ni,j,nk,l->n", geo.riemann, U, X, U, X)
            q = np.einsum("ni,ij,nj->n", U, g, U) * (X @ g @ X) - (U @ g @ X) ** 2
            assert np.all(rep.value >= num / q - 1e-9)
            assert sectional_curvature(M, rep.plane) == pytest.approx(rep.value, abs=1e-9)

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

    def test_lightlike_field_in_dimension_two_rejected(self, entry):
        """X-perp/X of a lightlike X on a 2-D chart has no rows: no
        degenerate plane contains X."""
        mixed = entry("torus_family_mixed")
        pts = interpolate_path(np.array([[1 / 6, 0.0], [0.5, 0.0]]), 1)
        with pytest.raises(ValueError, match=r"lightlike on the path at \[0\.16666666666666666, 0\.0\]"):
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


def _reference_input_checks(M, xname, samples=30, seed=0, verify_tol=1e-8):
    """The message of the first failed input check of lorentzianize, from
    a point-by-point loop over the same samples; None when all pass."""
    for p in M.sample_points(samples, np.random.default_rng(seed)):
        g = M.metric_eval(p)
        if np.any(np.linalg.eigvalsh(g) <= 0):
            return f"input metric not positive definite at {p.tolist()}"
        Xp = M.field_eval(xname, p)
        if float(Xp @ g @ Xp) <= 0:
            return f"field vanishes (or is degenerate) at {p.tolist()}"
        L = lie_derivative_metric_at(M, xname, p)
        if float(np.max(np.abs(L))) > verify_tol * max(float(np.max(np.abs(g))), 1.0):
            return f"field is not Killing for the input metric (residual at {p.tolist()})"
    return None


class TestLorentzianize:
    @pytest.mark.parametrize("g11, field", [
        ("1", '"0", "1"'),            # passes
        ("x", '"0", "1"'),            # indefinite where x < 0
        ("x", '"1", "0"'),            # indefinite where x < 0, not Killing anywhere
        ("1", '"0", "x"'),            # not Killing
        ("1", '"0", "0"'),            # vanishes
    ])
    def test_input_checks_match_a_point_loop(self, g11, field):
        doc = FLAT_R2_RIEMANNIAN.replace('g.1.1 = "1"', f'g.1.1 = "{g11}"') \
            .replace('components = "0", "1"', f"components = {field}")
        spec = load_spec(doc, validate=False)
        want = _reference_input_checks(spec, "X")
        if want is None:
            assert lorentzianize(spec, "X").signature == "lorentzian"
        else:
            with pytest.raises(LorentzianizeError) as err:
                lorentzianize(spec, "X")
            assert str(err.value) == want

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
        for p, want in (([0.0, 0.0, 0.0], CausalCharacter.LIGHTLIKE),
                        ([0.3, 0.0, 0.0], CausalCharacter.TIMELIKE)):
            assert causal_character(spec, p, spec.field_eval("Xbar", p)) is want

    def test_general_mode_minimum_constant_gives_nowhere_timelike(self, torus):
        lift = circle_lift(torus.spec, "X", math.sqrt(2.5), mode="general", grid=64)
        assert lift.nowhere_timelike
        assert not lift.causal_everywhere
        p = [0.5, 0.0, 0.0]
        assert causal_character(lift.spec, p, lift.spec.field_eval("Xbar", p)) \
            is CausalCharacter.LIGHTLIKE

    def test_everywhere_lightlike_lift_of_flat_chart(self, mink2):
        lift = circle_lift(mink2.spec, "X", 1.0, grid=16)
        assert lift.causal_everywhere and lift.nowhere_timelike
        rng = np.random.default_rng(2)
        for p in lift.spec.sample_points(10, rng):
            assert causal_character(lift.spec, p, lift.spec.field_eval("Xbar", p)) \
                is CausalCharacter.LIGHTLIKE

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_rejected(self, torus, c):
        """nan passes both c <= 0 and the locus tolerance test unless it
        is refused first, and would be written out as a component."""
        for mode in ("lightlike_locus", "general"):
            with pytest.raises(LiftError, match="positive and finite"):
                circle_lift(torus.spec, "X", c, mode=mode, grid=16)

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
