"""Extremum scans, witness planes, sign scans, and derived charts."""

import itertools
import math

import numpy as np
import pytest

from lorentzgeo.catalog import _TORUS_FAMILY, build_example, list_examples
from lorentzgeo.curvature import (
    ScalarDerivs,
    causal_character,
    energy_derivs,
    jacobi_form,
    null_sectional_curvature,
    point_geometries,
    point_geometry,
    sectional_curvature,
)
from lorentzgeo.manifold import (
    SAMPLING_COLLAR,
    CausalCharacter,
    Coordinate,
    ManifoldSpec,
    TangentPlane,
    field_energy_expr,
    load_spec,
    metric_pairing_expr,
)
from lorentzgeo.obstruction import (
    ExtremumKind,
    ExtremumRecord,
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
from lorentzgeo import cli
from lorentzgeo import expr as ex
from lorentzgeo import obstruction
from lorentzgeo.symmetry import (
    FieldTag,
    SubspaceError,
    classify_field,
    kernel_direction,
    perp_frame,
    restricted_operator,
)

PI = math.pi


def restricted_at(M, xname, p):
    """A_X restricted on the X-perp frame at p."""
    return restricted_operator(perp_frame(M, xname, p), M.field_derivs(xname, p))


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

# The rotation field of the flat plane: Killing, and zero at the origin.
ROTATION_PLANE = FLAT_R2_RIEMANNIAN.replace('"0", "1"', '"-y", "x"')

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

    @pytest.mark.parametrize("grid", [[32, 8, 8, 8], [32, 8]], ids=["long", "short"])
    def test_grid_list_needs_one_entry_per_axis(self, circle_lift_torus, grid):
        with pytest.raises(ValueError) as err:
            scan_extrema(circle_lift_torus.spec, circle_lift_torus.field_name, grid=grid)
        assert str(err.value) == (f"grid {grid} has {len(grid)} entries but the chart "
                                  "has dimension 3")

    @pytest.mark.parametrize("name,grid", [("torus_family", 64), ("minkowski2", 10)],
                             ids=["records", "plateau"])
    def test_one_metric_jet_per_record_for_scan_and_witness(self, count_calls, name, grid):
        """The records' geometries (of the refined points, or of the
        plateau's sampled points) are asked for in one batch, so neither
        the records nor the witness at each of them builds a geometry
        twice: one metric jet per distinct record point."""
        M = build_example(name).spec            # a fresh spec: nothing memoized
        cls = classify_field(M, "X")
        jets = count_calls(ManifoldSpec, "metric_derivs")
        scan = scan_extrema(M, "X", grid=grid)
        records = scan.witness_records(M, "X")
        for rec in records:
            assert extremum_witness(M, "X", rec, classification=cls).verdict is Verdict.PASS
        assert len(records) >= 2
        assert len(jets) == len({rec.point.tobytes() for rec in records})


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


# A stationary 4-torus, X = d/dt Killing, whose twist g_tz makes A_X
# restricted to X-perp a non-zero 3x3 skew operator at both extrema of
# f = g_tt/2: the witness plane there depends on the kernel step.
TWISTED_FOUR_TORUS = """
[manifold]
dim = 4
coords = t, x, y, z
range.t = 0, 1
range.x = 0, 1
range.y = 0, 1
range.z = 0, 1
periodic = t, x, y, z
signature = lorentzian

[metric]
g.0.0 = "-(3 + cos(2*pi*x) + 0.5*cos(2*pi*y))"
g.0.3 = "0.4*sin(2*pi*(x + 1/8))"
g.1.1 = "1"
g.2.2 = "1"
g.3.3 = "1"

[field.X]
components = "1", "0", "0", "0"
"""


# A closed stationary 4-torus, X = d/dt Killing, with g_tt and the twist
# g_tz to fill in.
STATIONARY_FOUR_TORUS = """
[manifold]
dim = 4
coords = t, x, y, z
range.t = 0, 1
range.x = 0, 1
range.y = 0, 1
range.z = 0, 1
periodic = t, x, y, z
signature = lorentzian

[metric]
g.0.0 = "{g00}"
g.0.3 = "{g03}"
g.1.1 = "1"
g.2.2 = "1"
g.3.3 = "1"

[field.X]
components = "1", "0", "0", "0"
"""


def _wave(k, names):
    """The chart text of k·(names), zero terms left out."""
    return " + ".join(f"{int(c)}*{n}" for c, n in zip(k, names) if c)


def _nonzero_wave_vector(rng, size):
    while True:
        k = rng.integers(-2, 3, size=size)
        if k.any():
            return k


def stationary_four_tori(seed=7, count=20):
    """Seeded closed stationary 4-charts, t, x, y, z periodic on [0, 1)
    and X = d/dt Killing: g_tt = -(3 + three waves a*cos 2pi(k·(x,y,z) + phi))
    with k in [-2, 2]^3 and a in [0.1, 0.8], a twist
    g_tz = b*sin 2pi(k·(x,y) + phi) with b in [0.1, 0.6], a unit spatial
    block, and a and phi printed to 3 decimals."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(count):
        waves = []
        for _ in range(3):
            k = _nonzero_wave_vector(rng, 3)
            a, phi = rng.uniform(0.1, 0.8), rng.uniform(0, 1)
            waves.append(f"{a:.3f}*cos(2*pi*({_wave(k, 'xyz')} + {phi:.3f}))")
        k = _nonzero_wave_vector(rng, 2)
        b, phi = rng.uniform(0.1, 0.6), rng.uniform(0, 1)
        docs.append(STATIONARY_FOUR_TORUS.format(
            g00=f"-(3 + {' + '.join(waves)})",
            g03=f"{b:.3f}*sin(2*pi*({_wave(k, 'xy')} + {phi:.3f}))"))
    return docs


FAMILY_GRID = [8, 16, 16, 16]

# A stationary 4-torus on which the grid node (0, 0.1875, 0.125, 0.25) of
# a 16-point grid is lower than its 6 axis neighbours while |grad f| there
# is 0.953: the minimum lies diagonally, along a soft Hessian direction,
# about 6 spacings away.
DIAGONAL_MINIMUM_TORUS = STATIONARY_FOUR_TORUS.format(
    g00="-(3 + 0.487*cos(2*pi*(-x + 0.996)) + 0.792*cos(2*pi*(2*x + y + z + 0.215))"
        " + 0.529*cos(2*pi*(x + 2*y - 2*z + 0.044)))",
    g03="0.118*sin(2*pi*(-2*x + 0.466))")


@pytest.fixture(scope="module")
def stationary_family():
    """(spec, scan, classification) of each chart of the seeded family."""
    out = []
    for doc in stationary_four_tori():
        M = load_spec(doc)
        out.append((M, scan_extrema(M, "X", grid=FAMILY_GRID), classify_field(M, "X")))
    return out


@pytest.fixture(scope="module")
def twisted_four_torus():
    M = load_spec(TWISTED_FOUR_TORUS)
    return M, scan_extrema(M, "X", grid=[8, 24, 24, 8]), classify_field(M, "X")


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

    def test_steps_may_leave_the_start_nodes_box(self, torus):
        """From x = 0.27 the first Newton step lands near x = 0.53, many
        grid spacings away, and Newton goes on to the minimum x = 0.5."""
        M = torus.spec
        fd = ScalarDerivs(M, field_energy_expr(M, "X"))
        got = obstruction._refine(M, fd, np.array([0.27, 0.3]))
        assert got == pytest.approx([0.5, 0.3], abs=1e-12)

    def test_diagonal_minimum_is_reached(self):
        """The node lower than its axis neighbours is not critical; Newton
        from it reaches a critical point."""
        M = load_spec(DIAGONAL_MINIMUM_TORUS)
        fd = ScalarDerivs(M, field_energy_expr(M, "X"))
        p0 = np.array([0.0, 0.1875, 0.125, 0.25])
        assert np.linalg.norm(fd.gradient(p0)) == pytest.approx(0.953, abs=1e-3)
        assert np.linalg.norm(fd.gradient(obstruction._refine(M, fd, p0))) <= 1e-12

    def test_static_four_torus_witnesses_all_pass(self, static_four_torus):
        """The leak guard must not read the rounding noise of a refined
        gradient, scaled by large curvature, as a leak out of X-perp."""
        M, scan, cls = static_four_torus
        assert len(scan.records) == 48
        verdicts = [extremum_witness(M, "X", rec, classification=cls).verdict
                    for rec in scan.records]
        assert verdicts == [Verdict.PASS] * 48


def construction_mismatches(M, xname, records):
    """Records at which the frame and restricted operator do not follow
    the record's causal character: a timelike X must give a timelike
    frame of m-1 basis rows and an (m-1)-square operator, a lightlike X
    a lightlike frame of m-2, and a spacelike or zero X a SubspaceError
    naming the character."""
    want = {cc: (cc, d, (d, d)) for cc, d in ((CausalCharacter.TIMELIKE, M.dim - 1),
                                              (CausalCharacter.LIGHTLIKE, M.dim - 2))}
    bad = []
    for rec in records:
        try:
            frame = perp_frame(M, xname, rec.point)
            op = restricted_operator(frame, M.field_derivs(xname, frame.geo.point))
            got = (frame.causal, len(frame.basis), op.shape)
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


@pytest.fixture(scope="module")
def lifted_twisted_four_torus(twisted_four_torus):
    """(spec, field, witness records) of the 5-D circle lift of the
    twisted 4-torus, whose lightlike records have a 3-row quotient."""
    M, _, _ = twisted_four_torus
    lift = circle_lift(M, "X", 1.224744871391589)
    scan = scan_extrema(lift.spec, lift.field, grid=8)
    return lift.spec, lift.field, scan.witness_records(lift.spec, lift.field)


def reference_spectrum(M, xname, p, causal):
    """eigvalsh of the Jacobi form on a basis built another way: the
    g-projection onto X-perp (timelike X) or the euclidean null space of
    gX with X projected out (lightlike X), spanned by an SVD, then
    Gram-Schmidt in g."""
    geo = point_geometry(M, p)
    g, X, m = geo.metric, M.field_eval(xname, p), M.dim
    gX = g @ X
    if causal is CausalCharacter.TIMELIKE:
        span = np.eye(m) - np.outer(gX, X) / float(X @ gX)
        rank = m - 1
    else:
        perp = np.linalg.svd(gX.reshape(1, -1))[2][1:]
        span = perp - np.outer(perp @ X, X) / float(X @ X)
        rank = m - 2
    rows = []
    for w in np.linalg.svd(span, full_matrices=False)[2][:rank]:
        for e in rows:
            w = w - float(w @ g @ e) * e
        rows.append(w / math.sqrt(float(w @ g @ w)))
    B = np.array(rows).reshape(-1, m)
    J = B @ jacobi_form(geo, X) @ B.T
    if causal is CausalCharacter.TIMELIKE:
        J = J / float(X @ gX)
    return np.linalg.eigvalsh(J)


def frame_mismatches(M, xname, records):
    """(point, check, deviation) where the X-perp frame at a timelike or
    lightlike record fails one of: B g Bᵀ = I, g(X, B) = 0, B ⊥ X
    (euclidean, lightlike X only), to 1e-12 scaled by the entries'
    size, and eigvalsh(J) equal to :func:`reference_spectrum` to 1e-12
    relative.  Also returns the (causal, rows) pairs checked."""
    bad, seen = [], set()
    for rec in records:
        if rec.causal not in (CausalCharacter.TIMELIKE, CausalCharacter.LIGHTLIKE):
            continue
        frame = perp_frame(M, xname, rec.point)
        B, g, X = frame.basis, frame.geo.metric, frame.field
        size = float(np.max(np.abs(B)))
        want = reference_spectrum(M, xname, frame.geo.point, frame.causal)
        checks = [("B g B^T = I", float(np.max(np.abs(B @ g @ B.T - np.eye(len(B)))))),
                  ("g(X, B) = 0",
                   float(np.max(np.abs(B @ g @ X))) / (size * float(np.max(np.abs(g @ X))))),
                  ("spectrum", float(np.max(np.abs(np.linalg.eigvalsh(frame.jacobi) - want)))
                   / max(float(np.max(np.abs(want))), 1e-300))]
        if frame.causal is CausalCharacter.LIGHTLIKE:
            checks.append(("B . X = 0",
                           float(np.max(np.abs(B @ X))) / (size * float(np.max(np.abs(X))))))
        bad += [(rec.point.tolist(), what, dev) for what, dev in checks if not dev <= 1e-12]
        seen.add((frame.causal, len(B)))
    return bad, seen


class TestPerpFrame:
    """One SVD null space and one Cholesky factor give a g-orthonormal
    basis of X-perp (of a complement of a lightlike X in it) whose Jacobi
    spectrum is that of any other such basis."""

    def test_catalog_witness_records(self, catalog_witness_records):
        bad, seen = [], set()
        for name, M, xname, records in catalog_witness_records:
            b, s = frame_mismatches(M, xname, records)
            bad += [(name,) + x for x in b]
            seen |= s
        assert bad == []
        assert {(CausalCharacter.TIMELIKE, 1), (CausalCharacter.TIMELIKE, 3),
                (CausalCharacter.LIGHTLIKE, 1)} <= seen

    def test_four_tori_records(self, static_four_torus, twisted_four_torus):
        for M, scan, _ in (static_four_torus, twisted_four_torus):
            assert frame_mismatches(M, "X", scan.records) == \
                ([], {(CausalCharacter.TIMELIKE, 3)})

    def test_five_dimensional_lift_records(self, lifted_twisted_four_torus):
        M, xname, records = lifted_twisted_four_torus
        assert frame_mismatches(M, xname, records) == \
            ([], {(CausalCharacter.TIMELIKE, 4), (CausalCharacter.LIGHTLIKE, 3)})


def kernel_residual_mismatches(M, xname, records, cls):
    """(point, shape, reported, recomputed) where a witness's
    kernel_residual differs from |op c| / |op| (|op c| when |op| <= 1e-10)
    recomputed with a second SVD: bit for bit on a 1x1 operator, within
    1e-12 relative otherwise.  Also returns the operator shapes checked."""
    bad, shapes = [], set()
    for rec in records:
        w = extremum_witness(M, xname, rec, classification=cls)
        if w.kernel_residual is None:
            continue
        op = restricted_at(M, xname, rec.point)
        kv, _ = kernel_direction(op)
        opn, res = float(np.linalg.norm(op, 2)), float(np.linalg.norm(op @ kv))
        want = res / opn if opn > 1e-10 else res
        ok = w.kernel_residual == want if op.shape == (1, 1) \
            else abs(w.kernel_residual - want) <= 1e-12 * want
        if not ok:
            bad.append((rec.point.tolist(), op.shape, w.kernel_residual, want))
        shapes.add(op.shape)
    return bad, shapes


class TestKernelResidual:
    """The witness reports the residual that kernel_direction accepted
    its kernel direction by, not a recomputation."""

    def test_catalog_witness_records(self, catalog_witness_records):
        bad, shapes = [], set()
        for name, M, xname, records in catalog_witness_records:
            b, s = kernel_residual_mismatches(M, xname, records, classify_field(M, xname))
            bad += [(name,) + x for x in b]
            shapes |= s
        assert bad == []
        assert (1, 1) in shapes

    def test_static_four_torus_records(self, static_four_torus):
        M, scan, cls = static_four_torus
        assert kernel_residual_mismatches(M, "X", scan.records, cls) == ([], {(3, 3)})


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
    basis = perp_frame(M, xname, p).basis
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
        frame = perp_frame(M, xname, rec.point)
        basis, J = frame.basis, frame.jacobi
        random = rng.standard_normal((4, len(basis)))
        cs = np.vstack([np.eye(len(basis)), random / np.linalg.norm(random, axis=1)[:, None]])
        bad += form_mismatches(M, xname, rec.point, cs, [float(c @ J @ c) for c in cs])
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
        d = len(perp_frame(M, xname, s.point).basis)
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


def full_grid_candidates(M, field, grid):
    """The scan's candidates on the full grid, as if f mentioned every
    coordinate: the grid nodes, spacings and, for the minima and then
    the maxima, the candidate mask and its values (negated for maxima).
    A candidate is an interior node no higher (lower) than any of its
    3^m - 1 lattice neighbours, each offset rolled in on its own."""
    axes = obstruction._grid_axes(M, [grid] * M.dim if isinstance(grid, int) else grid)
    nodes = obstruction._grid_points(axes)
    shape = tuple(len(a) for a in axes)
    F = M.evaluate_points(energy_derivs(M, field).expr, nodes).reshape(shape)
    tie = 1e-12 * max(1.0, abs(F.min()), abs(F.max()))
    interior = np.ones(shape, dtype=bool)
    for a, c in enumerate(M.coords):
        if not c.periodic:
            interior[(slice(None),) * a + (0,)] = False
            interior[(slice(None),) * a + (-1,)] = False
    sides = []
    for sense in (1.0, -1.0):
        mask = interior.copy()
        for offset in itertools.product((-1, 0, 1), repeat=M.dim):
            if any(offset):
                nb = np.roll(F, offset, axis=tuple(range(M.dim)))
                mask &= sense * F <= sense * nb + tie
        sides.append((mask, sense * F[mask]))
    return nodes, np.array([a[1] - a[0] for a in axes]), sides


# Coordinates t, x periodic and y open; f = -(2 + cos 2 pi x)/2 mentions
# neither t nor y, so its extrema are tied planes that end on y's edges.
OPEN_AXIS_CHART = """
[manifold]
dim = 3
coords = t, x, y
range.t = 0, 1
range.x = 0, 1
range.y = -1, 2
periodic = t, x
signature = lorentzian

[metric]
g.0.0 = "-(2 + cos(2*pi*x))"
g.1.1 = "1"
g.2.2 = "1"

[field.X]
components = "1", "0", "0"
"""

@pytest.mark.parametrize("name,field,grid,records", [
    ("torus_family", "X", 100, [("local_min", [0.5, 0.0]), ("local_max", [0.0, 0.0])]),
    ("circle_lift_torus", "Xbar", [160, 8, 8],
     [("local_min", [0.5, 0.0, 0.0]), ("local_max", [0.0, 0.0, 0.0])]),
])
def test_clustering_matches_the_pairwise_loop(entry, name, field, grid, records):
    """Tied lines and tori of candidates on the full grid: the lattice
    clustering gives the clusters and representatives of the pairwise
    loop, and the scan the expected records."""
    M = entry(name).spec
    nodes, spacings, sides = full_grid_candidates(M, field, grid)
    for mask, values in sides:
        assert len(values) >= 64
        got = nodes[obstruction._cluster_representatives(M, mask, values)]
        want = _reference_clusters(M, spacings, values, nodes[mask.ravel()])
        assert [r.tolist() for r in got] == [w.tolist() for w in want]
    scan = scan_extrema(M, field, grid=grid)
    assert [(r.kind.value, r.point.tolist()) for r in scan.records] == records


@pytest.mark.parametrize("name,field,grid", [
    ("torus_family", "X", [100, 100]),
    ("circle_lift_torus", "Xbar", [160, 8, 8]),
    ("open_axis", "X", [8, 12, 10]),
])
def test_axes_f_does_not_mention_collapse_to_the_representatives_node(
        entry, monkeypatch, name, field, grid):
    """The scan keeps one node on each axis f does not mention (y on the
    torus, y and theta on the lift, t and the open y here): it refines
    the representatives of the full grid's clusters and returns the
    records of the full scan."""
    M = load_spec(OPEN_AXIS_CHART) if name == "open_axis" else entry(name).spec
    mentioned = ex.free_names(energy_derivs(M, field).expr)
    assert 0 < len(mentioned & set(M.coord_names())) < M.dim
    nodes, _, sides = full_grid_candidates(M, field, grid)
    want = [nodes[obstruction._cluster_representatives(M, mask, values)].tolist()
            for mask, values in sides]

    refined_from = []
    refine = obstruction._refine

    def spy(M, fd, p0):
        refined_from.append(p0.tolist())
        return refine(M, fd, p0)

    monkeypatch.setattr(obstruction, "_refine", spy)
    scan = scan_extrema(M, field, grid=grid)
    assert refined_from == want[0] + want[1]

    # the full scan: f taken to mention every coordinate
    monkeypatch.setattr(energy_derivs(M, field), "mentioned", set(M.coord_names()))
    full = scan_extrema(M, field, grid=grid)
    assert refined_from == 2 * (want[0] + want[1])
    assert [(r.kind, r.point.tobytes(), r.f_value, r.hessian_eigs, r.causal)
            for r in scan.records] == \
        [(r.kind, r.point.tobytes(), r.f_value, r.hessian_eigs, r.causal)
         for r in full.records]
    assert (scan.plateau, scan.f_min, scan.f_max) == (full.plateau, full.f_min, full.f_max)
    assert len(scan.records) == 2


def test_the_scan_walks_f_for_its_names_once_per_energy(count_calls):
    M = load_spec(OPEN_AXIS_CHART)
    walks = count_calls(ex, "free_names")
    scans = [scan_extrema(M, "X", grid=grid) for grid in (8, [8, 12, 10], 8)]
    assert len(walks) == 1
    assert [len(s.records) for s in scans] == [len(scans[0].records)] * 3


def test_clustering_matches_the_pairwise_loop_on_random_grids(rng):
    """Seeded candidate masks on 2-, 3- and 4-D grids mixing periodic and
    open axes, with tied values and candidates on the open edges: the
    lattice clustering gives the representatives of the pairwise loop."""
    bad = []
    for case in range(60):
        m = 2 + case % 3
        periodic = rng.random(m) < 0.5
        coords = [Coordinate(f"x{a}", 0.0, 1.0, True) if periodic[a]
                  else Coordinate(f"x{a}", -1.0, 2.0, False) for a in range(m)]
        metric = [[ex.ONE if i == j else ex.ZERO for j in range(m)] for i in range(m)]
        M = ManifoldSpec("grid", coords, "riemannian", metric)
        axes = obstruction._grid_axes(M, list(rng.integers(8, 12, size=m)))
        nodes = obstruction._grid_points(axes)
        mask = rng.random(tuple(len(a) for a in axes)) < (0.4, 0.1, 0.015)[m - 2]
        values = rng.integers(0, 3, size=int(mask.sum())).astype(float)
        got = nodes[obstruction._cluster_representatives(M, mask, values)]
        want = _reference_clusters(M, np.array([a[1] - a[0] for a in axes]),
                                   values, nodes[mask.ravel()])
        if [r.tolist() for r in got] != [w.tolist() for w in want]:
            bad.append((case, periodic.tolist()))
    assert bad == []


class TestWitness:
    def test_torus_minimum(self, torus):
        scan = scan_extrema(torus.spec, "X", grid=64)
        rep = extremum_witness(torus.spec, "X", scan.minima()[0])
        assert rep.verdict is Verdict.PASS
        assert rep.case == "timelike_even"
        assert rep.inequality == ">= 0"
        assert rep.value == pytest.approx(PI ** 2, abs=1e-6)
        assert rep.kernel_residual < 1e-7

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_tolerance_must_be_finite_and_non_negative(self, torus, tol):
        rec = scan_extrema(torus.spec, "X", grid=16).minima()[0]
        with pytest.raises(ValueError, match="^tol must be finite and non-negative"):
            extremum_witness(torus.spec, "X", rec, tol=tol)

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

    def test_saddle_is_out_of_scope(self, stationary_family):
        M, rec, cls = next((M, r, cls) for M, scan, cls in stationary_family
                           for r in scan.records if r.kind is ExtremumKind.SADDLE)
        rep = extremum_witness(M, "X", rec, classification=cls)
        assert rep.verdict is Verdict.SCOPE
        assert rep.scope_reason == "saddle points are recorded but are not witness hypotheses"

    def test_zero_field_extremum_is_out_of_scope(self):
        """The rotation field of the flat plane is Killing and vanishes at
        the minimum of f = (x^2 + y^2)/2."""
        M = load_spec(ROTATION_PLANE)
        rec, = scan_extrema(M, "X", grid=8).minima()
        assert rec.causal is CausalCharacter.ZERO
        rep = extremum_witness(M, "X", rec)
        assert rep.verdict is Verdict.SCOPE
        assert rep.scope_reason == "field vanishes at the extremum"

    def test_lightlike_extremum_in_even_dimension_is_out_of_scope(self):
        """The circle lift of a 3-D static chart is 4-D, and its lifted
        field is lightlike at the maximum of f."""
        lift = circle_lift(load_spec(OPEN_AXIS_CHART), "X", 1.0)
        rec = next(r for r in scan_extrema(lift.spec, lift.field, grid=8).maxima()
                   if r.causal is CausalCharacter.LIGHTLIKE)
        rep = extremum_witness(lift.spec, lift.field, rec)
        assert rep.verdict is Verdict.SCOPE
        assert rep.scope_reason == "lightlike extremum needs odd dimension, chart has m=4"


# X = d/dt is homothetic, L_X g = 0.6 g, with f = -e^{0.6 t} (x - 1/2)^2 / 2:
# causal, and lightlike on x = 1/2, where f has its maximum 0.  A grid of
# an odd node count per axis has nodes on x = 1/2.  With g_tt's sign
# flipped X is not causal, and x = 1/2 is a lightlike minimum of f.
HOMOTHETIC_CAUSAL = """
[manifold]
dim = 3
coords = t, x, y
range.t = -1, 1
range.x = 0, 1
range.y = 0, 1
periodic = y
signature = lorentzian

[metric]
g.0.0 = "-exp(0.6*t)*(x - 0.5)^2"
g.0.2 = "exp(0.6*t)"
g.1.1 = "exp(0.6*t)"

[field.X]
components = "1", "0", "0"
"""
HOMOTHETIC_FLIPPED = HOMOTHETIC_CAUSAL.replace('"-exp(0.6*t)', '"exp(0.6*t)')


class TestHomotheticWitness:
    """nabla X = skew + (lam/2) I for a homothetic X, and the witness
    plane comes from the kernel of the skew part.  A kernel vector v of
    the quotient operator then has Hess f(v,v) = (lam/2)^2 g(v,v) -
    g(R(v,X)X,v), so the witness value is -Hess f(v,v)/g(v,v) + (lam/2)^2,
    read here from the energy tree alone."""

    @staticmethod
    def witness(document, grid):
        M = load_spec(document)
        cls = classify_field(M, "X")
        assert cls.tag is FieldTag.HOMOTHETIC
        assert cls.lam == pytest.approx(0.6, rel=1e-12)
        rec, = scan_extrema(M, "X", grid=grid).witness_records(M, "X")
        assert rec.causal is CausalCharacter.LIGHTLIKE
        rep = extremum_witness(M, "X", rec, classification=cls)
        assert rep.verdict is Verdict.PASS and rep.case == "lightlike_odd"
        v = rep.plane.u
        hess = ScalarDerivs(M, field_energy_expr(M, "X")).covariant_hessian(rec.point)
        hess_vv = float(v @ hess @ v) / float(v @ point_geometry(M, rec.point).metric @ v)
        assert rep.value == pytest.approx(-hess_vv + (cls.lam / 2) ** 2, rel=1e-9)
        return rec, rep, hess_vv

    def test_causal_field_lightlike_maximum(self):
        rec, rep, hess_vv = self.witness(HOMOTHETIC_CAUSAL, 17)
        assert rec.kind is ExtremumKind.MAX and rep.inequality == ">= 0"
        assert rec.point.tolist() == pytest.approx([-0.874125, 0.5, 0.0], abs=1e-12)
        assert hess_vv == pytest.approx(-1.0, rel=1e-9)
        assert rep.value == pytest.approx(1.09, rel=1e-9)

    @pytest.mark.parametrize("grid", [15, 17, 33])
    def test_flipped_field_lightlike_minimum(self, grid):
        rec, rep, hess_vv = self.witness(HOMOTHETIC_FLIPPED, grid)
        assert rec.kind is ExtremumKind.MIN and rep.inequality == "<= 0"
        assert hess_vv == pytest.approx(1.0, rel=1e-9)
        assert rep.value == pytest.approx(-0.91, rel=1e-9)


class TestTwistedFourTorus:
    """The paper's kernel step end to end: at the timelike minimum the
    witness plane is span{v, X} for the kernel v of a non-zero 3x3 skew
    operator, and its curvature is neither end of the range of planes
    through X."""

    def test_field_is_killing_exactly(self, twisted_four_torus):
        _, _, cls = twisted_four_torus
        assert (cls.tag, cls.sample_count) == (FieldTag.KILLING, 0)

    def test_one_timelike_minimum_and_maximum(self, twisted_four_torus):
        _, scan, _ = twisted_four_torus
        (low,), (high,) = scan.minima(), scan.maxima()
        assert low.causal is high.causal is CausalCharacter.TIMELIKE
        assert low.point[1:3] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert high.point[1:3] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_minimum_witness_is_the_kernel_plane(self, twisted_four_torus):
        """K of the kernel plane equals Hess f(v,v) / (-g(X,X) g(v,v)), the
        Hessian identity with A_X v = 0, read from the exact Hessian of f
        and no curvature tensor."""
        M, scan, cls = twisted_four_torus
        rec = scan.minima()[0]
        op = restricted_at(M, "X", rec.point)
        assert op.shape == (3, 3) and np.max(np.abs(op)) > 0.8
        rep = extremum_witness(M, "X", rec, classification=cls)
        assert rep.verdict is Verdict.PASS
        assert rep.value == pytest.approx(2.1932454224643, abs=1e-12)
        v, X = rep.plane.u, rep.plane.v
        g = point_geometry(M, rec.point).metric
        hess = energy_derivs(M, "X").covariant_hessian(rec.point)
        oracle = float(v @ hess @ v) / (-float(X @ g @ X) * float(v @ g @ v))
        assert rep.value == pytest.approx(oracle, rel=1e-9)

    def test_maximum_witness_is_the_top_jacobi_eigenvalue(self, twisted_four_torus):
        M, scan, cls = twisted_four_torus
        rec = scan.maxima()[0]
        rep = extremum_witness(M, "X", rec, classification=cls)
        assert rep.verdict is Verdict.PASS
        assert rep.value == pytest.approx(-0.49972680511845, abs=1e-12)
        top = np.linalg.eigvalsh(perp_frame(M, "X", rec.point).jacobi)[-1]
        assert rep.value == pytest.approx(top, rel=1e-12)

    def test_least_jacobi_direction_in_place_of_the_kernel_fails(self, twisted_four_torus,
                                                                monkeypatch):
        """The kernel plane is none of the ends of J's spectrum: with the
        least eigenvector of J in place of the kernel direction, which no
        choice of basis moves, the minimum's witness fails."""
        M, scan, cls = twisted_four_torus
        rec = scan.minima()[0]
        least = np.linalg.eigh(perp_frame(M, "X", rec.point).jacobi)[1][:, 0]
        monkeypatch.setattr(obstruction, "kernel_direction", lambda op: (least, 0.0))
        rep = extremum_witness(M, "X", rec, classification=cls)
        assert rep.verdict is Verdict.FAIL
        assert rep.value == pytest.approx(-0.1724, abs=1e-4)


class TestStationaryFamily:
    """The seeded family of closed stationary 4-tori: every extremum the
    scan hands the witness is a critical point of f, and the paper's sign
    holds at each."""

    def test_every_extremum_is_critical_and_passes(self, stationary_family):
        bad = []
        for i, (M, scan, cls) in enumerate(stationary_family):
            fd = energy_derivs(M, "X")
            assert scan.minima() and scan.maxima()      # a closed chart has both
            for rec in scan.minima() + scan.maxima():
                grad = float(np.linalg.norm(fd.gradient(rec.point)))
                verdict = extremum_witness(M, "X", rec, classification=cls).verdict
                if grad > 1e-10 or verdict is not Verdict.PASS:
                    bad.append((i, rec.kind.value, rec.point.tolist(), grad, verdict))
        assert bad == []

    def test_extrema_where_f_turns_the_other_way_are_saddles(self, stationary_family):
        """A minimum candidate refined to a point where f also falls is a
        saddle, as is a maximum candidate where f also rises; the saddles
        are critical points too."""
        saddles = 0
        for M, scan, _ in stationary_family:
            fd = energy_derivs(M, "X")
            for rec in scan.records:
                if rec.kind is ExtremumKind.SADDLE:
                    saddles += 1
                    assert {-1, 1} <= set(rec.eig_signs)
                    assert np.linalg.norm(fd.gradient(rec.point)) <= 1e-10
                else:
                    assert (-1 if rec.kind is ExtremumKind.MIN else 1) not in rec.eig_signs
        assert saddles > 0

    # (minima, maxima, saddles) per chart: without the dedupe chart 5 has
    # 14 + 14 + 0, chart 13 has 24 + 24 + 0
    FAMILY_RECORDS = [(20, 20, 0), (4, 4, 0), (4, 4, 0), (2, 2, 0), (2, 2, 0),
                      (2, 2, 0), (6, 6, 0), (2, 2, 4), (8, 8, 0), (3, 3, 0),
                      (4, 4, 0), (2, 2, 0), (32, 32, 0), (8, 8, 0), (4, 4, 0),
                      (5, 5, 0), (5, 5, 0), (8, 8, 0), (1, 1, 2), (4, 4, 0)]

    def test_refined_records_of_one_kind_are_never_box_adjacent(self, stationary_family):
        """Refined candidates that land within 1.01 grid spacings of an
        earlier record of their kind on every axis, periodic axes wrapped,
        are dropped: no such pair is left, and each chart keeps the pinned
        count of each kind."""
        counts = []
        for M, scan, _ in stationary_family:
            assert all(c.periodic for c in M.coords)
            period = np.array([c.period for c in M.coords])
            spacing = period / np.array(FAMILY_GRID)
            for kind in ExtremumKind:
                pts = [r.point for r in scan.records if r.kind is kind]
                for a, b in itertools.combinations(pts, 2):
                    d = np.abs(a - b)
                    assert not np.all(np.minimum(d, period - d) <= 1.01 * spacing), (a, b)
            counts.append(tuple(sum(r.kind is kind for r in scan.records)
                                for kind in (ExtremumKind.MIN, ExtremumKind.MAX,
                                             ExtremumKind.SADDLE)))
        assert counts == self.FAMILY_RECORDS

    def test_candidates_are_the_extrema_of_the_lattice_neighbourhood(self, monkeypatch):
        """On its one t node the scan's candidate masks and values are
        those of the full grid's 3^m - 1 offsets."""
        seen = []
        cluster = obstruction._cluster_representatives

        def spy(M, mask, values):
            seen.append((mask.copy(), values.copy()))
            return cluster(M, mask, values)

        monkeypatch.setattr(obstruction, "_cluster_representatives", spy)
        for doc in stationary_four_tori():
            M = load_spec(doc)
            seen.clear()
            scan_extrema(M, "X", grid=FAMILY_GRID)
            _, _, sides = full_grid_candidates(M, "X", FAMILY_GRID)
            assert len(seen) == len(sides) == 2
            for (mask, values), (want_mask, want_values) in zip(seen, sides):
                assert mask.shape == (1,) + want_mask.shape[1:]
                assert np.array_equal(np.broadcast_to(mask, want_mask.shape), want_mask)
                assert np.array_equal(np.tile(values, FAMILY_GRID[0]), want_values)

    @pytest.mark.parametrize("grid", ["16", "24"])
    def test_diagonal_minimum_chart_witness_exits_zero(self, tmp_path, capsys, grid):
        path = tmp_path / "diagonal.chart"
        path.write_text(DIAGONAL_MINIMUM_TORUS)
        assert cli.main(["witness", str(path), "--field", "X", "--grid", grid]) == 0
        assert "not a critical point" not in capsys.readouterr().err


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
        """The X-perp basis refuses a spacelike or zero X on the path,
        naming field and character."""
        mixed = entry("torus_family_mixed").spec
        zero = load_spec(_TORUS_FAMILY + '\n[field.Z]\ncomponents = "0", "0"\n')
        pts = interpolate_path(np.array([[0.5, 0.0], [0.0, 0.0]]), 16)
        for spec, x, cc in ((mixed, "X", "spacelike"), (zero, "Z", "zero")):
            with pytest.raises(SubspaceError, match=f"field '{x}' is {cc} at"):
                plane_sign_scan(spec, x, pts)

    @pytest.mark.parametrize("count", [0, -1])
    def test_planes_per_point_below_one_refused(self, torus, count):
        pts = interpolate_path(torus.paths["min_to_max"], 4)
        with pytest.raises(ValueError, match=f"planes_per_point must be at least 1, got {count}"):
            plane_sign_scan(torus.spec, "X", pts, planes_per_point=count)

    def test_frames_take_the_geometries_the_scan_holds(self, entry, count_calls, monkeypatch):
        """The scan hands perp_frame each geometry it holds: given the
        geometry's point instead, perp_frame wraps it once more per path
        point, for the same values (with the path's geometries held in the
        memo, so no jet wraps a point).  A frame from a point and from the
        stacked geometry of that point are equal to the byte."""
        e = entry("circle_lift_torus")
        M, pts = e.spec, interpolate_path(e.paths["across_locus"], 12)
        plane_sign_scan(M, "Xbar", pts, planes_per_point=4)     # the memo then holds the path
        wraps = count_calls(ManifoldSpec, "wrap_point")
        held = plane_sign_scan(M, "Xbar", pts, planes_per_point=4)
        n_held = len(wraps)
        real = obstruction.perp_frame
        monkeypatch.setattr(obstruction, "perp_frame", lambda M, x, geo: real(M, x, geo.point))
        del wraps[:]
        rewrapped = plane_sign_scan(M, "Xbar", pts, planes_per_point=4)
        assert len(wraps) - n_held == len(pts)
        assert [s.values for s in held.scans] == [s.values for s in rewrapped.scans]

        at_points = [real(M, "Xbar", p) for p in pts]
        geos = point_geometries(M, pts)
        for a, geo in zip(at_points, geos):
            b = real(M, "Xbar", geo)
            assert b.geo is geo and a.causal is b.causal
            for field in ("field", "basis", "jacobi"):
                assert getattr(a, field).tobytes() == getattr(b, field).tobytes()
            assert a.geo.metric.tobytes() == geo.metric.tobytes()
        assert {f.causal for f in at_points} == {CausalCharacter.TIMELIKE,
                                                 CausalCharacter.LIGHTLIKE}

    def test_range_is_the_exact_spectrum_ends(self, static_four_torus):
        """Along t at the static 4-torus maximum (0, 0.25, 0.75) the
        planes through X reach K = 0, which the sampled families miss:
        k_min and k_max are the extreme eigenvalues of J over the path."""
        M, _, _ = static_four_torus
        pts = interpolate_path(np.array([[0, 0.25, 0.75, 0], [0, 0.25, 0.75, 0.5]]), 1)
        rep = plane_sign_scan(M, "X", pts)
        assert rep.k_min == pytest.approx(-58.89145941, rel=1e-8)
        assert abs(rep.k_max) <= 1e-12
        assert rep.k_min <= min(v for s in rep.scans for v in s.values)
        assert max(v for s in rep.scans for v in s.values) < -2.5

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

    def test_zero_tolerance_is_each_points_own(self, circle_lift_torus):
        """Across the lift's null locus J reaches |lambda| ~ 2.5e4, but at
        points 10 and 11 only ~22, where plane 13 reads 7.5e-06 and 5.5e-06
        with no sign change: at most 1e-9 times the path's largest
        |lambda|, yet no zeros on the scale of their own points."""
        e = circle_lift_torus
        rep = plane_sign_scan(e.spec, "Xbar", interpolate_path(e.paths["across_locus"], 64))
        path_tol = 1e-9 * max(abs(rep.k_min), abs(rep.k_max))
        for i in (10, 11):
            assert 1e-7 * max(map(abs, rep.scans[i].values)) < rep.scans[i].values[13] <= path_tol
        assert not [z for z in rep.zeros if z.plane_index == 13 and 9 <= z.path_param <= 12]

    def test_interpolate_path_validates(self):
        with pytest.raises(ValueError):
            interpolate_path(np.array([[0.0, 0.0]]), 8)
        with pytest.raises(ValueError):
            interpolate_path(np.array([[0.0, 0.0], [0.0, 0.0]]), 8)
        for steps in (-1, -2):
            with pytest.raises(ValueError, match=f"steps must be at least 0, got {steps}"):
                interpolate_path(np.array([[0.0, 0.0], [1.0, 0.0]]), steps)
        assert interpolate_path(np.array([[0.5, 0.0], [1.0, 0.0]]), 0).tolist() == [[0.5, 0.0]]


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

    def test_non_conformal_field_is_refused(self):
        M = load_spec(FLAT_R2_RIEMANNIAN.replace('"0", "1"', '"x*x", "0"'))
        rec = obstruction._make_record(M, "X", point_geometry(M, [0.5, 0.5]), ExtremumKind.MIN)
        with pytest.raises(ValueError, match="^field does not classify as conformal"):
            conformal_bound_check(M, "X", rec)

    def test_odd_dimension_is_refused(self, circle_lift_torus):
        M = circle_lift_torus.spec
        rec = scan_extrema(M, "Xbar", grid=[32, 8, 8]).minima()[0]
        with pytest.raises(ValueError, match="^the conformal bound construction needs even"):
            conformal_bound_check(M, "Xbar", rec)

    def test_field_not_timelike_is_refused(self):
        """X = d/dy is Killing on the flat Riemannian plane, so spacelike."""
        M = load_spec(FLAT_R2_RIEMANNIAN)
        rec = scan_extrema(M, "X", grid=8).witness_records(M, "X")[0]
        with pytest.raises(ValueError, match="timelike at the critical point, got spacelike$"):
            conformal_bound_check(M, "X", rec)


# Records whose causal character X contradicts at their point: (entry,
# point, kind, the record's character, X's character there by its frame)
CONTRADICTED = [
    ("torus3_null_variant", [0.5, 0.3, 0.2], ExtremumKind.MAX, CausalCharacter.LIGHTLIKE,
     "timelike"),
    ("torus_family_mixed", [1 / 6, 0.0], ExtremumKind.MIN, CausalCharacter.TIMELIKE,
     "lightlike"),
    ("torus_family_mixed", [0.0, 0.0], ExtremumKind.MIN, CausalCharacter.TIMELIKE,
     "spacelike"),
]


def _contradicted_record(entry, name, p, kind, causal):
    M = entry(name).spec
    return M, ExtremumRecord(point=M.wrap_point(np.array(p)), f_value=0.0, kind=kind,
                             causal=causal, hessian_eigs=(1.0,) * M.dim)


def _field_entries(entry):
    """(spec, field, records, classification) of every catalog entry with a
    designated field, from a 16-node scan."""
    for name in list_examples():
        e = entry(name)
        if e.field_name:
            M, x = e.spec, e.field_name
            yield M, x, scan_extrema(M, x, grid=16).witness_records(M, x), classify_field(M, x)


class TestOneReadingPerExtremum:
    """The X-perp frame is the one reader of X's causal character at an
    extremum; a record's own character only decides which records need no
    frame at all."""

    @pytest.mark.parametrize("name, p, kind, causal, actual", CONTRADICTED,
                             ids=["timelike-marked-lightlike", "lightlike-marked-timelike",
                                  "spacelike-marked-timelike"])
    def test_the_witness_scopes_a_record_its_frame_contradicts(self, entry, count_calls,
                                                              name, p, kind, causal, actual):
        M, rec = _contradicted_record(entry, name, p, kind, causal)
        frames = count_calls(obstruction, "perp_frame")
        rep = extremum_witness(M, "X", rec)
        assert len(frames) == 1
        assert rep.verdict is Verdict.SCOPE and rep.case is None and rep.value is None
        at = rec.point.tolist()
        if actual == "spacelike":
            assert rep.scope_reason == (f"field 'X' is spacelike at {at}; X-perp is built for "
                                        "a timelike or lightlike X only")
        else:
            assert rep.scope_reason == f"X is {actual} at {at}; the record says {causal.value}"

    def test_a_frame_is_built_only_for_a_record_that_needs_one(self, entry, count_calls):
        """Over the scanned records of every catalog entry with a field and
        the contradicted records, the witness builds one frame for a
        record that passes its class, saddle, causal and parity exits, and
        none for any other, which it answers SCOPE."""
        frames = count_calls(obstruction, "perp_frame")
        cases = list(_field_entries(entry))
        for row in CONTRADICTED:
            M, rec = _contradicted_record(entry, *row[:4])
            cases.append((M, "X", [rec], classify_field(M, "X")))
        parity = {CausalCharacter.TIMELIKE: 0, CausalCharacter.LIGHTLIKE: 1}
        built = 0
        for M, x, records, cls in cases:
            for rec in records:
                needs = (cls.is_homothetic_or_killing and rec.kind is not ExtremumKind.SADDLE
                         and parity.get(rec.causal) == M.dim % 2)
                frames.clear()
                rep = extremum_witness(M, x, rec, classification=cls)
                assert len(frames) == int(needs), (M.name, rec)
                assert needs or rep.verdict is Verdict.SCOPE
                built += needs
        assert built > len(CONTRADICTED)

    def test_the_conformal_check_builds_a_frame_only_for_a_timelike_record(self, entry,
                                                                          count_calls):
        """One frame for a record marked timelike, none for any other, over
        the scanned records of the even-dimensional entries with a
        conformal field; a record its frame finds lightlike is refused by
        a ValueError naming both characters."""
        frames = count_calls(obstruction, "perp_frame")
        checked = set()
        for M, x, records, cls in _field_entries(entry):
            if cls.tag is FieldTag.NONE or M.dim % 2:
                continue
            for rec in records:
                frames.clear()
                try:
                    conformal_bound_check(M, x, rec, classification=cls)
                except ValueError:
                    pass
                assert len(frames) == int(rec.causal is CausalCharacter.TIMELIKE), (M.name, rec)
                checked.add(rec.causal)
        assert {CausalCharacter.TIMELIKE, CausalCharacter.SPACELIKE} <= checked
        M, rec = _contradicted_record(entry, *CONTRADICTED[1][:4])
        frames.clear()
        with pytest.raises(ValueError) as refused:
            conformal_bound_check(M, "X", rec)
        assert len(frames) == 1
        assert str(refused.value) == ("X is lightlike at [0.16666666666666666, 0.0]; "
                                      "the record says timelike")

    @pytest.mark.parametrize("name", ["torus_family", "minkowski2", "circle_lift_torus"])
    def test_records_are_read_from_the_scans_batch(self, entry, monkeypatch, name):
        """No point geometry is looked up after the batch of the refined
        points (or, on a plateau, of the sampled points) is built."""
        import lorentzgeo
        events = []
        batch = obstruction.point_geometries

        def batched(M, points):
            geos = batch(M, points)
            events.append("batch")
            return geos

        monkeypatch.setattr(obstruction, "point_geometries", batched)
        for mod in vars(lorentzgeo).values():
            single = getattr(mod, "point_geometry", None)
            if getattr(mod, "__name__", "").startswith("lorentzgeo.") and single is not None:
                def looked_up(M, p, _single=single):
                    events.append("single")
                    return _single(M, p)
                monkeypatch.setattr(mod, "point_geometry", looked_up)
        e = entry(name)
        scan = scan_extrema(e.spec, e.field_name, grid=16)
        records = scan.witness_records(e.spec, e.field_name)
        assert records and "batch" in events
        assert "single" not in events[events.index("batch"):]


def _reference_input_checks(M, xname, samples=30, seed=0):
    """The message of the first failed input check of lorentzianize: a
    point-by-point loop over the same samples for definiteness and X != 0,
    then the field's class; None when all pass."""
    for p in M.sample_points(samples, np.random.default_rng(seed)):
        g = M.metric_eval(p)
        if np.any(np.linalg.eigvalsh(g) <= 0):
            return f"input metric not positive definite at {p.tolist()}"
        Xp = M.field_eval(xname, p)
        if float(Xp @ g @ Xp) <= 0:
            return f"field vanishes (or is degenerate) at {p.tolist()}"
    tag = classify_field(M, xname).tag
    if tag is not FieldTag.KILLING:
        return f"field must be Killing for the input metric, classifies as {tag.value}"
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

    def test_round_s3_killing_is_decided_without_sampling(self, entry, count_calls):
        """The L_X g trees fold to zero on round_s3 and on its flip, so the
        one Killing rule evaluates nothing: a repeated flip evaluates the
        two metrics at its samples, and nothing else.  The flipped metric
        is evaluated once: its signature is read from the values its
        postconditions already hold, at the same samples."""
        s3 = entry("round_s3").spec
        lorentzianize(s3, "X")
        calls = count_calls(ManifoldSpec, "evaluate_symmetric")
        flipped = lorentzianize(s3, "X")
        assert len(calls) == 2
        assert classify_field(s3, "X").sample_count == 0
        assert classify_field(flipped, "X").sample_count == 0

    def test_homothetic_field_is_refused_by_both_derived_charts(self):
        """X = (x, y) on the flat plane is homothetic, not Killing: the
        flip and the circle lift refuse it with the same rule."""
        doc = FLAT_R2_RIEMANNIAN.replace('components = "0", "1"', 'components = "x", "y"')
        spec = load_spec(doc)
        with pytest.raises(LorentzianizeError, match="^field must be Killing for the input "
                                                      "metric, classifies as homothetic$"):
            lorentzianize(spec, "X")
        with pytest.raises(LiftError, match="^field must be Killing for the base "
                                            "metric, classifies as homothetic$"):
            circle_lift(spec, "X", 1.0, grid=16)

    def test_round_s3_matches_catalog_flip(self, entry, hopf, rng):
        s3 = entry("round_s3").spec
        flipped = lorentzianize(s3, "X")
        assert flipped.signature == "lorentzian"
        for p in flipped.sample_points(20, rng):
            assert np.max(np.abs(flipped.metric_eval(p) - hopf.spec.metric_eval(p))) < 1e-10

    def test_flip_builds_each_off_diagonal_entry_once(self, entry, hopf, rng, count_calls):
        """_flip hands the spec one tree for g.i.j and g.j.i, so the spec
        keeps it as it is instead of averaging two mirror trees."""
        s3 = entry("round_s3").spec
        specs = count_calls(obstruction, "ManifoldSpec")
        flipped = obstruction._flip(s3, "X")
        (_, kwargs), = specs
        metric = kwargs["metric"]
        assert all(metric[i][j] is metric[j][i] for i in range(3) for j in range(3))
        for p in flipped.sample_points(20, rng):
            assert np.max(np.abs(flipped.metric_eval(p) - hopf.spec.metric_eval(p))) < 1e-14

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
        twice = obstruction._flip(once, "X")
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
        assert not lift.nowhere_timelike
        assert lift.max_gxx == pytest.approx(-1.5, abs=1e-12)
        xs = sorted(min(abs(p[0]), abs(1 - p[0])) for p in lift.lightlike_locus)
        assert xs[0] == pytest.approx(0.0, abs=1e-9)
        spec = lift.spec
        assert spec.dim == 3
        for p, want in (([0.0, 0.0, 0.0], CausalCharacter.LIGHTLIKE),
                        ([0.3, 0.0, 0.0], CausalCharacter.TIMELIKE)):
            assert causal_character(spec, p, spec.field_eval("Xbar", p)) is want

    def test_scans_only_the_axes_gxx_mentions(self, torus, count_calls):
        """g(X,X) of torus_family mentions x only: the lift evaluates it on
        48 nodes at grid 48, with the maximum, minimum and locus of the
        full 48 x 48 grid, the locus listed at y = 0."""
        evals = count_calls(ManifoldSpec, "evaluate_points")
        lift = circle_lift(torus.spec, "X", math.sqrt(1.5), grid=48)
        assert [len(args[2]) for args, _ in evals] == [48]
        nodes = obstruction._grid_points(obstruction._grid_axes(torus.spec, [48, 48]))
        full = torus.spec.evaluate_points(metric_pairing_expr(torus.spec, "X", "X"), nodes)
        assert (lift.max_gxx, lift.min_gxx) == (float(full.max()), float(full.min()))
        assert not lift.nowhere_timelike
        assert [p.tolist() for p in lift.lightlike_locus] == [[0.0, 0.0, 0.0]]
        assert {p[0] for p in nodes[np.abs(full + 1.5) <= 1e-9 * 2.5]} == {0.0}

    def test_everywhere_lightlike_lift_of_flat_chart(self, mink2):
        lift = circle_lift(mink2.spec, "X", 1.0, grid=16)
        assert lift.nowhere_timelike
        rng = np.random.default_rng(2)
        for p in lift.spec.sample_points(10, rng):
            assert causal_character(lift.spec, p, lift.spec.field_eval("Xbar", p)) \
                is CausalCharacter.LIGHTLIKE

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_constant_rejected(self, torus, c):
        """nan passes both c <= 0 and the locus tolerance test unless it
        is refused first, and would be written out as a component."""
        with pytest.raises(LiftError, match="positive and finite"):
            circle_lift(torus.spec, "X", c, grid=16)

    def test_wrong_constant_rejected_in_locus_mode(self, torus):
        with pytest.raises(LiftError):
            circle_lift(torus.spec, "X", 1.0, grid=16)

    def test_non_killing_field_rejected(self, mink2):
        with pytest.raises(LiftError):
            circle_lift(mink2.spec, "EULER", 1.0, grid=16)

    def test_theta_name_does_not_collide(self, entry):
        spec = entry("schwarzschild_exterior").spec
        # g(X,X) = -(1 - 2/r) peaks at the scan's first r node
        lift = circle_lift(spec, "X", math.sqrt(1.0 - 2.0 / (2.5 + SAMPLING_COLLAR)), grid=8)
        assert lift.spec.coord_names()[-1] == "theta1"
