"""Catalog entries: validity, expected-value tables, and round trips."""

import dataclasses
import math
from functools import reduce

import numpy as np
import pytest

from lorentzgeo import catalog
from lorentzgeo.catalog import build_example, list_examples, run_entry
from lorentzgeo.curvature import point_geometry, sectional_curvature
from lorentzgeo.manifold import TangentPlane, load_spec, to_document, validate_signature
from lorentzgeo.obstruction import lorentzianize

PINNED = [
    "minkowski2", "minkowski4", "round_s2", "round_s3", "hopf_lorentz_s3",
    "torus_family", "torus3_null_variant", "conformal_counterexample",
    "schwarzschild_exterior", "static_product", "circle_lift_torus",
]


def test_listing_contains_all_pinned_names():
    names = list_examples()
    for name in PINNED:
        assert name in names


def test_unknown_name():
    with pytest.raises(KeyError):
        build_example("nope")


@pytest.mark.parametrize("name", list_examples())
def test_signature_valid_at_100_interior_points(entry, name):
    validate_signature(entry(name).spec, samples=100, seed=13)


@pytest.mark.parametrize("name", list_examples())
def test_expected_value_table(entry, name):
    rows = run_entry(entry(name))
    bad = [r for r in rows if r["verdict"] != "PASS"]
    assert not bad, bad


@pytest.mark.parametrize("name", list_examples())
def test_document_export_round_trips(entry, name, rng):
    spec = entry(name).spec
    again = load_spec(to_document(spec), validate=False)
    assert again.dim == spec.dim
    assert again.coord_names() == spec.coord_names()
    for p in spec.sample_points(10, rng):
        assert np.allclose(again.metric_eval(p), spec.metric_eval(p), atol=1e-15)
        for fname in spec.fields:
            assert np.allclose(again.field_eval(fname, p),
                               spec.field_eval(fname, p), atol=1e-15)


def test_every_expected_row_carries_provenance(entry):
    for name in list_examples():
        for row in entry(name).expected:
            assert row.provenance in ("published", "derived", "exact")


def test_hopf_chart_equals_flip_of_round_sphere(entry, rng):
    """The stored Lorentz sphere chart and the constructive flip of the
    round chart along the fiber field agree componentwise."""
    flipped = lorentzianize(entry("round_s3").spec, "X")
    stored = entry("hopf_lorentz_s3").spec
    for p in stored.sample_points(25, rng):
        assert np.max(np.abs(flipped.metric_eval(p) - stored.metric_eval(p))) < 1e-10


def test_each_entry_scans_each_grid_once(count_calls):
    """A pass over the catalog makes one scan per (entry, grid), six in all,
    one classification per (entry, field) and one conformal bound check."""
    scans = count_calls(catalog, "scan_extrema")
    classifications = count_calls(catalog, "classify_field")
    bounds = count_calls(catalog, "conformal_bound_check")
    for name in list_examples():
        rows = run_entry(build_example(name))
        assert all(r["verdict"] == "PASS" for r in rows), name
    scanned = [(M.name, xname, str(kw)) for (M, xname), kw in scans]
    assert len(scanned) == len(set(scanned)) == 6
    classified = [(M.name, xname) for (M, xname), _ in classifications]
    assert len(classified) == len(set(classified)) == 10
    assert len(bounds) == 1


# ---------------------------------------------------------------------------
# Sampled rows against explicit point loops
# ---------------------------------------------------------------------------

def _row_value(e, quantity):
    return next(r for r in e.expected if r.quantity == quantity).compute(e)


def _random_plane_deviations(M, target, n, seed):
    """|K - target| of a random plane at each point: all points first,
    then two independent random vectors per point, from one generator."""
    rng = np.random.default_rng(seed)
    out = []
    for p in M.sample_points(n, rng):
        while True:
            u, v = rng.normal(size=M.dim), rng.normal(size=M.dim)
            if np.linalg.det(np.array([[u @ u, u @ v], [u @ v, v @ v]])) > \
                    1e-6 * (u @ u) * (v @ v):
                break
        out.append(abs(sectional_curvature(M, TangentPlane(p, u, v)) - target))
    return out


def _field_plane_deviations(M, xname, target, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for p in M.sample_points(n, rng):
        X = M.field_eval(xname, p)
        w = rng.normal(size=M.dim)
        out.append(abs(sectional_curvature(M, TangentPlane(p, w, X)) - target))
    return out


def _timelike_riccis(M, n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for p in M.sample_points(n, rng):
        ric = point_geometry(M, p).ricci
        v = np.array([0.1, 0.1, 1.0]) + 0.05 * rng.normal(size=3)
        out.append(float(v @ ric @ v))
    return out


def test_sampled_rows_equal_explicit_point_loops(entry):
    """Each sampled row is its point loop, bit for bit: the same seed, the
    same points, the per-point draws after all the points, the same
    reduction.  The flat static product gives 0 at every point, so its two
    rows are also run on the curved 3-d chart of torus3_null_variant,
    where the per-point values differ."""
    s3, hopf, static = entry("round_s3"), entry("hopf_lorentz_s3"), entry("static_product")
    curved = dataclasses.replace(static, spec=entry("torus3_null_variant").spec, memo={})

    assert _row_value(s3, "sectional_deviation_from_1") == \
        reduce(max, _random_plane_deviations(s3.spec, 1.0, 50, 0), 0.0)
    assert _row_value(hopf, "k_planes_containing_X") == \
        reduce(max, _field_plane_deviations(hopf.spec, "X", -1.0, 50, 0), 0.0)
    for e in (static, curved):
        assert _row_value(e, "k_planes_containing_X") == \
            reduce(max, _field_plane_deviations(e.spec, "X", 0.0, 10, 10), 0.0)
        assert _row_value(e, "min_timelike_ricci") == \
            reduce(min, _timelike_riccis(e.spec, 10, 11), math.inf)
    riccis = _timelike_riccis(curved.spec, 10, 11)
    assert min(riccis) < max(riccis)          # the reduction is visible here

    conformal = entry("conformal_counterexample")
    rng = np.random.default_rng(8)
    worst = reduce(max, (
        sectional_curvature(conformal.spec, TangentPlane(p, [1.0, 0.0], [0.0, 1.0]))
        for p in conformal.spec.sample_points(100, rng)), -math.inf)
    assert worst < 0
    assert _row_value(conformal, "k_sign_sampled") == "negative"
