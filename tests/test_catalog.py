"""Catalog entries: validity, expected-value tables, and round trips."""

import numpy as np
import pytest

from lorentzgeo import catalog
from lorentzgeo.catalog import build_example, list_examples, run_entry
from lorentzgeo.manifold import load_spec, to_document, validate_signature
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
