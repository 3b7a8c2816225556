"""Command-line surface.

Subcommands load a chart (a document path or a catalog name), run one
analysis, print a human-readable summary, and optionally write a
machine report with ``--json``.  Exit status: 0 when every verdict is
PASS, 2 when hypotheses were out of scope (parity or plateau cases)
but nothing failed, 1 on failures or errors.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, catalog
from .curvature import (
    DegeneratePlaneError,
    point_geometry,
    sectional_curvature,
)
from .manifold import (
    ManifoldSpec,
    TangentPlane,
    load_spec,
    to_document,
    validate_signature,
)
from .obstruction import (
    circle_lift,
    conformal_bound_check,
    extremum_witness,
    interpolate_path,
    lorentzianize,
    plane_sign_scan,
    scan_extrema,
)
from .symmetry import classify_field


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(s) for s in text.split(",")])
    except ValueError:
        raise SystemExit(f"error: cannot parse point '{text}' (comma-separated reals)")


def _parse_vectors(text: str) -> list[np.ndarray]:
    return [_parse_point(part) for part in text.split(";") if part.strip()]


def _resolve_spec(arg: str) -> tuple[ManifoldSpec, catalog.CatalogEntry | None]:
    if arg in catalog.list_examples():
        entry = catalog.build_example(arg)
        return entry.spec, entry
    if os.path.exists(arg):
        with open(arg, "r", encoding="utf-8") as fh:
            return load_spec(fh.read(), name=os.path.basename(arg)), None
    raise SystemExit(f"error: '{arg}' is neither a catalog entry nor a file; "
                     f"catalog entries: {', '.join(catalog.list_examples())}")


def _spec_hash(spec: ManifoldSpec) -> str:
    return hashlib.sha256(to_document(spec).encode()).hexdigest()


def _default_field(spec, entry, field):
    if field:
        if field not in spec.fields:
            raise SystemExit(f"error: field '{field}' not defined on the chart "
                             f"(available: {', '.join(sorted(spec.fields))})")
        return field
    if entry is not None and entry.field_name:
        return entry.field_name
    raise SystemExit("error: --field is required for this chart")


class Report:
    """Accumulates result rows and emits the machine report."""

    def __init__(self, command: str, spec: ManifoldSpec | None):
        self.command = command
        self.spec_hash = _spec_hash(spec) if spec is not None else ""
        self.results: list[dict] = []

    def add(self, op: str, inputs: dict, values: dict, verdict: str,
            tolerance: float | None = None) -> None:
        self.results.append({
            "op": op,
            "inputs": inputs,
            "values": values,
            "verdict": verdict,
            "tolerance": tolerance,
        })

    def summary(self) -> dict:
        counts = {"PASS": 0, "FAIL": 0, "SCOPE": 0, "INFO": 0}
        for r in self.results:
            counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
        overall = "PASS"
        if counts["FAIL"]:
            overall = "FAIL"
        elif counts["SCOPE"]:
            overall = "SCOPE"
        return {"counts": counts, "verdict": overall}

    def exit_code(self) -> int:
        s = self.summary()["verdict"]
        return {"PASS": 0, "SCOPE": 2, "FAIL": 1}[s]

    def to_dict(self) -> dict:
        return {
            "tool": "lorentzgeo",
            "version": __version__,
            "command": self.command,
            "spec_hash": self.spec_hash,
            "results": self.results,
            "summary": self.summary(),
        }

    def write_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, sort_keys=True, indent=2, default=_jsonable)
            fh.write("\n")

    def print_human(self) -> None:
        for r in self.results:
            bits = [f"[{r['verdict']}]", r["op"]]
            vals = ", ".join(f"{k}={_short(v)}" for k, v in sorted(r["values"].items()))
            if vals:
                bits.append(vals)
            if r["tolerance"] is not None:
                bits.append(f"(tol {r['tolerance']:g})")
            print(" ".join(bits))
        s = self.summary()
        print(f"verdict: {s['verdict']}  "
              f"(pass {s['counts']['PASS']}, fail {s['counts']['FAIL']}, "
              f"scope {s['counts']['SCOPE']})")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _short(v):
    if isinstance(v, float):
        return f"{v:.10g}"
    if isinstance(v, (list, tuple)) and len(v) > 6:
        return f"[{len(v)} values]"
    return v


def _point_list(p) -> list[float]:
    return [float(x) for x in np.asarray(p)]


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_validate(args) -> Report:
    spec, _ = _resolve_spec(args.spec)
    rep = Report(f"validate {args.spec}", spec)
    validate_signature(spec, samples=args.samples)
    rep.add("validate", {"spec": args.spec, "samples": args.samples},
            {"dim": spec.dim, "signature": spec.signature,
             "coords": spec.coord_names()}, "PASS")
    return rep


def _cmd_curvature(args) -> Report:
    spec, _ = _resolve_spec(args.spec)
    rep = Report(f"curvature {args.spec}", spec)
    p = _parse_point(args.at)
    geo = point_geometry(spec, p)
    values = {
        "point": _point_list(geo.point),
        "metric": geo.metric.tolist(),
        "ricci": geo.ricci.tolist(),
        "scalar_curvature": geo.scalar,
    }
    if args.plane:
        vecs = _parse_vectors(args.plane)
        if len(vecs) != 2:
            raise SystemExit("error: --plane needs two ';'-separated vectors")
        try:
            values["sectional"] = sectional_curvature(
                spec, TangentPlane(p, vecs[0], vecs[1]))
        except DegeneratePlaneError as e:
            values["sectional"] = None
            values["sectional_error"] = str(e)
    rep.add("curvature", {"at": args.at, "plane": args.plane}, values, "PASS")
    return rep


def _cmd_classify(args) -> Report:
    spec, entry = _resolve_spec(args.spec)
    fieldname = _default_field(spec, entry, args.field)
    rep = Report(f"classify {args.spec} --field {fieldname}", spec)
    fc = classify_field(spec, fieldname, tol=args.tol)
    rep.add("classify", {"field": fieldname, "samples": fc.sample_count},
            {"tag": fc.tag.value, "lambda": fc.lam, "residual": fc.residual},
            "PASS" if fc.tag.value != "none" else "SCOPE", tolerance=args.tol)
    return rep


def _cmd_extrema(args) -> Report:
    spec, entry = _resolve_spec(args.spec)
    fieldname = _default_field(spec, entry, args.field)
    rep = Report(f"extrema {args.spec} --field {fieldname} --grid {args.grid}", spec)
    scan = scan_extrema(spec, fieldname, grid=args.grid)
    rep.add("extrema_scan", {"field": fieldname, "grid": args.grid},
            {"plateau": scan.plateau, "f_min": scan.f_min, "f_max": scan.f_max,
             "records": len(scan.records)}, "PASS")
    for rec in scan.records:
        rep.add("extremum", {"field": fieldname},
                {"point": _point_list(rec.point), "f": rec.f_value,
                 "kind": rec.kind.value, "causal": rec.causal.value,
                 "hessian_eigs": list(rec.hessian_eigs)}, "PASS")
    return rep


def _cmd_witness(args) -> Report:
    spec, entry = _resolve_spec(args.spec)
    fieldname = _default_field(spec, entry, args.field)
    rep = Report(f"witness {args.spec} --field {fieldname}", spec)
    scan = scan_extrema(spec, fieldname, grid=args.grid)
    records = scan.witness_records(spec, fieldname)
    if not records:
        rep.add("witness", {"field": fieldname}, {"note": "no extrema found"}, "SCOPE")
        return rep
    cls = classify_field(spec, fieldname)
    for rec in records:
        w = extremum_witness(spec, fieldname, rec, tol=args.tol, classification=cls)
        values = {
            "point": _point_list(rec.point),
            "kind": rec.kind.value,
            "causal": rec.causal.value,
            "f": rec.f_value,
            "case": w.case,
            "curvature_kind": w.curvature_kind,
            "value": w.value,
            "inequality": w.inequality,
            "kernel_residual": w.kernel_residual,
        }
        if w.scope_reason:
            values["scope_reason"] = w.scope_reason
        if w.plane is not None:
            values["plane_u"] = _point_list(w.plane.u)
            values["plane_v"] = _point_list(w.plane.v)
        rep.add("witness", {"field": fieldname}, values, w.verdict.value,
                tolerance=args.tol)
    return rep


def _cmd_signscan(args) -> Report:
    spec, entry = _resolve_spec(args.spec)
    fieldname = _default_field(spec, entry, args.field)
    rep = Report(f"signscan {args.spec} --field {fieldname}", spec)
    if args.path:
        waypoints = _parse_vectors(args.path)
    elif entry is not None and entry.paths:
        waypoints = next(iter(entry.paths.values()))
    else:
        raise SystemExit("error: --path is required (';'-separated points)")
    pts = interpolate_path(waypoints, args.steps)
    report = plane_sign_scan(spec, fieldname, pts, planes_per_point=args.planes)
    values = {
        "points": len(report.scans),
        "k_min": report.k_min,
        "k_max": report.k_max,
        "sign_change": report.sign_change,
        "zeros": [
            {"path_param": z.path_param, "point": _point_list(z.point),
             "plane_index": z.plane_index}
            for z in report.zeros[:16]
        ],
    }
    rep.add("sign_scan", {"field": fieldname, "steps": args.steps,
                          "planes": args.planes}, values, "PASS")
    return rep


def _cmd_conformal(args) -> Report:
    spec, entry = _resolve_spec(args.spec)
    fieldname = _default_field(spec, entry, args.field)
    rep = Report(f"conformal {args.spec} --field {fieldname}", spec)
    scan = scan_extrema(spec, fieldname, grid=args.grid)
    minima = scan.minima()
    if not minima:
        rep.add("conformal_bound", {"field": fieldname},
                {"note": "no interior local minimum found"}, "SCOPE")
        return rep
    for rec in minima:
        cb = conformal_bound_check(spec, fieldname, rec)
        rep.add("conformal_bound", {"field": fieldname},
                {"point": _point_list(rec.point),
                 "sigma": cb.sigma_at_point,
                 "x_sigma": cb.x_sigma,
                 "bound": cb.bound,
                 "curvature": cb.curvature,
                 "bound_verdict": cb.bound_verdict.value,
                 "nonnegativity_verdict": cb.nonnegativity_verdict.value},
                cb.bound_verdict.value)
    return rep


def _cmd_lift(args) -> Report:
    spec, entry = _resolve_spec(args.spec)
    fieldname = _default_field(spec, entry, args.field)
    rep = Report(f"lift {args.spec} --field {fieldname} --c {args.c}", spec)
    result = circle_lift(spec, fieldname, args.c, mode=args.mode)
    values = {
        "lifted_field": result.field,
        "c": result.c,
        "max_gxx": result.max_gxx,
        "min_gxx": result.min_gxx,
        "causal_everywhere": result.causal_everywhere,
        "nowhere_timelike": result.nowhere_timelike,
        "lightlike_locus_sample": [_point_list(p) for p in result.lightlike_locus[:8]],
    }
    rep.add("circle_lift", {"field": fieldname, "c": args.c, "mode": args.mode},
            values, "PASS")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(to_document(result.spec))
    return rep


def _cmd_lorentzianize(args) -> Report:
    spec, entry = _resolve_spec(args.spec)
    fieldname = _default_field(spec, entry, args.field)
    rep = Report(f"lorentzianize {args.spec} --field {fieldname}", spec)
    flipped = lorentzianize(spec, fieldname)
    rep.add("lorentzianize", {"field": fieldname},
            {"signature": flipped.signature, "dim": flipped.dim}, "PASS")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(to_document(flipped))
    return rep


def _cmd_catalog(args) -> Report:
    if args.action == "list":
        rep = Report("catalog list", None)
        for name in catalog.list_examples():
            entry = catalog.build_example(name)
            rep.add("catalog_entry", {"name": name},
                    {"dim": entry.spec.dim, "signature": entry.spec.signature,
                     "field": entry.field_name,
                     "description": entry.description}, "PASS")
        return rep
    if not args.name:
        raise SystemExit("error: catalog run/export need an entry name")
    entry = catalog.build_example(args.name)
    if args.action == "export":
        sys.stdout.write(to_document(entry.spec))
        rep = Report(f"catalog export {args.name}", entry.spec)
        rep.add("catalog_export", {"name": args.name}, {"bytes": len(to_document(entry.spec))}, "PASS")
        return rep
    # run
    rep = Report(f"catalog run {args.name}", entry.spec)
    for row in catalog.run_entry(entry):
        rep.add(f"expected:{row['quantity']}",
                {"name": args.name, "provenance": row["provenance"]},
                {"expected": row["expected"], "computed": row["computed"],
                 "note": row["note"]},
                row["verdict"], tolerance=row["tolerance"])
    return rep


# ---------------------------------------------------------------------------

# built once per process: parse_args keeps no state on the parser, and
# each call returns a fresh namespace
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lorentzgeo",
        description="chart-based curvature engine for semi-Riemannian metrics")
    parser.add_argument("--version", action="version",
                        version=f"lorentzgeo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", metavar="FILE", help="write the machine report")

    p = sub.add_parser("validate", help="load a chart and check its signature")
    p.add_argument("spec")
    p.add_argument("--samples", type=int, default=100)
    common(p)

    p = sub.add_parser("curvature", help="tensors at a point, optional plane curvature")
    p.add_argument("spec")
    p.add_argument("--at", required=True, help="point, comma-separated reals")
    p.add_argument("--plane", help="two spanning vectors 'u1,u2;v1,v2'")
    common(p)

    p = sub.add_parser("classify", help="Killing/homothetic/conformal classification")
    p.add_argument("spec")
    p.add_argument("--field")
    p.add_argument("--tol", type=float, default=1e-8)
    common(p)

    p = sub.add_parser("extrema", help="scan the field energy for local extrema")
    p.add_argument("spec")
    p.add_argument("--field")
    p.add_argument("--grid", type=int, default=64)
    common(p)

    p = sub.add_parser("witness", help="witness plane and sign verdict per extremum; "
                       "exact over every plane through X at a timelike maximum")
    p.add_argument("spec")
    p.add_argument("--field")
    p.add_argument("--grid", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-6)
    common(p)

    p = sub.add_parser("signscan", help="scan plane curvatures along a path")
    p.add_argument("spec")
    p.add_argument("--field")
    p.add_argument("--path", help="waypoints 'x1,y1;x2,y2;...'")
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--planes", type=int, default=32)
    common(p)

    p = sub.add_parser("conformal", help="conformal lower bound at energy minima")
    p.add_argument("spec")
    p.add_argument("--field")
    p.add_argument("--grid", type=int, default=64)
    common(p)

    p = sub.add_parser("lift", help="append a flat circle factor and lift the field")
    p.add_argument("spec")
    p.add_argument("--field")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--mode", choices=["lightlike_locus", "general"],
                   default="lightlike_locus")
    p.add_argument("--out", help="write the lifted chart document")
    common(p)

    p = sub.add_parser("lorentzianize",
                       help="flip a Riemannian metric along a Killing field")
    p.add_argument("spec")
    p.add_argument("--field")
    p.add_argument("--out", help="write the flipped chart document")
    common(p)

    p = sub.add_parser("catalog", help="list, run, or export built-in entries")
    p.add_argument("action", choices=["list", "run", "export"])
    p.add_argument("name", nargs="?")
    common(p)

    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "curvature": _cmd_curvature,
    "classify": _cmd_classify,
    "extrema": _cmd_extrema,
    "witness": _cmd_witness,
    "signscan": _cmd_signscan,
    "conformal": _cmd_conformal,
    "lift": _cmd_lift,
    "lorentzianize": _cmd_lorentzianize,
    "catalog": _cmd_catalog,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _HANDLERS[args.command](args)
    except SystemExit:
        raise
    except (ValueError, KeyError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if getattr(args, "json", None):
        report.write_json(args.json)
    if args.command == "catalog" and args.action == "export":
        return report.exit_code()
    report.print_human()
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
