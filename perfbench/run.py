"""Benchmark of lorentzgeo: one workload, one process, one thread.

    python3 perfbench/run.py --workload grid_witness --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``
of that checkout and nowhere else.  With ``--trace 0`` the run reports
the end-to-end metrics; with ``--trace 1`` it wraps the program's public
functions (see tracing.py), reports the per-layer metrics, and writes its
spans to ``perfbench/out/``.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
P90_MIN_OPS = 100        # a p90 needs at least ten samples beyond it
COLD_START_RUNS = 3
CHECKPOINT_S = 0.1       # operation time between two timings of the host reference


def _pin_threads():
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"


def _cold_start_ms() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(COLD_START_RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "lorentzgeo", "--version"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


class Result:
    """What one measured run saw.  ``lat`` holds the raw seconds of each
    completed operation and ``scaled`` the same at the reference speed;
    ``timed`` and ``timed_scaled`` add up every attempted operation."""

    def __init__(self):
        self.lat, self.scaled, self.errors, self.failures = [], [], [], {}
        self.attempted, self.failed, self.timed, self.timed_scaled = 0, 0, 0.0, 0.0
        self.refs, self.ref_loops = [], []


def measure(wl, st, seconds: float, hostref, tracer=None) -> Result:
    """Whole rounds of the workload's operations until ``seconds`` of
    operation time have passed.

    The host reference is timed at the start and whenever another
    ``CHECKPOINT_S`` of operation time has passed, between operations.
    Each operation is scaled by the mean of the references on either
    side of it.  A workload whose ``round_is_operation`` is set (one
    catalog pass) reports each round as one operation: its time is the
    sum of its steps, and the references and checks between the steps are
    left out.  Checks run outside the timed intervals.
    """
    res = Result()
    per_round = getattr(wl, "round_is_operation", False)
    pending, rounds = [], []                 # (raw s, ok, round); per round [raw, scaled, ok]
    before, since = hostref.reference_s(), 0.0
    res.refs.append(before)

    def checkpoint():
        nonlocal before, since
        after = hostref.reference_s()
        res.refs.append(after)
        if tracer is not None:
            res.ref_loops.append(hostref.ref_loop_ms())
        factor = hostref.NOMINAL_S / (0.5 * (before + after))
        for dt, ok, r in pending:
            res.timed_scaled += dt * factor
            if per_round:
                acc = rounds[r]
                acc[0] += dt
                acc[1] += dt * factor
                acc[2] = acc[2] and ok
            elif ok:
                res.lat.append(dt)
                res.scaled.append(dt * factor)
        pending.clear()
        before, since = after, 0.0

    while res.timed < seconds:
        rounds.append([0.0, 0.0, True])
        for i, kind in enumerate(wl.kinds):
            if tracer is not None:
                tracer.new_operation()
            t0 = time.perf_counter()
            try:
                out = wl.op(st, i)
            except Exception as e:        # a failed operation is counted, not fatal
                dt, ok = time.perf_counter() - t0, False
                key = f"{kind}: {type(e).__name__}: {e}"
                res.failures[key] = res.failures.get(key, 0) + 1
                out = None
            else:
                dt, ok = time.perf_counter() - t0, True
            pending.append((dt, ok, len(rounds) - 1))
            res.timed += dt
            since += dt
            if not per_round:
                res.attempted += 1
                res.failed += not ok
            if tracer is not None:
                if hasattr(wl, "after_op"):
                    wl.after_op(st, i, tracer)
                with tracer.paused():
                    res.errors += wl.check(st, i, out) if out is not None else []
            elif out is not None:
                res.errors += wl.check(st, i, out)
            if since >= CHECKPOINT_S:
                checkpoint()
    if pending:
        checkpoint()
    if per_round:
        for raw, scaled, ok in rounds:
            res.attempted += 1
            res.failed += not ok
            if ok:
                res.lat.append(raw)
                res.scaled.append(scaled)
    return res


def end_to_end(res: Result, setup_s: float, rss_mb: float) -> tuple[dict, list[str]]:
    lat_ms = [1e3 * t for t in res.scaled]
    metrics = {
        "ops_per_s": (len(lat_ms) / res.timed_scaled, "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = []
    if len(lat_ms) >= P90_MIN_OPS:
        p90 = statistics.quantiles(lat_ms, n=10)[-1]
        notes.append(f"latency_p90_ms = {p90:.4f} ms (n = {len(lat_ms)})")
    else:
        notes.append(f"latency_p90_ms not reported: {len(lat_ms)} operations < {P90_MIN_OPS}")
    raw_ms = [1e3 * t for t in res.lat]
    notes.append(f"unscaled: ops_per_s = {len(raw_ms) / res.timed:.6g} 1/s, "
                 f"latency_p50_ms = {statistics.median(raw_ms):.6g} ms")
    return metrics, notes


def per_layer(wl, st, res: Result, tracer) -> dict:
    ops = max(res.attempted, 1)

    def calls(name):
        return tracer.stat(name)[0]

    def ms(name):
        return 1e3 * tracer.stat(name)[1] / ops

    def per_point(name):
        n = tracer.distinct(name)
        return calls(name) / n if n else 0.0

    ev = tracer.stats.get("expr.evaluate")
    metrics = {
        "expr.evaluate.trees": (calls("expr.evaluate") / ops, "count/op"),
        "expr.evaluate.nodes": ((ev.nodes if ev else 0) / ops, "count/op"),
        "expr.evaluate.self_ms": ((1e3 * ev.self_time if ev else 0.0) / ops, "ms/op"),
        "expr.parse_expression.ms": (ms("expr.parse_expression"), "ms/op"),
        "expr.differentiate.calls": (calls("expr.differentiate") / ops, "count/op"),
        "expr.differentiate.ms": (ms("expr.differentiate"), "ms/op"),
        "manifold.metric_derivs.calls_per_point":
            (per_point("manifold.ManifoldSpec.metric_derivs"), "count/point"),
        "manifold.metric_derivs.ms": (ms("manifold.ManifoldSpec.metric_derivs"), "ms/op"),
        "manifold.metric_eval.calls_per_point":
            (per_point("manifold.ManifoldSpec.metric_eval"), "count/point"),
        "manifold.load_spec.ms": (ms("manifold.load_spec"), "ms/op"),
        "manifold.validate_signature.ms": (ms("manifold.validate_signature"), "ms/op"),
        "curvature.point_geometry.calls": (calls("curvature.point_geometry") / ops, "count/op"),
        "curvature.point_geometry.ms": (ms("curvature.point_geometry"), "ms/op"),
        "curvature.christoffel_at.calls": (calls("curvature.christoffel_at") / ops, "count/op"),
        "curvature.ScalarDerivs.value.calls":
            (calls("curvature.ScalarDerivs.value") / ops, "count/op"),
        "curvature.ScalarDerivs.gradient.calls":
            (calls("curvature.ScalarDerivs.gradient") / ops, "count/op"),
    }
    for name in ("symmetry.classify_field", "symmetry.restricted_operator",
                 "symmetry.hessian_identity_residual", "obstruction.scan_extrema",
                 "obstruction.extremum_witness", "obstruction.plane_sign_scan",
                 "obstruction.lorentzianize"):
        metrics[f"{name}.ms"] = (ms(name), "ms/op")
    metrics["obstruction.refine.grad_norm_max"] = (getattr(st, "grad_norm_max", 0.0), "norm")
    entry_s = getattr(st, "entry_s", {})
    for name in st.lg.catalog.list_examples():
        metrics[f"catalog.run_entry.{name}.ms"] = (1e3 * entry_s.get(name, 0.0) / ops, "ms/pass")
    is_catalog = wl.name == "catalog_verify"
    metrics["catalog.scan_extrema.calls_per_pass"] = (
        calls("obstruction.scan_extrema") / ops if is_catalog else 0.0, "count/pass")
    metrics["catalog.scan_extrema.distinct_per_pass"] = (
        tracer.distinct("obstruction.scan_extrema") / ops if is_catalog else 0.0, "count/pass")
    n_main, t_main = tracer.stat("cli.main")
    t_entry = tracer.stat("catalog.run_entry")[1]
    metrics["cli.main.overhead_ms"] = (
        1e3 * (t_main - t_entry) / n_main if n_main else 0.0, "ms/call")
    metrics["cli.cold_start_ms"] = (_cold_start_ms(), "ms")
    metrics["host.ref_loop_ms"] = (statistics.median(res.ref_loops), "ms")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "lorentzgeo" / "__init__.py").is_file():
        print(f"error: no lorentzgeo sources under {SRC}", file=sys.stderr)
        return 2
    _pin_threads()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lorentzgeo
    import lorentzgeo.cli  # noqa: F401
    import hostref
    import workloads
    import_s = time.perf_counter() - t0
    if Path(lorentzgeo.__file__).resolve().parent != SRC / "lorentzgeo":
        print(f"error: imported lorentzgeo from {lorentzgeo.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload '{args.workload}'; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()

    # each set-up is scaled like the operations, by the references on
    # either side of it; the import is not: it is mostly reading and
    # unmarshalling files, and it did not follow the reference (README)
    ref = hostref.reference_s()
    setup_raw = [import_s]
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t1 = time.perf_counter()
        st = wl.setup(args.seed)
        dt = time.perf_counter() - t1
        after = hostref.reference_s()
        setup_raw.append(dt)
        setups.append(dt * hostref.NOMINAL_S / (0.5 * (ref + after)))
        ref = after

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install(lorentzgeo)
        st.tracer = tracer
    res = measure(wl, st, args.seconds, hostref, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
        st.tracer = None
    errors = res.errors + wl.finish(st)

    if args.trace:
        metrics = per_layer(wl, st, res, tracer)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        p50 = 1e3 * statistics.median(res.lat) if res.lat else None
        p50_scaled = 1e3 * statistics.median(res.scaled) if res.scaled else None
        tracer.write(path, {"workload": args.workload, "seed": args.seed,
                            "attempted": res.attempted, "failed": res.failed,
                            "traced_latency_p50_ms": p50,
                            "traced_scaled_latency_p50_ms": p50_scaled})
        notes = [f"spans written to {path.relative_to(ROOT)}",
                 f"traced latency_p50_ms = {p50} ms unscaled, {p50_scaled} ms scaled"]
    else:
        setup_s = import_s + statistics.median(setups)
        metrics, notes = end_to_end(res, setup_s, rss_mb)
        notes.append(f"unscaled set-up: import {setup_raw[0]:.4f} s, "
                     f"repeats {[round(s, 4) for s in setup_raw[1:]]} s")
    notes.append(f"host reference: median {1e3 * statistics.median(res.refs):.4f} ms "
                 f"(nominal {1e3 * hostref.NOMINAL_S} ms)")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"attempted {res.attempted}  failed {res.failed}  timed {res.timed:.3f} s")
    for key, count in sorted(res.failures.items()):
        print(f"failed x{count}: {key}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in notes:
        print(line)
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    if len(errors) > 20:
        print(f"... and {len(errors) - 20} more check failures", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": res.attempted,
                      "failed": res.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
