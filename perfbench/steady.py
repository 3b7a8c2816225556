"""Steadiness command: run workloads many times and print the spread.

    python3 perfbench/steady.py --workloads grid_witness,point_tensors --seeds 1-10
    python3 perfbench/steady.py --compare perfbench/out/steady-a.json perfbench/out/steady-b.json

Each run is one untraced ``run.py`` process of ``run_seconds`` (from
BENCHMARK.json), started one after another.  For every metric the command
prints the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them) and the spread, the distance between the quartiles as a share
of the median, next to the metric's bound from BENCHMARK.json.  It does
the same for the unscaled ``ops_per_s`` and ``latency_p50_ms`` that every
run prints on a human-readable line.  Raw results go to a JSON file, and
``--compare`` sets two such files side by side: how far the second
median moved from the first, scaled and unscaled, and whether the failed
shares agree.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def _stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


UNSCALED = re.compile(r"^unscaled: ops_per_s = (\S+) 1/s, latency_p50_ms = (\S+) ms$", re.M)


def run_one(workload: str, seed: int) -> dict:
    bench = _bench()
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    ops, p50 = UNSCALED.search(proc.stdout).groups()
    result.update(workload=workload, seed=seed, wall_s=wall,
                  unscaled={"ops_per_s": float(ops), "latency_p50_ms": float(p50)})
    return result


def _values(rs: list[dict]) -> dict:
    """Every metric's values over the runs, the unscaled ones included."""
    out = {name: ([r["metrics"][name]["value"] for r in rs], rs[0]["metrics"][name]["unit"])
           for name in rs[0]["metrics"]}
    for name, unit in (("ops_per_s", "1/s"), ("latency_p50_ms", "ms")):
        out[f"unscaled {name}"] = ([r["unscaled"][name] for r in rs], unit)
    return out


def report(runs: list[dict]):
    bench = _bench()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        rs = [r for r in runs if r["workload"] == workload]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in rs})
        correct = all(r["correct"] for r in rs)
        print(f"\n{workload}: {len(rs)} runs, correct {correct}, "
              f"failed/attempted {', '.join(shares)}, "
              f"wall {statistics.median(r['wall_s'] for r in rs):.1f} s per run")
        for name, (values, unit) in _values(rs).items():
            if len(values) < 2:
                print(f"  {name:44s} {values[0]:.6g} {unit}")
                continue
            med, q1, q3 = _stats(values)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            tail = f"  bound {bound}" if bound is not None else ""
            print(f"  {name:44s} median {med:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.3f}{tail}")


def compare(a: list[dict], b: list[dict]):
    bench = _bench()
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name in ("ops_per_s", "latency_p50_ms"):
        better[f"unscaled {name}"] = better[name]
    for workload in dict.fromkeys(r["workload"] for r in a):
        ra = [r for r in a if r["workload"] == workload]
        rb = [r for r in b if r["workload"] == workload]
        fa = sum(r["failed"] for r in ra) / sum(r["attempted"] for r in ra)
        fb = sum(r["failed"] for r in rb) / sum(r["attempted"] for r in rb)
        print(f"\n{workload}: failed share {fa:.6f} vs {fb:.6f}")
        va, vb = _values(ra), _values(rb)
        for name in better:
            ma, mb = statistics.median(va[name][0]), statistics.median(vb[name][0])
            worse = (mb - ma) / ma if better[name] == "lower" else (ma - mb) / ma
            tail = f"  bound {bounds[name]}" if name in bounds else ""
            print(f"  {name:26s} {ma:.6g} -> {mb:.6g}  worse by {worse:+.3f}{tail}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated; default: all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--out", help="raw results file (default perfbench/out/steady-<time>.json)")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    args = ap.parse_args(argv)

    if args.compare:
        a, b = (json.loads(Path(f).read_text(encoding="utf-8")) for f in args.compare)
        compare(a, b)
        return 0
    bench = _bench()
    workloads = args.workloads.split(",") if args.workloads else \
        [w["name"] for w in bench["workloads"]]
    out = Path(args.out) if args.out else HERE / "out" / f"steady-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    runs = []
    for workload in workloads:
        for seed in _seeds(args.seeds):
            runs.append(run_one(workload, seed))
            print(f"{workload} seed {seed}: {json.dumps(runs[-1]['metrics'])}", flush=True)
            out.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    report(runs)
    print(f"\nraw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
