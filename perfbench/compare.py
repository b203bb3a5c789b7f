#!/usr/bin/env python3
"""Compare two sets of abw benchmark results.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds lines that perfbench/run.py appended to
.bench_build/results.jsonl (untraced runs only are compared).  For every
workload, seed and end-to-end metric it prints both medians, the base's
quartile spread and the change, against the metric's bound in
BENCHMARK.json; a claim must hold on each seed on its own, the held-out
one included.  Exit 1 when a metric got worse by more than its bound.

It also prints the median host calibration time of each set (a fixed
kernel that runs no program code) and warns when the host itself got
faster or slower.  Results from different host fingerprints (CPU, nproc,
compiler, build) or of different run lengths are not comparable: the
script refuses them (exit 2).
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path):
    runs = [json.loads(l) for l in Path(path).read_text().splitlines() if l.strip()]
    runs = [r for r in runs if r["trace"] == 0]
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in runs}
    seconds = {r["seconds"] for r in runs}
    by = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            by.setdefault((r["workload"], r["seed"], name), []).append(m["value"])
    return by, [r["calibration_ms"] for r in runs], prints, seconds


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, base_calib, base_prints, base_seconds = load(args.base)
    new, new_calib, new_prints, new_seconds = load(args.new)
    if len(base_prints | new_prints) != 1:
        print("refusing to compare results from different hosts or builds:",
              *sorted(base_prints | new_prints), sep="\n  ", file=sys.stderr)
        return 2
    if len(base_seconds | new_seconds) != 1:
        print("refusing to compare runs of different lengths (--seconds "
              f"{sorted(base_seconds | new_seconds)})", file=sys.stderr)
        return 2

    # The same code on a host that got slower reads as a regression: the
    # calibration kernel runs no program code, so its drift is the host's.
    cb, cn = statistics.median(base_calib), statistics.median(new_calib)
    print(f"host calibration: base {cb:.2f} ms, new {cn:.2f} ms ({(cn - cb) / cb:+.1%})")
    if abs(cn - cb) / cb > 0.05:
        print("WARNING: the host's speed differs by more than 5% between the sets; "
              "time metrics moved with it", file=sys.stderr)

    worse = False
    print(f"{'workload':10} {'seed':>6} {'metric':18} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for key in sorted(base.keys() | new.keys()):
        workload, seed, name = key
        if key not in base or key not in new:
            print(f"{workload:10} {seed:>6} {name:18} only in "
                  f"{'base' if key in base else 'new'}; not compared")
            continue
        m = metrics[name]
        b, n = statistics.median(base[key]), statistics.median(new[key])
        change = (n - b) / b
        loss = change if m["better"] == "lower" else -change
        s = spread(base[key])
        if loss > m["bound"]:
            verdict, worse = "WORSE", True
        elif len(base[key]) < 2:
            verdict = "unresolved (one base run)"
        elif s > m["bound"]:
            verdict = "unresolved (base spread > bound)"
        else:
            verdict = "ok"
        print(f"{workload:10} {seed:>6} {name:18} {b:12.6g} {n:12.6g} {change:+8.2%} "
              f"{s:7.2%} {m['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
