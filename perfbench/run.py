#!/usr/bin/env python3
"""Build the abw benchmark from source and run one workload.

    python3 perfbench/run.py --workload campaign|mesh|live --seed N \
        --seconds S --trace 0|1

Run from anywhere; paths are resolved against the checkout that holds
this file.  The first run configures and builds perfbench/ (all of src/,
Release) under .bench_build/; later runs only rebuild what changed.

The last line of standard output is the result object.  Before printing
it, the names and units of its metrics are checked against BENCHMARK.json,
and the result is appended with the host fingerprint and the host
calibration time to .bench_build/results.jsonl (compare two such files with
perfbench/compare.py).  Any failure exits nonzero without a result.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src").is_dir():
        fail(f"no program sources at {ROOT / 'src'}", 2)
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log})")
    return BUILD / "abw_perfbench"


def check_names(result, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"metrics do not match BENCHMARK.json: extra {sorted(set(got) - set(want))}, "
             f"missing {sorted(set(want) - set(got))}, units "
             f"{sorted(k for k in got.keys() & want.keys() if got[k] != want[k])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=33)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        if e.stdout:
            sys.stdout.write(e.stdout if isinstance(e.stdout, str) else e.stdout.decode())
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    check_names(result, args.trace)
    fingerprint = next((json.loads(l[len("fingerprint "):]) for l in lines
                        if l.startswith("fingerprint ")), None)
    if fingerprint is None:
        fail("no fingerprint line")
    # "calibration_ms before B after A": the host's speed around the run.
    calibration = next(((float(l.split()[2]) + float(l.split()[4])) / 2
                        for l in lines if l.startswith("calibration_ms ")), None)
    with open(ROOT / ".bench_build" / "results.jsonl", "a") as log:
        log.write(json.dumps({"fingerprint": fingerprint, "workload": args.workload,
                              "seed": args.seed, "seconds": args.seconds,
                              "trace": args.trace, "calibration_ms": calibration,
                              "result": result}) + "\n")
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
