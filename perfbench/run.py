#!/usr/bin/env python3
"""End-to-end benchmark of the Stabilizer library (see README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload tcp_small --seed 1 --seconds 10 --trace 0

Builds perfbench_e2e from the library sources (first run only, into
.bench_build/perfbench), runs one workload, saves the full result with host
facts under .bench_results/, and prints as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer
ones. Exits 0 only when every output of the run was correct.
"""
import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench_e2e"
WORKLOADS = ("tcp_small", "tcp_bulk", "sim_fleet", "sim_wan_lossy")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "core" / "stabilizer.hpp").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    for var in ("CXXFLAGS", "CFLAGS", "LDFLAGS"):
        if "-fsanitize" in os.environ.get(var, ""):
            log(f"refusing a sanitizer build ({var} has -fsanitize)")
            return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return BINARY.is_file()


def metric_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(ROOT / ".bench_results"),
                    help="directory for full result records and spans")
    args = ap.parse_args()

    if not build():
        return 2
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", str(out_dir / f"{args.workload}.spans")]
    started = time.time()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 2
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        log(f"no result from perfbench_e2e (exit {proc.returncode})")
        return 2

    record["info"].update(git_commit=git_commit(), host=platform.node(),
                          wall_s=round(time.time() - started, 3))
    name = f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    metrics = {}
    for m in metric_names(args.trace):
        if m not in record["metrics"]:
            log(f"result lacks metric {m}")
            return 2
        metrics[m] = record["metrics"][m]
    correct = bool(record["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
