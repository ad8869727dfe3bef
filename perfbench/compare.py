#!/usr/bin/env python3
"""Compare two sets of perfbench results, per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--bench BENCHMARK.json]

Each directory holds the records that run.py saves with --out DIR, one JSON
file per run (run each commit with the same seeds). For every workload and
metric found on both sides it prints each side's median and spread (the
distance between the quartiles as a share of the median) and the ratio
new/base. End-to-end metrics are judged against the bounds in
BENCHMARK.json:

  worse       the new median is worse than the base median by more than
              the bound
  unresolved  a side's spread is wider than the bound, and not every new
              run beats every base run
  better/ok   otherwise

Per-layer metrics (traced runs) are listed with their ratio only. Exits 1
when any end-to-end metric is worse.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): {metric: [values]}} from run.py's records."""
    groups = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text())
        info = rec.get("info", {})
        key = (info.get("workload"), int(info.get("trace", 0)))
        for name, m in rec.get("metrics", {}).items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return groups


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def judge(base, new, spec):
    """Verdict for one end-to-end metric, with `spec` from BENCHMARK.json."""
    b, n = statistics.median(base), statistics.median(new)
    sign = 1 if spec["better"] == "lower" else -1
    worse_by = sign * (n - b) / abs(b) if b else 0.0
    if worse_by > spec["bound"]:
        return "worse"
    all_better = (max(new) < min(base)) if sign > 0 else (min(new) > max(base))
    if max(spread(base), spread(new)) > spec["bound"] and not all_better:
        return "unresolved"
    return "better" if worse_by < 0 else "ok"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    args = ap.parse_args()

    bench = json.loads(Path(args.bench).read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load(args.base), load(args.new)
    regressions = 0
    print(f"{'workload':14} {'metric':32} {'base':>14} {'new':>14} "
          f"{'new/base':>9} {'spread b/n':>13}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name in sorted(set(base[key]) & set(new[key])):
            b, n = base[key][name], new[key][name]
            mb, mn = statistics.median(b), statistics.median(n)
            ratio = mn / mb if mb else float("nan")
            verdict = ""
            if not trace and name in e2e:
                verdict = judge(b, n, e2e[name])
                regressions += verdict == "worse"
            print(f"{workload:14} {name:32} {mb:14.6g} {mn:14.6g} "
                  f"{ratio:9.4f} {spread(b):6.3f}/{spread(n):<6.3f}  "
                  f"{verdict}")
    missing = sorted(set(base) ^ set(new))
    if missing:
        print("only on one side:", ", ".join(f"{w} trace={t}" for w, t in missing))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
