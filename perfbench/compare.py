"""Compare a parent and a change with the benchmark.

    python3 perfbench/compare.py PARENT CHANGE --out DIR [--pairs N] [--workload W ...]

PARENT and CHANGE are checkouts (directories holding src/e8lie).  With
--pairs N it first runs N pairs per workload through this copy of run.py,
so both sides use identical benchmark code and settings, alternating which
side runs first; seeds are 1, 2, ... and each run measures for the
`run_seconds` of BENCHMARK.json.  Results land in DIR/parent and
DIR/change; without --pairs only those are read.

One row per workload and metric: each side's median and quartiles, the
paired wins of the change, and a verdict:
  better       the change wins at least 9/10 of the pairs and the medians
               differ by more than the parent's quartile distance, or
               every change run beats every parent run
  unresolved   the parent's spread (quartile distance / median) is wider
               than the metric's bound
  worse        the change's median is worse than the parent's by more
               than the bound
  within bound otherwise
Bounds come from BENCHMARK.json; a named metric that is not there takes
the bound of `work_s` (`setup_s` keeps its own).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH, "run.py")


def load_spec() -> dict:
    with open(os.path.join(BENCH, os.pardir, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run_pairs(parent: str, change: str, out: str, workloads, pairs: int):
    seconds = load_spec()["run_seconds"]
    for w in workloads:
        for seed in range(1, pairs + 1):
            order = [("parent", parent), ("change", change)]
            if seed % 2 == 0:
                order.reverse()
            for side, root in order:
                cmd = [sys.executable, RUN, "--workload", w, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0", "--results-dir", os.path.join(out, side)]
                print(f"# {side} {w} seed {seed}", file=sys.stderr, flush=True)
                subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL, check=True)


def load_results(directory: str) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> latest untraced result in the directory."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0-*.json"))):
        with open(path, encoding="utf-8") as f:
            r = json.load(f)
        out[(r["workload"], r["seed"])] = r
    return out


def verdict(parent: list[float], change: list[float], bound: float) -> tuple[str, int, float]:
    """Lower is better for every metric here."""
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum(c < p for p, c in zip(parent, change))
    spread = (q3 - q1) / pm
    if (wins >= 0.9 * len(parent) and pm - cm > q3 - q1) or max(change) < min(parent):
        return "better", wins, spread
    if spread > bound:
        return "unresolved", wins, spread
    if cm > pm * (1 + bound):
        return "worse", wins, spread
    return "within bound", wins, spread


def report(out: str) -> int:
    bounds = {m["name"]: m["bound"] for m in load_spec()["end_to_end"]}
    parent, change = load_results(os.path.join(out, "parent")), load_results(os.path.join(out, "change"))
    keys = sorted(set(parent) & set(change))
    print(f"{'workload':9s} {'metric':22s} {'unit':5s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'wins':>6s} {'spread':>7s} {'bound':>6s}  verdict")
    worst = 0
    for w in sorted({k[0] for k in keys}):
        seeds = [s for (ww, s) in keys if ww == w]
        if len(seeds) < 2:
            print(f"{w}: fewer than two paired runs")
            continue
        failed = sum(parent[(w, s)]["checks"]["failed"] + change[(w, s)]["checks"]["failed"] for s in seeds)
        if failed:
            print(f"{w}: {failed} failed checks across the runs; timings not compared")
            worst = 1
            continue
        for m, first in parent[(w, seeds[0])]["named"].items():
            if m in ("error_rate", "reference_s"):  # a count of failures and the host's speed
                continue
            pv = [parent[(w, s)]["named"][m]["value"] for s in seeds]
            cv = [change[(w, s)]["named"][m]["value"] for s in seeds]
            bound = bounds.get(m, bounds["work_s"])
            v, wins, spread = verdict(pv, cv, bound)
            pq, cq = statistics.quantiles(pv, n=4), statistics.quantiles(cv, n=4)
            print(f"{w:9s} {m:22s} {first['unit']:5s} "
                  f"{statistics.median(pv):>12.5g} [{pq[0]:.5g}, {pq[2]:.5g}] "
                  f"{statistics.median(cv):>12.5g} [{cq[0]:.5g}, {cq[2]:.5g}] "
                  f"{wins:>3d}/{len(seeds):<2d} {spread:7.1%} {bound:6.0%}  {v}")
            worst = max(worst, v == "worse")
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare a parent and a change with the e8lie benchmark")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--out", required=True, help="directory for the two result sets")
    ap.add_argument("--pairs", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=("certify", "chart", "cli_cold"))
    args = ap.parse_args(argv)
    if args.pairs:
        run_pairs(os.path.abspath(args.parent), os.path.abspath(args.change), os.path.abspath(args.out),
                  args.workload or ["certify", "chart", "cli_cold"], args.pairs)
    return report(args.out)


if __name__ == "__main__":
    sys.exit(main())
