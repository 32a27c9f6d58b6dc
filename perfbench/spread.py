#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload serve-open --seeds 1 2 3 4 5 --sets 2

Runs ``perfbench/run.py`` once per seed (untraced, ``run_seconds`` from
``BENCHMARK.json``) and prints for each end-to-end metric its median and
the distance between its first and third quartile as a share of the
median, next to a third of the metric's bound (the steadiness target),
and the same spread for the workload-specific quantities.  With
``--sets N`` the whole seed list runs N times; each later set's median
of each metric is then compared with the first set's, against the
metric's bound, as two independent sets of runs of one code must agree.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_set(workload: str, seeds: list[int], seconds: int) -> dict[str, list[float]] | None:
    """Values of every end-to-end and workload metric, one per seed."""
    values: dict[str, list[float]] = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
            print(f"seed {seed}: exit {proc.returncode}")
            return None
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        block = lines[lines.index("workload metrics") + 1:lines.index("end-to-end metrics")]
        for line in block:
            name, value, _ = line.split()
            values.setdefault(f"({name})", []).append(float(value))
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    medians: list[dict[str, float]] = []
    for k in range(args.sets):
        values = run_set(args.workload, args.seeds, spec["run_seconds"])
        if values is None:
            return 1
        print(f"\n{args.workload} set {k + 1}: {len(args.seeds)} runs")
        medians.append({})
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            medians[-1][name] = med
            spread = (q3 - q1) / med
            if name in bounds:
                target = bounds[name]["bound"] / 3
                flag = "ok" if spread < target else "WIDE"
                print(f"  {name:<20} median {med:<12.5g} spread {spread:6.3f} "
                      f"(target < {target:.3f}) {flag}")
            else:
                print(f"  {name:<20} median {med:<12.5g} spread {spread:6.3f}")
    for k in range(1, args.sets):
        print(f"\n{args.workload} set {k + 1} against set 1 (median change, "
              "positive = worse)")
        for name, metric in bounds.items():
            first, later = medians[0][name], medians[k][name]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (later - first) / first
            flag = "ok" if worse <= metric["bound"] else "WORSE"
            print(f"  {name:<20} {first:<12.5g} -> {later:<12.5g} {worse:+7.3f} "
                  f"(bound {metric['bound']}) {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
