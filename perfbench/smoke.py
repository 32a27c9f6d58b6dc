#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes, on a second seed.

    python3 perfbench/smoke.py

Runs every workload of ``BENCHMARK.json`` untraced and traced at
``--scale tiny`` and checks each result line:
exactly the keys ``correct``, ``attempted``, ``failed`` and ``metrics``,
every end-to-end (untraced) or per-layer (traced) metric with its unit
and a finite value, a correct run, and layer spans covering at least 90%
of the traced wall time.  The traced JSONL must render with
``repro report``.  Finally the command must fail, printing no result,
in a directory that holds only ``BENCHMARK.json`` and the benchmark.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 2
SECONDS = 3
TIMEOUT = 300


def bench(cwd: pathlib.Path, spec: dict, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        spec["command"] + list(args), cwd=cwd, capture_output=True, text=True,
        timeout=TIMEOUT,
    )


def check_result(proc: subprocess.CompletedProcess, expected: list[dict]) -> list[str]:
    problems = []
    if proc.returncode != 0:
        problems.append(f"exit {proc.returncode}: {proc.stderr[-1500:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        return problems + [f"no result line ({exc})"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append("correct is not true")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    if sorted(metrics) != sorted(names):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(names))}")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')!r} != {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    if "trace.unattributed_frac" in metrics and metrics["trace.unattributed_frac"]["value"] > 0.10:
        problems.append("layer spans cover less than 90% of the traced wall time")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = bench(ROOT, spec, "--workload", workload, "--seed", str(SEED),
                         "--seconds", str(SECONDS), "--trace", str(trace),
                         "--scale", "tiny")
            problems = check_result(
                proc, spec["per_layer"] if trace else spec["end_to_end"]
            )
            if trace and not problems:
                trace_file = ROOT / ".perfbench" / "traces" / \
                    f"{workload}-tiny-seed{SEED}-trace.jsonl"
                rendered = subprocess.run(
                    [sys.executable, "-m", "repro", "report", str(trace_file),
                     "--json", str(trace_file.with_suffix(".report.json"))],
                    cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT,
                    env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                )
                if rendered.returncode != 0:
                    problems.append(f"repro report failed: {rendered.stderr[-800:]}")
            status = "ok" if not problems else "FAIL"
            print(f"{status:4} {workload} trace={trace}")
            for problem in problems:
                print(f"     {problem}")
            failures += bool(problems)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    workload = spec["workloads"][0]["name"]
    proc = bench(bare, spec, "--workload", workload, "--seed", str(SEED),
                 "--seconds", str(SECONDS), "--trace", "0")
    printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
    ok = proc.returncode != 0 and not printed_result
    print(f"{'ok' if ok else 'FAIL':4} fails without the program "
          f"(exit {proc.returncode}, result printed: {printed_result})")
    failures += not ok
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
