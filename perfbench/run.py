#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-fig6 --seed 1 --seconds 35 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``sweep-fig6``,
``fleet-substrate`` and ``serve-open``.  ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` is a separate traced
run that reports the per-layer metrics and writes its trace under
``.perfbench/traces/`` (JSONL for ``python -m repro report`` and a
Chrome trace-event file for Perfetto).

The run prints a human-readable report (machine fingerprint, output
checks, every metric by name with its unit) and, as its last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  It exits
with code 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path[:0] = [str(SRC), str(HERE)]

from harness import (  # noqa: E402  (needs the path above)
    LeakGuard,
    check_repeatable,
    code_digest,
    fingerprint,
    peak_rss_mb,
)
from metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from repro.telemetry.trace import export_chrome_trace  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, Run  # noqa: E402


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement budget of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test sizes, not a measurement")
    return parser.parse_args(argv)


def export_trace(out: Outcome, name: str) -> pathlib.Path:
    """Write the traced run as JSONL plus a Chrome trace-event file."""
    assert out.trace is not None
    traces = OUT / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    path = traces / f"{name}.jsonl"
    out.trace.dump_jsonl(str(path))
    export_chrome_trace(
        out.trace.events, str(traces / f"{name}.chrome.json"),
        epochs=dict(out.trace.source_epochs), base_epoch=out.trace.epoch,
    )
    return path


def report(lines: list[tuple[str, float, str]], title: str) -> None:
    print(title)
    width = max(len(n) for n, _, _ in lines)
    for name, value, unit in lines:
        print(f"  {name:<{width}}  {value:>14.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    run = Run(seed=args.seed, seconds=args.seconds, scale=args.scale,
              trace=bool(args.trace))
    tracer = Tracer() if run.trace else None
    guard = LeakGuard()
    t0 = time.perf_counter()
    out = WORKLOADS[args.workload](run, tracer)
    wall = time.perf_counter() - t0

    leaks = guard.leaks()
    out.failed += len(leaks)
    out.check("nothing left running", not leaks, ", ".join(leaks))
    tag = f"{args.workload}-{args.scale}-seed{args.seed}"
    ok, note = check_repeatable(
        OUT / "stats", f"{tag}-{code_digest(SRC, HERE)}", out.stats
    )
    out.check("simulated statistics repeat across runs", ok, note)

    fp = fingerprint()
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} scale={args.scale} wall={wall:.1f}s")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for name, passed, detail in out.checks:
        print(f"check {'ok  ' if passed else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    print("stats " + json.dumps(out.stats, sort_keys=True))

    if run.trace:
        path = export_trace(out, f"{tag}-trace")
        print(f"trace -> {path.relative_to(ROOT)} (render: python -m repro report {path.relative_to(ROOT)})")
        layers = layer_metrics(out)
        units = {name: unit for name, unit, _ in PER_LAYER}
        report([(n, v, units[n]) for n, v in layers.items()], "per-layer metrics")
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layers.items()}
    else:
        out.metrics["peak_rss_mb"] = peak_rss_mb()
        units = {name: unit for name, unit, _, _ in END_TO_END}
        report([(n, v, u) for n, (v, u) in sorted(out.detail.items())],
               "workload metrics")
        report([(n, out.metrics[n], units[n]) for n in units], "end-to-end metrics")
        metrics = {n: {"value": out.metrics[n], "unit": units[n]} for n in units}

    correct = all(passed for _, passed, _ in out.checks)
    result = {
        "correct": correct,
        "attempted": max(1, out.attempted),
        "failed": out.failed,
        "metrics": metrics,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}-trace{args.trace}-{int(time.time())}.json").write_text(
        json.dumps({**result, "fingerprint": fp, "stats": out.stats,
                    "detail": out.detail, "checks": out.checks}, indent=1)
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
