"""Metric definitions (mirrored by ``BENCHMARK.json``) and the per-layer
metrics computed from a traced run.

Every metric is reported by every workload.  A per-layer metric of a
layer the workload does not run reads 0 (no calls, no time, no count).
Per-call times are medians over the run; counts are per figure cell on
the cell workloads and per run on ``serve-open``.
"""

from __future__ import annotations

import statistics

from harness import percentile
from tracing import covered_seconds, median_or_zero, span_durations
from workloads import Outcome

#: (name, unit, better, bound) — the end-to-end metrics.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("unit_p50_ms", "ms", "lower", 0.25),
    ("unit_tail_ms", "ms", "lower", 0.25),
    ("goodput_per_s", "1/s", "higher", 0.25),
]

#: (name, unit, better) — the per-layer metrics of a traced run.
PER_LAYER = [
    # repro.runner
    ("runner.cell_inflation", "x", "lower"),
    ("runner.parallel_eff", "fraction", "higher"),
    ("runner.cells_failed", "count", "lower"),
    ("runner.retries", "count", "lower"),
    # repro.nn
    ("nn.train_epoch_s", "s", "lower"),
    ("nn.fwd_s", "s", "lower"),
    ("nn.bwd_s", "s", "lower"),
    ("nn.opt_s", "s", "lower"),
    ("nn.loss_s", "s", "lower"),
    ("nn.eval_s", "s", "lower"),
    ("nn.infer_s", "s", "lower"),
    ("nn.train_samples_per_s", "1/s", "higher"),
    # repro.nn.fault_aware
    ("engine.step_weights_s", "s", "lower"),
    ("engine.recomputes", "count", "lower"),
    ("engine.cache_hit_rate", "fraction", "higher"),
    # repro.faults
    ("faults.inject_s", "s", "lower"),
    ("faults.cells", "count", "lower"),
    # repro.bist
    ("bist.scan_s", "s", "lower"),
    ("bist.crossbars_per_s", "1/s", "higher"),
    ("bist.run_bist_calls", "count", "lower"),
    # repro.core
    ("core.remap_plan_s", "s", "lower"),
    ("core.remap_exec_s", "s", "lower"),
    ("core.remaps", "count", "lower"),
    ("core.epoch_end_s", "s", "lower"),
    ("core.build_s", "s", "lower"),
    # repro.fleet
    ("fleet.remap_s", "s", "lower"),
    ("fleet.evictions", "count", "lower"),
    ("fleet.interchip_flits", "count", "lower"),
    # repro.analog
    ("analog.apply_s", "s", "lower"),
    ("analog.advance_epoch_s", "s", "lower"),
    # repro.telemetry.health
    ("health.sample_s", "s", "lower"),
    # repro.nn.data
    ("data.gen_s", "s", "lower"),
    # repro.serve
    ("serve.infer_ms", "ms", "lower"),
    ("serve.queue_p50_ms", "ms", "lower"),
    ("serve.queue_p99_ms", "ms", "lower"),
    ("serve.batch_fill", "fraction", "higher"),
    ("serve.remap_online_ms", "ms", "lower"),
    ("serve.gen_lag_ms", "ms", "lower"),
    ("serve.close_s", "s", "lower"),
    ("serve.busy_unattributed_frac", "fraction", "lower"),
    # the tracing itself
    ("trace.overhead_frac", "fraction", "lower"),
    ("trace.unattributed_frac", "fraction", "lower"),
]

#: per-call median metrics: metric name -> layer span name.
MEDIAN_SPANS = {
    "nn.train_epoch_s": "nn.train_epoch",
    "nn.fwd_s": "nn.fwd",
    "nn.bwd_s": "nn.bwd",
    "nn.opt_s": "nn.opt",
    "nn.loss_s": "nn.loss",
    "nn.eval_s": "nn.eval",
    "nn.infer_s": "nn.infer",
    "engine.step_weights_s": "engine.step_weights",
    "faults.inject_s": "faults.inject",
    "bist.scan_s": "bist.scan",
    "core.remap_plan_s": "core.remap_plan",
    "core.remap_exec_s": "core.remap_exec",
    "core.epoch_end_s": "core.epoch_end",
    "core.build_s": "core.build",
    "analog.apply_s": "analog.apply",
    "analog.advance_epoch_s": "analog.advance_epoch",
    "health.sample_s": "health.sample",
    "data.gen_s": "data.gen",
}

#: per-unit counts: metric name -> program counter.
UNIT_COUNTERS = {
    "engine.recomputes": "engine.cache_recomputes",
    "core.remaps": "remaps",
    "fleet.evictions": "fleet.evictions",
    "fleet.interchip_flits": "fleet.interchip_flits",
}


def layer_metrics(out: Outcome) -> dict[str, float]:
    """Every per-layer metric of a traced run (0 where a layer is idle)."""
    trace, tracer = out.trace, out.tracer
    assert trace is not None and tracer is not None
    spans = span_durations(trace, tracer.names)
    counters = trace.counters
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update(out.layers)
    for metric, span in MEDIAN_SPANS.items():
        values[metric] = median_or_zero(spans[span])
    for metric, counter in UNIT_COUNTERS.items():
        values[metric] = counters.get(counter, 0) / out.units
    values["faults.cells"] = sum(
        v for k, v in counters.items()
        if k.startswith("faults.") and k.endswith("_cells")
    ) / out.units
    epochs = spans["nn.train_epoch"]
    if epochs:
        values["nn.train_samples_per_s"] = out.samples_per_epoch * len(epochs) / sum(epochs)
    hits = counters.get("engine.cache_hits", 0)
    misses = counters.get("engine.cache_misses", 0)
    if hits + misses:
        values["engine.cache_hit_rate"] = hits / (hits + misses)
    scans = spans["bist.scan"]
    calls = counters.get("bist.run_bist_calls", 0)
    if scans:
        values["bist.crossbars_per_s"] = calls / sum(scans)
        values["bist.run_bist_calls"] = calls / len(scans)
    values["fleet.remap_s"] = median_or_zero(spans["fleet.remap_plan"]) + \
        median_or_zero(spans["fleet.remap_exec"])
    values["serve.infer_ms"] = 1e3 * median_or_zero(spans["serve.infer"])
    values["serve.remap_online_ms"] = 1e3 * median_or_zero(spans["serve.remap_online"])
    queue = tracer.samples.get("serve.queue_s", [])
    if queue:
        values["serve.queue_p50_ms"] = 1e3 * percentile(queue, 50)
        values["serve.queue_p99_ms"] = 1e3 * percentile(queue, 99)
    fill = tracer.samples.get("serve.batch_fill", [])
    if fill:
        values["serve.batch_fill"] = statistics.fmean(fill)
    # Coverage counts layer spans only.  On serve-open, the share of the
    # time some request was in flight that no layer span covers is the
    # time spent outside the replicas (dispatcher, router, stalls):
    # |requests - layers| = |requests or layers| - |layers|.
    layers = tracer.names
    wall = sum(w1 - w0 for w0, w1 in out.windows)
    covered = sum(covered_seconds(trace, layers, w) for w in out.windows)
    values["trace.unattributed_frac"] = 1.0 - covered / wall
    if "serve.request" in tracer.extra_names:
        requests = {"serve.request"}
        busy = sum(covered_seconds(trace, requests, w) for w in out.windows)
        either = sum(covered_seconds(trace, layers | requests, w) for w in out.windows)
        values["serve.busy_unattributed_frac"] = (either - covered) / busy
    return {name: float(values[name]) for name, _, _ in PER_LAYER}
