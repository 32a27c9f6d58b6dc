"""Serving-plane benchmarks: throughput, tail latency and chaos gates.

Measures the `repro serve` stack end to end — micro-batcher, health
router, replica forwards — and writes the numbers to
``benchmarks/results/serve.json`` (the recorded p50/p90/p99 baseline the
CI SLO gate compares against).

Acceptance gates (asserted by ``test_serve_bench``):

* **batching speedup** — saturated batched submission must serve >= 5x
  the requests/second of one-request-at-a-time submission *on the same
  server*.  Every forward runs at the fixed ``MAX_BATCH``-slot shape
  (that is the bit-determinism contract: BLAS kernels are not bit-stable
  across GEMM shapes, so a lone request pays a full-slot forward); the
  micro-batcher's job is to fill those slots, and this gate is the
  measure of that;
* **p99 SLO** — open-loop (Poisson) p99 at the probe rate must stay
  under ``SERVE_P99_SLO_MS``, a generous multiple of the recorded
  dev-machine baseline so shared CI runners pass while regressions
  (lost cache hits, serialized replicas, batcher stalls) still trip it;
* **replica scaling** — saturated closed-loop throughput with two
  in-process replicas must be >= ``REPLICA_SCALING_GATE`` x one
  replica's, measured in the same run (skipped below two CPUs).  The
  replicas share the process's BLAS pool; without one BLAS thread per
  replica (:mod:`repro.utils.blas`) their GEMMs queue on it and two
  replicas serve *less* than one (about 0.75-0.9x on a 2-CPU machine);
* **chaos** — a fault wave injected mid-traffic must trigger *exactly
  one* online remap, zero failed requests, a ``remap_planned`` event in
  the merged trace, and an observable routing-weight drop on the
  degraded replica.
"""

from __future__ import annotations

import os

import numpy as np

from repro.serve import InferenceServer, ServeConfig, run_loadgen
from repro.telemetry import Telemetry
from repro.utils.config import FaultConfig
from repro.utils.tabulate import render_table

from _common import SCALE, experiment, save_results

MODEL = "vgg11"
MAX_BATCH = 32

#: open-loop p99 (ms) recorded at the probe rate below (the committed
#: benchmarks/results/serve.json baseline, 2-CPU container: p50 36, p99 70
#: at 300 req/s offered, 34.5x batching speedup).
SERVE_P99_BASELINE_MS = 70.3
#: CI gate: ~3.5x the recorded baseline, absorbing shared-runner variance
#: while still catching order-of-magnitude regressions.
SERVE_P99_SLO_MS = 250.0
#: CI gate: two in-process replicas vs one, saturated closed loop (1.5-1.7x
#: on a 2-CPU machine).
REPLICA_SCALING_GATE = 1.2


def _config():
    cfg = experiment(MODEL, "remap-d", FaultConfig())
    # Serving benches never train: a small dataset keeps replica
    # construction (and CI wall clock) cheap.
    cfg.train.epochs = 1
    cfg.train.n_train = 64
    cfg.train.n_test = 32
    cfg.train.eval_batch = MAX_BATCH
    return cfg


def bench_throughput(duration: float = 3.0) -> dict:
    """Single-stream vs saturated batched submission on one server."""
    tel = Telemetry(echo=False)
    server = InferenceServer(
        _config(),
        # A small coalescing budget: negligible against the forward cost,
        # so the single-stream phase is not penalised by batching waits.
        ServeConfig(max_batch=MAX_BATCH, max_wait_us=200, replicas=1),
        telemetry=tel,
    )
    try:
        single = run_loadgen(server, mode="closed", concurrency=1,
                             duration_s=duration, seed=1)
        batched = run_loadgen(server, mode="closed",
                              concurrency=4 * MAX_BATCH,
                              duration_s=duration, seed=2)
        # Open-loop probe at ~40% of measured capacity: a stable-queue
        # operating point whose p99 is the SLO quantity.
        probe_rate = float(np.clip(0.4 * batched.throughput_rps, 20.0, 300.0))
        open_res = run_loadgen(server, mode="open", rate=probe_rate,
                               duration_s=duration, seed=3)
    finally:
        server.close()
    counters = tel.counters
    hits = counters.get("engine.cache_hits", 0)
    misses = counters.get("engine.cache_misses", 0)
    return {
        "max_batch": MAX_BATCH,
        "single": single.to_dict(),
        "batched": batched.to_dict(),
        "open": open_res.to_dict(),
        "probe_rate": probe_rate,
        "batching_speedup": batched.throughput_rps / single.throughput_rps,
        "p99_slo_ms": SERVE_P99_SLO_MS,
        "cache_hit_rate": hits / (hits + misses) if hits + misses else None,
    }


def bench_replica_scaling(one_replica_rps: float, duration: float = 3.0) -> dict:
    """Saturated closed-loop throughput of two in-process replicas, as a
    multiple of one replica's (``one_replica_rps``, same load, same run)."""
    server = InferenceServer(
        _config(),
        ServeConfig(max_batch=MAX_BATCH, max_wait_us=200, replicas=2),
        telemetry=Telemetry(echo=False),
    )
    try:
        # Warm both replicas' effective-weight caches first, as the
        # one-replica phase was warmed by the single-stream phase.
        run_loadgen(server, mode="closed", concurrency=4 * MAX_BATCH,
                    duration_s=0.5, seed=5)
        two = run_loadgen(server, mode="closed", concurrency=4 * MAX_BATCH,
                          duration_s=duration, seed=2)
    finally:
        server.close()
    return {
        "two_replicas": two.to_dict(),
        "one_replica_rps": one_replica_rps,
        "speedup": two.throughput_rps / one_replica_rps,
        "gate": REPLICA_SCALING_GATE,
        "cpu_count": os.cpu_count(),
    }


def bench_chaos(duration: float = 4.0) -> dict:
    """Mid-traffic fault wave: online remap, zero drops, weight drop."""
    tel = Telemetry(echo=False)
    server = InferenceServer(
        _config(),
        ServeConfig(max_batch=16, max_wait_us=500, replicas=2,
                    chaos="faults:10:0.02:0.3"),
        telemetry=tel,
    )
    try:
        load = run_loadgen(server, mode="open", rate=120.0,
                           duration_s=duration, seed=4)
    finally:
        server.close()
    counters = tel.counters
    # Routing-weight trajectory of the degraded replica: the 'degraded'
    # entry must sit strictly below that replica's registration weight.
    register: dict = {}
    degraded: dict = {}
    restored: dict = {}
    for e in tel.filter("route_weight"):
        p = e["payload"]
        rid, reason = p["replica"], p["reason"]
        if reason == "register":
            register[rid] = p["weight"]
        elif reason == "degraded" and rid not in degraded:
            degraded[rid] = p["weight"]
        elif reason == "restored":
            restored[rid] = p["weight"]
    weight_drops = {
        rid: register[rid] - w
        for rid, w in degraded.items() if rid in register
    }
    return {
        "load": load.to_dict(),
        "requests": counters.get("serve.requests", 0),
        "completed": counters.get("serve.completed", 0),
        "failed": counters.get("serve.failed", 0),
        "online_remaps": counters.get("serve.remaps_online", 0),
        "chaos_fault_cells": counters.get("serve.chaos_faults", 0),
        "remap_planned_events": len(tel.filter("remap_planned")),
        "online_remap_events": len(tel.filter("online_remap")),
        "register_weights": register,
        "degraded_weights": degraded,
        "restored_weights": restored,
        "weight_drops": weight_drops,
    }


def run_serve_bench() -> dict:
    duration = 2.0 if SCALE == "quick" else 3.0
    throughput = bench_throughput(duration)
    payload = {
        "model": MODEL,
        "scale": SCALE,
        "throughput": throughput,
        "replica_scaling": bench_replica_scaling(
            throughput["batched"]["throughput_rps"], duration
        ),
        "chaos": bench_chaos(duration + 1.0),
    }
    tp = payload["throughput"]
    print()
    print(render_table(
        ["phase", "req/s", "p50 ms", "p99 ms"],
        [
            ["single-stream (closed, c=1)",
             tp["single"]["throughput_rps"],
             tp["single"]["latency_ms"].get("p50"),
             tp["single"]["latency_ms"].get("p99")],
            [f"batched (closed, c={4 * MAX_BATCH})",
             tp["batched"]["throughput_rps"],
             tp["batched"]["latency_ms"].get("p50"),
             tp["batched"]["latency_ms"].get("p99")],
            [f"open loop @ {tp['probe_rate']:.0f}/s",
             tp["open"]["throughput_rps"],
             tp["open"]["latency_ms"].get("p50"),
             tp["open"]["latency_ms"].get("p99")],
        ],
        title=f"serving throughput ({MODEL}, {MAX_BATCH} slots, 1 replica)",
        ndigits=2,
    ))
    print(f"batching speedup: {tp['batching_speedup']:.1f}x "
          f"(gate >= 5x); cache hit-rate "
          f"{100 * (tp['cache_hit_rate'] or 0):.1f}%")
    rs = payload["replica_scaling"]
    print(f"replica scaling: 2 replicas "
          f"{rs['two_replicas']['throughput_rps']:.0f} req/s = "
          f"{rs['speedup']:.2f}x one replica (gate >= {rs['gate']}x)")
    ch = payload["chaos"]
    print(f"chaos: {ch['completed']}/{ch['requests']} served, "
          f"{ch['failed']} failed, {ch['online_remaps']} online remap(s), "
          f"weight drops {ch['weight_drops']}")
    save_results("serve", payload)
    return payload


def test_serve_bench(benchmark):
    payload = benchmark.pedantic(run_serve_bench, rounds=1, iterations=1)
    tp = payload["throughput"]
    # Gate: micro-batched submission >= 5x one-at-a-time on the same
    # fixed-slot server.
    assert tp["batching_speedup"] >= 5.0, tp
    # Gate: open-loop p99 within the recorded-baseline SLO.
    assert tp["open"]["latency_ms"]["p99"] <= SERVE_P99_SLO_MS, tp["open"]
    # No request ever fails under plain load.
    assert tp["single"]["failed"] == 0 and tp["batched"]["failed"] == 0, tp
    rs = payload["replica_scaling"]
    assert rs["two_replicas"]["failed"] == 0, rs
    # Gate: a second in-process replica adds throughput (needs 2 CPUs).
    if (os.cpu_count() or 1) >= 2:
        assert rs["speedup"] >= REPLICA_SCALING_GATE, rs
    ch = payload["chaos"]
    # Gate: the mid-traffic fault wave triggers exactly one online remap
    # and drops nothing.
    assert ch["failed"] == 0, ch
    assert ch["completed"] == ch["requests"], ch
    assert ch["online_remaps"] == 1, ch
    assert ch["online_remap_events"] == 1, ch
    assert ch["remap_planned_events"] >= 1, ch
    # Gate: the degraded replica's routing weight observably dropped.
    assert ch["weight_drops"] and all(d > 0 for d in ch["weight_drops"].values()), ch


if __name__ == "__main__":
    run_serve_bench()
