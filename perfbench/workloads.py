"""The three benchmark workloads.

Each workload drives the program only through its public entry points
(``run_experiments``, ``run_experiment`` / ``build_experiment``,
``InferenceServer``) with a config generated from the seed, and returns
an :class:`Outcome`.  The end-to-end quantities every workload reports
under the same names are:

* ``setup_s`` — median over :data:`SETUP_REPS` cold builds of the
  workload's stack (dataset cache cleared first, so dataset generation is
  part of every build), half of them before the measured work and half
  after it;
* ``unit_p50_ms`` / ``unit_tail_ms`` — median and tail time of one unit
  of work: a figure cell (its wall time; the tail is the slowest cell),
  or a request at the steady 150 req/s phase (from its scheduled send
  time; the tail is the 99th percentile);
* ``goodput_per_s`` — units of work completed per second: cells per
  second of sweep wall time, or requests per second completed within the
  250 ms latency limit at 450 req/s, the phase with the fault wave.

``peak_rss_mb`` is measured around the whole workload by the caller.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

# The controller is called through its module, so the traced run's
# wrappers (patched module attributes) see every call.
import repro.core.controller as controller
from repro.analog import make_analog_config
from repro.nn.data import clear_dataset_cache
from repro.runner import CellResult, ExperimentCell, run_experiments
from repro.serve import InferenceServer, ServeConfig
from repro.telemetry import Telemetry
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)

from harness import percentile
from tracing import Tracer, install_layers

#: cold builds timed per untraced run; ``setup_s`` is their median.  The
#: machine's speed drifts over seconds, so half are timed before the
#: measured work and half after it: the median samples the whole run.
#: A traced run makes only the first half.
SETUP_REPS = 10
SETUP_BEFORE = SETUP_REPS // 2
#: latency limit of a served request (ms); a failed request misses it.
LATENCY_LIMIT_MS = 250.0
#: classes of synth-cifar10, and the margin above chance an ``ideal``
#: cell must reach at full scale (the convergence screen).
NUM_CLASSES = 10
CONVERGENCE_MARGIN = 0.10
#: per-phase wait for outstanding requests (s) and server close deadline.
DRAIN_DEADLINE_S = 60.0
CLOSE_DEADLINE_S = 20.0


@dataclass
class Run:
    """What one benchmark invocation asked for."""

    seed: int
    seconds: float
    #: "full" (the benchmark) or "tiny" (the smoke test).
    scale: str
    trace: bool


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    #: end-to-end metrics shared by every workload (see module docstring).
    metrics: dict[str, float] = field(default_factory=dict)
    #: workload-specific end-to-end quantities: name -> (value, unit).
    detail: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: per-layer metrics (traced runs only).
    layers: dict[str, float] = field(default_factory=dict)
    #: simulated statistics, identical on every run of one code and seed.
    stats: dict[str, Any] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: traced runs: the merged trace and the wall-clock windows it covers.
    trace: Telemetry | None = None
    windows: list[tuple[float, float]] = field(default_factory=list)
    tracer: Tracer | None = None
    #: traced figure cells (per-cell counts divide by this) and the
    #: training samples of one epoch.
    units: int = 1
    samples_per_epoch: int = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #
def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _cold_builds(cfg: ExperimentConfig, n: int) -> list[float]:
    """Wall times of ``n`` builds of ``cfg``, each from a cleared cache."""
    seconds = []
    for _ in range(n):
        clear_dataset_cache()
        seconds.append(_timed(lambda: controller.build_experiment(cfg))[0])
    return seconds


def _repeat_for(seconds: float, unit: Callable[[], float]) -> list[float]:
    """Run ``unit`` (returns its wall time) until the budget is spent.

    At least once; another unit starts only if the median unit so far
    still fits in the remaining time, so a run ends close to its budget.
    """
    t0 = time.perf_counter()
    walls = [unit()]
    while time.perf_counter() - t0 + statistics.median(walls) <= seconds:
        walls.append(unit())
    return walls


def _fault_cells(counters: dict[str, int]) -> int:
    return sum(
        int(v) for k, v in counters.items()
        if k.startswith("faults.") and k.endswith("_cells")
    )


def _install(tracer: Tracer | None) -> None:
    if tracer is not None:
        install_layers(tracer)


def _base_train(**kw: Any) -> TrainConfig:
    return TrainConfig(model="vgg11", dataset="synth-cifar10",
                       width_mult=0.125, batch_size=32, **kw)


CROSSBAR = CrossbarConfig(rows=32, cols=32)


# --------------------------------------------------------------------- #
# sweep-fig6: one figure's cells fanned out over the process runner
# --------------------------------------------------------------------- #
#: (label, policy, policy_param) — the Fig. 6 subset the sweep runs.
SWEEP_POLICIES = [
    ("ideal", "ideal", 0.0),
    ("none", "none", 0.0),
    ("remap-t-10%", "remap-t", 0.10),
    ("remap-d", "remap-d", 0.0),
]


def sweep_config(policy: str, param: float, seed: int, scale: str) -> ExperimentConfig:
    """The figure recipe: 512/192 samples, Fig. 6 faults (m=1%, n=2%)."""
    if scale == "tiny":
        train = _base_train(epochs=1, n_train=64, n_test=32)
    else:
        train = _base_train(epochs=4, n_train=512, n_test=192)
    return ExperimentConfig(
        train=train,
        chip=ChipConfig(crossbar=CROSSBAR),
        faults=FaultConfig(post_m=0.01, post_n=0.02),
        policy=policy,
        policy_param=param,
        remap_threshold=0.001,
        seed=seed,
    )


def _sweep_cells(leg: str, seed: int, scale: str) -> list[ExperimentCell]:
    return [
        ExperimentCell(f"{leg}/{label}", sweep_config(policy, param, seed, scale))
        for label, policy, param in SWEEP_POLICIES
    ]


def _cell_stats(res: CellResult) -> dict[str, Any]:
    counters = res.result.telemetry.get("counters", {})
    return {
        "accuracy": res.result.final_accuracy,
        "remaps": res.result.num_remaps,
        "fault_cells": _fault_cells(counters),
    }


def _record_sweep(out: Outcome, legs: list[list[CellResult]]) -> None:
    """Stats of each policy; every repeat of a cell must agree."""
    per_label: dict[str, list[dict]] = {}
    for results in legs:
        for res in results:
            out.attempted += 1
            if not res.ok:
                out.failed += 1
                out.check(f"cell {res.key} ran", False, (res.error or "")[-300:])
                continue
            label = res.key.split("/", 1)[1]
            per_label.setdefault(label, []).append(_cell_stats(res))
    for label, runs in per_label.items():
        out.check(f"{label}: repeats identical", all(r == runs[0] for r in runs),
                  str(runs) if any(r != runs[0] for r in runs) else "")
        out.stats[label] = runs[0]


def run_sweep(run: Run, tracer: Tracer | None) -> Outcome:
    """The figure through the runner.

    Untraced runs time it on the runner's default inline path.  Fanned
    out over ``nproc`` forked workers, the same four cells took 33-51 s
    between identical runs on a 2-CPU machine (one cell 12-31 s, against
    5.5 s inline): each forked worker keeps the parent's BLAS thread
    pool, because the runner sets ``OPENBLAS_NUM_THREADS=1`` only after
    the library has started, and the workers oversubscribe the cores.
    With one BLAS thread per process the pooled sweep took 13-14 s.  No
    bound can gate a figure that swings by half, so the pooled path is
    measured against the inline one in the traced run instead:
    ``runner.cell_inflation`` and ``runner.parallel_eff``.
    """
    out = Outcome(tracer=tracer)
    workers = os.cpu_count() or 1
    ref = sweep_config("remap-d", 0.0, run.seed, run.scale)
    _install(tracer)
    w0 = time.time()
    setups = _cold_builds(ref, SETUP_BEFORE)

    legs: list[list[CellResult]] = []
    if tracer is None:
        sweep_walls: list[float] = []

        def sweep() -> float:
            wall, results = _timed(lambda: run_experiments(
                _sweep_cells(f"sweep{len(legs)}", run.seed, run.scale),
                workers=1,
            ))
            legs.append(results)
            sweep_walls.append(wall)
            return wall

        _repeat_for(run.seconds, sweep)
        cell_walls = [r.wall_seconds for leg in legs for r in leg]
        out.metrics["unit_p50_ms"] = 1e3 * statistics.median(cell_walls)
        out.metrics["unit_tail_ms"] = 1e3 * max(cell_walls)
        cells_per_s = len(cell_walls) / sum(sweep_walls)
        out.metrics["goodput_per_s"] = cells_per_s
        out.detail["cells_per_min"] = (60.0 * cells_per_s, "1/min")
        out.detail["cell_s"] = (statistics.median(cell_walls), "s")
        setups += _cold_builds(ref, SETUP_REPS - SETUP_BEFORE)
    else:
        # Traced: the same cells in-process and over the pool, so the
        # runner's cost per cell is measured against its own baseline.
        inline_wall, inline = _timed(lambda: run_experiments(
            _sweep_cells("inline", run.seed, run.scale), workers=1,
            telemetry=tracer.main,
        ))
        pool_wall, pool = _timed(lambda: run_experiments(
            _sweep_cells("pool", run.seed, run.scale), workers=workers,
            telemetry=tracer.main,
        ))
        out.windows = [(w0, time.time())]
        legs = [inline, pool]
        out.units = len(inline) + len(pool)
        out.samples_per_epoch = ref.train.n_train
        tracer.uninstall()
        inline_cell = statistics.median(r.wall_seconds for r in inline)
        pool_cell = statistics.median(r.wall_seconds for r in pool)
        lanes = min(workers, len(pool))
        out.layers["runner.cell_inflation"] = pool_cell / inline_cell
        out.layers["runner.parallel_eff"] = inline_wall / (pool_wall * lanes)
        out.layers["runner.cells_failed"] = sum(not r.ok for r in pool)
        out.layers["runner.retries"] = sum(r.attempts - 1 for r in pool)
        # Tracing overhead: the traced in-process Remap-D cell against the
        # same cell untraced, both in a warm process.
        traced_ref = next(r for r in inline if r.key.endswith("/remap-d"))
        untraced = run_experiments([ExperimentCell("untraced/remap-d", ref)], workers=1)
        legs.append(untraced)
        out.layers["trace.overhead_frac"] = (
            traced_ref.wall_seconds / untraced[0].wall_seconds - 1
        )
        out.trace = tracer.trace()
    out.metrics["setup_s"] = statistics.median(setups)
    _record_sweep(out, legs)
    if "remap-d" in out.stats:
        out.detail["acc_remapd"] = (out.stats["remap-d"]["accuracy"], "fraction")
    if run.scale == "full" and "ideal" in out.stats:
        acc = out.stats["ideal"]["accuracy"]
        floor = 1.0 / NUM_CLASSES + CONVERGENCE_MARGIN
        out.check("ideal cell beats chance", acc >= floor,
                  f"ideal accuracy {acc:.3f}, floor {floor:.3f}")
    return out


# --------------------------------------------------------------------- #
# fleet-substrate: the per-epoch substrate of a 2-chip analog cell
# --------------------------------------------------------------------- #
def fleet_config(seed: int, scale: str) -> ExperimentConfig:
    """Remap-D on 2 chips, a fault wave on chip 0 at mid-run, full analog."""
    epochs = 2 if scale == "tiny" else 12
    n = 32 if scale == "tiny" else 64
    return ExperimentConfig(
        train=_base_train(epochs=epochs, n_train=n, n_test=n),
        chip=ChipConfig(crossbar=CROSSBAR),
        faults=FaultConfig(post_m=0.01, post_n=0.02,
                           wave_epoch=epochs // 2, wave_chip=0),
        policy="remap-d",
        remap_threshold=0.001,
        analog=make_analog_config("full"),
        chips=2,
        seed=seed,
    )


def run_fleet(run: Run, tracer: Tracer | None) -> Outcome:
    out = Outcome(tracer=tracer)
    cfg = fleet_config(run.seed, run.scale)
    _install(tracer)
    w0 = time.time()
    setups = _cold_builds(cfg, SETUP_BEFORE)
    stats: list[dict[str, Any]] = []

    def cell() -> float:
        tel = Telemetry(echo=False)
        wall, res = _timed(lambda: controller.run_experiment(cfg, telemetry=tel))
        out.attempted += 1
        c = tel.counters
        stats.append({
            "accuracy": res.final_accuracy,
            "remaps": res.num_remaps,
            "evictions": res.num_evictions,
            "interchip_flits": int(c.get("fleet.interchip_flits", 0)),
            "fault_cells": _fault_cells(c),
        })
        if tracer is not None and tracer.installed:
            tracer.main.merge(tel, tag=f"cell{len(stats)}")
        return wall

    walls = _repeat_for(run.seconds, cell)
    untraced = 0.0
    if tracer is not None:
        out.windows = [(w0, time.time())]
        out.units = len(walls)
        out.samples_per_epoch = cfg.train.n_train
        # Tracing overhead: the last traced cell against one untraced
        # cell, both in a warm process.
        tracer.uninstall()
        untraced = cell()
    else:
        setups += _cold_builds(cfg, SETUP_REPS - SETUP_BEFORE)
    out.metrics["setup_s"] = statistics.median(setups)
    out.metrics["unit_p50_ms"] = 1e3 * statistics.median(walls)
    out.metrics["unit_tail_ms"] = 1e3 * max(walls)
    out.metrics["goodput_per_s"] = len(walls) / sum(walls)
    out.detail["cell_s"] = (statistics.median(walls), "s")
    out.stats = stats[0]
    out.detail["acc_remapd"] = (stats[0]["accuracy"], "fraction")
    out.check("repeats identical", all(s == stats[0] for s in stats),
              "" if all(s == stats[0] for s in stats) else str(stats))
    out.check("fault wave evicts across chips", stats[0]["evictions"] > 0,
              f"evictions {stats[0]['evictions']}")
    if tracer is not None:
        out.layers["trace.overhead_frac"] = walls[-1] / untraced - 1
        out.trace = tracer.trace()
    return out


# --------------------------------------------------------------------- #
# serve-open: open-loop traffic against two in-process replicas
# --------------------------------------------------------------------- #
LOW_RPS = 150.0
HIGH_RPS = 450.0
PROBE = 8
FAULT_WAVE = (0, 0.02, 0.3)  # replica, post_m, post_n
#: seed of the deployed model and chip.  The workload seed generates the
#: traffic (arrival times and which sample each request carries); every
#: seed serves the same deployment, so the online remap does the same work.
DEPLOYMENT_SEED = 1


def serve_config(seed: int) -> ExperimentConfig:
    """The serving bench's stack: an untrained vgg11 Remap-D replica."""
    return ExperimentConfig(
        train=_base_train(epochs=1, n_train=64, n_test=32, eval_batch=32),
        chip=ChipConfig(crossbar=CROSSBAR),
        faults=FaultConfig(),
        policy="remap-d",
        remap_threshold=0.001,
        seed=seed,
    )


def serve_settings() -> ServeConfig:
    return ServeConfig(max_batch=32, max_wait_us=2000.0, replicas=2)


@dataclass
class Sent:
    """One request of the open loop."""

    t_sched: float
    t_submit: float
    future: Any


def open_loop(
    server: InferenceServer,
    inputs: np.ndarray,
    rate: float,
    duration: float,
    rng: np.random.Generator,
    at: tuple[float, Callable[[], None]] | None = None,
) -> list[Sent]:
    """Poisson arrivals at ``rate`` for ``duration`` s, from one thread.

    Each request is submitted at its scheduled time or, when the
    generator runs late, as soon as it can; latency is measured from the
    scheduled time so a stall is charged to every request it delays.
    ``at=(offset, action)`` runs ``action`` once when the schedule passes
    ``offset`` seconds.
    """
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 1.5) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    sent: list[Sent] = []
    t0 = time.perf_counter()
    pending_action = at
    for i, offset in enumerate(offsets):
        t_sched = t0 + float(offset)
        if pending_action is not None and offset >= pending_action[0]:
            pending_action[1]()
            pending_action = None
        delay = t_sched - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        t_submit = time.perf_counter()
        sent.append(Sent(t_sched, t_submit, server.submit(inputs[i % len(inputs)])))
    if pending_action is not None:
        pending_action[1]()
    return sent


def settle(sent: list[Sent], deadline_s: float) -> tuple[list[float], int]:
    """Latencies (ms) of completed requests and the number that failed."""
    end = time.perf_counter() + deadline_s
    latencies: list[float] = []
    failed = 0
    for s in sent:
        try:
            s.future.result(timeout=max(0.0, end - time.perf_counter()))
        except Exception:  # failed or never completed: both count
            failed += 1
            continue
        latencies.append(1e3 * (s.future.t_done - s.t_sched))
    return latencies, failed


def _phase_metrics(sent: list[Sent], duration: float) -> dict[str, float]:
    latencies, failed = settle(sent, DRAIN_DEADLINE_S)
    within = sum(1 for v in latencies if v <= LATENCY_LIMIT_MS)
    return {
        "n": len(sent),
        "failed": failed,
        "p50_ms": percentile(latencies, 50) if latencies else float("inf"),
        "p99_ms": percentile(latencies, 99) if latencies else float("inf"),
        "goodput_rps": within / duration,
        "lag_ms": [1e3 * (s.t_submit - s.t_sched) for s in sent],
    }


def burst(
    server: InferenceServer, inputs: np.ndarray, n: int
) -> tuple[float, int, list[Sent]]:
    """Back-to-back submission of ``n`` requests: completed/s, failures."""
    t0 = time.perf_counter()
    sent = [Sent(t0, t0, server.submit(inputs[i % len(inputs)])) for i in range(n)]
    _, failed = settle(sent, DRAIN_DEADLINE_S)
    done = [s.future.t_done for s in sent if s.future.done()]
    span = max(done) - t0 if done else float("inf")
    return (n - failed) / span, failed, sent


def run_serve(run: Run, tracer: Tracer | None) -> Outcome:
    out = Outcome(tracer=tracer)
    cfg = serve_config(DEPLOYMENT_SEED)
    settings = serve_settings()
    rng = np.random.default_rng([run.seed, 0x5E7E])
    low_s = 0.5 * run.seconds
    high_s = 0.3 * run.seconds
    burst_n = int(60 * run.seconds)

    # Reference logits of a probe batch straight from the trainer, and
    # the request inputs: the deployment's samples in a seeded order.
    ref = controller.build_experiment(cfg)
    inputs = rng.permutation(np.concatenate([ref.dataset.x_test, ref.dataset.x_train]))
    probe = inputs[:PROBE]
    expected = ref.trainer.predict(probe, batch=settings.max_batch,
                                   pad_to=settings.max_batch)
    del ref

    _install(tracer)
    w0 = time.time()
    server_tel = Telemetry(echo=False)

    def cold_server(tel: Telemetry) -> tuple[float, InferenceServer]:
        clear_dataset_cache()
        return _timed(lambda: InferenceServer(cfg, settings, telemetry=tel))

    def cold_servers(n: int) -> list[float]:
        seconds = []
        for _ in range(n):
            wall, spare = cold_server(Telemetry(echo=False))
            spare.close(drain=True, timeout=CLOSE_DEADLINE_S)
            seconds.append(wall)
        return seconds

    setups = cold_servers(SETUP_BEFORE - 1)
    wall, server = cold_server(server_tel)
    setups.append(wall)
    windows = []
    submitted = failed = 0
    if tracer is not None:
        # Tracing overhead: the same burst untraced, then traced.
        windows.append((w0, time.time()))
        tracer.uninstall()
        untraced_rps, failed, _ = burst(server, inputs, burst_n)
        install_layers(tracer)
        w0 = time.time()
        traced_rps, traced_failed, bursted = burst(server, inputs, burst_n)
        tracer.samples.clear()
        submitted += 2 * burst_n
        failed += traced_failed
        out.layers["trace.overhead_frac"] = untraced_rps / traced_rps - 1

    try:
        futures = [server.submit(x) for x in probe]
        submitted += len(futures)
        got = np.stack([f.result(timeout=DRAIN_DEADLINE_S) for f in futures])
        out.check("probe logits bit-identical to Trainer.predict",
                  got.dtype == expected.dtype and np.array_equal(got, expected))
        out.stats["probe_digest"] = hashlib.sha256(got.tobytes()).hexdigest()[:16]

        warm = open_loop(server, inputs, LOW_RPS, 0.5, rng)
        failed += settle(warm, DRAIN_DEADLINE_S)[1]
        low = open_loop(server, inputs, LOW_RPS, low_s, rng)
        low_m = _phase_metrics(low, low_s)
        wave: dict[str, Any] = {}

        def inject() -> None:
            wave["crossbars"] = server.inject_faults(*FAULT_WAVE)

        injector = threading.Thread(target=inject, name="perfbench-fault-wave")
        high = open_loop(server, inputs, HIGH_RPS, high_s, rng,
                         at=(high_s / 2, injector.start))
        injector.join(timeout=DRAIN_DEADLINE_S)
        high_m = _phase_metrics(high, high_s)
        # Queue waits and batch fill describe the open loop; a burst queues
        # everything by design.
        open_loop_samples = {} if tracer is None else \
            {k: list(v) for k, v in tracer.samples.items()}
        capacity, burst_failed, final_burst = burst(server, inputs, burst_n)
        submitted += len(warm) + len(low) + len(high) + burst_n
    finally:
        close_s, _ = _timed(lambda: server.close(drain=True, timeout=CLOSE_DEADLINE_S))
    if tracer is not None:
        windows.append((w0, time.time()))
        tracer.uninstall()
        for phase in (bursted, warm, low, high, final_burst):
            for s in phase:
                if s.future.done():
                    tracer.add_span("serve.request", s.t_sched, s.future.t_done)
        out.layers["serve.gen_lag_ms"] = percentile(low_m["lag_ms"] + high_m["lag_ms"], 99)
        out.layers["serve.close_s"] = close_s
        tracer.samples = open_loop_samples
        out.trace = tracer.trace()
        out.trace.merge(server_tel, tag="server")
        out.windows = windows
    else:
        setups += cold_servers(SETUP_REPS - SETUP_BEFORE)
    out.metrics["setup_s"] = statistics.median(setups)

    counters = server_tel.counters
    out.attempted = submitted
    out.failed = failed + low_m["failed"] + high_m["failed"] + burst_failed
    out.metrics["unit_p50_ms"] = low_m["p50_ms"]
    out.metrics["unit_tail_ms"] = low_m["p99_ms"]
    out.metrics["goodput_per_s"] = high_m["goodput_rps"]
    for name, m in (("low", low_m), ("high", high_m)):
        out.detail[f"serve.{name}.p50_ms"] = (m["p50_ms"], "ms")
        out.detail[f"serve.{name}.p99_ms"] = (m["p99_ms"], "ms")
    out.detail["serve.goodput_rps"] = (high_m["goodput_rps"], "1/s")
    out.detail["serve.burst_rps"] = (capacity, "1/s")
    remaps_online = int(counters.get("serve.remaps_online", 0))
    out.stats.update({
        "online_remaps": remaps_online,
        "wave_crossbars": wave.get("crossbars"),
        "remaps": int(counters.get("remaps", 0)),
        "fault_cells": _fault_cells(counters),
    })
    out.check("exactly one online remap", remaps_online == 1,
              f"{remaps_online} online remaps")
    accounted = int(counters.get("serve.completed", 0)) + int(counters.get("serve.failed", 0))
    requests = int(counters.get("serve.requests", 0))
    out.check("every request accounted for",
              requests == submitted and accounted == requests,
              f"submitted {submitted}, server saw {requests}, "
              f"completed+failed {accounted}")
    return out


WORKLOADS: dict[str, Callable[[Run, Tracer | None], Outcome]] = {
    "sweep-fig6": run_sweep,
    "fleet-substrate": run_fleet,
    "serve-open": run_serve,
}
