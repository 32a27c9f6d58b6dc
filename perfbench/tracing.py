"""Per-layer tracing of the program, recorded from outside it.

The program under test is not edited: every layer is timed by wrapping
its public functions and methods, so each call runs inside a
``repro.telemetry.Telemetry`` span named ``<layer>.<what>``.  A method is
patched on its class; a function is patched in every ``repro`` module
that binds it, because callers import functions by name.

Spans go to the sink of the calling thread (one sink per thread, so
threads never share a sink's counters), except while an experiment runs:
the wrapper around ``run_experiment`` binds that experiment's own sink,
which is the one the runner snapshots in a worker process and merges back
into the parent.  :meth:`Tracer.trace` folds every thread's sink into the
main thread's, which then holds the whole trace on one timeline.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import threading
import time
from typing import Any, Callable, Iterator

from repro.telemetry import Telemetry

#: kind of the instant event that anchors a sink's clock (see
#: :meth:`Tracer.add_span`).
ORIGIN_KIND = "perfbench_origin"


class Tracer:
    """Installs layer wrappers and collects their spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._sinks: list[tuple[str, Telemetry]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        #: names of the layer spans: calls into the program.
        self.names: set[str] = set()
        #: names of spans the benchmark adds itself (request lifetimes);
        #: they never count as layer coverage.
        self.extra_names: set[str] = set()
        #: raw samples for quantities that are not spans (queue waits ...).
        self.samples: dict[str, list[float]] = {}
        self.main = self.sink()
        # perf_counter() value at which the main sink's clock reads 0.
        t_before = time.perf_counter()
        self.main.event(ORIGIN_KIND)
        t_after = time.perf_counter()
        self._origin = (t_before + t_after) / 2 - self.main.events[-1]["ts"]

    # ------------------------------------------------------------------ #
    # sinks
    # ------------------------------------------------------------------ #
    def sink(self) -> Telemetry:
        """The sink spans of the calling thread go to."""
        bound = getattr(self._local, "bound", None)
        if bound is not None:
            return bound
        own = getattr(self._local, "own", None)
        if own is None:
            own = self._local.own = Telemetry(echo=False)
            with self._lock:
                self._sinks.append((threading.current_thread().name, own))
        return own

    @contextlib.contextmanager
    def bind(self, tel: Telemetry) -> Iterator[None]:
        """Send this thread's spans to ``tel`` for the duration."""
        previous = getattr(self._local, "bound", None)
        self._local.bound = tel
        try:
            yield
        finally:
            self._local.bound = previous

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def add_span(self, name: str, t_start: float, t_end: float) -> None:
        """Record a span that began in the past (perf_counter stamps).

        Used for request lifetimes, which start at a scheduled send time
        and end on another thread.  Written in the span event format of
        ``Telemetry.span`` so the trace tools read it like any other.
        Such a span is not a layer span: it is kept out of ``names``.
        """
        self.extra_names.add(name)
        self.main.event(
            "span", name=name, seconds=round(t_end - t_start, 6),
            start=round(t_start - self._origin, 6), span_id=None,
            parent_id=None,
        )

    # ------------------------------------------------------------------ #
    # patching
    # ------------------------------------------------------------------ #
    def _replace(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def span_method(self, cls: type, attr: str, name: str) -> None:
        """Time every call of ``cls.attr`` as span ``name``."""
        self._replace(cls, attr, self._timed(getattr(cls, attr), name))

    def span_function(self, module: Any, attr: str, name: str) -> None:
        """Time every call of the function ``module.attr`` as ``name``."""
        self.wrap_function(module, attr, lambda fn: self._timed(fn, name))

    def wrap_function(
        self, module: Any, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        """Replace ``module.attr`` and every ``repro`` binding of it."""
        original = getattr(module, attr)
        wrapped = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if mod.__dict__.get(attr) is original:
                self._replace(mod, attr, wrapped)

    def wrap_method(
        self, cls: type, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        self._replace(cls, attr, make(getattr(cls, attr)))

    def _timed(self, fn: Callable, name: str) -> Callable:
        self.names.add(name)
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with tracer.sink().span(name):
                return fn(*args, **kwargs)

        return timed

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # results
    # ------------------------------------------------------------------ #
    def trace(self) -> Telemetry:
        """The main sink with every other thread's sink merged in."""
        with self._lock:
            others = [(n, t) for n, t in self._sinks if t is not self.main]
            self._sinks = [(n, t) for n, t in self._sinks if t is self.main]
        for name, tel in others:
            self.main.merge(tel, tag=f"thread:{name}")
        return self.main


def span_durations(trace: Telemetry, names: set[str]) -> dict[str, list[float]]:
    """Seconds of every recorded instance of each layer span."""
    out: dict[str, list[float]] = {n: [] for n in names}
    for e in trace.events:
        if e["kind"] == "span" and e["payload"]["name"] in out:
            out[e["payload"]["name"]].append(e["payload"]["seconds"])
    return out


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def covered_seconds(
    trace: Telemetry, names: set[str], window: tuple[float, float]
) -> float:
    """Seconds of a wall-clock window that at least one span in ``names``
    covers.

    Span starts are offsets on their sink's clock; a merged sink's offset
    comes from ``source_epochs`` (the wall-clock time its clock started),
    the main sink's from its own ``epoch``.
    """
    w0, w1 = window
    intervals = []
    for e in trace.events:
        if e["kind"] != "span" or e["payload"]["name"] not in names:
            continue
        cell = e.get("cell")
        base = trace.epoch if cell is None else trace.source_epochs[str(cell)]
        start = base + e["payload"]["start"]
        end = start + e["payload"]["seconds"]
        if end > w0 and start < w1:
            intervals.append((max(start, w0), min(end, w1)))
    covered = 0.0
    reach = w0
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer on the runtime path.

    ``repro.noc`` and ``repro.area`` only feed the overhead study and are
    not on the host's runtime path, so they are not traced.
    """
    import repro.bist.density as bist_density
    import repro.core.controller as controller
    import repro.nn.data as nn_data
    import repro.nn.functional as functional
    import repro.telemetry.health as health
    from repro.analog import AnalogStack
    from repro.core.remap_protocol import RemapProtocol
    from repro.faults.injector import FaultInjector
    from repro.fleet import FleetRemapProtocol
    from repro.nn.fault_aware import CrossbarEngine
    from repro.nn.layers import Module
    from repro.nn.optim import SGD
    from repro.nn.tensor import Tensor
    from repro.nn.trainer import Trainer
    from repro.serve import InferenceServer
    from repro.serve.batcher import MicroBatcher
    from repro.serve.replica import LocalReplica

    def bind_experiment_sink(fn):
        @functools.wraps(fn)
        def run_experiment(config, telemetry=None):
            tel = telemetry if telemetry is not None else Telemetry(echo=False)
            with tracer.bind(tel):
                return fn(config, telemetry=tel)
        return run_experiment

    def outermost_forward(fn):
        depth = threading.local()
        tracer.names.update(("nn.fwd", "nn.infer"))

        @functools.wraps(fn)
        def call(self, x):
            if getattr(depth, "n", 0):
                return fn(self, x)
            depth.n = 1
            try:
                with tracer.sink().span("nn.fwd" if self.training else "nn.infer"):
                    return fn(self, x)
            finally:
                depth.n = 0
        return call

    def counted_run_bist(fn):
        @functools.wraps(fn)
        def run_bist(*args, **kwargs):
            tracer.sink().count("bist.run_bist_calls")
            return fn(*args, **kwargs)
        return run_bist

    def sampled_next_batch(fn):
        @functools.wraps(fn)
        def next_batch(self, timeout=None):
            batch = fn(self, timeout)
            if batch:
                now = time.perf_counter()
                for request in batch:
                    tracer.sample("serve.queue_s", now - request.t_submit)
                tracer.sample("serve.batch_fill", len(batch) / self.max_batch)
            return batch
        return next_batch

    # repro.core
    tracer.wrap_function(controller, "run_experiment", bind_experiment_sink)
    tracer.span_function(controller, "build_experiment", "core.build")
    tracer.span_function(controller, "apply_epoch_end", "core.epoch_end")
    tracer.span_method(RemapProtocol, "plan", "core.remap_plan")
    tracer.span_method(RemapProtocol, "execute", "core.remap_exec")
    # repro.nn
    tracer.span_method(Trainer, "train_epoch", "nn.train_epoch")
    tracer.span_method(Trainer, "evaluate", "nn.eval")
    tracer.wrap_method(Module, "__call__", outermost_forward)
    tracer.span_function(functional, "softmax_cross_entropy", "nn.loss")
    tracer.span_method(Tensor, "backward", "nn.bwd")
    tracer.span_method(SGD, "step", "nn.opt")
    tracer.span_function(nn_data, "make_dataset", "data.gen")
    tracer.span_method(CrossbarEngine, "step_weights", "engine.step_weights")
    # repro.faults
    tracer.span_method(FaultInjector, "inject_pre_deployment", "faults.inject")
    tracer.span_method(FaultInjector, "inject_post_epoch", "faults.inject")
    tracer.span_function(controller, "inject_fault_wave", "faults.inject")
    # repro.bist
    tracer.span_function(bist_density, "scan_chip", "bist.scan")
    tracer.wrap_function(bist_density, "run_bist", counted_run_bist)
    # repro.fleet
    tracer.span_method(FleetRemapProtocol, "plan", "fleet.remap_plan")
    tracer.span_method(FleetRemapProtocol, "execute", "fleet.remap_exec")
    # repro.analog
    tracer.span_method(AnalogStack, "apply", "analog.apply")
    tracer.span_method(AnalogStack, "advance_epoch", "analog.advance_epoch")
    # repro.telemetry.health
    tracer.span_function(health, "sample_health", "health.sample")
    # repro.serve
    tracer.span_method(InferenceServer, "__init__", "serve.init")
    tracer.span_method(InferenceServer, "inject_faults", "serve.inject_faults")
    tracer.span_method(InferenceServer, "close", "serve.close")
    tracer.span_method(LocalReplica, "infer", "serve.infer")
    tracer.span_method(LocalReplica, "remap", "serve.remap_online")
    tracer.wrap_method(MicroBatcher, "next_batch", sampled_next_batch)
