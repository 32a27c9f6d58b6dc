"""Live monitoring plane tests: streaming bus, Prometheus endpoint,
SLO rules, flight recorder, `repro top` rendering, and the streaming-vs-
final aggregate equality invariant."""

import json
import os
import socket
import threading
import time
import urllib.request

import pytest

from repro.runner import ExperimentCell, run_experiments
from repro.telemetry import Telemetry
from repro.telemetry.live import (
    FLIGHT_ENV,
    STREAM_ENV,
    DeltaStreamer,
    FlightRecorder,
    LiveAggregator,
    LiveMonitor,
    MetricsHTTPServer,
    attach_worker_live,
    flight_path,
    prometheus_text,
    render_top,
)
from repro.telemetry.report import build_report, load_trace, render_report
from repro.telemetry.rules import RuleSet, parse_rule, parse_rules, resolve_metric
from repro.utils.config import (
    ChipConfig,
    CrossbarConfig,
    ExperimentConfig,
    FaultConfig,
    TrainConfig,
)


def _tiny(model: str = "vgg11", seed: int = 11) -> ExperimentConfig:
    return ExperimentConfig(
        train=TrainConfig(
            model=model, epochs=1, batch_size=16, n_train=32, n_test=32,
            width_mult=0.125,
        ),
        chip=ChipConfig(crossbar=CrossbarConfig(rows=32, cols=32)),
        faults=FaultConfig(),
        policy="none",
        seed=seed,
    )


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


# --------------------------------------------------------------------- #
# streaming bus
# --------------------------------------------------------------------- #
class TestStreamingBus:
    def test_roundtrip(self):
        agg = LiveAggregator()
        tel = Telemetry(echo=False)
        streamer = DeltaStreamer(tel, agg.address, "cell-0", interval=0.05)
        try:
            tel.count("engine.cache_hits", 3)
            tel.event("cell_started", cell="a")
            with tel.span("train"):
                pass
            tel.observe("serve.latency_seconds", 0.12)
            assert _wait_for(lambda: agg.rollup()["sources"])
            streamer.close()
            roll = agg.rollup()
            assert roll["counters"]["engine.cache_hits"] == 3
            assert roll["spans"]["train"]["count"] == 1
            assert roll["histograms"]["serve.latency_seconds"]["count"] == 1
            assert "cell-0" in roll["sources"]
            kinds = [e["kind"] for e in roll["recent_events"]]
            assert "cell_started" in kinds
        finally:
            streamer.close()
            agg.close()

    def test_cumulative_frames_are_idempotent(self):
        """Replace-per-source folding: re-flushing never double-counts."""
        agg = LiveAggregator()
        tel = Telemetry(echo=False)
        streamer = DeltaStreamer(tel, agg.address, "w", interval=60.0)
        try:
            tel.count("remaps", 5)
            for _ in range(4):
                assert streamer.flush()
            assert _wait_for(
                lambda: agg.rollup()["counters"].get("remaps") == 5
            )
            # Events ride incrementally: each exactly once despite the
            # repeated cumulative counter frames.
            tel.event("remap_planned", epoch=0)
            for _ in range(3):
                streamer.flush()
            assert _wait_for(lambda: len([
                e for e in agg.rollup()["recent_events"]
                if e["kind"] == "remap_planned"
            ]) == 1)
        finally:
            streamer.close()
            agg.close()

    def test_multiple_sources_sum(self):
        agg = LiveAggregator()
        tels = [Telemetry(echo=False) for _ in range(3)]
        streamers = [
            DeltaStreamer(t, agg.address, f"cell-{i}", interval=60.0)
            for i, t in enumerate(tels)
        ]
        try:
            for t in tels:
                t.count("engine.cache_misses", 2)
            for s in streamers:
                s.flush()
            assert _wait_for(
                lambda: agg.rollup()["counters"].get("engine.cache_misses")
                == 6
            )
        finally:
            for s in streamers:
                s.close()
            agg.close()

    def test_dead_aggregator_never_breaks_the_run(self):
        agg = LiveAggregator()
        agg.close()
        tel = Telemetry(echo=False)
        streamer = DeltaStreamer(tel, agg.address, "w", interval=0.05)
        tel.count("x")
        streamer.flush()
        streamer.close()  # no raise: monitoring is best-effort

    def test_close_is_bounded_against_a_peer_that_never_reads(self):
        """A streamer blocked in ``sendall`` is shut down, not waited out
        (the send timeout is 5 s), and no final flush races it."""
        peer = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        peer.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        peer.bind(("127.0.0.1", 0))
        peer.listen(1)
        conn = None
        tel = Telemetry(echo=False)
        for i in range(6):  # ~6 MB: far more than the socket buffers hold
            tel.event("blob", i=i, payload="x" * 1_000_000)
        streamer = DeltaStreamer(
            tel, "127.0.0.1:%d" % peer.getsockname()[1], "stuck", interval=0.05
        )
        try:
            conn, _ = peer.accept()
            thread = streamer._thread
            assert thread is not None
            time.sleep(0.5)  # the first flush is now stuck in sendall
            assert thread.is_alive()
            t0 = time.perf_counter()
            streamer.close()
            assert time.perf_counter() - t0 < 4.0
            assert not thread.is_alive()
            assert not streamer.connected
        finally:
            streamer.close()
            if conn is not None:
                conn.close()
            peer.close()

    def test_close_stops_the_accept_thread(self):
        def accept_threads():
            return {
                t for t in threading.enumerate()
                if t.name == "telemetry-aggregator" and t.is_alive()
            }

        before = accept_threads()
        agg = LiveAggregator()
        assert accept_threads() - before
        t0 = time.perf_counter()
        agg.close()
        assert time.perf_counter() - t0 < 5.0
        assert not accept_threads() - before

    def test_base_sink_joins_the_rollup(self):
        base = Telemetry(echo=False)
        agg = LiveAggregator(base=base)
        try:
            base.count("runner.cell_retries", 2)
            base.event("cell_retried", cell="a", attempt=2)
            roll = agg.rollup()
            assert roll["counters"]["runner.cell_retries"] == 2
            assert [e["kind"] for e in roll["recent_events"]].count(
                "cell_retried") == 1
            # Draining is incremental: a second rollup does not repeat it.
            roll = agg.rollup()
            assert [e["kind"] for e in roll["recent_events"]].count(
                "cell_retried") == 1
        finally:
            agg.close()

    def test_gauges_from_events(self):
        agg = LiveAggregator()
        try:
            agg._fold({
                "source": "replica0", "pid": 1, "seq": 0,
                "events": [
                    {"ts": 1.0, "kind": "route_weight",
                     "payload": {"replica": 0, "weight": 0.25}},
                    {"ts": 2.0, "kind": "health_sample",
                     "payload": {"cells": 1000, "active_faulty": 50,
                                 "mean_density": 0.07,
                                 "chips": [{"chip": 0, "density": 0.08}]}},
                ],
                "counters": {}, "spans": {}, "histograms": {},
            })
            g = agg.rollup()["gauges"]
            assert g["serve.route_weight.replica0"] == 0.25
            assert g["faults.active_density"] == pytest.approx(0.05)
            assert g["faults.chip0.density"] == pytest.approx(0.08)
        finally:
            agg.close()


# --------------------------------------------------------------------- #
# Prometheus endpoint
# --------------------------------------------------------------------- #
class TestMetricsEndpoint:
    def _rollup(self):
        return {
            "counters": {"engine.cache_hits": 7, "serve.completed": 3},
            "gauges": {"faults.active_density": 0.01},
            "spans": {"train": {"count": 2, "seconds": 1.5,
                                "min": 0.5, "max": 1.0}},
            "histograms": {"serve.latency_seconds": {
                "count": 10, "sum": 1.0, "mean": 0.1, "min": 0.05,
                "max": 0.3, "p50": 0.1, "p90": 0.2, "p99": 0.3}},
        }

    def test_text_exposition_format(self):
        text = prometheus_text(self._rollup())
        assert "# TYPE repro_engine_cache_hits_total counter" in text
        assert "repro_engine_cache_hits_total 7" in text
        assert "repro_faults_active_density 0.01" in text
        assert "repro_span_train_seconds_total 1.5" in text
        assert 'repro_serve_latency_seconds{quantile="0.99"} 0.3' in text
        assert "repro_serve_latency_seconds_count 10" in text
        # every metric name is a legal Prometheus identifier
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert all(c.isalnum() or c == "_" for c in name), name

    def test_http_serves_metrics_and_snapshot(self):
        base = Telemetry(echo=False)
        base.count("remaps", 4)
        agg = LiveAggregator(base=base)
        rules = parse_rules(["remaps <= 3"])
        rules.evaluate(agg.rollup())
        http = MetricsHTTPServer(agg, port=0, rules=rules)
        try:
            with urllib.request.urlopen(f"{http.url}/metrics",
                                        timeout=5) as resp:
                body = resp.read().decode()
                assert resp.headers["Content-Type"].startswith("text/plain")
            assert "repro_remaps_total 4" in body
            with urllib.request.urlopen(f"{http.url}/snapshot.json",
                                        timeout=5) as resp:
                snap = json.loads(resp.read().decode())
            assert snap["counters"]["remaps"] == 4
            assert snap["alerts"][0]["firing"] is True
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{http.url}/nope", timeout=5)
        finally:
            http.close()
            agg.close()

    def test_http_close_joins_the_server_thread(self):
        agg = LiveAggregator()
        try:
            http = MetricsHTTPServer(agg, port=0)
            thread = http._thread
            assert thread.name == "repro-metrics-http" and thread.is_alive()
            t0 = time.perf_counter()
            http.close()
            assert time.perf_counter() - t0 < 5.0
            assert not thread.is_alive()
        finally:
            agg.close()


# --------------------------------------------------------------------- #
# SLO rules engine
# --------------------------------------------------------------------- #
class TestRules:
    def test_parse_ops(self):
        for text, op in [("a.b < 1", "<"), ("a.b <= 1", "<="),
                         ("a.b > 1", ">"), ("a.b >= 1", ">="),
                         ("a.b == 1", "=="), ("a.b != 1", "!=")]:
            rule = parse_rule(text)
            assert (rule.metric, rule.op, rule.threshold) == ("a.b", op, 1.0)

    def test_parse_rejects_garbage(self):
        for bad in ["no operator", "x < banana", "< 3", "x <"]:
            with pytest.raises(ValueError):
                parse_rule(bad)

    def test_resolution_order(self):
        rollup = {
            "counters": {"runner.cell_retries": 2, "engine.cache_hits": 9,
                         "engine.cache_misses": 1},
            "gauges": {"faults.active_density": 0.03},
            "histograms": {"serve.latency_seconds": {
                "count": 4, "p50": 0.1, "p90": 0.2, "p99": 0.25,
                "mean": 0.12, "min": 0.1, "max": 0.3, "sum": 0.48}},
        }
        assert resolve_metric("serve.p99_ms", rollup) == pytest.approx(250.0)
        assert resolve_metric("runner.retries", rollup) == 2
        assert resolve_metric("engine.cache_hit_rate", rollup) == 0.9
        assert resolve_metric("faults.active_density", rollup) == 0.03
        assert resolve_metric("serve.latency_seconds.p90", rollup) == 0.2
        assert resolve_metric(
            "serve.latency_seconds.p50_ms", rollup) == pytest.approx(100.0)
        assert resolve_metric("no.such.metric", rollup) is None
        # counters default to 0 through their aliases: "no crashes yet"
        # is a measurement, not missing data
        assert resolve_metric("runner.crashes", rollup) == 0

    def test_fire_resolve_transitions(self):
        tel = Telemetry(echo=False)
        rules = RuleSet([parse_rule("serve.p99_ms < 200")])
        hist = {"count": 1, "p50": 0.3, "p90": 0.3, "p99": 0.3,
                "mean": 0.3, "min": 0.3, "max": 0.3, "sum": 0.3}
        breach = {"histograms": {"serve.latency_seconds": dict(hist)}}
        rules.evaluate(breach, telemetry=tel)
        rules.evaluate(breach, telemetry=tel)  # steady state: no re-fire
        ok = {"histograms": {"serve.latency_seconds": {**hist, "p99": 0.1}}}
        rules.evaluate(ok, telemetry=tel)
        kinds = [e["kind"] for e in tel.events]
        assert kinds == ["alert_fired", "alert_resolved"]
        assert tel.counters["alerts.fired"] == 1
        assert rules.breached  # latched even after recovery
        assert not rules.rules[0].firing

    def test_missing_metric_neither_fires_nor_resolves(self):
        rules = RuleSet([parse_rule("serve.p99_ms < 200")])
        assert rules.evaluate({}) == []
        assert not rules.breached
        assert rules.states()[0]["value"] is None


# --------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_initial_dump_and_ring(self, tmp_path):
        tel = Telemetry(echo=False)
        path = str(tmp_path / "flight.jsonl")
        rec = FlightRecorder(tel, path, maxlen=4).start(
            interval=60.0, arm_signals=False
        )
        assert os.path.exists(path)  # written before any event
        for i in range(10):
            tel.event("tick", i=i)
        rec.close()
        records = [json.loads(line) for line in open(path)]
        assert records[0]["kind"] == "flight_header"
        ticks = [r for r in records if r["kind"] == "tick"]
        assert len(ticks) == 4  # bounded ring keeps the newest
        assert [t["payload"]["i"] for t in ticks] == [6, 7, 8, 9]

    def test_dump_renders_as_report(self, tmp_path):
        tel = Telemetry(echo=False)
        path = str(tmp_path / "flight.jsonl")
        rec = FlightRecorder(tel, path).start(interval=60.0,
                                              arm_signals=False)
        tel.event("cell_started", cell="a")
        with tel.span("train_epoch"):
            pass
        rec.close()
        events, summary = load_trace(path)
        assert summary == {}  # flight dumps have no summary record
        text = render_report(build_report(events, summary))
        assert "train_epoch" in text
        assert "cell_started" in text

    def test_excepthook_dumps_crash_marker(self, tmp_path):
        import sys

        tel = Telemetry(echo=False)
        path = str(tmp_path / "flight.jsonl")
        rec = FlightRecorder(tel, path).start(interval=60.0,
                                              arm_signals=False)
        prev = sys.excepthook
        rec._prev_hook = lambda *a: None  # swallow the chained re-raise
        sys.excepthook = rec._on_crash
        try:
            sys.excepthook(RuntimeError, RuntimeError("boom"), None)
        finally:
            sys.excepthook = prev
        rec.close(final_dump=False)
        kinds = [json.loads(line)["kind"] for line in open(path)]
        assert "flight_crash" in kinds


# --------------------------------------------------------------------- #
# worker attachment + monitor lifecycle
# --------------------------------------------------------------------- #
class TestWorkerAttachment:
    def test_noop_without_env(self, monkeypatch):
        monkeypatch.delenv(STREAM_ENV, raising=False)
        monkeypatch.delenv(FLIGHT_ENV, raising=False)
        live = attach_worker_live(Telemetry(echo=False), "w")
        assert live.streamer is None and live.flight is None
        live.close()

    def test_env_driven_attachment(self, tmp_path, monkeypatch):
        agg = LiveAggregator()
        monkeypatch.setenv(STREAM_ENV, agg.address)
        monkeypatch.setenv(FLIGHT_ENV, str(tmp_path))
        tel = Telemetry(echo=False)
        live = attach_worker_live(tel, "cell-7")
        try:
            assert live.streamer is not None and live.streamer.connected
            assert live.flight is not None
            tel.count("x", 1)
            live.streamer.flush()
            assert _wait_for(
                lambda: agg.rollup()["counters"].get("x") == 1)
            assert os.path.exists(flight_path(str(tmp_path)))
        finally:
            live.close()
            agg.close()

    def test_monitor_sets_and_restores_env(self, monkeypatch):
        monkeypatch.delenv(STREAM_ENV, raising=False)
        tel = Telemetry(echo=False)
        monitor = LiveMonitor(tel)
        assert os.environ[STREAM_ENV] == monitor.aggregator.address
        monitor.close()
        assert STREAM_ENV not in os.environ

    def test_monitor_exit_code_and_final_evaluation(self):
        tel = Telemetry(echo=False)
        monitor = LiveMonitor(
            tel, rules=parse_rules(["remaps <= 0"]), stream=None,
            interval=3600.0,  # tick thread never fires within the test
        )
        tel.count("remaps", 2)
        monitor.close()  # the close-time evaluation catches the breach
        assert monitor.breached
        assert monitor.exit_code(0) == LiveMonitor.EXIT_SLO_BREACH
        assert monitor.exit_code(1) == 1  # hard failures outrank SLOs
        assert "alert_fired" in [e["kind"] for e in tel.events]


# --------------------------------------------------------------------- #
# the equality invariant: streaming is a transport, not a source of truth
# --------------------------------------------------------------------- #
class TestStreamingEquality:
    def _aggregate(self, live: bool, **kwargs):
        tel = Telemetry(echo=False)
        monitor = LiveMonitor(tel, interval=3600.0) if live else None
        try:
            results = run_experiments(
                [ExperimentCell("a", _tiny(seed=11)),
                 ExperimentCell("b", _tiny(seed=12, model="resnet12"))],
                telemetry=tel, **kwargs,
            )
        finally:
            if monitor is not None:
                monitor.close()
        assert all(r.ok for r in results), [r.error for r in results]
        return tel

    @pytest.mark.parametrize("kwargs", [
        {"workers": 1},
        {"workers": 2, "start_method": "fork"},
    ])
    def test_final_aggregates_identical_with_streaming(self, kwargs):
        plain = self._aggregate(live=False, **kwargs)
        streamed = self._aggregate(live=True, **kwargs)
        assert plain.counters == streamed.counters
        span_counts = lambda t: {k: v["count"] for k, v in t.spans.items()}
        assert span_counts(plain) == span_counts(streamed)
        order = lambda t: [(e["cell"], e["kind"]) for e in t.events]
        assert order(plain) == order(streamed)

    def test_live_rollup_converges_to_final_counters(self):
        tel = Telemetry(echo=False)
        monitor = LiveMonitor(tel, interval=3600.0)
        try:
            run_experiments(
                [ExperimentCell("a", _tiny(seed=11))],
                workers=2, start_method="fork", telemetry=tel,
            )
            # After the run the streamed view and the merged-snapshot
            # truth agree on every worker-side counter (the rollup also
            # folds the parent sink, which equals the merged result here,
            # so compare against the merged parent).
            assert _wait_for(lambda: (
                monitor.aggregator.rollup()["counters"].get(
                    "engine.cache_misses")
                == 2 * tel.counters.get("engine.cache_misses", -1)
            ), timeout=5.0)
        finally:
            monitor.close()


# --------------------------------------------------------------------- #
# `repro top` rendering, live and from a partial trace
# --------------------------------------------------------------------- #
class TestTopRendering:
    def _events(self):
        return [
            {"ts": 0.5, "kind": "route_weight",
             "payload": {"replica": 0, "weight": 0.8}},
            {"ts": 1.0, "kind": "health_sample",
             "payload": {"cells": 2048, "active_faulty": 41,
                         "mean_density": 0.02,
                         "chips": [{"chip": 0, "tiles": 4, "pairs": 8,
                                    "free_pairs": 2, "cells": 2048,
                                    "faulty": 41, "density": 0.02,
                                    "quarantined": 0}]}},
            {"ts": 1.5, "kind": "alert_fired",
             "payload": {"rule": "faults.active_density < 0.01",
                         "value": 0.02, "threshold": 0.01}},
            {"ts": 2.0, "kind": "span",
             "payload": {"name": "train_epoch", "span_id": 1,
                         "parent_id": None, "start": 0.0, "seconds": 2.0}},
        ]

    def test_render_top_sections(self):
        snapshot = {
            "counters": {"engine.cache_hits": 9, "engine.cache_misses": 1,
                         "runner.cell_retries": 1},
            "gauges": {"sweep.done": 12, "sweep.total": 96,
                       "sweep.rate_cells_per_s": 1.8,
                       "sweep.eta_seconds": 47.0,
                       "serve.route_weight.replica0": 0.8,
                       "faults.chip0.density": 0.02,
                       "faults.active_density": 0.02},
            "histograms": {"serve.latency_seconds": {
                "count": 5, "p50": 0.1, "p90": 0.2, "p99": 0.3,
                "max": 0.3, "mean": 0.15, "min": 0.1, "sum": 0.75}},
            "alerts": [{"rule": "serve.p99_ms < 250", "firing": True,
                        "value": 300.0, "fired": 1}],
            "recent_events": self._events(),
            "sources": {"cell-0": {"pid": 1, "seq": 3,
                                   "age_seconds": 0.2}},
        }
        frame = render_top(snapshot)
        assert "12/96 cells" in frame
        assert "1.80 cells/s" in frame
        assert "47s left" in frame
        assert "SLO alerts (1 firing)" in frame
        assert "cache hit-rate" in frame and "90.0%" in frame
        assert "serve.latency_seconds" in frame
        assert "replica0" in frame
        assert "chip0" in frame
        assert "route_weight" in frame  # recent non-span event tail
        assert "cell-0 (pid 1" in frame

    def test_empty_snapshot(self):
        assert render_top({}) == "waiting for telemetry..."

    def test_partial_trace_renders_like_live(self, tmp_path):
        """A still-growing trace (no summary, truncated tail) renders the
        same sections the live dashboard shows — the degraded path the
        docs promise."""
        path = tmp_path / "partial.jsonl"
        lines = [json.dumps(e) for e in self._events()]
        # no telemetry_summary record, and the writer is mid-line
        truncated = json.dumps(
            {"ts": 2.5, "kind": "health_sample", "payload": {"cells": 1}}
        )[:25]
        path.write_text("\n".join(lines) + "\n" + truncated)

        events, summary = load_trace(str(path))
        assert summary == {}
        assert len(events) == 4  # the cut record is skipped, not fatal

        # The same events fed to the live aggregator and to the static
        # report agree on every section `repro top` derives from events.
        agg = LiveAggregator()
        try:
            agg._fold({"source": "w", "pid": 0, "seq": 0, "events": events,
                       "counters": {}, "spans": {}, "histograms": {}})
            frame = render_top(agg.rollup())
        finally:
            agg.close()
        report = build_report(events, summary)
        text = render_report(report)

        # fleet/chip health: gauge table live, timeline in the report
        assert "chip0" in frame
        assert report["health_timeline"][0]["active_faulty"] == 41
        # alerts: gauge + recent event live, timeline section in report
        assert "alert_fired" in frame
        assert report["alert_timeline"][0]["rule"] == (
            "faults.active_density < 0.01")
        assert "SLO alert timeline (1 fired)" in text
        # spans survive truncation in both views
        assert "train_epoch" in text
