"""Live monitoring plane: streaming telemetry, metrics endpoint, flight log.

The telemetry stack built so far is a *recorder*: worker snapshots merge
only when a run finishes and ``repro report`` renders a finished trace.
This module makes the same data visible **while the run is alive**:

* :class:`DeltaStreamer` — attaches to one :class:`~repro.telemetry
  .Telemetry` sink and periodically publishes *incremental* snapshot
  deltas (events since the last flush, plus the full cumulative counter /
  span / histogram snapshots) over a localhost TCP socket;
* :class:`LiveAggregator` — the in-parent receiving end: folds every
  source's latest cumulative state into one roll-up view, tracks live
  gauges (routing weights, chip fault density, sweep progress) from the
  event stream, and keeps a bounded tail of recent events;
* :class:`MetricsHTTPServer` — a zero-dependency HTTP endpoint serving
  the roll-up as Prometheus text exposition (``/metrics``) and as JSON
  (``/snapshot.json``, what ``repro top`` polls);
* :class:`FlightRecorder` — a bounded ring of recent events kept even
  when no ``--trace`` file will be written, dumped to
  ``flight_<pid>.jsonl`` periodically and on SIGTERM / unhandled
  exceptions, so a SIGKILL'd worker leaves a post-mortem;
* :class:`LiveMonitor` — the parent-side bundle the CLI drives: owns the
  aggregator, the optional metrics endpoint and the SLO rule engine
  (:mod:`repro.telemetry.rules`), and exports the stream address to
  worker processes through the environment.

Transport and invariants
------------------------
Frames are length-prefixed JSON over a 127.0.0.1 TCP socket: 4 bytes of
big-endian length, then the UTF-8 payload.  Counters, spans and
histograms ride as **cumulative** snapshots with replace-per-source
semantics at the aggregator — a lost or duplicated frame can therefore
never skew the roll-up, only stale it.  Events ride incrementally (each
exactly once per connection) into a bounded tail used for gauges and the
``repro top`` event feed.

The stream is a *transport, not a source of truth*: final aggregates
still come exclusively from the existing ``snapshot()``/``merge()`` path
(worker results, replica stop-snapshots), so enabling streaming cannot
change the serial == fork == spawn final-aggregate equality, and a
worker whose connection fails simply stops streaming — the run itself
never notices.  Nothing here touches the per-MVM fast path: the streamer
reads the sink from a background thread on a coarse interval.

Workers opt in through two environment variables, both set by
:class:`LiveMonitor` and inherited across ``fork`` and ``spawn``:
``REPRO_TELEMETRY_STREAM`` (``host:port`` of the aggregator) and
``REPRO_FLIGHT_DIR`` (flight-recorder dump directory).  The single entry
point :func:`attach_worker_live` is called by every worker bootstrap —
runner cells, data-parallel ranks and serve replicas alike.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import struct
import sys
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable

from repro.telemetry import Telemetry, _json_default
from repro.telemetry.metrics import Histogram

__all__ = [
    "STREAM_ENV",
    "FLIGHT_ENV",
    "DeltaStreamer",
    "LiveAggregator",
    "MetricsHTTPServer",
    "FlightRecorder",
    "LiveMonitor",
    "WorkerLive",
    "attach_worker_live",
    "prometheus_text",
    "render_top",
]

#: ``host:port`` of the in-parent aggregator; workers attach when set.
STREAM_ENV = "REPRO_TELEMETRY_STREAM"
#: directory for ``flight_<pid>.jsonl`` post-mortem dumps; off when unset.
FLIGHT_ENV = "REPRO_FLIGHT_DIR"
#: streamer / flight autodump flush interval (seconds).
FLUSH_ENV = "REPRO_TELEMETRY_FLUSH"

_DEFAULT_FLUSH_S = 0.5
#: recent-event tail kept by the aggregator (gauges read from it too).
_RECENT_EVENTS = 512
#: flight-recorder ring length.
_FLIGHT_RING = 256
#: a frame bigger than this is dropped (a runaway payload, not telemetry).
_MAX_FRAME = 32 * 1024 * 1024


def default_flush_interval() -> float:
    raw = os.environ.get(FLUSH_ENV, "").strip()
    if not raw:
        return _DEFAULT_FLUSH_S
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(
            f"{FLUSH_ENV} must be a number of seconds, got {raw!r}"
        ) from exc
    return max(0.05, value)


# --------------------------------------------------------------------- #
# framing
# --------------------------------------------------------------------- #
def _send_frame(sock: socket.socket, payload: dict[str, Any]) -> None:
    body = json.dumps(payload, default=_json_default).encode("utf-8")
    sock.sendall(struct.pack(">I", len(body)) + body)


def _shutdown(sock: socket.socket | None) -> None:
    """Shut both directions down: wakes a thread blocked on the socket,
    which ``close()`` alone does not do on Linux."""
    if sock is None:
        return
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    while n:
        chunk = sock.recv(min(n, 65536))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> dict[str, Any] | None:
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > _MAX_FRAME:
        return None
    body = _recv_exact(sock, length)
    if body is None:
        return None
    try:
        frame = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return frame if isinstance(frame, dict) else None


# --------------------------------------------------------------------- #
# the publishing side (one per worker sink)
# --------------------------------------------------------------------- #
class DeltaStreamer:
    """Publish one sink's state as periodic incremental deltas.

    A background daemon thread wakes every ``interval`` seconds, slices
    the events appended since the last flush and sends them with the full
    cumulative counter/span/histogram snapshots.  The sink itself is
    never touched on its emitting threads — the streamer is a read-only
    observer, so attaching one cannot perturb the run's results (and a
    dead aggregator just turns every flush into a no-op).
    """

    def __init__(
        self,
        telemetry: Telemetry,
        address: str,
        source: str,
        interval: float | None = None,
    ):
        self.telemetry = telemetry
        self.source = source
        self.interval = (
            default_flush_interval() if interval is None else max(0.05, interval)
        )
        host, _, port = address.rpartition(":")
        self._sock: socket.socket | None = None
        try:
            self._sock = socket.create_connection(
                (host or "127.0.0.1", int(port)), timeout=2.0
            )
            self._sock.settimeout(5.0)
        except (OSError, ValueError):
            self._sock = None  # monitoring must never break the run
        self._event_mark = 0
        self._seq = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        if self._sock is not None:
            self._thread = threading.Thread(
                target=self._loop, daemon=True,
                name=f"telemetry-stream-{source}",
            )
            self._thread.start()

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.flush():
                return

    def flush(self) -> bool:
        """Send one delta frame; returns False once the socket is gone."""
        sock = self._sock
        if sock is None:
            return False
        tel = self.telemetry
        events = tel.events
        mark = self._event_mark
        # len() and slicing a growing list are safe against concurrent
        # appends; counters/spans/histograms are copied defensively and a
        # mid-mutation view is acceptable — the next flush supersedes it.
        end = len(events)
        try:
            frame = {
                "v": 1,
                "source": self.source,
                "pid": os.getpid(),
                "seq": self._seq,
                "epoch": tel.epoch,
                "events": [dict(e) for e in events[mark:end]],
                "counters": dict(tel.counters),
                "spans": {k: dict(v) for k, v in tel.spans.items()},
                "histograms": {
                    k: h.snapshot() for k, h in list(tel.histograms.items())
                },
            }
        except RuntimeError:  # dict mutated mid-copy: retry next tick
            return True
        try:
            _send_frame(sock, frame)
        except OSError:
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass
            return False
        self._event_mark = end
        self._seq += 1
        return True

    def close(self) -> None:
        """Stop the thread, final flush, then tear the connection down.

        Bounded: a thread still blocked in ``sendall`` after the first
        join (a peer that stopped reading) is woken by shutting the socket
        down, and the final flush runs only once the thread is gone — never
        concurrently with it on the same socket.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=2.0)
            if thread.is_alive():
                _shutdown(self._sock)
                thread.join(timeout=2.0)
        if thread is None or not thread.is_alive():
            self.flush()
        sock, self._sock = self._sock, None
        if sock is not None:
            _shutdown(sock)
            try:
                sock.close()
            except OSError:
                pass


# --------------------------------------------------------------------- #
# the receiving side (one per monitored parent)
# --------------------------------------------------------------------- #
class LiveAggregator:
    """Fold streamed deltas from many sources into one live roll-up.

    ``base`` is the parent process's own sink (resilience events, serving
    counters, ...): its current state joins the roll-up on every read, so
    the live view covers the whole process tree.  Per-source cumulative
    state uses replace semantics — each frame supersedes the source's
    previous one — which makes the fold idempotent and retry-safe.
    """

    def __init__(self, base: Telemetry | None = None,
                 recent_events: int = _RECENT_EVENTS):
        self.base = base
        self._lock = threading.Lock()
        self._sources: dict[str, dict[str, Any]] = {}
        self._recent: deque[dict[str, Any]] = deque(maxlen=recent_events)
        self._gauges: dict[str, float] = {}
        self._base_mark = 0
        self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._server.bind(("127.0.0.1", 0))
        self._server.listen(64)
        self.address = "127.0.0.1:%d" % self._server.getsockname()[1]
        self._closed = False
        self._accept_thread = threading.Thread(
            target=self._accept_loop, daemon=True, name="telemetry-aggregator"
        )
        self._accept_thread.start()

    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # closed
            threading.Thread(
                target=self._reader_loop, args=(conn,), daemon=True,
                name="telemetry-stream-reader",
            ).start()

    def _reader_loop(self, conn: socket.socket) -> None:
        try:
            while True:
                frame = _recv_frame(conn)
                if frame is None:
                    return
                self._fold(frame)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _fold(self, frame: dict[str, Any]) -> None:
        source = str(frame.get("source", "?"))
        events = frame.get("events") or ()
        with self._lock:
            self._sources[source] = {
                "pid": frame.get("pid"),
                "epoch": frame.get("epoch"),
                "seq": frame.get("seq"),
                "received": time.time(),
                "counters": frame.get("counters") or {},
                "spans": frame.get("spans") or {},
                "histograms": frame.get("histograms") or {},
            }
            for record in events:
                if isinstance(record, dict):
                    tagged = dict(record)
                    tagged.setdefault("cell", source)
                    self._recent.append(tagged)
                    self._gauges_from_event(tagged)

    def _gauges_from_event(self, record: dict[str, Any]) -> None:
        """Update live gauges from one event (lock held by caller)."""
        kind = record.get("kind")
        p = record.get("payload") or {}
        if kind == "route_weight":
            rid = p.get("replica")
            if rid is not None and p.get("weight") is not None:
                self._gauges[f"serve.route_weight.replica{rid}"] = float(
                    p["weight"]
                )
        elif kind == "health_sample":
            cells = float(p.get("cells", 0) or 0)
            if cells:
                self._gauges["faults.density"] = float(
                    p.get("mean_density", 0.0)
                )
                self._gauges["faults.active_density"] = (
                    float(p.get("active_faulty", 0)) / cells
                )
            for chip in p.get("chips") or ():
                cid = chip.get("chip")
                if cid is not None:
                    self._gauges[f"faults.chip{cid}.density"] = float(
                        chip.get("density", 0.0)
                    )
        elif kind in ("alert_fired", "alert_resolved"):
            rule = p.get("rule")
            if rule is not None:
                self._gauges[f"alert.{rule}"] = (
                    1.0 if kind == "alert_fired" else 0.0
                )

    # ------------------------------------------------------------------ #
    # parent-side feeds
    # ------------------------------------------------------------------ #
    def set_gauge(self, name: str, value: float) -> None:
        """Publish one parent-side gauge (sweep progress, ETA, ...)."""
        with self._lock:
            self._gauges[str(name)] = float(value)

    def _drain_base_events(self) -> None:
        """Scan base-sink events appended since the last roll-up (locked)."""
        base = self.base
        if base is None:
            return
        events = base.events
        end = len(events)
        for record in events[self._base_mark:end]:
            self._recent.append(dict(record))
            self._gauges_from_event(record)
        self._base_mark = end

    # ------------------------------------------------------------------ #
    # the roll-up view
    # ------------------------------------------------------------------ #
    def rollup(self) -> dict[str, Any]:
        """Merged point-in-time view across the base sink and all sources.

        Returns plain JSON-safe dicts: summed ``counters`` and ``spans``,
        per-histogram ``summary()`` dicts (p50/p90/p99), the gauge map,
        the per-source liveness table and the recent-event tail.
        """
        with self._lock:
            self._drain_base_events()
            counters: dict[str, int] = {}
            spans: dict[str, dict[str, float]] = {}
            hists: dict[str, Histogram] = {}

            def fold(cs: dict, sp: dict, hs: dict) -> None:
                for name, n in cs.items():
                    counters[name] = counters.get(name, 0) + int(n)
                for name, agg in sp.items():
                    mine = spans.get(name)
                    if mine is None:
                        spans[name] = dict(agg)
                    else:
                        mine["count"] += agg["count"]
                        mine["seconds"] += agg["seconds"]
                        if agg.get("min", mine["min"]) < mine["min"]:
                            mine["min"] = agg["min"]
                        if agg.get("max", mine["max"]) > mine["max"]:
                            mine["max"] = agg["max"]
                for name, snap in hs.items():
                    mine_h = hists.get(name)
                    if mine_h is None:
                        hists[name] = Histogram.from_snapshot(snap)
                    else:
                        try:
                            mine_h.merge(snap)
                        except ValueError:
                            pass  # layout mismatch: keep the first source

            base = self.base
            if base is not None:
                fold(
                    dict(base.counters),
                    {k: dict(v) for k, v in base.spans.items()},
                    {k: h.snapshot() for k, h in base.histograms.items()},
                )
            for src in self._sources.values():
                fold(src["counters"], src["spans"], src["histograms"])
            return {
                "ts": time.time(),
                "counters": counters,
                "spans": spans,
                "histograms": {k: h.summary() for k, h in hists.items()},
                "gauges": dict(self._gauges),
                "sources": {
                    name: {
                        "pid": src.get("pid"),
                        "seq": src.get("seq"),
                        "age_seconds": round(
                            time.time() - src.get("received", 0.0), 3
                        ),
                    }
                    for name, src in self._sources.items()
                },
                "recent_events": list(self._recent),
            }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        # close() alone does not wake a thread blocked in accept().
        _shutdown(self._server)
        try:
            self._server.close()
        except OSError:
            pass
        self._accept_thread.join(timeout=5.0)


# --------------------------------------------------------------------- #
# Prometheus text exposition
# --------------------------------------------------------------------- #
def _prom_name(name: str) -> str:
    out = []
    for ch in str(name):
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    metric = "".join(out)
    if metric and metric[0].isdigit():
        metric = "_" + metric
    return metric or "_"


def prometheus_text(rollup: dict[str, Any], prefix: str = "repro") -> str:
    """Render an aggregator roll-up as Prometheus text exposition.

    Counters become ``<prefix>_<name>_total``, gauges ``<prefix>_<name>``,
    histograms a ``{quantile="..."}`` summary family plus ``_count`` and
    ``_sum`` — all zero-dependency, parseable by any Prometheus scraper.
    """
    lines: list[str] = []
    for name, value in sorted((rollup.get("counters") or {}).items()):
        metric = f"{prefix}_{_prom_name(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {int(value)}")
    for name, value in sorted((rollup.get("gauges") or {}).items()):
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(value):.10g}")
    for name, agg in sorted((rollup.get("spans") or {}).items()):
        metric = f"{prefix}_span_{_prom_name(name)}"
        lines.append(f"# TYPE {metric}_seconds_total counter")
        lines.append(f"{metric}_seconds_total {float(agg['seconds']):.10g}")
        lines.append(f"{metric}_count {int(agg['count'])}")
    for name, h in sorted((rollup.get("histograms") or {}).items()):
        metric = f"{prefix}_{_prom_name(name)}"
        lines.append(f"# TYPE {metric} summary")
        for q, key in (("0.5", "p50"), ("0.9", "p90"), ("0.99", "p99")):
            lines.append(
                f'{metric}{{quantile="{q}"}} {float(h.get(key, 0.0)):.10g}'
            )
        lines.append(f"{metric}_sum {float(h.get('sum', 0.0)):.10g}")
        lines.append(f"{metric}_count {int(h.get('count', 0))}")
    return "\n".join(lines) + "\n"


class MetricsHTTPServer:
    """Zero-dependency HTTP endpoint over a :class:`LiveAggregator`.

    ``GET /metrics`` serves Prometheus text exposition; ``GET
    /snapshot.json`` the full JSON roll-up (plus alert states when a rule
    engine is attached) — the surface ``repro top`` and CI curl against.
    """

    def __init__(self, aggregator: LiveAggregator, port: int = 0,
                 rules: Any = None, host: str = "127.0.0.1"):
        self.aggregator = aggregator
        self.rules = rules
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - http.server API
                try:
                    path = self.path.split("?", 1)[0]
                    if path in ("/metrics", "/"):
                        body = prometheus_text(outer.aggregator.rollup())
                        ctype = "text/plain; version=0.0.4; charset=utf-8"
                    elif path == "/snapshot.json":
                        snap = outer.aggregator.rollup()
                        if outer.rules is not None:
                            snap["alerts"] = outer.rules.states()
                        body = json.dumps(snap, default=_json_default)
                        ctype = "application/json"
                    else:
                        self.send_error(404)
                        return
                except Exception as exc:  # defensive: a broken roll-up
                    self.send_error(500, str(exc))
                    return
                data = body.encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", ctype)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def log_message(self, *args: Any) -> None:  # silence stderr
                pass

        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.daemon_threads = True
        self.port = self._httpd.server_address[1]
        self.url = f"http://{host}:{self.port}"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, daemon=True,
            name="repro-metrics-http",
        )
        self._thread.start()

    def close(self) -> None:
        try:
            self._httpd.shutdown()
            self._httpd.server_close()
        except OSError:
            pass
        # shutdown() returns once serve_forever has left its loop; the
        # join bounds the thread's own exit as well.
        self._thread.join(timeout=5.0)


# --------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------- #
class FlightRecorder:
    """Bounded ring of recent events, dumped for post-mortems.

    The ring is fed by a read-only tap on the sink, so it works even when
    no ``--trace`` file will ever be written and costs one deque append
    per event.  The dump file is plain telemetry JSONL — ``repro report``
    renders it through the documented degraded (no-summary) path.  Dumps
    happen on a periodic autodump tick, on SIGTERM (chaining to any
    previous handler) and on unhandled exceptions; a SIGKILL leaves the
    last periodic dump behind, which is the whole point.
    """

    def __init__(self, telemetry: Telemetry, path: str,
                 maxlen: int = _FLIGHT_RING, source: str | None = None):
        self.telemetry = telemetry
        self.path = str(path)
        self.ring: deque[dict[str, Any]] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._dirty = False
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._prev_term: Any = None
        self._prev_hook: Any = None
        self._header = {
            "ts": 0.0,
            "kind": "flight_header",
            "payload": {
                "pid": os.getpid(),
                "source": source,
                "epoch": telemetry.epoch,
                "ring": maxlen,
            },
        }
        telemetry.add_tap(self._tap)

    def _tap(self, record: dict[str, Any]) -> None:
        with self._lock:
            self.ring.append(record)
            self._dirty = True

    # ------------------------------------------------------------------ #
    def dump(self) -> str:
        """Write header + ring to the flight file (atomic rename)."""
        with self._lock:
            records = [self._header] + [dict(r) for r in self.ring]
            self._dirty = False
        tmp = f"{self.path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                for record in records:
                    fh.write(json.dumps(record, default=_json_default) + "\n")
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
        return self.path

    def _autodump_loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            with self._lock:
                dirty = self._dirty
            if dirty:
                self.dump()

    def start(self, interval: float | None = None,
              arm_signals: bool = True) -> "FlightRecorder":
        """Write the initial dump, start autodumping, arm crash hooks."""
        self.dump()
        self._thread = threading.Thread(
            target=self._autodump_loop,
            args=(default_flush_interval() if interval is None else interval,),
            daemon=True, name="flight-recorder",
        )
        self._thread.start()
        if arm_signals:
            try:  # signal handlers only work on the main thread
                self._prev_term = signal.signal(signal.SIGTERM, self._on_term)
            except (ValueError, OSError):
                self._prev_term = None
            self._prev_hook = sys.excepthook
            sys.excepthook = self._on_crash
        return self

    def _on_term(self, signum: int, frame: Any) -> None:
        self.dump()
        prev = self._prev_term
        if callable(prev):
            prev(signum, frame)
        else:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)

    def _on_crash(self, exc_type: Any, exc: Any, tb: Any) -> None:
        try:
            self.telemetry.event(
                "flight_crash", error=f"{exc_type.__name__}: {exc}"
            )
        except Exception:
            pass
        self.dump()
        hook = self._prev_hook or sys.__excepthook__
        hook(exc_type, exc, tb)

    def close(self, final_dump: bool = True) -> None:
        """Detach; the final dump leaves the ring's last state on disk."""
        self._stop.set()
        if self._thread is not None and self._thread.is_alive():
            self._thread.join(timeout=2.0)
        self.telemetry.remove_tap(self._tap)
        if self._prev_hook is not None:
            sys.excepthook = self._prev_hook
            self._prev_hook = None
        if self._prev_term is not None:
            try:
                signal.signal(signal.SIGTERM, self._prev_term)
            except (ValueError, OSError):
                pass
            self._prev_term = None
        if final_dump:
            self.dump()


def flight_path(directory: str, pid: int | None = None) -> str:
    """The conventional per-process flight-dump path."""
    return os.path.join(directory, f"flight_{os.getpid() if pid is None else pid}.jsonl")


# --------------------------------------------------------------------- #
# worker bootstrap
# --------------------------------------------------------------------- #
class WorkerLive:
    """The live-monitoring attachments of one worker process."""

    def __init__(self, streamer: DeltaStreamer | None,
                 flight: FlightRecorder | None):
        self.streamer = streamer
        self.flight = flight

    def close(self) -> None:
        if self.streamer is not None:
            self.streamer.close()
        if self.flight is not None:
            self.flight.close()


def attach_worker_live(telemetry: Telemetry, source: str) -> WorkerLive:
    """Attach streaming + flight recording to a worker's sink (env-driven).

    Called by every worker bootstrap — runner cells, data-parallel ranks,
    serve replica workers — and by inline (serial) cell runs.  Reads
    ``REPRO_TELEMETRY_STREAM`` and ``REPRO_FLIGHT_DIR``; when neither is
    set this is a cheap no-op, and any failure to attach disables that
    channel silently: live monitoring must never break or perturb a run.
    """
    streamer = flight = None
    address = os.environ.get(STREAM_ENV, "").strip()
    if address:
        try:
            streamer = DeltaStreamer(telemetry, address, source)
        except Exception:
            streamer = None
    flight_dir = os.environ.get(FLIGHT_ENV, "").strip()
    if flight_dir:
        try:
            os.makedirs(flight_dir, exist_ok=True)
            flight = FlightRecorder(
                telemetry, flight_path(flight_dir), source=source
            ).start()
        except Exception:
            flight = None
    return WorkerLive(streamer, flight)


# --------------------------------------------------------------------- #
# the parent-side bundle
# --------------------------------------------------------------------- #
class LiveMonitor:
    """Aggregator + metrics endpoint + SLO rules, as one CLI-facing unit.

    Construction starts everything; :meth:`close` evaluates the rules one
    final time (so even a short run gets at least one verdict), stops the
    endpoint and restores the environment.  ``breached`` reports whether
    any rule ever fired — the CLI maps it to a nonzero exit code so CI
    can gate on live SLOs.
    """

    #: CLI exit code for a run that finished but breached an SLO rule.
    EXIT_SLO_BREACH = 3

    def __init__(
        self,
        telemetry: Telemetry,
        metrics_port: int | None = None,
        rules: Any = None,
        flight_dir: str | None = None,
        interval: float = 1.0,
        stream: Any = sys.stderr,
    ):
        self.telemetry = telemetry
        self.rules = rules
        self.stream = stream
        self.aggregator = LiveAggregator(base=telemetry)
        self.http: MetricsHTTPServer | None = None
        if metrics_port is not None:
            self.http = MetricsHTTPServer(
                self.aggregator, port=metrics_port, rules=rules
            )
        self._env_prev: dict[str, str | None] = {}
        self._set_env(STREAM_ENV, self.aggregator.address)
        self.flight: FlightRecorder | None = None
        if flight_dir:
            os.makedirs(flight_dir, exist_ok=True)
            self._set_env(FLIGHT_ENV, flight_dir)
            # The parent gets a recorder too: a SIGTERM'd sweep leaves its
            # own post-mortem next to its workers'.
            self.flight = FlightRecorder(
                telemetry, flight_path(flight_dir), source="main"
            ).start()
        self.flight_dir = flight_dir
        self._interval = max(0.1, interval)
        self._stop = threading.Event()
        self._closed = False
        self._tick_thread: threading.Thread | None = None
        if rules is not None:
            self._tick_thread = threading.Thread(
                target=self._tick_loop, daemon=True, name="slo-rules",
            )
            self._tick_thread.start()

    def _set_env(self, name: str, value: str) -> None:
        self._env_prev[name] = os.environ.get(name)
        os.environ[name] = value

    # ------------------------------------------------------------------ #
    def set_gauge(self, name: str, value: float) -> None:
        self.aggregator.set_gauge(name, value)

    @property
    def breached(self) -> bool:
        return bool(self.rules is not None and self.rules.breached)

    def exit_code(self, base: int = 0) -> int:
        """Fold the SLO verdict into a command's exit code."""
        return base if base != 0 else (
            self.EXIT_SLO_BREACH if self.breached else 0
        )

    def _tick_loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.evaluate()

    def evaluate(self) -> None:
        """One rule pass over the current roll-up."""
        if self.rules is None:
            return
        try:
            self.rules.evaluate(
                self.aggregator.rollup(), telemetry=self.telemetry,
                stream=self.stream,
            )
        except Exception:  # monitoring must never kill the run
            pass

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._stop.set()
        if self._tick_thread is not None and self._tick_thread.is_alive():
            self._tick_thread.join(timeout=2.0)
        # Final verdict over the final live state: short runs whose whole
        # lifetime fits inside one tick still get evaluated.
        self.evaluate()
        if self.flight is not None:
            self.flight.close()
        if self.http is not None:
            self.http.close()
        self.aggregator.close()
        for name, prev in self._env_prev.items():
            if prev is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = prev

    def __enter__(self) -> "LiveMonitor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# --------------------------------------------------------------------- #
# the `repro top` frame renderer
# --------------------------------------------------------------------- #
def _fmt_eta(seconds: float) -> str:
    seconds = max(0.0, seconds)
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


def render_top(snapshot: dict[str, Any]) -> str:
    """Render one ``repro top`` frame from a ``/snapshot.json`` roll-up.

    Pure function of the snapshot dict, so the live dashboard and the
    partial-trace regression tests share one renderer.  Sections appear
    only when their data exists: sweep progress + ETA, SLO alerts, cache
    hit rate, latency percentiles, routing weights, fleet health, counters
    and the recent-event tail.
    """
    from repro.utils.tabulate import render_table

    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    hists = snapshot.get("histograms") or {}
    sections: list[str] = []

    done = gauges.get("sweep.done")
    total = gauges.get("sweep.total")
    if done is not None and total:
        rate = gauges.get("sweep.rate_cells_per_s", 0.0)
        eta = gauges.get("sweep.eta_seconds")
        line = f"sweep: {int(done)}/{int(total)} cells"
        if rate:
            line += f", {rate:.2f} cells/s"
        if eta is not None:
            line += f", ~{_fmt_eta(eta)} left"
        width = 32
        frac = min(1.0, float(done) / float(total))
        fill = int(round(frac * width))
        line += f"\n  [{'#' * fill}{'.' * (width - fill)}] {100 * frac:.0f}%"
        sections.append(line)

    alerts = snapshot.get("alerts") or []
    firing = [a for a in alerts if a.get("firing")]
    if alerts:
        rows = [
            [a["rule"], "FIRING" if a.get("firing") else "ok",
             "-" if a.get("value") is None else f"{a['value']:.4g}",
             a.get("fired", 0)]
            for a in alerts
        ]
        sections.append(render_table(
            ["rule", "state", "value", "times fired"], rows,
            title=f"SLO alerts ({len(firing)} firing)",
        ))

    hits = int(counters.get("engine.cache_hits", 0))
    misses = int(counters.get("engine.cache_misses", 0))
    run_rows: list[list[Any]] = []
    if hits + misses:
        run_rows.append([
            "engine cache hit-rate", f"{100 * hits / (hits + misses):.1f}%",
            f"{hits} hits / {misses} misses",
        ])
    for name, label in (
        ("runner.cell_crashes", "cell crashes"),
        ("runner.cell_timeouts", "cell timeouts"),
        ("runner.cell_retries", "cell retries"),
        ("runner.cells_restored", "cells restored (checkpoint)"),
        ("runner.cells_failed", "cells failed"),
        ("serve.completed", "requests completed"),
        ("serve.failed", "requests failed"),
        ("serve.retries", "request retries"),
        ("serve.remaps_online", "online remaps"),
        ("remaps", "remaps"),
        ("fleet.evictions", "cross-chip evictions"),
        ("alerts.fired", "alerts fired"),
    ):
        if counters.get(name):
            run_rows.append([label, counters[name], ""])
    dens = gauges.get("faults.active_density")
    if dens is not None:
        run_rows.append([
            "active fault density", f"{dens:.4%}",
            f"mean {gauges.get('faults.density', 0.0):.4%}",
        ])
    if run_rows:
        sections.append(render_table(
            ["quantity", "value", "detail"], run_rows, title="run health",
        ))

    if hists:
        rows = []
        for name, h in sorted(hists.items()):
            if not h.get("count"):
                continue
            scale = 1e3 if name.endswith("seconds") else 1.0
            unit = "ms" if scale == 1e3 else ""
            rows.append([
                name, h["count"],
                f"{h['p50'] * scale:.3g}{unit}",
                f"{h['p90'] * scale:.3g}{unit}",
                f"{h['p99'] * scale:.3g}{unit}",
                f"{h['max'] * scale:.3g}{unit}",
            ])
        if rows:
            sections.append(render_table(
                ["histogram", "count", "p50", "p90", "p99", "max"], rows,
                title="latency / load distributions (live)",
            ))

    weight_rows = [
        [name.rsplit(".", 1)[-1], f"{value:.3f}"]
        for name, value in sorted(gauges.items())
        if name.startswith("serve.route_weight.")
    ]
    if weight_rows:
        sections.append(render_table(
            ["replica", "routing weight"], weight_rows, title="router",
        ))
    chip_rows = [
        [name.split(".")[1], f"{value:.4%}"]
        for name, value in sorted(gauges.items())
        if name.startswith("faults.chip")
    ]
    if chip_rows:
        sections.append(render_table(
            ["chip", "fault density"], chip_rows, title="fleet health",
        ))

    recent = snapshot.get("recent_events") or []
    tail = [e for e in recent if e.get("kind") != "span"][-8:]
    if tail:
        lines = ["recent events"]
        for e in tail:
            cell = e.get("cell")
            where = f" [{cell}]" if cell is not None else ""
            lines.append(f"  {e.get('ts', 0):>9.3f}s  {e.get('kind')}{where}")
        sections.append("\n".join(lines))

    sources = snapshot.get("sources") or {}
    if sources:
        sections.append(
            "streaming sources: "
            + ", ".join(
                f"{name} (pid {src.get('pid')}, {src.get('age_seconds', 0):.1f}s ago)"
                for name, src in sorted(sources.items())
            )
        )

    if not sections:
        return "waiting for telemetry..."
    return "\n\n".join(sections)
