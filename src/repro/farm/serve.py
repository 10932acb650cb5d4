"""The soak service behind ``python -m repro farm --serve``.

Everything else in the repo runs a workload and exits; a soak run is
the opposite posture -- keep the farm under load indefinitely and let
an external scraper watch it.  :class:`FarmSoakService` replays
traffic epoch after epoch through :func:`repro.farm.config.run_epoch`
(each epoch's stream drawn from
``DeterministicPrng(seed).fork(f"epoch[{e}]")``, exactly as the
autoscale loop's, so epoch ``e`` serves identical traffic on every
soak of the same config) and exposes the accumulated state over HTTP:

- ``GET /metrics``  -- the shared registry in Prometheus text
  exposition format, every sample line stamped with the *virtual*
  epoch-wall time in milliseconds (a scraper graphs simulation time,
  not wall time);
- ``GET /healthz``  -- liveness JSON: epochs served, virtual seconds,
  series depth;
- ``GET /slo``      -- the persistent :class:`~repro.obs.slo
  .SloMonitor`'s report so far (per-window attainment included);
- ``POST /quit``    -- stop the epoch loop (how CI shuts the smoke
  run down without killing the process).

Per-epoch series are stitched onto one soak timeline with
:meth:`~repro.obs.timeseries.MetricsTimeSeries.merge` (timestamps
rebased by the epoch offset), so ``--series-out`` of a soak run is the
same artifact a one-shot chaos run exports, just longer.

The HTTP server is a stdlib :class:`~http.server.ThreadingHTTPServer`
on a daemon thread; the epoch loop stays on the calling thread.  A
lock guards the handoff: handlers render from the last *committed*
epoch, never from a simulation in flight.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.obs.export import render_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloMonitor
from repro.obs.timeseries import (DEFAULT_SERIES_CAPACITY,
                                  MetricsTimeSeries)
from repro.farm.metrics import window_metrics
from repro.farm.timeseries import DEFAULT_SERIES_INTERVAL_SECONDS

__all__ = ["FarmSoakService"]


class FarmSoakService:
    """Continuous epoch replay plus the scrape endpoints over it.

    ``config`` is a :class:`~repro.farm.config.FarmConfig` with a
    ``profile`` (each epoch generates ``arrival_rate * epoch_seconds``
    requests from it); its ``faults`` plan, if any, is windowed per
    epoch exactly like the autoscale loop, so a plan written against
    the soak timeline injects each event in the epoch that owns it.
    """

    def __init__(self, config, epoch_seconds: float = 2.0,
                 series_interval_seconds: float =
                 DEFAULT_SERIES_INTERVAL_SECONDS,
                 series_capacity: int = DEFAULT_SERIES_CAPACITY):
        if epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")
        if series_interval_seconds <= 0:
            raise ValueError("series_interval_seconds must be positive")
        if config.profile is None:
            raise ValueError("soak serving needs a config with a "
                             "profile (epochs generate their own "
                             "streams)")
        self.config = config
        self.epoch_seconds = epoch_seconds
        self.series_interval_seconds = series_interval_seconds
        self.epoch_cycles = epoch_seconds * config.clock_hz
        self.registry = MetricsRegistry()
        self.series = MetricsTimeSeries(
            clock_hz=config.clock_hz,
            interval_cycles=series_interval_seconds * config.clock_hz,
            capacity=series_capacity)
        self.monitor: Optional[SloMonitor] = (
            SloMonitor(config.slo,
                       window_seconds=config.slo_window_seconds,
                       registry=self.registry,
                       scheduler=config.scheduler)
            if config.slo is not None else None)
        self.epochs = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    # -- the epoch loop --------------------------------------------------

    @property
    def virtual_cycles(self) -> float:
        """Committed virtual time: epochs are charged their full wall
        (an overloaded epoch that needs longer to drain is *late*, not
        time-dilating)."""
        return self.epochs * self.epoch_cycles

    @property
    def virtual_seconds(self) -> float:
        return self.virtual_cycles / self.config.clock_hz

    def run_epoch(self) -> None:
        """Simulate one epoch and commit its metrics, windows, and
        series onto the soak timeline."""
        from repro.farm.config import run_epoch
        epoch = self.epochs
        start = epoch * self.epoch_cycles
        run = run_epoch(self.config, epoch, self.epoch_seconds,
                        self.config.profile.arrival_rate,
                        len(self.config.specs),
                        series_interval_seconds=self.series_interval_seconds,
                        metrics=self.registry)
        windows = (window_metrics(run.result,
                                  self.config.slo_window_seconds)
                   if self.monitor is not None else [])
        with self._lock:
            if self.monitor is not None:
                for window in (self.monitor.observe(sample)
                               for sample in windows):
                    if window.violations:
                        self.series.annotate(
                            start + window.end_s * self.config.clock_hz,
                            "slo.alert", epoch=epoch,
                            window=window.index,
                            metrics=list(window.violations))
            if run.series is not None:
                self.series.merge(run.series, offset_cycles=start)
            self.series.annotate(start + self.epoch_cycles,
                                 "soak.epoch", epoch=epoch,
                                 completed=len(run.result.completions))
            self.epochs += 1

    def run(self, max_epochs: Optional[int] = None,
            grace_seconds: float = 0.0) -> int:
        """Replay epochs until stopped (or ``max_epochs``), then
        linger ``grace_seconds`` of wall time for late scrapers;
        returns the number of epochs served."""
        while not self._stop.is_set() and (max_epochs is None
                                           or self.epochs < max_epochs):
            self.run_epoch()
        if grace_seconds > 0:
            self._stop.wait(grace_seconds)
        return self.epochs

    def stop(self) -> None:
        """Ask the epoch loop to exit after the epoch in flight."""
        self._stop.set()

    @property
    def stopping(self) -> bool:
        return self._stop.is_set()

    # -- the scrape endpoints --------------------------------------------

    def render_prometheus(self) -> str:
        """The shared registry in text exposition format, stamped with
        the committed virtual time in milliseconds."""
        with self._lock:
            stamp_ms = int(self.virtual_seconds * 1e3)
            return render_metrics(self.registry, format="prometheus",
                                  timestamp_ms=stamp_ms)

    def health(self) -> dict:
        with self._lock:
            return {"status": "ok", "epochs": self.epochs,
                    "virtual_seconds": self.virtual_seconds,
                    "samples": len(self.series.samples),
                    "events": len(self.series.events),
                    "stopping": self._stop.is_set()}

    def slo_payload(self) -> dict:
        with self._lock:
            if self.monitor is None:
                return {"slo": None}
            return self.monitor.report.as_dict()

    def serve(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Start the HTTP endpoints on a daemon thread; returns the
        bound port (``port=0`` picks a free one)."""
        if self._server is not None:
            raise RuntimeError("already serving")
        service = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, *args):    # silence per-request noise
                pass

            def _reply(self, body: str, content_type: str,
                       status: int = 200):
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def do_GET(self):
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    self._reply(service.render_prometheus() + "\n",
                                "text/plain; version=0.0.4")
                elif path == "/healthz":
                    self._reply(json.dumps(service.health(),
                                           sort_keys=True) + "\n",
                                "application/json")
                elif path == "/slo":
                    self._reply(json.dumps(service.slo_payload(),
                                           sort_keys=True) + "\n",
                                "application/json")
                else:
                    self._reply("not found\n", "text/plain", 404)

            def do_POST(self):
                if self.path.split("?", 1)[0] == "/quit":
                    service.stop()
                    self._reply("stopping\n", "text/plain")
                else:
                    self._reply("not found\n", "text/plain", 404)

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-soak-http",
                                        daemon=True)
        self._thread.start()
        return self._server.server_address[1]

    def shutdown(self) -> None:
        """Tear the HTTP server down (idempotent)."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None
