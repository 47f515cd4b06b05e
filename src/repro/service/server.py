"""The experiment service's HTTP surface and process supervisor.

:class:`ExperimentService` owns one :class:`~repro.service.store.ServiceStore`,
a pool of drain-worker *processes* (each with its own store connection,
warm :class:`~repro.api.session.FleetSession` and private metrics
registry -- the registry is process-global, so worker isolation has to
be process isolation) and a stdlib :class:`~http.server.ThreadingHTTPServer`:

* ``POST /experiments`` -- submit a config; ``202`` with the job row
  and a ``cached`` flag when the dedup cache can already answer it.
* ``GET /experiments[?state=...]`` -- list jobs (newest first).
* ``GET /experiments/{id}`` -- one job; the decoded
  :class:`~repro.fleet.results.FleetResult` rides along once ``done``.
* ``GET /experiments/{id}/outcomes`` -- the per-vehicle outcome stream
  as chunked NDJSON.  Per-vehicle outcomes are never cached (they are
  O(fleet) where the aggregate is O(1)), so this endpoint *re-derives*
  them with a single-worker session in the handler thread -- legal
  precisely because outcomes are pure functions of the config, so the
  stream is bit-identical to the run that produced the cached result.
* ``POST /experiments/{id}/cancel`` -- cancel a queued/leased job.
* ``GET /metrics`` -- Prometheus text (or ``?format=json``): the
  server's own registry, every worker's published snapshot and live
  queue-depth/cache gauges merged into one exposition.
* ``GET /healthz`` -- liveness plus the state counts.

Every inspection request first sweeps expired leases, so a dead worker
is healed by whoever looks next -- worker, server or client.
"""

from __future__ import annotations

import json
import multiprocessing
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.api.session import FleetSession
from repro.obs import clock
from repro.obs.export import MetricsSnapshot, merge_snapshots, to_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.service.queue import JobQueue
from repro.service.store import SQLITE_INT_MAX, ServiceStore
from repro.service.worker import DrainWorker

_JSON = "application/json"
_NDJSON = "application/x-ndjson"

#: Largest request body the service reads.  A larger declared
#: ``Content-Length`` gets ``413`` and the body is never read.
MAX_BODY_BYTES = 1 << 20

#: Largest ``?limit=`` a job listing accepts: SQLite's integer range.
MAX_LIST_LIMIT = SQLITE_INT_MAX

#: Seconds one socket read or write of a request may block, so a silent
#: client is disconnected instead of holding a handler thread forever.
REQUEST_TIMEOUT_S = 30.0


class _BodyTooLarge(ValueError):
    """A request declared a body above :data:`MAX_BODY_BYTES`."""


def _list_limit(query: dict[str, list[str]]) -> int:
    """The ``?limit=`` of a job listing; SQLite reads a negative one as "no limit"."""
    raw = (query.get("limit") or ["100"])[0]
    try:
        limit = int(raw)
    except ValueError:
        limit = -1
    if not 0 <= limit <= MAX_LIST_LIMIT:
        raise ValueError(f"limit must be a non-negative integer, not {raw!r}")
    return limit


def _drain_worker_main(
    db_path: str, name: str, lease_s: float, poll_s: float, stop
) -> None:
    """Entry point of one drain-worker process (module-level: picklable
    under any multiprocessing start method)."""
    store = ServiceStore(db_path)
    worker = DrainWorker(store, name=name, lease_s=lease_s, poll_s=poll_s)
    try:
        worker.run_forever(stop.is_set)
    finally:
        worker.close()
        store.close()


class ExperimentService:
    """One service instance: store + drain workers + HTTP endpoint."""

    def __init__(
        self,
        db_path: str,
        host: str = "127.0.0.1",
        port: int = 8320,
        drain_workers: int = 1,
        lease_s: float = 60.0,
        poll_s: float = 0.2,
        quiet: bool = True,
    ) -> None:
        if drain_workers < 0:
            raise ValueError("drain_workers must be >= 0")
        self.db_path = str(db_path)
        self.host = host
        self.port = port
        self.drain_workers = drain_workers
        self.lease_s = float(lease_s)
        self.poll_s = float(poll_s)
        self.quiet = quiet
        self.store = ServiceStore(self.db_path)
        self.queue = JobQueue(self.store, lease_s=self.lease_s)
        self.registry = MetricsRegistry()
        self._httpd: _ServiceHTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        self._workers: list[multiprocessing.Process] = []
        self._worker_stop = multiprocessing.Event()
        self._stop_requested = threading.Event()

    # -- lifecycle ------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) -- resolves ``port=0`` after start."""
        if self._httpd is not None:
            return self._httpd.server_address[0], self._httpd.server_address[1]
        return self.host, self.port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ExperimentService":
        """Bind the endpoint and spawn the drain workers (non-blocking)."""
        if self._httpd is not None:
            raise RuntimeError("service already started")
        self._httpd = _ServiceHTTPServer((self.host, self.port), _Handler, self)
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-service-http",
            daemon=True,
        )
        self._http_thread.start()
        for index in range(self.drain_workers):
            process = multiprocessing.Process(
                target=_drain_worker_main,
                args=(
                    self.db_path,
                    f"drain-{index}",
                    self.lease_s,
                    self.poll_s,
                    self._worker_stop,
                ),
                name=f"repro-drain-{index}",
                # Not daemonic: a drain worker must be able to spawn its
                # session's fleet pool (daemonic processes cannot have
                # children).  stop() joins, then terminates stragglers.
                daemon=False,
            )
            process.start()
            self._workers.append(process)
        return self

    def request_stop(self) -> None:
        """Ask :meth:`run` to exit (safe from signal handlers/threads)."""
        self._stop_requested.set()

    def run(self) -> int:
        """Blocking entry point: start, wait for :meth:`request_stop`, stop.

        The CLI installs SIGTERM/SIGINT handlers that call
        :meth:`request_stop`, making shutdown a plain event wait -- no
        shutdown work happens inside a signal handler.
        """
        self.start()
        try:
            while not self._stop_requested.wait(0.2):
                pass
        finally:
            self.stop()
        return 0

    def stop(self) -> None:
        """Drain workers down, close the endpoint and the store (idempotent)."""
        self._worker_stop.set()
        for process in self._workers:
            process.join(timeout=10.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
        self._workers.clear()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._http_thread is not None:
            self._http_thread.join(timeout=5.0)
            self._http_thread = None
        self.store.close()

    def __enter__(self) -> "ExperimentService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- endpoint logic (called from handler threads) -------------------------

    def sweep(self) -> None:
        expired = self.queue.requeue_expired()
        if expired:
            self.registry.inc("service.lease_expiries", len(expired))

    def job_payload(self, job_id: int) -> dict | None:
        """The job's HTTP shape, result attached once ``done``."""
        job = self.store.job(job_id)
        if job is None:
            return None
        payload = job.to_payload()
        payload["result"] = None
        if job.state == "done":
            result = self.store.result_for(job.config_hash)
            if result is not None:
                payload["result"] = result.to_dict()
        return payload

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Server registry + every worker's published snapshot + live gauges."""
        snapshots = [self.registry.snapshot()]
        for _worker, snapshot_json in self.store.worker_metrics():
            snapshots.append(MetricsSnapshot.from_json(snapshot_json))
        cache = self.store.cache_stats()
        snapshots.append(
            MetricsSnapshot.build(
                counters={},
                gauges={
                    **{
                        f"service.queue_depth.{state}": float(count)
                        for state, count in self.store.counts().items()
                    },
                    "service.result_cache.entries": float(cache["entries"]),
                    "service.result_cache.hits": float(cache["hits"]),
                },
                histograms={},
            )
        )
        return merge_snapshots(snapshots)


class _ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, service: ExperimentService) -> None:
        super().__init__(address, handler)
        self.service = service


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service"
    protocol_version = "HTTP/1.1"

    @property
    def timeout(self) -> float:  # read by StreamRequestHandler.setup
        return REQUEST_TIMEOUT_S

    @property
    def service(self) -> ExperimentService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if not self.service.quiet:
            super().log_message(format, *args)

    # -- plumbing -------------------------------------------------------------

    def _send_json(self, status: int, payload: dict | list) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        self._send_body(status, body, _JSON)

    def _send_body(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_json(self) -> dict:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so the connection cannot be reused.
            self.close_connection = True
            if length > MAX_BODY_BYTES:
                raise _BodyTooLarge(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit"
                )
            raise ValueError(f"Content-Length must be a non-negative integer, not {raw!r}")
        body = self.rfile.read(length) if length else b""
        if not body:
            raise ValueError("request body must be a JSON object")
        data = json.loads(body)
        if not isinstance(data, dict):
            raise ValueError("request body must be a JSON object")
        return data

    def _job_id(self, part: str) -> int:
        try:
            return int(part)
        except ValueError:
            raise ValueError(f"job id must be an integer, not {part!r}") from None

    # -- request routing ------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (http.server casing)
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        query = parse_qs(url.query)
        self.service.registry.inc("service.http_requests")
        try:
            if parts == ["healthz"]:
                self._send_json(
                    200, {"ok": True, "counts": self.service.store.counts()}
                )
            elif parts == ["metrics"]:
                self._get_metrics(query)
            elif parts == ["experiments"]:
                self.service.sweep()
                state = (query.get("state") or [None])[0]
                jobs = self.service.store.jobs(state=state, limit=_list_limit(query))
                self._send_json(200, {"jobs": [job.to_payload() for job in jobs]})
            elif len(parts) == 2 and parts[0] == "experiments":
                self.service.sweep()
                payload = self.service.job_payload(self._job_id(parts[1]))
                if payload is None:
                    self._error(404, f"no job {parts[1]}")
                else:
                    self._send_json(200, payload)
            elif (
                len(parts) == 3
                and parts[0] == "experiments"
                and parts[2] == "outcomes"
            ):
                self._stream_outcomes(self._job_id(parts[1]))
            else:
                self._error(404, f"no such endpoint: GET {url.path}")
        except (ValueError, KeyError) as exc:
            self._error(400, str(exc))

    def do_POST(self) -> None:  # noqa: N802 (http.server casing)
        url = urlparse(self.path)
        parts = [part for part in url.path.split("/") if part]
        self.service.registry.inc("service.http_requests")
        try:
            if parts == ["experiments"]:
                self._submit()
            elif (
                len(parts) == 3
                and parts[0] == "experiments"
                and parts[2] == "cancel"
            ):
                self._cancel(self._job_id(parts[1]))
            else:
                self._error(404, f"no such endpoint: POST {url.path}")
        except _BodyTooLarge as exc:
            self._error(413, str(exc))
        except (ValueError, KeyError, TypeError) as exc:
            self._error(400, str(exc))

    # -- endpoints ------------------------------------------------------------

    def _submit(self) -> None:
        data = self._read_json()
        config = data.get("config", data if "scenario" in data else None)
        if not isinstance(config, dict):
            raise ValueError(
                'body must be {"config": {...}} or a bare config object'
            )
        job, cached = self.service.store.submit(
            config,
            priority=data.get("priority", 0),
            max_attempts=data.get("max_attempts", 3),
        )
        self.service.registry.inc("service.submissions")
        payload = job.to_payload()
        payload["cached"] = cached
        self._send_json(202, payload)

    def _cancel(self, job_id: int) -> None:
        if self.service.store.job(job_id) is None:
            self._error(404, f"no job {job_id}")
            return
        cancelled = self.service.store.cancel(job_id)
        if cancelled is None:
            current = self.service.store.job(job_id)
            state = current.state if current is not None else "unknown"
            self._error(409, f"job {job_id} is {state}; only queued/leased cancel")
            return
        self._send_json(200, cancelled.to_payload())

    def _get_metrics(self, query: dict[str, list[str]]) -> None:
        fmt = (query.get("format") or ["prom"])[0]
        snapshot = self.service.metrics_snapshot()
        if fmt == "json":
            self._send_body(200, snapshot.to_json().encode("utf-8"), _JSON)
        elif fmt == "prom":
            self._send_body(
                200,
                to_prometheus(snapshot).encode("utf-8"),
                "text/plain; version=0.0.4",
            )
        else:
            raise ValueError(f"unknown metrics format {fmt!r}; known: json, prom")

    def _stream_outcomes(self, job_id: int) -> None:
        """Chunked NDJSON: one JSON object per vehicle, in id order.

        Derived on demand with a single-worker session (no process pool
        inside a handler thread); determinism guarantees the stream
        matches the run that produced the job's cached aggregate.
        """
        job = self.service.store.job(job_id)
        if job is None:
            self._error(404, f"no job {job_id}")
            return
        config = job.config_object().with_overrides(workers=1)
        self.send_response(200)
        self.send_header("Content-Type", _NDJSON)
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        started = clock.wall()
        with FleetSession(config) as session:
            for outcome in session.iter_outcomes():
                line = (
                    json.dumps(
                        outcome.to_dict(), sort_keys=True, separators=(",", ":")
                    ).encode("utf-8")
                    + b"\n"
                )
                self.wfile.write(b"%x\r\n%s\r\n" % (len(line), line))
        self.wfile.write(b"0\r\n\r\n")
        self.service.registry.inc("service.outcome_streams")
        self.service.registry.observe(
            "service.outcome_stream_seconds", clock.wall() - started
        )
