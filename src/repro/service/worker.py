"""Drain workers: the execution half of the experiment service.

A :class:`DrainWorker` loops ``sweep -> lease -> serve``: it first
requeues any lease that lapsed (so a single surviving worker heals the
whole queue), then leases the best eligible job and serves it one of
two ways:

* **cache hit** -- the job's config hash already has a row in the
  ``results`` table, so the stored :class:`~repro.fleet.results.FleetResult`
  *is* the answer (determinism: same experiment, same bits, under any
  plan -- the hash leaves out the
  :data:`~repro.api.config.PLAN_FIELDS` ``trace_level``,
  ``inbox_limit``, ``workers``, ``chunk_size``, ``spec_transfer``,
  ``reuse_cars``, ``compile_tables``, ``retry``, ``chunk_timeout_s``,
  ``degrade`` and ``backend``).  The worker acks the job done without
  simulating anything and counts ``service.cache_hits``: one simulation
  per distinct experiment.
* **cache miss** -- the job runs through the worker's one long-lived
  warm :class:`~repro.api.session.FleetSession`
  (:meth:`~repro.api.session.FleetSession.run_config`), the result is
  stored first-write-wins, and the job is acked done.  Counted in
  ``service.runs``.

The order on the miss path is deliberate: *execute, store result,
publish metrics, ack*.  A crash between any two steps leaves the job
leased, the lease expires, and a survivor redoes the attempt -- at
worst re-simulating a config whose result was already stored, in which
case its (bit-identical) result loses the first-write-wins race
harmlessly.  By the time a poller observes ``state == "done"`` the
result row and the metrics that paid for it are already visible.

Workers are designed to run as separate *processes* (the server spawns
them via :mod:`multiprocessing`): the metrics registry is
process-global, so each worker owns a private registry and publishes
cumulative snapshots into the store's ``worker_metrics`` table, where
``/metrics`` merges them.  In-process use (tests, notebooks) works the
same way minus the isolation.
"""

from __future__ import annotations

import os
import traceback
from typing import Callable

from repro.api.session import FleetSession
from repro.fleet.resilience import RetryPolicy
from repro.obs import clock
from repro.obs.metrics import LONG_TIME_BUCKETS, MetricsRegistry
from repro.service.queue import JobQueue
from repro.service.store import JobRecord, ServiceStore

#: Lifecycle hook points (all optional; used by tests and the fault
#: harness): each receives ``(worker, job)``.
HOOK_POINTS = ("after_lease", "before_execute", "after_execute")


class DrainWorker:
    """One queue-draining executor with a warm session and own registry."""

    def __init__(
        self,
        store: ServiceStore,
        name: str = "worker-0",
        lease_s: float = 60.0,
        retry: RetryPolicy | None = None,
        poll_s: float = 0.2,
        telemetry: MetricsRegistry | None = None,
        hooks: dict[str, Callable[["DrainWorker", JobRecord], None]] | None = None,
    ) -> None:
        hooks = dict(hooks or {})
        unknown = set(hooks) - set(HOOK_POINTS)
        if unknown:
            raise ValueError(f"unknown worker hooks: {sorted(unknown)}")
        self.store = store
        self.queue = JobQueue(store, lease_s=lease_s, retry=retry)
        self.name = name
        self.poll_s = float(poll_s)
        self.registry = telemetry if telemetry is not None else MetricsRegistry()
        self.hooks = hooks
        self._session: FleetSession | None = None

    # -- session reuse --------------------------------------------------------

    def _session_for(self, job: JobRecord) -> FleetSession:
        """The worker's single warm session (created on first real run).

        One session serves every config this worker ever executes: the
        builder, warm car pool and per-worker-count process pools
        persist across jobs, which is the entire point of draining
        through a service instead of spawning a fresh session per
        request.
        """
        if self._session is None:
            self._session = FleetSession(
                job.config_object(), telemetry=self.registry
            )
        return self._session

    def close(self) -> None:
        """Release the warm session's worker processes (idempotent)."""
        if self._session is not None:
            self._session.close()
            self._session = None

    def __enter__(self) -> "DrainWorker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the drain loop -------------------------------------------------------

    def run_once(self) -> str | None:
        """Sweep expired leases, then serve at most one job.

        Returns ``None`` when no job was eligible, else how the job was
        served: ``"cache_hit"``, ``"executed"`` or ``"failed"``.
        """
        expired = self.queue.requeue_expired()
        if expired:
            self.registry.inc("service.lease_expiries", len(expired))
        job = self.queue.lease(self.name)
        if job is None:
            return None
        self._hook("after_lease", job)
        cached = self.store.result_for(job.config_hash)
        if cached is not None:
            self.store.record_cache_hit(job.config_hash)
            self.registry.inc("service.cache_hits")
            self._finish(job)
            return "cache_hit"
        return self._execute(job)

    def drain(self) -> int:
        """Serve jobs until the queue yields nothing; count served."""
        served = 0
        while self.run_once() is not None:
            served += 1
        return served

    def run_forever(self, stop: Callable[[], bool] = lambda: False) -> int:
        """Poll-and-serve until *stop()* returns true; count served.

        Idle polls sleep ``poll_s`` between leases -- long enough to
        stay off the database, short enough that lease expiry (typically
        tens of seconds) dwarfs it.
        """
        served = 0
        while not stop():
            if self.run_once() is None:
                clock.sleep(self.poll_s)
            else:
                served += 1
        return served

    # -- job execution --------------------------------------------------------

    def _execute(self, job: JobRecord) -> str:
        started = clock.wall()
        try:
            self._hook("before_execute", job)
            config = job.config_object()
            # A client must not make this worker fork more processes
            # than the host has cores.  ``workers`` is a plan field, so
            # the clamp moves neither the result nor the config hash,
            # and the stored job keeps the config it was submitted with.
            cores = os.cpu_count() or 1
            if config.workers > cores:
                config = config.with_overrides(workers=cores)
            result = self._session_for(job).run_config(config)
            self._hook("after_execute", job)
        except Exception as exc:  # noqa: BLE001 -- every failure is an attempt
            error = "".join(
                traceback.format_exception_only(type(exc), exc)
            ).strip()
            self.registry.inc("service.jobs_failed")
            self.registry.observe(
                "service.exec_seconds", clock.wall() - started, LONG_TIME_BUCKETS
            )
            self.publish_metrics()
            self.queue.ack_failed(job.id, self.name, error)
            return "failed"
        self.registry.inc("service.runs")
        self.registry.observe(
            "service.exec_seconds", clock.wall() - started, LONG_TIME_BUCKETS
        )
        self.store.store_result(job.config_hash, result)
        self._finish(job)
        return "executed"

    def _finish(self, job: JobRecord) -> None:
        """Publish metrics, then ack: state ``done`` implies both the
        result row and the telemetry that produced it are visible."""
        self.registry.inc("service.jobs_completed")
        self.registry.observe(
            "service.job_latency_seconds",
            max(0.0, self.store.now() - job.submitted_at),
            LONG_TIME_BUCKETS,
        )
        self.publish_metrics()
        self.queue.ack_done(job.id, self.name)

    def publish_metrics(self) -> None:
        """Upsert this worker's cumulative snapshot into the store."""
        self.store.publish_worker_metrics(
            self.name, self.registry.snapshot().to_json(indent=None)
        )

    def _hook(self, point: str, job: JobRecord) -> None:
        hook = self.hooks.get(point)
        if hook is not None:
            hook(self, job)
