"""Lease/ack job-queue semantics over the :class:`ServiceStore`.

Workers never *take* jobs, they **lease** them: a lease moves a
``queued`` row to ``leased`` with a deadline, and only the leaseholder
may ack it ``done``/``failed``.  A worker that dies mid-job simply stops
renewing nothing -- its lease lapses, and the next
:meth:`JobQueue.requeue_expired` sweep (every worker runs one per poll)
puts the job back in ``queued`` for a survivor.  Crash recovery is
therefore the *absence* of a code path: determinism makes the re-run
bit-identical, so nothing about the half-finished attempt needs
salvaging.

Attempt accounting reuses the fleet resilience layer's
:class:`~repro.fleet.resilience.RetryPolicy`: every lease counts as an
attempt, a failed/expired job requeues only while attempts remain, and
the re-queue is delayed by the policy's deterministic backoff (keyed by
job id, so the schedule replays exactly -- ambient randomness never
enters the service either).

Dedup shapes the lease order too: a queued job whose config hash is
currently leased to another job is skipped, so two submissions of one
experiment can never simulate concurrently -- the second waits out the
first and is then served from the result cache.  The hash leaves out
the execution-plan fields (:data:`~repro.api.config.PLAN_FIELDS`:
``trace_level``, ``inbox_limit``, ``workers``, ``chunk_size``,
``spec_transfer``, ``reuse_cars``, ``compile_tables``, ``retry``,
``chunk_timeout_s``, ``degrade``, ``backend``), so the same holds across
plans.  That is what makes "one simulation per distinct experiment" a
hard invariant rather than a fast-path heuristic.
"""

from __future__ import annotations

from repro.fleet.resilience import RetryPolicy
from repro.obs import clock  # noqa: F401  (re-exported clock for callers)
from repro.service.store import JobRecord, ServiceStore, _JOB_COLUMNS, _row_to_job

#: Backoff seed namespace: the queue has no experiment seed of its own,
#: so requeue delays derive from a fixed service seed and the job id.
_BACKOFF_SEED = 0


class JobQueue:
    """Lease/ack operations for one store (share freely in-process)."""

    def __init__(
        self,
        store: ServiceStore,
        lease_s: float = 60.0,
        retry: RetryPolicy | None = None,
    ) -> None:
        if lease_s <= 0:
            raise ValueError("lease_s must be > 0")
        self.store = store
        self.lease_s = float(lease_s)
        self.retry = retry if retry is not None else RetryPolicy()

    # -- leasing --------------------------------------------------------------

    def lease(self, worker: str) -> JobRecord | None:
        """Atomically lease the best eligible queued job, or ``None``.

        Eligible: ``queued``, past its ``not_before`` backoff, and no
        *other* job with the same config hash currently leased (the
        single-flight-per-hash rule).  Highest priority first, then
        submission order.  The returned row is already ``leased`` with
        this worker's name, a fresh deadline and the attempt counted.
        """
        now = self.store.now()
        with self.store.transaction() as conn:
            row = conn.execute(
                f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs "
                "WHERE state = 'queued' AND not_before <= ? "
                "AND config_hash NOT IN "
                "(SELECT config_hash FROM jobs WHERE state = 'leased') "
                "ORDER BY priority DESC, id ASC LIMIT 1",
                (now,),
            ).fetchone()
            if row is None:
                return None
            job = _row_to_job(row)
            conn.execute(
                "UPDATE jobs SET state = 'leased', worker = ?, "
                "lease_deadline = ?, attempts = attempts + 1, "
                "started_at = COALESCE(started_at, ?) WHERE id = ?",
                (worker, now + self.lease_s, now, job.id),
            )
        leased = self.store.job(job.id)
        assert leased is not None
        return leased

    def renew(self, job_id: int, worker: str) -> bool:
        """Extend the leaseholder's deadline (long jobs heartbeat this).

        Guarded on the worker column: only the current leaseholder can
        renew, so a worker whose lease already expired and was re-leased
        elsewhere learns it lost (returns ``False``).
        """
        with self.store.transaction() as conn:
            cursor = conn.execute(
                "UPDATE jobs SET lease_deadline = ? "
                "WHERE id = ? AND state = 'leased' AND worker = ?",
                (self.store.now() + self.lease_s, job_id, worker),
            )
            return cursor.rowcount == 1

    # -- acks -----------------------------------------------------------------

    def ack_done(self, job_id: int, worker: str) -> JobRecord | None:
        """Complete a leased job (leaseholder only)."""
        return self._ack(job_id, worker, "done", error=None)

    def ack_failed(self, job_id: int, worker: str, error: str) -> JobRecord | None:
        """Fail one attempt: requeue with backoff while attempts remain,
        otherwise move to terminal ``failed`` with the error recorded."""
        return self._ack(job_id, worker, "failed", error=error)

    def _ack(
        self, job_id: int, worker: str, outcome: str, error: str | None
    ) -> JobRecord | None:
        job = self.store.job(job_id)
        if job is None or job.state != "leased" or job.worker != worker:
            return None  # lease lost (expired and re-leased elsewhere)
        if outcome == "done":
            return self.store.transition(
                job_id,
                "done",
                from_states=("leased",),
                finished_at=self.store.now(),
                lease_deadline=None,
                error=None,
            )
        return self._retire_attempt(job, error or "unknown error")

    # -- expiry ---------------------------------------------------------------

    def requeue_expired(self) -> list[JobRecord]:
        """Requeue (or terminally fail) every job whose lease has lapsed.

        The crash-recovery sweep: run by every worker once per poll and
        by the server on inspection endpoints, so one surviving process
        anywhere is enough to heal the queue.  Returns the rows acted
        on, in their post-sweep state.
        """
        now = self.store.now()
        with self.store._lock:
            rows = self.store._conn.execute(
                f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs "
                "WHERE state = 'leased' AND lease_deadline IS NOT NULL "
                "AND lease_deadline <= ?",
                (now,),
            ).fetchall()
        swept = []
        for row in rows:
            job = _row_to_job(row)
            error = (
                f"lease expired after {self.lease_s:g}s "
                f"(worker {job.worker!r} presumed dead)"
            )
            updated = self._retire_attempt(job, error)
            if updated is not None:
                swept.append(updated)
        return swept

    def _retire_attempt(self, job: JobRecord, error: str) -> JobRecord | None:
        """Book one spent attempt: requeue with deterministic backoff, or
        terminally fail once the :class:`RetryPolicy` budget is gone.

        ``max_attempts`` is the tighter of the job row's own budget and
        the queue policy's, so per-job overrides submitted through the
        API are honoured.
        """
        budget = min(job.max_attempts, self.retry.max_attempts)
        if job.attempts >= budget:
            return self.store.transition(
                job.id,
                "failed",
                from_states=("leased",),
                finished_at=self.store.now(),
                lease_deadline=None,
                error=error,
            )
        delay = self.retry.backoff_delay(_BACKOFF_SEED, job.id, job.attempts)
        return self.store.transition(
            job.id,
            "queued",
            from_states=("leased",),
            worker=None,
            lease_deadline=None,
            not_before=self.store.now() + delay,
            error=error,
        )

    # -- introspection --------------------------------------------------------

    def depth(self) -> dict[str, int]:
        """Jobs per state (the ``service.queue_depth.*`` gauges)."""
        return self.store.counts()
