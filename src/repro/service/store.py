"""SQLite-backed job store and result cache for the experiment service.

One :class:`ServiceStore` wraps one SQLite database (WAL mode, so a
server process, several drain-worker processes and maintenance commands
can all hold the file open concurrently) with three tables:

* ``jobs`` -- one row per submitted experiment: the canonical config
  JSON plus its :meth:`~repro.api.config.ExperimentConfig.config_hash`,
  the ``queued -> leased -> done | failed | cancelled`` state machine,
  priority, attempt accounting and lease bookkeeping.
* ``results`` -- the dedup cache: one JSON-serialised
  :class:`~repro.fleet.results.FleetResult` per config hash.  Writes
  are first-wins (``INSERT OR IGNORE``): determinism makes every later
  computation of the same hash bit-identical, so keeping the first copy
  loses nothing and keeps the stored bytes stable.
* ``worker_metrics`` -- one merged
  :class:`~repro.obs.export.MetricsSnapshot` per worker, published by
  drain workers after every job so the server's ``/metrics`` endpoint
  can expose fleet-wide ``service.*`` telemetry without sharing a
  process with the workers.

All timestamps are Unix-epoch seconds read through ``clock.now`` --
the service layer's sanctioned calendar clock (lease deadlines must
compare across processes and survive restarts).  The ``now`` callable
is injectable for tests.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from repro.api.config import ExperimentConfig
from repro.fleet.results import FleetResult
from repro.obs import clock

#: The job state machine.  ``queued`` rows are leasable; ``leased`` rows
#: belong to one worker until acked or expired; the three terminal
#: states are reachable only through the transitions below.
JOB_STATES = ("queued", "leased", "done", "failed", "cancelled")

#: SQLite's INTEGER range (signed 64-bit).
SQLITE_INT_MIN, SQLITE_INT_MAX = -(1 << 63), (1 << 63) - 1

#: Legal state transitions (enforced by :meth:`ServiceStore.transition`).
_TRANSITIONS: dict[str, tuple[str, ...]] = {
    "queued": ("leased", "cancelled"),
    "leased": ("queued", "done", "failed", "cancelled"),
    "done": (),
    "failed": (),
    "cancelled": (),
}

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    config_hash   TEXT    NOT NULL,
    config        TEXT    NOT NULL,
    state         TEXT    NOT NULL DEFAULT 'queued',
    priority      INTEGER NOT NULL DEFAULT 0,
    attempts      INTEGER NOT NULL DEFAULT 0,
    max_attempts  INTEGER NOT NULL DEFAULT 3,
    error         TEXT,
    submitted_at  REAL    NOT NULL,
    started_at    REAL,
    finished_at   REAL,
    lease_deadline REAL,
    not_before    REAL    NOT NULL DEFAULT 0,
    worker        TEXT
);
CREATE INDEX IF NOT EXISTS jobs_state_idx ON jobs (state, priority DESC, id);
CREATE INDEX IF NOT EXISTS jobs_hash_idx ON jobs (config_hash);
CREATE TABLE IF NOT EXISTS results (
    config_hash  TEXT PRIMARY KEY,
    fingerprint  TEXT NOT NULL,
    result       TEXT NOT NULL,
    created_at   REAL NOT NULL,
    hits         INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS worker_metrics (
    worker     TEXT PRIMARY KEY,
    snapshot   TEXT NOT NULL,
    updated_at REAL NOT NULL
);
"""

_JOB_COLUMNS = (
    "id", "config_hash", "config", "state", "priority", "attempts",
    "max_attempts", "error", "submitted_at", "started_at", "finished_at",
    "lease_deadline", "not_before", "worker",
)


@dataclass(frozen=True)
class JobRecord:
    """One ``jobs`` row, decoded (the config JSON back to a dict)."""

    id: int
    config_hash: str
    config: dict
    state: str
    priority: int
    attempts: int
    max_attempts: int
    error: str | None
    submitted_at: float
    started_at: float | None
    finished_at: float | None
    lease_deadline: float | None
    not_before: float
    worker: str | None

    def config_object(self) -> ExperimentConfig:
        """The job's config rebuilt as an :class:`ExperimentConfig`."""
        return ExperimentConfig.from_dict(self.config)

    def to_payload(self) -> dict:
        """The HTTP/CLI JSON shape of the job (no result attached)."""
        return {
            "id": self.id,
            "config_hash": self.config_hash,
            "config": self.config,
            "state": self.state,
            "priority": self.priority,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "worker": self.worker,
        }


def _row_to_job(row: sqlite3.Row) -> JobRecord:
    data = dict(zip(_JOB_COLUMNS, row))
    data["config"] = json.loads(data["config"])
    return JobRecord(**data)


class ServiceStore:
    """One connection to the service database, safe to share in-process.

    A single ``sqlite3`` connection guarded by an ``RLock``: cheap for
    the in-process callers (server handlers, an inline worker), while
    cross-*process* sharing goes through separate :class:`ServiceStore`
    instances on the same path -- WAL mode plus a busy timeout make the
    concurrent lease/ack traffic safe.
    """

    def __init__(
        self,
        path: str | Path,
        now: Callable[[], float] = clock.now,
        timeout_s: float = 30.0,
    ) -> None:
        self.path = str(path)
        self._now = now
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, timeout=timeout_s, check_same_thread=False
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        with self.transaction() as conn:
            conn.executescript(_SCHEMA)

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "ServiceStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def now(self) -> float:
        """The store's clock reading (injectable for tests)."""
        return self._now()

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """One locked transaction: commit on success, rollback on error.

        The building block :class:`~repro.service.queue.JobQueue` uses
        for its atomic lease/ack updates; ``BEGIN IMMEDIATE`` takes the
        write lock up front so a concurrent worker on another connection
        cannot lease the same row in between a SELECT and its UPDATE.
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield self._conn
            except BaseException:
                self._conn.rollback()
                raise
            else:
                self._conn.commit()

    # -- jobs -----------------------------------------------------------------

    def submit(
        self,
        config: ExperimentConfig | dict,
        priority: int = 0,
        max_attempts: int = 3,
    ) -> tuple[JobRecord, bool]:
        """Enqueue one experiment; returns ``(job, already_cached)``.

        ``already_cached`` reports whether the dedup cache can already
        answer this config hash -- the job is enqueued either way (so
        accounting is uniform and the worker records the cache hit), but
        callers can surface "this will be instant" to users.
        """
        if isinstance(config, dict):
            config = ExperimentConfig.from_dict(config)
        if not isinstance(config, ExperimentConfig):
            raise TypeError(
                f"config must be an ExperimentConfig or dict, "
                f"not {type(config).__name__}"
            )
        for name, value, low in (
            ("priority", priority, SQLITE_INT_MIN),
            ("max_attempts", max_attempts, 1),
        ):
            if type(value) is not int or not low <= value <= SQLITE_INT_MAX:
                raise ValueError(
                    f"{name} must be an integer in [{low}, {SQLITE_INT_MAX}], "
                    f"not {value!r}"
                )
        config_hash = config.config_hash()
        now = self._now()
        with self.transaction() as conn:
            cached = (
                conn.execute(
                    "SELECT 1 FROM results WHERE config_hash = ?", (config_hash,)
                ).fetchone()
                is not None
            )
            cursor = conn.execute(
                "INSERT INTO jobs (config_hash, config, state, priority, "
                "max_attempts, submitted_at) VALUES (?, ?, 'queued', ?, ?, ?)",
                (
                    config_hash,
                    config.canonical_json(),
                    priority,
                    max_attempts,
                    now,
                ),
            )
            job_id = cursor.lastrowid
        job = self.job(job_id)
        assert job is not None
        return job, cached

    def job(self, job_id: int) -> JobRecord | None:
        """The job row for *job_id*, or ``None``."""
        with self._lock:
            row = self._conn.execute(
                f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs WHERE id = ?",
                (job_id,),
            ).fetchone()
        return _row_to_job(row) if row is not None else None

    def jobs(self, state: str | None = None, limit: int = 100) -> list[JobRecord]:
        """Jobs newest-first, optionally filtered by state."""
        if state is not None and state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}; known: {JOB_STATES}")
        query = f"SELECT {', '.join(_JOB_COLUMNS)} FROM jobs"
        params: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            params = (state,)
        query += " ORDER BY id DESC LIMIT ?"
        with self._lock:
            rows = self._conn.execute(query, params + (int(limit),)).fetchall()
        return [_row_to_job(row) for row in rows]

    def counts(self) -> dict[str, int]:
        """Jobs per state (every state present, zero included) -- the
        queue-depth gauges ``/metrics`` exposes."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state"
            ).fetchall()
        counts = {state: 0 for state in JOB_STATES}
        counts.update({state: count for state, count in rows})
        return counts

    def transition(
        self,
        job_id: int,
        to_state: str,
        from_states: tuple[str, ...] | None = None,
        **updates,
    ) -> JobRecord | None:
        """Atomically move a job to *to_state* if currently in a legal
        predecessor (narrowed further by *from_states*).

        Returns the updated row, or ``None`` when the job does not exist
        or was not in an eligible state -- the compare-and-swap the
        queue's lease/ack race-safety rests on.  Extra keyword arguments
        update columns alongside the state flip.
        """
        if to_state not in JOB_STATES:
            raise ValueError(f"unknown job state {to_state!r}; known: {JOB_STATES}")
        eligible = tuple(
            state for state, nexts in _TRANSITIONS.items() if to_state in nexts
        )
        if from_states is not None:
            eligible = tuple(state for state in from_states if state in eligible)
        if not eligible:
            raise ValueError(f"no legal transition into {to_state!r}")
        for column in updates:
            if column not in _JOB_COLUMNS or column in ("id", "config", "config_hash"):
                raise ValueError(f"column {column!r} cannot be updated")
        assignments = ", ".join(["state = ?"] + [f"{col} = ?" for col in updates])
        placeholders = ", ".join("?" for _ in eligible)
        with self.transaction() as conn:
            cursor = conn.execute(
                f"UPDATE jobs SET {assignments} WHERE id = ? "
                f"AND state IN ({placeholders})",
                (to_state, *updates.values(), job_id, *eligible),
            )
            changed = cursor.rowcount
        return self.job(job_id) if changed else None

    def cancel(self, job_id: int) -> JobRecord | None:
        """Cancel a queued or leased job (terminal states stay put)."""
        return self.transition(
            job_id, "cancelled", finished_at=self._now(), lease_deadline=None
        )

    # -- result cache ---------------------------------------------------------

    def store_result(self, config_hash: str, result: FleetResult) -> bool:
        """Cache *result* under *config_hash* (first write wins).

        Returns whether this call inserted the row.  A concurrent
        duplicate computed the same bytes (determinism), so losing the
        race is not a loss -- the stored copy is bit-identical.
        """
        payload = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
        with self.transaction() as conn:
            cursor = conn.execute(
                "INSERT OR IGNORE INTO results "
                "(config_hash, fingerprint, result, created_at) "
                "VALUES (?, ?, ?, ?)",
                (config_hash, result.fingerprint(), payload, self._now()),
            )
            return cursor.rowcount == 1

    def result_for(self, config_hash: str) -> FleetResult | None:
        """The cached result for *config_hash*, decoded; ``None`` on miss."""
        with self._lock:
            row = self._conn.execute(
                "SELECT result FROM results WHERE config_hash = ?",
                (config_hash,),
            ).fetchone()
        if row is None:
            return None
        return FleetResult.from_dict(json.loads(row[0]))

    def record_cache_hit(self, config_hash: str) -> None:
        """Bump the persistent per-entry hit counter (for ``jobs gc`` stats)."""
        with self.transaction() as conn:
            conn.execute(
                "UPDATE results SET hits = hits + 1 WHERE config_hash = ?",
                (config_hash,),
            )

    def cache_stats(self) -> dict[str, int]:
        """Result-cache size and cumulative hit count."""
        with self._lock:
            entries, hits = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(hits), 0) FROM results"
            ).fetchone()
        return {"entries": entries, "hits": hits}

    # -- worker metrics -------------------------------------------------------

    def publish_worker_metrics(self, worker: str, snapshot_json: str) -> None:
        """Upsert one worker's cumulative metrics snapshot (JSON text)."""
        with self.transaction() as conn:
            conn.execute(
                "INSERT INTO worker_metrics (worker, snapshot, updated_at) "
                "VALUES (?, ?, ?) ON CONFLICT(worker) DO UPDATE SET "
                "snapshot = excluded.snapshot, updated_at = excluded.updated_at",
                (worker, snapshot_json, self._now()),
            )

    def worker_metrics(self) -> list[tuple[str, str]]:
        """Every worker's latest snapshot JSON, sorted by worker id."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT worker, snapshot FROM worker_metrics ORDER BY worker"
            ).fetchall()
        return [(worker, snapshot) for worker, snapshot in rows]

    # -- maintenance ----------------------------------------------------------

    def gc(
        self,
        max_age_s: float = 0.0,
        states: tuple[str, ...] = ("done", "cancelled", "failed"),
        include_results: bool = False,
    ) -> dict[str, int]:
        """Delete terminal jobs finished more than *max_age_s* ago.

        With ``include_results=True``, cached results no surviving job
        references are dropped too (they are the dedup capital, so the
        default keeps them).  Returns deletion counts.
        """
        for state in states:
            if state not in ("done", "cancelled", "failed"):
                raise ValueError(f"gc only collects terminal states, not {state!r}")
        cutoff = self._now() - max_age_s
        placeholders = ", ".join("?" for _ in states)
        with self.transaction() as conn:
            jobs_deleted = conn.execute(
                f"DELETE FROM jobs WHERE state IN ({placeholders}) "
                "AND COALESCE(finished_at, submitted_at) <= ?",
                (*states, cutoff),
            ).rowcount
            results_deleted = 0
            if include_results:
                results_deleted = conn.execute(
                    "DELETE FROM results WHERE config_hash NOT IN "
                    "(SELECT config_hash FROM jobs)"
                ).rowcount
        return {"jobs": jobs_deleted, "results": results_deleted}
