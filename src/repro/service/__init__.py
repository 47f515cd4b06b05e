"""The experiment service: a persistent queue over the fleet engine.

Every run used to be a foreground :class:`~repro.api.session.FleetSession`
in the caller's process -- serving many users meant many process spawns.
This package turns that into a load-balancing problem instead:

* :mod:`repro.service.store` -- a zero-dependency SQLite (WAL) job
  store: a ``jobs`` table carrying each submitted
  :class:`~repro.api.config.ExperimentConfig` through the
  ``queued -> leased -> done | failed | cancelled`` state machine, and a
  ``results`` table caching JSON-serialised
  :class:`~repro.fleet.results.FleetResult` values keyed by
  :meth:`~repro.api.config.ExperimentConfig.config_hash`, which covers
  the experiment and leaves out the execution-plan fields
  (:data:`~repro.api.config.PLAN_FIELDS`: ``trace_level``,
  ``inbox_limit``, ``workers``, ``chunk_size``, ``spec_transfer``,
  ``reuse_cars``, ``compile_tables``, ``retry``, ``chunk_timeout_s``,
  ``degrade``, ``backend``).
* :mod:`repro.service.queue` -- lease/ack semantics with lease expiry:
  a job held by a crashed worker is requeued once its lease lapses,
  with :class:`~repro.fleet.resilience.RetryPolicy` attempt accounting
  and deterministic backoff.
* :mod:`repro.service.worker` -- drain workers executing jobs through
  one long-lived warm session each, with **dedup**: one simulation per
  distinct experiment -- a repeat, or the same experiment under another
  plan, is served the cached result bit-identically, never re-simulated.
* :mod:`repro.service.server` / :mod:`repro.service.client` -- a stdlib
  ``http.server`` endpoint (submit, inspect, chunked NDJSON outcome
  streaming, Prometheus ``/metrics``) and the small Python client.

Determinism is what makes the whole design safe: a run is a pure
function of its experiment, whatever the plan, so the config-hash
result cache can answer repeated submissions without simulating, a
requeued job re-executes bit-identically on any surviving worker, and
every delivered result is fingerprint-equal to a foreground run of the
same config.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.queue import JobQueue
from repro.service.server import ExperimentService
from repro.service.store import JOB_STATES, JobRecord, ServiceStore
from repro.service.worker import DrainWorker

__all__ = [
    "JOB_STATES",
    "DrainWorker",
    "ExperimentService",
    "JobQueue",
    "JobRecord",
    "ServiceClient",
    "ServiceError",
    "ServiceStore",
]
