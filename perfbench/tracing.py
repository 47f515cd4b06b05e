"""Benchmark-side tracing: spans around calls into the program's layers.

Nothing here edits the program.  :func:`instrument` replaces a fixed set
of public entry points (``EventScheduler.run``, ``CarPool.acquire``,
``SpecBlock``/``OutcomeBlock`` encode and decode, ...) with wrappers
that time each call.  Where the call runs decides where the timing goes:

* In the benchmark process every call becomes a span -- name, start,
  end, parent -- kept in memory and written out by :meth:`Tracer.dump`.
  Self time is a span's duration minus the time its child spans cover.
* In processes forked from it (fleet pool workers, the service's drain
  worker) spans cannot travel back, so each call is folded into the
  process's active telemetry registry as ``bench.total.<name>`` and
  ``bench.self.<name>`` histograms and ``bench.count.<name>`` counters.
  Those ride home inside the snapshots the program already merges
  (``FleetSession.metrics_snapshot()``, the service's ``/metrics``).

Wrappers must be installed before any worker process is forked, so the
children inherit them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: Spans kept for the trace file; beyond this only the aggregates grow.
SPAN_KEEP_LIMIT = 250_000

_END = object()


class Tracer:
    """Process-local span recorder shared by every installed wrapper."""

    def __init__(self) -> None:
        self.enabled = False
        self.in_child = False
        self.spans: list[tuple] = []
        self.dropped = 0
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Registry used in a child process when no telemetry registry
        #: is active there (the drain worker between jobs).
        self.fallback_sink = None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        self.in_child = True
        self.spans = []
        self._local = threading.local()

    def reset(self) -> None:
        """Forget everything recorded so far in this process."""
        with self._lock:
            self.spans = []
            self.dropped = 0
            self.total_s.clear()
            self.self_s.clear()
            self.calls.clear()
            self.counts.clear()

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _sink(self):
        from repro.obs import metrics

        if metrics.ACTIVE.enabled:
            return metrics.ACTIVE
        return self.fallback_sink

    def open(self) -> list | None:
        if not self.enabled:
            return None
        stack = self._stack()
        parent = stack[-1][3] if stack else 0
        frame = [None, time.perf_counter(), 0.0, next(self._ids), parent]
        stack.append(frame)
        return frame

    def close(self, frame: list, name: str, counts: dict | None = None) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if stack:
            stack[-1][2] += duration
        if self.in_child:
            sink = self._sink()
            if sink is None:
                return
            sink.observe(f"bench.total.{name}", duration)
            sink.observe(f"bench.self.{name}", own)
            for key, value in (counts or {}).items():
                sink.inc(f"bench.count.{key}", value)
            return
        with self._lock:
            self.total_s[name] += duration
            self.self_s[name] += own
            self.calls[name] += 1
            if counts:
                self.counts.update(counts)
            if len(self.spans) < SPAN_KEEP_LIMIT:
                self.spans.append(
                    (frame[3], frame[4], name, frame[1], end, threading.get_ident())
                )
            else:
                self.dropped += 1

    def span(self, name: str):
        """Context manager for a benchmark-side span."""
        return _Span(self, name)

    def wrap(self, name: str, func, count=None):
        """*func* with every call timed as span *name*.

        ``count(result)`` may return a dict of work counts to add.
        """
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = tracer.open()
            if frame is None:
                return func(*args, **kwargs)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                tracer.close(frame, name)
                raise
            tracer.close(frame, name, count(result) if count else None)
            return result

        wrapper.__bench_original__ = func
        return wrapper

    def wrap_iter(self, name: str, func):
        """*func* returns an iterator; time each pull from it as *name*."""
        tracer = self

        def pulls(iterator):
            while True:
                frame = tracer.open()
                try:
                    item = next(iterator, _END)
                finally:
                    if frame is not None:
                        tracer.close(frame, name)
                if item is _END:
                    return
                yield item

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return pulls(iter(func(*args, **kwargs)))

        wrapper.__bench_original__ = func
        return wrapper

    # -- output ---------------------------------------------------------------

    def dump(self, path: Path, header: dict) -> None:
        """Write the kept spans as JSON lines after a header line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({**header, "dropped_spans": self.dropped}) + "\n")
            for span_id, parent, name, start, end, thread in self.spans:
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end, "thread": thread}
                    )
                    + "\n"
                )


class _Span:
    __slots__ = ("tracer", "name", "frame")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.frame = self.tracer.open()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.frame is not None:
            self.tracer.close(self.frame, self.name)


def _outcome_counts(outcome) -> dict:
    return {
        "kernel_runs": 1,
        "frames_transmitted": outcome.frames_transmitted,
        "frames_delivered": outcome.frames_delivered,
        "hpe_decisions": outcome.hpe_decisions,
        "frames_blocked": outcome.frames_blocked,
        "policy_pushes": outcome.policy_pushes,
    }


def instrument(tracer: Tracer) -> None:
    """Install the layer wrappers (idempotent per process)."""
    from repro.api import session as api_session
    from repro.api.session import FleetSession
    from repro.can.scheduler import EventScheduler
    from repro.casestudy.builder import CarPool
    from repro.fleet import runner, vectorised
    from repro.fleet.results import StreamingFleetAggregator
    from repro.fleet.scenarios import FleetScenario
    from repro.fleet.transfer import OutcomeBlock, SpecBlock
    from repro.service.queue import JobQueue
    from repro.service.store import ServiceStore
    from repro.service.worker import DrainWorker

    if hasattr(EventScheduler.run, "__bench_original__"):
        return
    wrap = tracer.wrap
    EventScheduler.run = wrap(
        "can.scheduler", EventScheduler.run, lambda executed: {"scheduler_events": executed}
    )
    CarPool.acquire = wrap("casestudy.acquire", CarPool.acquire)
    StreamingFleetAggregator.add = wrap("results.fold", StreamingFleetAggregator.add)
    FleetScenario.iter_vehicle_specs = tracer.wrap_iter(
        "scenarios.spec_gen", FleetScenario.iter_vehicle_specs
    )
    for block in (SpecBlock, OutcomeBlock):
        block.encode = classmethod(wrap("transfer.encode", block.encode.__func__))
        block.decode = wrap("transfer.decode", block.decode)
    SpecBlock.decode_rows = wrap("transfer.decode", SpecBlock.decode_rows)
    # Modules that imported simulate_vehicle by name each hold a reference.
    kernel_run = wrap("fleet.kernel_run", runner.simulate_vehicle, _outcome_counts)
    for module in (runner, vectorised, api_session):
        module.simulate_vehicle = kernel_run
    runner._simulate_specs = wrap("fleet.simulate", runner._simulate_specs)
    for name in ("simulate_specs_vectorised", "simulate_block_vectorised"):
        setattr(vectorised, name, wrap("fleet.simulate", getattr(vectorised, name)))
    FleetSession.run_config = wrap("api.run", FleetSession.run_config)
    ServiceStore.submit = wrap("service.store_submit", ServiceStore.submit)
    JobQueue.lease = wrap("service.queue_lease", JobQueue.lease)
    original_run_once = DrainWorker.run_once

    def run_once(worker):
        tracer.fallback_sink = worker.registry
        return original_run_once(worker)

    run_once.__bench_original__ = original_run_once
    DrainWorker.run_once = run_once
