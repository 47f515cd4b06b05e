"""Unit coverage for the telemetry primitives (repro.obs).

Registry/instrument semantics, the drain-as-delta contract, span
nesting, the no-op fast path, and both exposition formats.
"""

import json

import pytest

from repro.obs import clock
from repro.obs import metrics as obs_metrics
from repro.obs.export import (
    HistogramSnapshot,
    MetricsSnapshot,
    format_snapshot,
    to_prometheus,
    write_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_TIME_BUCKETS,
    NOOP_REGISTRY,
    Histogram,
    MetricsRegistry,
    activate,
    active_registry,
)
from repro.obs.spans import _STACK, observe_phase, span


@pytest.fixture(autouse=True)
def _restore_active_registry():
    previous = active_registry()
    yield
    activate(previous)


class TestInstruments:
    def test_counter(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        assert reg.counter("a").value == 5

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 2.5)
        reg.add_gauge("g", 1.0)
        assert reg.gauge("g").value == 3.5

    def test_histogram_le_semantics(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0)  # le=1.0 bucket (upper-inclusive)
        hist.observe(1.5)  # le=2.0 bucket
        hist.observe(99.0)  # overflow
        assert hist.counts == [1, 1, 1]
        assert hist.count == 3
        assert hist.sum == 101.5

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))

    def test_instruments_are_cached_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.histogram("h") is reg.histogram("h")


class TestDrainIsDelta:
    def test_drain_zeroes_but_keeps_instruments(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        counter.inc(3)
        reg.observe("h", 0.5)
        first = reg.drain()
        assert first.counter("c") == 3
        assert reg.counter("c") is counter  # instrument identity survives
        counter.inc(2)
        second = reg.drain()
        assert second.counter("c") == 2  # a delta, not a running total
        assert second.histogram("h").count == 0

    def test_drains_merge_to_lifetime_total(self):
        from repro.obs.export import merge_snapshots

        reg = MetricsRegistry()
        parts = []
        for k in range(1, 4):
            reg.inc("c", k)
            reg.observe("h", 0.001 * k)
            parts.append(reg.drain())
        total = merge_snapshots(parts)
        assert total.counter("c") == 6
        assert total.histogram("h").count == 3


class TestActiveRegistry:
    def test_default_is_noop(self):
        assert NOOP_REGISTRY.enabled is False
        assert obs_metrics.ACTIVE.enabled in (True, False)

    def test_activate_returns_previous(self):
        reg = MetricsRegistry()
        previous = activate(reg)
        try:
            assert active_registry() is reg
        finally:
            assert activate(previous) is reg

    def test_noop_registry_swallows_everything(self):
        NOOP_REGISTRY.inc("a")
        NOOP_REGISTRY.observe("h", 1.0)
        NOOP_REGISTRY.set_gauge("g", 1.0)
        snapshot = NOOP_REGISTRY.drain()
        assert snapshot.empty


class TestSpans:
    def test_span_records_wall_and_cpu(self):
        reg = MetricsRegistry()
        with span("work", registry=reg):
            sum(range(1000))
        snap = reg.snapshot()
        assert snap.histogram("phase.work.wall_seconds").count == 1
        assert snap.histogram("phase.work.cpu_seconds").count == 1
        assert snap.histogram("phase.work.wall_seconds").sum >= 0.0

    def test_nesting_produces_dotted_names(self):
        reg = MetricsRegistry()
        activate(reg)
        with span("outer"):
            with span("inner"):
                pass
        snap = reg.snapshot()
        assert snap.histogram("phase.outer.inner.wall_seconds").count == 1
        assert snap.histogram("phase.outer.wall_seconds").count == 1
        assert _STACK == []

    def test_disabled_span_touches_nothing(self):
        activate(NOOP_REGISTRY)
        with span("quiet"):
            pass
        assert _STACK == []

    def test_span_as_decorator(self):
        reg = MetricsRegistry()
        activate(reg)

        @span("decorated")
        def work():
            return 42

        assert work() == 42
        assert reg.snapshot().histogram("phase.decorated.wall_seconds").count == 1

    def test_span_records_on_exception(self):
        reg = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with span("boom", registry=reg):
                raise RuntimeError("boom")
        assert reg.snapshot().histogram("phase.boom.wall_seconds").count == 1
        assert _STACK == []

    def test_observe_phase_without_cpu(self):
        reg = MetricsRegistry()
        observe_phase(reg, "x", 0.25)
        snap = reg.snapshot()
        assert snap.histogram("phase.x.wall_seconds").count == 1
        assert snap.histogram("phase.x.cpu_seconds") is None


class TestClock:
    def test_wall_is_monotonic(self):
        a = clock.wall()
        b = clock.wall()
        assert b >= a

    def test_cpu_advances_under_work(self):
        a = clock.cpu()
        sum(range(200_000))
        assert clock.cpu() >= a


class TestExposition:
    def _snapshot(self) -> MetricsSnapshot:
        reg = MetricsRegistry()
        reg.inc("pool.builds", 2)
        reg.set_gauge("pool.size", 2.0)
        reg.observe("phase.simulate.wall_seconds", 0.002)
        return reg.snapshot()

    def test_json_round_trip(self):
        snap = self._snapshot()
        assert MetricsSnapshot.from_json(snap.to_json()) == snap

    def test_prometheus_shape(self):
        text = to_prometheus(self._snapshot())
        assert "# TYPE repro_pool_builds counter" in text
        assert "repro_pool_builds 2" in text
        assert "# TYPE repro_pool_size gauge" in text
        assert 'le="+Inf"' in text
        assert "repro_phase_simulate_wall_seconds_count 1" in text
        assert text.endswith("\n")

    def test_prometheus_cumulative_buckets(self):
        hist = HistogramSnapshot(buckets=(1.0, 2.0), counts=(1, 2, 3), sum=9.0, count=6)
        snap = MetricsSnapshot.build(histograms={"h": hist})
        text = to_prometheus(snap)
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="2"} 3' in text
        assert 'repro_h_bucket{le="+Inf"} 6' in text

    def test_prometheus_deterministic(self):
        assert to_prometheus(self._snapshot()) == to_prometheus(self._snapshot())
        assert "\n# timestamp" not in to_prometheus(self._snapshot())

    def test_write_snapshot_json(self, tmp_path):
        path = tmp_path / "m.json"
        write_snapshot(self._snapshot(), path, format="json")
        assert json.loads(path.read_text())["counters"]["pool.builds"] == 2

    def test_write_snapshot_prom(self, tmp_path):
        path = tmp_path / "m.prom"
        write_snapshot(self._snapshot(), path, format="prom")
        assert path.read_text().startswith("# TYPE repro_")

    def test_write_snapshot_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            write_snapshot(self._snapshot(), tmp_path / "x", format="xml")

    def test_format_snapshot_table(self):
        text = format_snapshot(self._snapshot())
        assert "pool.builds" in text
        assert "p95<=" in text
        assert "ratios:" not in text  # no reuses counted: no ratio to show
        assert format_snapshot(MetricsSnapshot()) == "(empty snapshot)\n"

    def test_format_snapshot_hit_ratios(self):
        reg = MetricsRegistry()
        reg.inc("can.plans.built", 1)
        reg.inc("can.plans.hit", 3)
        text = format_snapshot(reg.snapshot())
        assert "ratios:" in text
        assert "can.plans.hit_ratio  0.7500  (3/4)" in text
        assert "pool.reuse_ratio" not in text

    def test_histogram_quantile(self):
        hist = HistogramSnapshot(
            buckets=(1.0, 2.0, 4.0), counts=(5, 4, 1, 0), sum=14.0, count=10
        )
        assert hist.quantile(0.5) == 1.0
        assert hist.quantile(0.9) == 2.0
        assert hist.quantile(0.95) == 4.0  # rank 9.5 falls in the le=4 bucket
        assert hist.mean == 1.4

    def test_default_buckets_cover_microseconds_to_seconds(self):
        assert DEFAULT_TIME_BUCKETS[0] == 1e-6
        assert DEFAULT_TIME_BUCKETS[-1] == 10.0
        assert list(DEFAULT_TIME_BUCKETS) == sorted(DEFAULT_TIME_BUCKETS)
