"""Metric snapshots: deterministic merge, JSON and Prometheus exposition.

A :class:`MetricsSnapshot` is the immutable, order-canonical value a
:class:`~repro.obs.metrics.MetricsRegistry` drains into.  Snapshots are
what cross process boundaries (each fleet worker ships one per chunk,
as a plain dict), what :func:`merge_snapshots` folds into fleet-wide
totals, and what the exposition functions serialise.

Merge semantics -- chosen so the fold is associative and commutative,
which is what lets per-worker, per-chunk deltas merge in any grouping
to the same result:

* counters and histogram bucket counts add;
* gauges add (workers report extensive quantities -- e.g. pool sizes --
  so the fleet-wide gauge is the sum);
* histograms must agree on their bucket bounds (they all use the shared
  :data:`~repro.obs.metrics.DEFAULT_TIME_BUCKETS`); a bound mismatch is
  a programming error and raises.

Snapshot names are sorted on construction, so two snapshots with the
same content are equal (and serialise identically) no matter what order
their metrics were touched in.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

#: Exposition formats understood by :func:`write_snapshot` and the CLI.
EXPORT_FORMATS = ("json", "prom")


@dataclass(frozen=True)
class HistogramSnapshot:
    """One histogram's frozen state: bounds, per-bucket counts, sum, count."""

    buckets: tuple[float, ...]
    counts: tuple[int, ...]  # one per bound, plus a final overflow slot
    sum: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.buckets) + 1:
            raise ValueError(
                f"histogram needs {len(self.buckets) + 1} count slots "
                f"(one per bound plus overflow), got {len(self.counts)}"
            )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        if self.buckets != other.buckets:
            raise ValueError("cannot merge histograms with different buckets")
        return HistogramSnapshot(
            buckets=self.buckets,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (the bound the rank falls in).

        Good enough to read "p95 simulate time" off a snapshot; the
        overflow bucket reports the largest finite bound.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for bound, bucket_count in zip(self.buckets, self.counts):
            seen += bucket_count
            if seen >= rank:
                return bound
        return self.buckets[-1]

    def to_dict(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "HistogramSnapshot":
        return cls(
            buckets=tuple(data["buckets"]),
            counts=tuple(data["counts"]),
            sum=data["sum"],
            count=data["count"],
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, name-sorted snapshot of one registry's state."""

    counters: tuple[tuple[str, int], ...] = ()
    gauges: tuple[tuple[str, float], ...] = ()
    histograms: tuple[tuple[str, HistogramSnapshot], ...] = ()

    @classmethod
    def build(
        cls,
        counters: Mapping[str, int] = (),
        gauges: Mapping[str, float] = (),
        histograms: Mapping[str, HistogramSnapshot] = (),
    ) -> "MetricsSnapshot":
        """Canonicalise plain mappings into a sorted snapshot."""
        return cls(
            counters=tuple(sorted(dict(counters).items())),
            gauges=tuple(sorted(dict(gauges).items())),
            histograms=tuple(sorted(dict(histograms).items())),
        )

    # -- lookups --------------------------------------------------------------

    def counter(self, name: str, default: int = 0) -> int:
        return dict(self.counters).get(name, default)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return dict(self.gauges).get(name, default)

    def histogram(self, name: str) -> HistogramSnapshot | None:
        return dict(self.histograms).get(name)

    @property
    def empty(self) -> bool:
        return not (self.counters or self.gauges or self.histograms)

    # -- serialisation --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-friendly dict (sorted keys; round-trips via :meth:`from_dict`)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {name: h.to_dict() for name, h in self.histograms},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSnapshot":
        return cls.build(
            counters=data.get("counters", {}),
            gauges=data.get("gauges", {}),
            histograms={
                name: HistogramSnapshot.from_dict(payload)
                for name, payload in data.get("histograms", {}).items()
            },
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MetricsSnapshot":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("metrics snapshot JSON must be an object")
        return cls.from_dict(data)


def merge_snapshots(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Fold snapshots into one: counters/gauges/buckets add, names union.

    Associative and commutative (the merge property test sweeps this),
    so per-worker per-chunk deltas can be folded in arrival order, in
    vehicle-id order, or all at once -- the result is identical.
    """
    counters: dict[str, int] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, HistogramSnapshot] = {}
    for snapshot in snapshots:
        for name, value in snapshot.counters:
            counters[name] = counters.get(name, 0) + value
        for name, value in snapshot.gauges:
            gauges[name] = gauges.get(name, 0.0) + value
        for name, hist in snapshot.histograms:
            existing = histograms.get(name)
            histograms[name] = hist if existing is None else existing.merge(hist)
    return MetricsSnapshot.build(counters=counters, gauges=gauges, histograms=histograms)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------


def _prom_name(name: str, namespace: str) -> str:
    """Metric name sanitised to the Prometheus grammar."""
    cleaned = "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return f"{namespace}_{cleaned}" if namespace else cleaned


def _prom_float(value: float) -> str:
    """Floats in exposition format (repr round-trips; ints stay short)."""
    return repr(value) if value != int(value) else str(int(value))


def to_prometheus(snapshot: MetricsSnapshot, namespace: str = "repro") -> str:
    """The snapshot in Prometheus text exposition format (v0.0.4).

    Counters expose as ``counter``, gauges as ``gauge``, histograms as
    cumulative ``le`` buckets with ``_sum`` and ``_count`` -- directly
    scrapeable once written behind an HTTP endpoint, and deterministic:
    families and labels are emitted in sorted order with no timestamps.
    """
    lines: list[str] = []
    for name, value in snapshot.counters:
        prom = _prom_name(name, namespace)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in snapshot.gauges:
        prom = _prom_name(name, namespace)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_float(value)}")
    for name, hist in snapshot.histograms:
        prom = _prom_name(name, namespace)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bound, count in zip(hist.buckets, hist.counts):
            cumulative += count
            lines.append(f'{prom}_bucket{{le="{_prom_float(bound)}"}} {cumulative}')
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{prom}_sum {_prom_float(hist.sum)}")
        lines.append(f"{prom}_count {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def write_snapshot(
    snapshot: MetricsSnapshot, path: str | Path, format: str = "json"
) -> None:
    """Write the snapshot to *path* as ``json`` or Prometheus ``prom`` text."""
    if format not in EXPORT_FORMATS:
        raise ValueError(f"unknown metrics format {format!r}; known: {EXPORT_FORMATS}")
    text = snapshot.to_json() + "\n" if format == "json" else to_prometheus(snapshot)
    Path(path).write_text(text, encoding="utf-8")


#: Hit ratios the table derives from counter pairs: (label, hits, misses).
HIT_RATIOS = (
    ("can.plans.hit_ratio", "can.plans.hit", "can.plans.built"),
    ("pool.reuse_ratio", "pool.reuses", "pool.builds"),
)


def format_snapshot(snapshot: MetricsSnapshot) -> str:
    """A human-readable table (the ``repro metrics show`` rendering)."""
    lines: list[str] = []
    if snapshot.counters:
        lines.append("counters:")
        width = max(len(name) for name, _ in snapshot.counters)
        for name, value in snapshot.counters:
            lines.append(f"  {name:<{width}}  {value}")
    counters = dict(snapshot.counters)
    ratios = [
        (label, counters[hits], counters[hits] + counters[misses])
        for label, hits, misses in HIT_RATIOS
        if hits in counters and misses in counters and counters[hits] + counters[misses]
    ]
    if ratios:
        lines.append("ratios:")
        width = max(len(label) for label, _, _ in ratios)
        for label, hits, total in ratios:
            lines.append(f"  {label:<{width}}  {hits / total:.4f}  ({hits}/{total})")
    if snapshot.gauges:
        lines.append("gauges:")
        width = max(len(name) for name, _ in snapshot.gauges)
        for name, value in snapshot.gauges:
            lines.append(f"  {name:<{width}}  {value:g}")
    if snapshot.histograms:
        lines.append("histograms:")
        width = max(len(name) for name, _ in snapshot.histograms)
        for name, hist in snapshot.histograms:
            lines.append(
                f"  {name:<{width}}  count={hist.count}  sum={hist.sum:.6f}s  "
                f"mean={hist.mean * 1e6:.1f}us  p50<={hist.quantile(0.5) * 1e6:.1f}us  "
                f"p95<={hist.quantile(0.95) * 1e6:.1f}us"
            )
    if not lines:
        return "(empty snapshot)\n"
    return "\n".join(lines) + "\n"
