"""A small in-process metrics registry: counters, gauges, histograms.

Modeled on the Prometheus client-library data model — instruments are
registered once by name, carry a help string, and hold one sample per
label combination — but kept dependency-free and deterministic.  The
registry never reads a clock and never draws randomness, so recording a
metric cannot perturb the simulation.

Label values are stringified and samples are keyed by the sorted
``(key, value)`` tuple, so ``inc(host="a", link="b")`` and
``inc(link="b", host="a")`` hit the same sample.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: An OpenMetrics exemplar attached to one histogram bucket: the
#: sorted exemplar label pairs (typically ``trace_id``) plus the
#: observed value that landed it there.
ExemplarValue = Tuple[LabelKey, float]

#: Latency bucket upper bounds, in milliseconds — the one layout every
#: histogram, time-series window and exported ``_bucket`` series uses.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1000.0, 2000.0, 5000.0, float("inf"))


class BucketCounts:
    """One fixed-bucket aggregate over :data:`DEFAULT_BUCKETS`.

    ``counts[i]`` holds the values in ``(DEFAULT_BUCKETS[i-1],
    DEFAULT_BUCKETS[i]]``; ``total`` accumulates left to right in
    arrival order and ``count`` is exact.  Merging adds bucket-wise, so
    cells filled on different shards and merged in spec order equal
    the cell one pass over all values would give.
    """

    __slots__ = ("counts", "total", "count")

    def __init__(self) -> None:
        self.counts = [0] * len(DEFAULT_BUCKETS)
        self.total = 0.0
        self.count = 0

    def add(self, value: float) -> int:
        """Record ``value``; returns the index of the bucket it landed in."""
        index = bisect_left(DEFAULT_BUCKETS, value)
        self.counts[index] += 1
        self.total += value
        self.count += 1
        return index

    def merge(self, other: "BucketCounts") -> None:
        """Add every bucket, the sum and the count of ``other``."""
        counts = self.counts
        for index, count in enumerate(other.counts):
            counts[index] += count
        self.total += other.total
        self.count += other.count

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus style."""
        running = 0
        out: List[Tuple[float, int]] = []
        for bound, count in zip(DEFAULT_BUCKETS, self.counts):
            running += count
            out.append((bound, running))
        return out

    def __repr__(self) -> str:
        return f"BucketCounts(count={self.count}, total={self.total!r})"


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


class Counter:
    """A monotonically increasing count, optionally partitioned by labels."""

    kind = "counter"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._samples: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (>= 0) to the sample selected by ``labels``."""
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        if len(labels) == 1:
            # Fast path for the overwhelmingly common one-label case:
            # sorting a single pair is the identity, so the key can be
            # built directly (same key bytes as ``_label_key``).
            (name, value), = labels.items()
            key: LabelKey = ((name, value if type(value) is str
                              else str(value)),)
        else:
            key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        """The current count for one label combination (0.0 if unseen)."""
        return self._samples.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum across every label combination."""
        return sum(self._samples.values())

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        """``(label_key, value)`` pairs in stable sorted order."""
        yield from sorted(self._samples.items())

    def merge_from(self, other: "Counter") -> None:
        """Add every sample of ``other`` into this counter."""
        for key, value in sorted(other._samples.items()):
            self._samples[key] = self._samples.get(key, 0.0) + value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.total():g})"


class Gauge:
    """A value that can go up and down (queue depth, pool size)."""

    kind = "gauge"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._samples: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        """Replace the sample selected by ``labels`` with ``value``."""
        self._samples[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        """Add ``amount`` (may be negative) to the selected sample."""
        key = _label_key(labels)
        self._samples[key] = self._samples.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        """Subtract ``amount`` from the selected sample."""
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        """The current value for one label combination (0.0 if unseen)."""
        return self._samples.get(_label_key(labels), 0.0)

    def samples(self) -> Iterator[Tuple[LabelKey, float]]:
        """``(label_key, value)`` pairs in stable sorted order."""
        yield from sorted(self._samples.items())

    def merge_from(self, other: "Gauge") -> None:
        """Adopt every sample of ``other`` (last write wins)."""
        for key, value in sorted(other._samples.items()):
            self._samples[key] = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}, {len(self._samples)} series)"


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``observe(v)`` increments every bucket whose upper bound is ≥ v when
    exported; internally each observation lands in exactly one
    :class:`BucketCounts` bucket and cumulation happens at read time.
    The layout is always :data:`DEFAULT_BUCKETS`.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._samples: Dict[LabelKey, BucketCounts] = {}
        #: Last exemplar per (label set, bucket index) — OpenMetrics
        #: semantics: a bucket carries at most one, newest wins.
        self._exemplars: Dict[LabelKey, Dict[int, ExemplarValue]] = {}

    def observe(self, value: float,
                exemplar: Optional[Dict[str, str]] = None,
                **labels: object) -> None:
        """Record one observation into the selected sample.

        ``exemplar`` optionally attaches OpenMetrics exemplar labels
        (e.g. ``{"trace_id": "17"}``) to the bucket the value lands in;
        the bucket keeps the most recent one.
        """
        key = _label_key(labels)
        sample = self._samples.get(key)
        if sample is None:
            sample = self._samples[key] = BucketCounts()
        index = sample.add(value)
        if exemplar is not None:
            self._exemplars.setdefault(key, {})[index] = (
                _label_key(dict(exemplar)), value)

    def exemplars(self, **labels: object) -> Dict[int, ExemplarValue]:
        """Bucket-index -> exemplar for one label combination."""
        return dict(self._exemplars.get(_label_key(labels), {}))

    def count(self, **labels: object) -> int:
        """Observations recorded for one label combination."""
        sample = self._samples.get(_label_key(labels))
        return sample.count if sample is not None else 0

    def sum(self, **labels: object) -> float:
        """Sum of observed values for one label combination."""
        sample = self._samples.get(_label_key(labels))
        return sample.total if sample is not None else 0.0

    def samples(self) -> Iterator[Tuple[LabelKey, BucketCounts]]:
        """``(label_key, sample)`` pairs in stable sorted order."""
        yield from sorted(self._samples.items(), key=lambda item: item[0])

    def merge_from(self, other: "Histogram") -> None:
        """Add every sample of ``other`` bucket-wise."""
        for key, theirs in sorted(other._samples.items(),
                                  key=lambda item: item[0]):
            mine = self._samples.get(key)
            if mine is None:
                mine = self._samples[key] = BucketCounts()
            mine.merge(theirs)
        # Incoming exemplars win: snapshots merge in spec order, so
        # "newest" is the later trial — same outcome on every backend.
        for key, per_bucket in sorted(other._exemplars.items()):
            self._exemplars.setdefault(key, {}).update(per_bucket)

    def __repr__(self) -> str:
        observed = sum(s.count for _, s in self.samples())
        return f"Histogram({self.name}, {observed} observations)"


class MetricsRegistry:
    """Get-or-create home for every instrument in a run.

    Layers call ``registry.counter("repro_stub_queries_total", ...)`` at
    the point of use; the first call registers the instrument and later
    calls return the same object, so instrumentation sites need no setup
    ordering.  Re-registering a name as a different kind is a bug and
    raises.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter called ``name``, creating it on first use."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge called ``name``, creating it on first use."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        """The histogram called ``name``, creating it on first use."""
        return self._get_or_create(Histogram, name, help)

    def get(self, name: str) -> Optional[object]:
        """The registered instrument called ``name``, or ``None``."""
        return self._instruments.get(name)

    def instruments(self) -> List[object]:
        """Every registered instrument, sorted by name."""
        return [self._instruments[name]
                for name in sorted(self._instruments)]

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold every instrument of ``other`` into this registry.

        Counters add, gauges adopt the incoming value, histograms add
        bucket-wise.  Instruments missing here are created with the
        incoming help text; a name registered as a
        different kind in the two registries raises, same as
        re-registering locally would.
        """
        for name in sorted(other._instruments):
            theirs = other._instruments[name]
            if isinstance(theirs, Counter):
                self.counter(name, theirs.help).merge_from(theirs)
            elif isinstance(theirs, Gauge):
                self.gauge(name, theirs.help).merge_from(theirs)
            elif isinstance(theirs, Histogram):
                self.histogram(name, theirs.help).merge_from(theirs)
            else:  # pragma: no cover - registry only stores these kinds
                raise TypeError(
                    f"metric {name!r} has unmergeable type "
                    f"{type(theirs).__name__}")

    def _get_or_create(self, cls: type, name: str, help: str):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, help)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ValueError(
                f"metric {name!r} already registered as {instrument.kind}")
        return instrument

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._instruments)} instruments)"
