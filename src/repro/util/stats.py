"""Statistics primitives used for every reported metric.

The paper reports packet latencies broken into components (queuing,
scheduling, network, collision resolution), collision rates, energy and
speedups.  All of those are accumulated with the three primitives here:

* :class:`Counter` — a named monotonically increasing count.
* :class:`LatencyStat` — mean/min/max/percentile accumulator for samples
  (:class:`LatencyView`: a read-only one folded from a joint table).
* :class:`Histogram` — fixed-bin histogram (used e.g. for Figure 5's
  reply-latency distribution).

:class:`StatGroup` is a lightweight registry so subsystems can expose all
of their stats as one nested, printable dictionary.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Iterable

__all__ = [
    "Counter", "LatencyStat", "LatencyView", "Histogram", "StatGroup", "geometric_mean",
]


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; the paper's speedup aggregation.

    >>> round(geometric_mean([1.0, 4.0]), 3)
    2.0
    """
    values = list(values)
    if not values:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Counter:
    """A named event count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class LatencyStat:
    """Accumulates scalar samples; reports count/mean/min/max/percentiles.

    Samples are kept as a ``value -> count`` table, so percentiles are
    exact and memory follows the number of *distinct* values — a few
    hundred cycle counts — not the number of packets a run delivers.
    Every statistic is reported as a float.  Integer samples key the
    table as they come (an int hashes several times faster than the
    equal float, and the two share one key); anything else is coerced
    to float first.
    """

    __slots__ = ("name", "_counts")

    def __init__(self, name: str):
        self.name = name
        self._counts: dict[float, int] = {}

    def record(self, value: float) -> None:
        if value.__class__ is not int:
            value = float(value)
            if value != value:  # NaN check without a math-module call
                raise ValueError(f"{self.name}: cannot record NaN")
        try:
            self._counts[value] += 1
        except KeyError:  # first sample of this value
            self._counts[value] = 1

    @property
    def count(self) -> int:
        return sum(self._counts.values())

    @property
    def total(self) -> float:
        return float(sum(value * n for value, n in self._counts.items()))

    @property
    def mean(self) -> float:
        return self.total / self.count if self._counts else 0.0

    @property
    def minimum(self) -> float:
        return float(min(self._counts)) if self._counts else 0.0

    @property
    def maximum(self) -> float:
        return float(max(self._counts)) if self._counts else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile; ``q`` in [0, 100].

        An out-of-range ``q`` raises even when no samples were recorded
        (a bad quantile is a caller bug regardless of sample count).
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile out of range: {q}")
        if not self._counts:
            return 0.0
        values = sorted(self._counts)
        # through[i]: samples at or below values[i]; the sample of rank
        # r (0-based, ascending) is the first value with through > r.
        through = list(accumulate(self._counts[value] for value in values))
        rank = max(0, math.ceil(q / 100.0 * through[-1]) - 1)
        return float(values[bisect_right(through, rank)])

    def summary(self) -> dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "max": self.maximum,
        }

    def __repr__(self) -> str:
        return f"LatencyStat({self.name}: n={self.count}, mean={self.mean:.2f})"


class LatencyView(LatencyStat):
    """A read-only :class:`LatencyStat` over one marginal of a joint table.

    ``joint`` maps a tuple of one sample's components to a count; the
    view's samples are ``fold(key)`` for each key, ``count`` times over.
    The fold runs at most once per change of ``version`` (a counter the
    table's owner bumps with every sample), and it walks the table in
    insertion order, so each value keeps its first-seen place: the
    folded table equals the one :meth:`LatencyStat.record` would have
    built from the same samples.
    """

    __slots__ = ("_joint", "_fold", "_version", "_seen", "_table")

    def __init__(self, name: str, joint: dict, fold, version: Counter):
        self.name = name
        self._joint = joint
        self._fold = fold
        self._version = version
        self._seen = -1
        self._table: dict[float, int] = {}

    @property
    def _counts(self) -> dict[float, int]:
        if self._seen != self._version.value:
            table: dict[float, int] = {}
            fold = self._fold
            for key, n in self._joint.items():
                value = fold(key)
                table[value] = table.get(value, 0) + n
            self._table = table
            self._seen = self._version.value
        return self._table

    def record(self, value: float) -> None:
        raise TypeError(f"{self.name} is a view of a joint table; record into the table")


class Histogram:
    """Fixed-width-bin histogram with an overflow bin.

    Parameters
    ----------
    lo, hi:
        Range covered by the regular bins.
    nbins:
        Number of regular bins; samples >= ``hi`` land in the overflow
        bin, samples < ``lo`` in bin 0 (clamped).
    """

    def __init__(self, name: str, lo: float, hi: float, nbins: int):
        if hi <= lo:
            raise ValueError("hi must exceed lo")
        if nbins < 1:
            raise ValueError("need at least one bin")
        self.name = name
        self.lo = float(lo)
        self.hi = float(hi)
        self.nbins = int(nbins)
        self.bins = [0] * (self.nbins + 1)  # last bin = overflow
        self.count = 0

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.nbins

    def record(self, value: float) -> None:
        value = float(value)
        if math.isnan(value):
            raise ValueError(f"{self.name}: cannot record NaN")
        self.count += 1
        if value >= self.hi:
            self.bins[self.nbins] += 1
            return
        # Float division can round a value just below ``hi`` up to index
        # ``nbins``; clamp to keep every in-range sample in a regular bin.
        index = int((value - self.lo) / self.bin_width)
        self.bins[min(self.nbins - 1, max(0, index))] += 1

    def fractions(self) -> list[float]:
        """Per-bin fraction of all samples (sums to 1 when count > 0)."""
        if self.count == 0:
            return [0.0] * len(self.bins)
        return [b / self.count for b in self.bins]

    def edges(self) -> list[float]:
        """Left edges of the regular bins (overflow bin starts at ``hi``)."""
        return [self.lo + i * self.bin_width for i in range(self.nbins)] + [self.hi]

    def mode_fraction(self) -> float:
        """Fraction of samples in the most populated bin."""
        return max(self.fractions())

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count})"


class StatGroup:
    """A registry of named stats, nestable, rendered as plain dicts."""

    def __init__(self, name: str):
        self.name = name
        self._counters: dict[str, Counter] = {}
        self._latencies: dict[str, LatencyStat] = {}
        self._histograms: dict[str, Histogram] = {}
        self._children: dict[str, "StatGroup"] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def latency(self, name: str) -> LatencyStat:
        if name not in self._latencies:
            self._latencies[name] = LatencyStat(name)
        return self._latencies[name]

    def view(self, name: str, joint: dict, fold, version: Counter) -> LatencyView:
        """Register ``name`` as a :class:`LatencyView` of ``joint``."""
        self._latencies[name] = view = LatencyView(name, joint, fold, version)
        return view

    def histogram(self, name: str, lo: float, hi: float, nbins: int) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, lo, hi, nbins)
        return self._histograms[name]

    def group(self, name: str) -> "StatGroup":
        if name not in self._children:
            self._children[name] = StatGroup(name)
        return self._children[name]

    def as_dict(self) -> dict:
        out: dict = {}
        for key, counter in self._counters.items():
            out[key] = counter.value
        for key, lat in self._latencies.items():
            out[key] = lat.summary()
        for key, hist in self._histograms.items():
            out[key] = {"count": hist.count, "fractions": hist.fractions()}
        for key, child in self._children.items():
            out[key] = child.as_dict()
        return out

    def __repr__(self) -> str:
        return f"StatGroup({self.name})"
