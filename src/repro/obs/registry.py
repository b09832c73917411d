"""A hierarchical, snapshot-able metrics registry with JSON/CSV export.

The simulator's subsystems each keep their own
:class:`~repro.util.stats.StatGroup` tree (the interconnect's lane
counters, sixteen L1 controllers, sixteen directory slices, the memory
controllers).  A :class:`MetricsRegistry` *mounts* those live trees at
dotted paths — plus scalar gauges for values that are not stat objects
(cycle counts, confirmation-channel totals) — and renders the whole
hierarchy as one deterministic snapshot:

>>> from repro.util.stats import StatGroup
>>> reg = MetricsRegistry("demo")
>>> g = StatGroup("net"); g.counter("sent").add(3)
>>> reg.mount("network", g)
>>> reg.gauge("run.cycles", 2500)
>>> reg.snapshot()
{'network': {'sent': 3}, 'run': {'cycles': 2500}}

Snapshots are plain nested dicts (counters -> int, latency stats ->
their ``summary()`` dict, histograms -> count + fractions), so they
serialize canonically: :meth:`to_json` emits sorted-key JSON and
:meth:`to_csv` a flat ``metric,value`` table whose row order is the
sorted dotted path.  Two runs with identical behaviour therefore
export byte-identical files — the property the golden-snapshot tests
(``tests/cmp/test_golden.py``) and the sweep metric archives
(``run_sweep(metrics_path=...)``) rely on.

Mounting is by reference: the registry holds the live objects and
every :meth:`snapshot` call re-reads them, so one registry built at
system construction stays valid for the lifetime of the run.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Optional, Union

from repro.util.stats import StatGroup

__all__ = ["MetricsRegistry"]

#: A gauge is a plain value or a zero-argument callable read at
#: snapshot time (for values that keep changing, e.g. the cycle count).
GaugeSource = Union[int, float, str, Callable[[], Any]]


def _split(path: str) -> list[str]:
    parts = [part for part in path.split(".") if part]
    if not parts:
        raise ValueError(f"empty metric path: {path!r}")
    return parts


class MetricsRegistry:
    """Mount point for live stat trees and gauges; snapshot on demand."""

    def __init__(
        self, name: str = "repro", settle: Optional[Callable[[], None]] = None
    ):
        self.name = name
        #: Called before every snapshot re-reads the live objects (a
        #: system brings state it updates lazily up to date).
        self._settle = settle
        self._groups: dict[str, StatGroup] = {}
        self._gauges: dict[str, GaugeSource] = {}

    # -- registration --------------------------------------------------

    def mount(self, path: str, group: StatGroup) -> None:
        """Attach a live :class:`StatGroup` subtree at ``path``."""
        _split(path)  # validates
        if path in self._groups:
            raise ValueError(f"path already mounted: {path!r}")
        self._groups[path] = group

    def gauge(self, path: str, source: GaugeSource) -> None:
        """Attach a scalar (or zero-arg callable) at ``path``."""
        _split(path)
        if path in self._gauges:
            raise ValueError(f"gauge already registered: {path!r}")
        self._gauges[path] = source

    @property
    def paths(self) -> list[str]:
        """Every mounted path, sorted (groups and gauges)."""
        return sorted([*self._groups, *self._gauges])

    # -- snapshots -----------------------------------------------------

    def snapshot(self) -> dict:
        """The full hierarchy as one nested dict, re-read from live state."""
        if self._settle is not None:
            self._settle()
        out: dict = {}
        for path in sorted(self._groups):
            self._insert(out, path, self._groups[path].as_dict())
        for path in sorted(self._gauges):
            source = self._gauges[path]
            self._insert(out, path, source() if callable(source) else source)
        return out

    @staticmethod
    def _insert(tree: dict, path: str, value: Any) -> None:
        parts = _split(path)
        node = tree
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"path collision under {path!r}")
        if parts[-1] in node:
            raise ValueError(f"path collision at {path!r}")
        node[parts[-1]] = value

    def flatten(self, snapshot: Optional[dict] = None) -> dict[str, Any]:
        """Dotted-path -> scalar view of a snapshot (lists get ``[i]``)."""
        flat: dict[str, Any] = {}

        def walk(prefix: str, value: Any) -> None:
            if isinstance(value, dict):
                for key in sorted(value):
                    walk(f"{prefix}.{key}" if prefix else str(key), value[key])
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    walk(f"{prefix}[{index}]", item)
            else:
                flat[prefix] = value

        walk("", self.snapshot() if snapshot is None else snapshot)
        return flat

    # -- export --------------------------------------------------------

    def to_json(self, indent: Optional[int] = None) -> str:
        """Canonical JSON of the snapshot (sorted keys, trailing newline)."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        """``metric,value`` rows, sorted by dotted path."""
        lines = ["metric,value"]
        for path, value in sorted(self.flatten().items()):
            lines.append(f"{path},{value}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        """Write the snapshot to ``path``; format chosen by suffix.

        ``.csv`` (matched case-insensitively, so ``.CSV``/``.Csv`` work
        too) writes the flat table, anything else canonical JSON.
        Before the case-insensitive dispatch, an upper-cased ``.CSV``
        silently fell through to JSON — with the old behaviour a
        ``metrics.CSV`` file held a JSON document.
        """
        is_csv = str(path).lower().endswith(".csv")
        text = self.to_csv() if is_csv else self.to_json(indent=1)
        with open(path, "w") as handle:
            handle.write(text)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({self.name}: {len(self._groups)} groups, "
            f"{len(self._gauges)} gauges)"
        )
