"""Lightweight per-phase wall-time attribution for the cycle loop.

A :class:`PhaseProfiler` accumulates wall seconds against named phases
("calendar", "memory", "network", "cores", ...).  The cycle loop pays
for timing only when profiling is on: ``CmpSystem``'s loop reads
``PROFILER.enabled`` once per run call and, when it is set, runs the
system's one phase table with every step (and the fast-forward
horizon) wrapped in a timer — the same subsystem code in the same
order as an unprofiled run, which pays no per-cycle check.

Attribution is explicit (``add(phase, seconds)`` between two
``perf_counter`` reads) rather than context-manager based — a ``with``
block per subsystem per cycle would cost more than some of the
subsystems it measures.

``repro profile`` renders the report::

    phase       seconds   share
    network       0.412   41.2%
    cores         0.388   38.8%
    ...
"""

from __future__ import annotations

import time
from contextlib import contextmanager

__all__ = ["PROFILER", "PhaseProfiler", "profiling"]


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self) -> None:
        self.enabled = False
        self._seconds: dict[str, float] = {}
        self._started = 0.0
        self._wall = 0.0
        self.cycles = 0  # executed (ticked) cycles
        self.skipped = 0  # cycles fast-forwarded past without executing

    # -- accumulation --------------------------------------------------

    def add(self, phase: str, seconds: float) -> None:
        self._seconds[phase] = self._seconds.get(phase, 0.0) + seconds

    @property
    def total_cycles(self) -> int:
        """Simulated cycles: executed plus fast-forwarded."""
        return self.cycles + self.skipped

    def reset(self) -> None:
        self._seconds.clear()
        self.cycles = 0
        self.skipped = 0
        self._wall = 0.0
        self._started = time.perf_counter()

    def stop(self) -> None:
        """Freeze the total wall-clock window (called on disable)."""
        self._wall = time.perf_counter() - self._started

    def phase_seconds(self, phase: str) -> float:
        """Seconds accumulated so far against ``phase`` (0.0 if none).

        The cycle loop uses this to *re-attribute* nested work: coherence
        dispatch runs inside the phase windows (mostly calendar and
        network), accrues against ``"coherence"`` at the dispatch site,
        and the enclosing window subtracts the delta so no wall time is
        counted twice.
        """
        return self._seconds.get(phase, 0.0)

    # -- reporting -----------------------------------------------------

    @property
    def attributed_seconds(self) -> float:
        return sum(self._seconds.values())

    @property
    def wall_seconds(self) -> float:
        if self._wall:
            return self._wall
        return time.perf_counter() - self._started

    def report(self) -> dict[str, dict[str, float]]:
        """Per-phase seconds and share of the attributed total."""
        total = self.attributed_seconds
        return {
            phase: {
                "seconds": seconds,
                "share": seconds / total if total else 0.0,
            }
            for phase, seconds in sorted(
                self._seconds.items(), key=lambda kv: -kv[1]
            )
        }

    def render(self) -> str:
        """The human-readable table ``repro profile`` prints."""
        lines = [f"{'phase':<14} {'seconds':>9} {'share':>7}"]
        for phase, row in self.report().items():
            lines.append(
                f"{phase:<14} {row['seconds']:>9.3f} {100 * row['share']:>6.1f}%"
            )
        total = self.total_cycles
        lines.append(
            f"{'attributed':<14} {self.attributed_seconds:>9.3f} "
            f"{'':>6} (wall {self.wall_seconds:.3f}s"
            + (
                f", {total / self.wall_seconds:,.0f} cycles/s"
                if total and self.wall_seconds > 0
                else ""
            )
            + (
                f", {100 * self.skipped / total:.1f}% fast-forwarded"
                if self.skipped
                else ""
            )
            + ")"
        )
        return "\n".join(lines)


#: The process-global profiler the cycle loop guards on.
PROFILER = PhaseProfiler()


@contextmanager
def profiling():
    """Enable the global profiler for a block; yields it (reset first).

    On exit the profiler is disabled and its wall-clock window frozen,
    but the accumulated phase times remain readable::

        with profiling() as p:
            CmpSystem(config).run(cycles)
        print(p.render())
    """
    previous = PROFILER.enabled
    PROFILER.reset()
    PROFILER.enabled = True
    try:
        yield PROFILER
    finally:
        PROFILER.enabled = previous
        PROFILER.stop()
