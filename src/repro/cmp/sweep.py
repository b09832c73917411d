"""Summary statistics of one scalar metric across sweep points.

The paper reports single-run numbers; for a simulator with stochastic
workloads it is good practice to run several seeds and report the
spread.  :class:`SweepSummary` reports mean / min / max / 95%-confidence
half-width of any scalar metric, including speedups paired by seed (the
same seed drives the same workload stream through both networks, so
pairing removes workload variance).  The sweeps themselves, and the
pairing, live in :mod:`repro.sweep` (``run_sweep``,
``SweepReport.paired_speedups``, ``pair_points``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SweepSummary"]


@dataclass(frozen=True)
class SweepSummary:
    """Summary statistics of one scalar metric across runs."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("summary of no values")

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return sum(self.values) / len(self.values)

    @property
    def minimum(self) -> float:
        return min(self.values)

    @property
    def maximum(self) -> float:
        return max(self.values)

    @property
    def stdev(self) -> float:
        if len(self.values) < 2:
            return 0.0
        mean = self.mean
        return math.sqrt(
            sum((v - mean) ** 2 for v in self.values) / (len(self.values) - 1)
        )

    @property
    def ci95_halfwidth(self) -> float:
        """Normal-approximation 95% confidence half-width of the mean."""
        if len(self.values) < 2:
            return 0.0
        return 1.96 * self.stdev / math.sqrt(len(self.values))

    def __str__(self) -> str:
        return (
            f"{self.mean:.3f} ± {self.ci95_halfwidth:.3f} "
            f"[{self.minimum:.3f}, {self.maximum:.3f}] (n={self.count})"
        )

