"""System configuration presets (paper Table 3).

Collects every default the reproduction uses into one printable
structure so experiments can show exactly what they ran — the analogue
of the paper's Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cmp import CmpConfig
from repro.coherence.directory import REQUEST_QUEUE_DEPTH, DirectoryConfig
from repro.coherence.l1 import L1Config
from repro.core.backoff import BackoffPolicy
from repro.core.lanes import PHASE_SETUP_CYCLES, LaneConfig
from repro.core.link import OpticalLink
from repro.cpu.core import CoreConfig
from repro.cpu.memctrl import MemoryConfig

__all__ = ["SystemConfig", "table3"]


@dataclass(frozen=True)
class SystemConfig:
    """One row of Table 3: a named, fully specified system."""

    name: str
    num_nodes: int
    memory_channels: int
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: L1Config = field(default_factory=L1Config)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    lanes: LaneConfig = field(default_factory=LaneConfig)
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    link: OpticalLink = field(default_factory=OpticalLink)
    phase_array: bool = False

    def rows(self) -> list[tuple[str, str]]:
        """Human-readable (parameter, value) rows, Table 3 style."""
        link = self.link
        return [
            ("System", f"{self.name} ({self.num_nodes} nodes)"),
            ("Core clock", f"{link.core_clock / 1e9:.1f} GHz, 45 nm"),
            ("Issue rate / MSHRs",
             f"{self.core.ipc} eff. IPC, {self.core.mshr_limit} MSHRs"),
            ("L1 D cache (private)",
             f"{self.l1.capacity_bytes // 1024} KB, {self.l1.ways}-way, "
             f"{self.l1.line_bytes} B line"),
            ("L2 (shared slice)", f"{self.directory.l2_latency}-cycle access"),
            ("Dir. request queue", f"{REQUEST_QUEUE_DEPTH} entries"),
            ("Memory channel",
             f"{self.memory.bandwidth_bytes_per_cycle * link.core_clock / 1e9:.1f}"
             f" GB/s, latency {self.memory.latency} cycles"),
            ("Number of channels", str(self.memory_channels)),
            ("Network packets",
             "flit 72-bit, data packet 5 flits, meta packet 1 flit"),
            ("VCSEL",
             f"{link.data_rate / 1e9:.0f} GHz, "
             f"{link.bits_per_cpu_cycle} bits per CPU cycle"),
            ("Array",
             f"phase-array w/ {PHASE_SETUP_CYCLES} cycle setup" if self.phase_array
             else "dedicated per destination"),
            ("Lane widths",
             f"{self.lanes.data_vcsels}/{self.lanes.meta_vcsels}/"
             f"{self.lanes.confirmation_vcsels} bits data/meta/confirmation"),
            ("Receivers",
             f"{self.lanes.data_receivers} data, {self.lanes.meta_receivers}"
             f" meta, 1 confirmation"),
            ("Outgoing queue",
             f"{self.lanes.queue_capacity} packets per lane"),
            ("Back-off", f"W={self.backoff.start_window}, B={self.backoff.base}"),
        ]

    def render(self) -> str:
        width = max(len(k) for k, _v in self.rows())
        return "\n".join(f"{k:<{width}}  {v}" for k, v in self.rows())


def table3(num_nodes: int = 16) -> SystemConfig:
    """The paper's evaluated systems: 16-way dedicated or 64-way OPA.

    >>> table3(16).memory_channels
    4
    >>> table3(64).phase_array
    True
    """
    if num_nodes not in (16, 64):
        raise ValueError(f"the paper evaluates 16 or 64 nodes, not {num_nodes}")
    return SystemConfig(
        name="FSOI CMP",
        num_nodes=num_nodes,
        memory_channels=CmpConfig(num_nodes=num_nodes).memory_channels,
        phase_array=num_nodes == 64,
    )
