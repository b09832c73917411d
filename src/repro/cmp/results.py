"""Measurement container produced by a CMP run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.stats import Histogram

__all__ = ["CmpResults"]


@dataclass
class CmpResults:
    """Everything a benchmark needs from one simulation run.

    ``ipc`` (total instructions per cycle across all cores) is the
    progress metric: for a fixed workload window, the speedup of
    configuration A over B is ``A.ipc / B.ipc`` — the same ratio as the
    paper's execution-time comparison.
    """

    app: str
    network: str
    num_nodes: int
    cycles: int
    instructions: int
    instructions_per_core: list[int]
    latency_breakdown: dict[str, float]
    packets_sent: int
    packets_delivered: int
    bits_sent: int
    l1: dict[str, int]
    directory: dict[str, int]
    memory: dict[str, int]
    sync: dict[str, int]
    core_cycles: dict[str, int]
    reply_latency: Histogram
    fsoi: dict = field(default_factory=dict)       # collision/hint details
    mesh_activity: dict = field(default_factory=dict)  # router switching
    traffic_matrix: list = field(default_factory=list)  # [src][dst] packets
    #: Simulation-loop accounting: {"executed_cycles", "skipped_cycles"}.
    #: Wall-clock bookkeeping only — everything else in the result is
    #: bit-identical whether cycles were executed or fast-forwarded.
    loop: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def speedup_over(self, baseline: "CmpResults") -> float:
        """Execution-rate ratio versus ``baseline`` (same app & window)."""
        if baseline.app != self.app or baseline.num_nodes != self.num_nodes:
            raise ValueError("speedup requires the same app and system size")
        if baseline.ipc == 0:
            raise ZeroDivisionError("baseline made no progress")
        return self.ipc / baseline.ipc

    def summary(self) -> dict:
        return {
            "app": self.app,
            "network": self.network,
            "ipc": round(self.ipc, 4),
            "packet_latency": {
                k: round(v, 2) for k, v in self.latency_breakdown.items()
            },
            "packets": self.packets_delivered,
        }

    # -- persistence -----------------------------------------------------

    def to_dict(self) -> dict:
        """A JSON-safe snapshot of everything in the result."""
        hist = self.reply_latency
        return {
            "app": self.app,
            "network": self.network,
            "num_nodes": self.num_nodes,
            "cycles": self.cycles,
            "instructions": self.instructions,
            "instructions_per_core": list(self.instructions_per_core),
            "latency_breakdown": dict(self.latency_breakdown),
            "packets_sent": self.packets_sent,
            "packets_delivered": self.packets_delivered,
            "bits_sent": self.bits_sent,
            "l1": dict(self.l1),
            "directory": dict(self.directory),
            "memory": dict(self.memory),
            "sync": dict(self.sync),
            "core_cycles": dict(self.core_cycles),
            "reply_latency": {
                "lo": hist.lo,
                "hi": hist.hi,
                "nbins": hist.nbins,
                "bins": list(hist.bins),
                "count": hist.count,
            },
            "fsoi": dict(self.fsoi),
            "mesh_activity": dict(self.mesh_activity),
            "traffic_matrix": [list(row) for row in self.traffic_matrix],
            "loop": dict(self.loop),
        }

    def save(self, path) -> None:
        """Write the result as JSON."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=1)

    @classmethod
    def from_dict(cls, data: dict) -> "CmpResults":
        """Inverse of :meth:`to_dict`."""
        spec = data["reply_latency"]
        hist = Histogram("reply_latency", spec["lo"], spec["hi"], spec["nbins"])
        hist.bins = list(spec["bins"])
        hist.count = spec["count"]
        return cls(
            app=data["app"],
            network=data["network"],
            num_nodes=data["num_nodes"],
            cycles=data["cycles"],
            instructions=data["instructions"],
            instructions_per_core=list(data["instructions_per_core"]),
            latency_breakdown=dict(data["latency_breakdown"]),
            packets_sent=data["packets_sent"],
            packets_delivered=data["packets_delivered"],
            bits_sent=data["bits_sent"],
            l1=dict(data["l1"]),
            directory=dict(data["directory"]),
            memory=dict(data["memory"]),
            sync=dict(data["sync"]),
            core_cycles=dict(data["core_cycles"]),
            reply_latency=hist,
            fsoi=dict(data["fsoi"]),
            mesh_activity=dict(data["mesh_activity"]),
            traffic_matrix=[list(row) for row in data["traffic_matrix"]],
            loop=dict(data.get("loop", {})),
        )

    @classmethod
    def load(cls, path) -> "CmpResults":
        """Read a result saved by :meth:`save`."""
        import json

        with open(path) as handle:
            return cls.from_dict(json.load(handle))
