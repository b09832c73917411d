"""The operations a workload hands a core.

A workload is anything with ``next_op(rng) -> Op``; the core model
(:mod:`repro.cpu.core`) consumes the stream.  The vocabulary lives here,
below both, so the workload generators never import the core that runs
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto

__all__ = ["OpKind", "Op"]


class OpKind(Enum):
    WORK = auto()     # a non-memory instruction
    MEM = auto()      # a load or store
    BARRIER = auto()  # global barrier episode
    LOCK = auto()     # lock acquire + hold + release episode


@dataclass(frozen=True, slots=True)
class Op:
    kind: OpKind
    line: int = 0
    is_write: bool = False
    lock_id: int = 0
    hold_cycles: int = 0
