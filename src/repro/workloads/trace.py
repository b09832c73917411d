"""Trace-driven workloads.

Besides the synthetic signatures, cores can replay an explicit
operation trace — either recorded from a synthetic run (for exact
regression baselines) or produced externally (e.g. converted from a
real application's memory trace).

Format: one operation per line, whitespace-separated:

====================  ==========================================
``W``                 one non-memory instruction
``R <line>``          load from cache line ``<line>`` (hex or dec)
``S <line>``          store to cache line
``B``                 barrier episode
``L <id> <hold>``     lock episode: lock ``<id>``, hold ``<hold>`` cycles
``# ...``             comment
====================  ==========================================

A :class:`TraceWorkload` replays the trace once and then idles (WORK
ops), so a fixed-cycle run past the end of a short trace is safe.
:func:`record_trace` captures any other workload's stream into a file,
giving a deterministic, shareable snapshot.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Union

import numpy as np

from repro.workloads.ops import Op, OpKind

__all__ = ["TraceWorkload", "parse_trace", "format_op", "record_trace"]


def _parse_int(token: str) -> int:
    return int(token, 16) if token.lower().startswith("0x") else int(token)


def parse_trace(lines: Iterable[str]) -> list[Op]:
    """Parse trace lines into operations; raises on malformed input."""
    ops: list[Op] = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        kind = fields[0].upper()
        try:
            if kind == "W" and len(fields) == 1:
                ops.append(Op(kind=OpKind.WORK))
            elif kind in ("R", "S") and len(fields) == 2:
                ops.append(
                    Op(
                        kind=OpKind.MEM,
                        line=_parse_int(fields[1]),
                        is_write=(kind == "S"),
                    )
                )
            elif kind == "B" and len(fields) == 1:
                ops.append(Op(kind=OpKind.BARRIER))
            elif kind == "L" and len(fields) == 3:
                ops.append(
                    Op(
                        kind=OpKind.LOCK,
                        lock_id=_parse_int(fields[1]),
                        hold_cycles=_parse_int(fields[2]),
                    )
                )
            else:
                raise ValueError("unrecognized record")
        except ValueError as error:
            raise ValueError(f"trace line {lineno}: {text!r} ({error})") from None
    return ops


def format_op(op: Op) -> str:
    """Inverse of :func:`parse_trace` for one operation."""
    if op.kind is OpKind.WORK:
        return "W"
    if op.kind is OpKind.MEM:
        return f"{'S' if op.is_write else 'R'} {op.line:#x}"
    if op.kind is OpKind.BARRIER:
        return "B"
    return f"L {op.lock_id} {op.hold_cycles}"


class TraceWorkload:
    """Replays a fixed operation sequence, then idles.

    Parameters
    ----------
    source:
        A path to a trace file, or an iterable of already-parsed ops.
    """

    def __init__(self, source: Union[str, Path, Iterable[Op]]):
        if isinstance(source, (str, Path)):
            with open(source) as handle:
                self.ops = parse_trace(handle)
        else:
            self.ops = list(source)
        self._position = 0
        self.replays_exhausted = False

    def next_op(self, rng: np.random.Generator) -> Op:
        if self._position >= len(self.ops):
            self.replays_exhausted = True
            return Op(kind=OpKind.WORK)
        op = self.ops[self._position]
        self._position += 1
        return op

    @property
    def remaining(self) -> int:
        return max(0, len(self.ops) - self._position)

    def reset(self) -> None:
        self._position = 0
        self.replays_exhausted = False


def record_trace(
    workload, count: int, path: Union[str, Path], seed: int = 0
) -> list[Op]:
    """Capture ``count`` operations from any workload into a trace file.

    Returns the recorded operations.  The workload's own RNG draws come
    from a fresh generator seeded with ``seed``, so recordings are
    reproducible.
    """
    if count < 1:
        raise ValueError(f"need at least one operation: {count}")
    rng = np.random.default_rng(seed)
    ops = [workload.next_op(rng) for _ in range(count)]
    with open(path, "w") as handle:
        handle.write("# repro trace v1\n")
        for op in ops:
            handle.write(format_op(op) + "\n")
    return ops
