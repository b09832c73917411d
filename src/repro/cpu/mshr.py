"""Miss status holding registers.

A fixed-size file of outstanding misses per core (the paper's simulator
adds MSHRs and non-blocking memory controllers, §6).  A full file makes
further misses block the core — one of the two ways a core stalls in our
timing model (the other is a dependent load).
"""

from __future__ import annotations

__all__ = ["MshrFile"]


class MshrFile:
    """Tracks lines with in-flight misses; bounded capacity."""

    __slots__ = ("limit", "_lines")

    def __init__(self, limit: int = 8):
        if limit < 1:
            raise ValueError(f"need at least one MSHR: {limit}")
        self.limit = limit
        self._lines: set[int] = set()

    def contains(self, line: int) -> bool:
        return line in self._lines

    def allocate(self, line: int) -> bool:
        """Reserve an MSHR for ``line``; False when the file is full.

        Allocating a line that already has an MSHR is a merge (secondary
        miss) and succeeds without consuming a new register.
        """
        if line in self._lines:
            return True
        if len(self._lines) >= self.limit:
            return False
        self._lines.add(line)
        return True

    def release(self, line: int) -> None:
        self._lines.discard(line)

    @property
    def in_use(self) -> int:
        return len(self._lines)

    @property
    def full(self) -> bool:
        return len(self._lines) >= self.limit
