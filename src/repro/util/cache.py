"""Set-associative cache array with LRU replacement.

Tracks *which lines are resident* (tags only — the reproduction never
needs line contents); the coherence controllers own the protocol state.
Table 3's L1 D-cache is 8 KB 2-way with 32 B lines (deliberately scaled
down, following the paper's §6 note, to mimic realistic miss rates),
i.e. 128 sets x 2 ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["CacheArray"]


@dataclass(slots=True)
class _Way:
    line: int
    last_use: int


class CacheArray:
    """Tag array: residency + LRU victims.

    Parameters
    ----------
    num_sets, ways:
        Geometry; a line maps to set ``line % num_sets``.
    is_evictable:
        Optional predicate consulted before choosing a victim — lines in
        transient coherence states must not be evicted (their MSHR
        holds them); the controller passes its own check here.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        is_evictable: Optional[Callable[[int], bool]] = None,
    ):
        if num_sets < 1 or ways < 1:
            raise ValueError("cache geometry must be positive")
        self.num_sets = num_sets
        self.ways = ways
        self.is_evictable = is_evictable or (lambda line: True)
        # Every set is the shared empty tuple until its first insert
        # gives it a list, so a set no run fills costs one pointer.
        self._sets: list["list[_Way] | tuple"] = [()] * num_sets
        self._clock = 0

    @classmethod
    def from_geometry(cls, capacity_bytes: int, line_bytes: int, ways: int,
                      is_evictable: Optional[Callable[[int], bool]] = None
                      ) -> "CacheArray":
        """Build from capacity/line-size/associativity (e.g. 8 KB, 32 B, 2).

        >>> CacheArray.from_geometry(8192, 32, 2).num_sets
        128
        """
        lines = capacity_bytes // line_bytes
        if lines % ways != 0:
            raise ValueError("capacity not divisible into sets")
        return cls(lines // ways, ways, is_evictable)

    def _set_of(self, line: int) -> "list[_Way] | tuple":
        return self._sets[line % self.num_sets]

    def contains(self, line: int) -> bool:
        return any(w.line == line for w in self._set_of(line))

    def touch(self, line: int) -> bool:
        """Record a use; returns True on hit (and updates LRU)."""
        self._clock += 1
        for way in self._set_of(line):
            if way.line == line:
                way.last_use = self._clock
                return True
        return False

    def insert(self, line: int) -> Optional[int]:
        """Insert ``line``; returns the evicted victim line, if any.

        If the set is full of un-evictable lines, raises — callers must
        size MSHRs below associativity pressure or pre-check.
        """
        self._clock = clock = self._clock + 1
        index = line % self.num_sets
        target = self._sets[index]
        for way in target:
            if way.line == line:  # already resident (refill race)
                way.last_use = clock
                return None
        if not target:
            self._sets[index] = [_Way(line, clock)]
            return None
        if len(target) < self.ways:
            target.append(_Way(line, clock))
            return None
        # Pick the least-recently-used evictable way with a plain scan:
        # sets are tiny (2 ways in Table 3's geometry), so a listcomp
        # plus min(key=...) costs more than it saves.  last_use values
        # are unique (the clock is monotone), so "first strictly
        # smaller" picks the same way min() would.
        is_evictable = self.is_evictable
        victim = None
        for way in target:
            if is_evictable(way.line) and (
                victim is None or way.last_use < victim.last_use
            ):
                victim = way
        if victim is None:
            raise RuntimeError(
                f"no evictable way in set {line % self.num_sets}; "
                "too many transient lines in one set"
            )
        target.remove(victim)
        target.append(_Way(line, clock))
        return victim.line

    def remove(self, line: int) -> bool:
        """Drop ``line`` (external invalidation); True if it was present."""
        target = self._set_of(line)
        for way in target:
            if way.line == line:
                target.remove(way)
                return True
        return False

    def resident_lines(self) -> list[int]:
        return [w.line for s in self._sets for w in s]
