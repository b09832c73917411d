"""Deterministic, named random-number streams.

Every stochastic decision in the reproduction (packet destinations,
back-off slot choices, workload generation, Monte-Carlo sampling) draws
from a *named stream* derived from a single experiment seed.  Two runs
with the same seed therefore produce identical results regardless of the
order in which subsystems are constructed, and changing one subsystem's
draw pattern does not perturb any other subsystem.

The derivation uses SHA-256 over ``(root_seed, name)`` so stream seeds are
statistically independent and stable across Python versions (unlike
``hash()``, which is salted per process).

:class:`ReplayRng` serves the same sample sequence as a stream's
``Generator`` from block-buffered raw words, for the cores, which draw
scalars by the million.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

__all__ = ["derive_seed", "RngHub", "ReplayRng", "word_threshold"]

_MASK_63 = (1 << 63) - 1
_UNIT = 2.0 ** -53  # random()'s scale: 53 random bits below the point


def derive_seed(root_seed: int, name: str) -> int:
    """Derive a stable 63-bit child seed from ``root_seed`` and ``name``.

    >>> derive_seed(42, "backoff") == derive_seed(42, "backoff")
    True
    >>> derive_seed(42, "backoff") != derive_seed(42, "traffic")
    True
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & _MASK_63


class RngHub:
    """A factory of independent named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    root_seed:
        The experiment-level seed.  All streams are derived from it.

    Examples
    --------
    >>> hub = RngHub(7)
    >>> a = hub.stream("node0.backoff")
    >>> b = hub.stream("node1.backoff")
    >>> a is hub.stream("node0.backoff")   # streams are cached
    True
    >>> float(a.random()) != float(b.random())
    True
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the (cached) generator for ``name``."""
        generator = self._streams.get(name)
        if generator is None:
            generator = np.random.default_rng(derive_seed(self.root_seed, name))
            self._streams[name] = generator
        return generator

    def child(self, name: str) -> "RngHub":
        """Return a hub whose streams are all namespaced under ``name``.

        Useful for handing a subsystem its own private seed space.
        """
        return RngHub(derive_seed(self.root_seed, f"child:{name}"))

    def __repr__(self) -> str:
        return f"RngHub(root_seed={self.root_seed}, streams={len(self._streams)})"


def word_threshold(fraction: float) -> int:
    """The raw word ``w`` below which ``(w >> 11) * 2**-53 < fraction``.

    Scaling by a power of two is exact in binary floating point, so a
    draw is below ``fraction`` iff its 53 bits are below
    ``ceil(fraction * 2**53)``, iff the whole word is below that shifted
    back up by 11:

    >>> word_threshold(0.5) == 1 << 63
    True
    >>> w = word_threshold(0.3)
    >>> ((w - 1) >> 11) * 2**-53 < 0.3 <= (w >> 11) * 2**-53
    True
    """
    return math.ceil(math.ldexp(fraction, 53)) << 11


class ReplayRng:
    """Replays ``numpy.random.Generator(PCG64(seed))`` draws from a buffer.

    The cores draw scalars one at a time (op mix, line choice,
    blocking-fraction), which pays numpy's full ufunc dispatch per draw.
    This class pulls raw 64-bit words from the bit generator in blocks
    (``PCG64.random_raw``) and applies the same output transforms the
    Generator would, so the produced stream is *identical sample for
    sample* — including PCG64's cross-call stash of the unused high
    half of a word split for 32-bit output:

    * ``random()`` — ``(word >> 11) * 2**-53`` (53-bit mantissa fill).
      Every step is exact, so ``random() < f`` is ``word <
      word_threshold(f)``: a reader that only compares draws against
      fractions (the cores) never converts a word.
    * ``integers(low, high)`` — Lemire's 32-bit multiply-shift bounded
      draw with rejection, the path numpy takes for the default
      ``int64`` dtype whenever the range fits in 32 bits (every draw
      the workloads make).  A range of one returns ``low`` without
      consuming a word, exactly as numpy does.

    So ``ReplayRng(derive_seed(root, name))`` yields the samples of
    ``RngHub(root).stream(name)``.  The equivalence is pinned by
    hypothesis tests interleaving both call types against a real
    ``Generator`` over random seeds.

    A reader that moves the cursor back across a refill (a core cutting
    its run-ahead window) pushes the blocks it had already drawn onto
    ``_ahead``, top first; refills take them back before drawing more.
    """

    __slots__ = ("_raw", "_buffer", "_pos", "_has32", "_stash32", "_ahead")

    _BLOCK = 1024

    def __init__(self, seed: int):
        self._raw = np.random.PCG64(seed).random_raw
        self._buffer: list[int] = []
        self._pos = 0
        self._has32 = False
        self._stash32 = 0
        self._ahead: list[list[int]] = []

    def _refill(self) -> list[int]:
        """Replace the exhausted buffer with the next block of raw words."""
        if self._ahead:
            self._buffer = self._ahead.pop()
        else:
            self._buffer = self._raw(self._BLOCK).tolist()
        self._pos = 0
        return self._buffer

    def _next64(self) -> int:
        pos = self._pos
        buffer = self._buffer
        if pos >= len(buffer):
            buffer = self._refill()
            pos = 0
        self._pos = pos + 1
        return buffer[pos]

    def _next32(self) -> int:
        # PCG64 splits one 64-bit word into two 32-bit outputs: the low
        # half first, the high half stashed for the next 32-bit request
        # (64-bit requests bypass and preserve the stash).
        if self._has32:
            self._has32 = False
            return self._stash32
        word = self._next64()
        self._stash32 = word >> 32
        self._has32 = True
        return word & 0xFFFFFFFF

    def random(self) -> float:
        """One double in [0, 1), identical to ``Generator.random()``."""
        return (self._next64() >> 11) * _UNIT

    def integers(self, low: int, high: int) -> int:
        """One int in [low, high), identical to ``Generator.integers``."""
        rng = high - low - 1  # inclusive range, numpy's convention
        if rng == 0:
            return low
        rng_excl = rng + 1
        m = self._next32() * rng_excl
        leftover = m & 0xFFFFFFFF
        if leftover < rng_excl:
            threshold = (0xFFFFFFFF - rng) % rng_excl
            while leftover < threshold:
                m = self._next32() * rng_excl
                leftover = m & 0xFFFFFFFF
        return low + (m >> 32)
