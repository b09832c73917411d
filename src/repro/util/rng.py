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

Every stream is a :class:`ReplayRng`: the sample sequence of
``numpy.random.default_rng(seed)`` served from block-buffered raw words,
because the simulator draws scalars one event at a time.  A numpy
``Generator`` remains only off the run path: the array draws of
:mod:`repro.core.analytical` and the recorder of :mod:`repro.workloads.trace`.
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
    """A factory of independent named :class:`ReplayRng` streams.

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
    >>> a.random() != b.random()
    True
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: dict[str, ReplayRng] = {}

    def stream(self, name: str) -> "ReplayRng":
        """Return the (cached) stream for ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = ReplayRng(derive_seed(self.root_seed, name))
            self._streams[name] = stream
        return stream

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

    The simulator draws scalars one event at a time (a core's op mix, a
    back-off slot, a signaling error), and each ``Generator`` call pays
    numpy's full dispatch.  This class pulls raw 64-bit words from the
    bit generator in blocks (``PCG64.random_raw``) and applies the same
    output transforms the Generator would, so the produced stream is
    *identical sample for sample* — including PCG64's cross-call stash
    of the unused high half of a word split for 32-bit output:

    * ``random()`` — ``(word >> 11) * 2**-53`` (53-bit mantissa fill).
      Every step is exact, so ``random() < f`` is ``word <
      word_threshold(f)``: a reader that only compares draws against
      fractions (the cores) never converts a word.
    * ``integers(low, high)`` — Lemire's 32-bit multiply-shift bounded
      draw with rejection, the path numpy takes for the default
      ``int64`` dtype whenever ``high - low`` is at most ``2**32``.  A
      range of one returns ``low`` without consuming a word, exactly as
      numpy does.  A wider range (numpy's 64-bit path) or an empty one
      raises ``ValueError``.

    So ``RngHub(root).stream(name)``, a ``ReplayRng(derive_seed(root,
    name))``, yields the samples of ``numpy.random.default_rng(
    derive_seed(root, name))``.  The equivalence is pinned by
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

    def random(self) -> float:
        """One double in [0, 1), identical to ``Generator.random()``."""
        pos = self._pos
        buffer = self._buffer
        if pos >= len(buffer):
            buffer = self._refill()
            pos = 0
        self._pos = pos + 1
        return (buffer[pos] >> 11) * _UNIT

    def integers(self, low: int, high: int) -> int:
        """One int in [low, high), identical to ``Generator.integers``."""
        span = high - low
        if span <= 1 or span > 0x100000000:
            if span == 1:
                return low
            raise ValueError(
                f"integers({low}, {high}): ReplayRng replays ranges of 1 to "
                "2**32 values"
            )
        while True:
            # PCG64 splits one 64-bit word into two 32-bit outputs: the
            # low half first, the high half stashed for the next 32-bit
            # request (random() bypasses and preserves the stash).
            if self._has32:
                self._has32 = False
                m = self._stash32 * span
            else:
                pos = self._pos
                buffer = self._buffer
                if pos >= len(buffer):
                    buffer = self._refill()
                    pos = 0
                self._pos = pos + 1
                word = buffer[pos]
                self._stash32 = word >> 32
                self._has32 = True
                m = (word & 0xFFFFFFFF) * span
            leftover = m & 0xFFFFFFFF
            # Reject only below (2**32 - span) % span, which is < span.
            if leftover >= span or leftover >= (0x100000000 - span) % span:
                return low + (m >> 32)
