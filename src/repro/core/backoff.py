"""Exponential back-off retransmission policy (paper §4.3.2).

After a sender infers a collision (missing confirmation), it retransmits
in a random slot within a window that grows exponentially with the retry
count: retry ``r`` uses window ``W * B^(r-1)`` slots.  The paper tunes
``W = 2.7`` and ``B = 1.1`` via the Figure 4 numerical model — doubling
(the classic Ethernet B=2) is an over-correction because the
pathological all-to-one burst is a very remote possibility, while a
small B gives a decidedly lower resolution delay in the common case.

Neither W nor B need be integers; the drawn slot count always is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BackoffPolicy"]


@dataclass(frozen=True)
class BackoffPolicy:
    """The retransmission window schedule.

    Parameters
    ----------
    start_window:
        W, the first retry's window in slots (paper default 2.7).
    base:
        B, the exponential growth base (paper default 1.1).  ``base=1``
        degenerates to a fixed window, the §4.3.2 livelock-prone case.
    max_window:
        Safety clamp on the window, slots.  Keeps the tail bounded in
        degenerate configurations; large enough to never bind for the
        paper's operating points.
    """

    start_window: float = 2.7
    base: float = 1.1
    max_window: float = 4096.0

    def __post_init__(self) -> None:
        if self.start_window < 1.0:
            raise ValueError(f"start window must be >= 1 slot: {self.start_window}")
        if self.base < 1.0:
            raise ValueError(f"base must be >= 1: {self.base}")
        if self.max_window < self.start_window:
            raise ValueError("max_window smaller than start_window")

    def window(self, retry: int) -> float:
        """Window size (slots, possibly fractional) for 1-based ``retry``.

        >>> BackoffPolicy(2.7, 1.1).window(1)
        2.7
        """
        if retry < 1:
            raise ValueError(f"retry count is 1-based: {retry}")
        return min(self.start_window * self.base ** (retry - 1), self.max_window)

    def span(self, retry: int) -> int:
        """Integer slot span of the retry's window: ``ceil(window)``, >= 1.

        Back-off draws are uniform over ``{1 .. span(retry)}``; the FSOI
        network tabulates the span at construction, and
        :meth:`expected_delay_slots` is its mean.

        >>> BackoffPolicy(2.7, 1.1).span(1)
        3
        """
        return max(1, int(math.ceil(self.window(retry))))

    def expected_delay_slots(self, retry: int) -> float:
        """Mean back-off delay, slots, for a given retry: the mean of a
        uniform draw over ``{1 .. span(retry)}``."""
        return (1 + self.span(retry)) / 2.0
