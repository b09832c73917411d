"""Optical phase array (OPA) beam steering (paper §4.1, Figure 1b).

For large systems, dedicating a VCSEL lane per destination stops
scaling — ``N * (N-1) * k`` lasers.  Instead a group of VCSELs forms a
phase array: a single *steerable* beam per lane, so the per-node laser
count is constant in N.  The cost is a steering (re-)setup: the paper's
64-node configuration charges **one cycle** to re-program the phase
controller register when the destination changes; consecutive packets
to the same destination pay nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PHASE_SETUP_CYCLES", "PhaseArray"]

#: Re-steering penalty when the target changes (Table 3: 1 cycle).
PHASE_SETUP_CYCLES = 1


@dataclass
class PhaseArray:
    """Steering state of one node's transmit lane."""

    current_target: int = -1
    retargets: int = 0
    sends: int = 0

    def steer(self, target: int) -> int:
        """Point the array at ``target``; returns the setup penalty in cycles.

        >>> opa = PhaseArray()
        >>> opa.steer(3)        # first use: must steer
        1
        >>> opa.steer(3)        # already pointed there
        0
        """
        if target < 0:
            raise ValueError(f"invalid target: {target}")
        self.sends += 1
        if target == self.current_target:
            return 0
        self.current_target = target
        self.retargets += 1
        return PHASE_SETUP_CYCLES

    @property
    def retarget_fraction(self) -> float:
        """Fraction of sends that required re-steering."""
        return self.retargets / self.sends if self.sends else 0.0
