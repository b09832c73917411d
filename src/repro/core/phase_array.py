"""Optical phase array (OPA) beam steering (paper §4.1, Figure 1b).

For large systems, dedicating a VCSEL lane per destination stops
scaling — ``N * (N-1) * k`` lasers.  Instead a group of VCSELs forms a
phase array: a single *steerable* beam per lane, so the per-node laser
count is constant in N.  The cost is a steering (re-)setup: the paper's
64-node configuration charges **one cycle** to re-program the phase
controller register when the destination changes; consecutive packets
to the same destination pay nothing.  The steering state — the target
a lane is aimed at and how often it re-steered — lives in the FSOI
network's per-(node, lane) transmit state (:mod:`repro.core.network`).
"""

from __future__ import annotations

__all__ = ["PHASE_SETUP_CYCLES"]

#: Re-steering penalty when the target changes (Table 3: 1 cycle).
PHASE_SETUP_CYCLES = 1
