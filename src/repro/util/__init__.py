"""Simulation kernel utilities shared by every subsystem.

This package provides the small, dependency-free substrate the rest of the
reproduction is built on:

* :mod:`repro.util.rng` — named, seeded random-number streams so that every
  experiment is reproducible bit-for-bit.
* :mod:`repro.util.events` — the heap-backed cycle calendar the network
  and CMP simulators file their delayed actions on.
* :mod:`repro.util.stats` — counters, histograms and latency accumulators
  used for all reported metrics.
* :mod:`repro.util.units` — physical-unit helpers (dB, dBm, data rates) for
  the photonics models.
"""

from repro.util.rng import RngHub, derive_seed
from repro.util.stats import Counter, Histogram, LatencyStat, StatGroup

__all__ = [
    "RngHub",
    "derive_seed",
    "Counter",
    "Histogram",
    "LatencyStat",
    "StatGroup",
]
