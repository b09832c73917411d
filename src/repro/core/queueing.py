"""Queueing-theory companions to the cycle simulator.

The FSOI lane is a *slotted random-access channel* — the paper
explicitly grounds its slotting in Roberts' slotted ALOHA (ref [40]).
This module provides the classic closed forms, specialized to the
paper's receiver-partitioned channel, so designers can bound behaviour
before simulating:

* throughput and the 1/e capacity ceiling of slotted ALOHA;
* the FSOI lane's per-node goodput given the static sender partition
  (N-1 senders split over R receivers);
* the saturating offered load;
* an M/D/1 waiting-time estimate for the source queue (deterministic
  slot-length service), which predicts the simulator's queuing-delay
  component at low-to-moderate loads.

All results are validated against :class:`repro.core.network.FsoiNetwork`
in ``tests/core/test_queueing.py``.
"""

from __future__ import annotations

import math

__all__ = [
    "aloha_throughput",
    "aloha_capacity",
    "lane_success_probability",
    "lane_goodput",
    "saturation_load",
    "md1_waiting_time",
    "lane_queuing_delay",
]


def aloha_throughput(offered_load: float) -> float:
    """Classic slotted-ALOHA throughput ``S = G e^{-G}``.

    ``offered_load`` (G) counts attempted transmissions per slot on one
    shared channel; the Poisson approximation holds for many senders.

    >>> round(aloha_throughput(1.0), 4)
    0.3679
    """
    if offered_load < 0:
        raise ValueError(f"negative offered load: {offered_load}")
    return offered_load * math.exp(-offered_load)


def aloha_capacity() -> float:
    """The 1/e ceiling of slotted ALOHA."""
    return 1.0 / math.e


def lane_success_probability(
    p: float, num_nodes: int = 16, receivers: int = 2
) -> float:
    """P(one node's transmission survives) on the partitioned lane.

    With each of the other ``n - 1`` co-sharers of the target receiver
    transmitting toward it with probability ``q = p / (N - 1)``, the
    tagged transmission succeeds iff none of them fires:
    ``(1 - q)^(n - 1)``, ``n = (N - 1) / R``.

    >>> lane_success_probability(0.0) == 1.0
    True
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"transmission probability out of [0,1]: {p}")
    if num_nodes < 3 or receivers < 1:
        raise ValueError("need N >= 3 and R >= 1")
    n = (num_nodes - 1) / receivers
    q = p / (num_nodes - 1)
    return (1.0 - q) ** max(0.0, n - 1)


def lane_goodput(p: float, num_nodes: int = 16, receivers: int = 2) -> float:
    """Successful transmissions per node per slot."""
    return p * lane_success_probability(p, num_nodes, receivers)


def saturation_load(num_nodes: int = 16, receivers: int = 2) -> float:
    """The p maximizing :func:`lane_goodput`.

    For the paper's configuration this sits far above the operating
    loads (a few percent), which is *why* accepting collisions is safe:
    the channel is run deep inside its stable region.
    """
    # Imported where called: docs/performance.md "Time to first cycle".
    from scipy.optimize import minimize_scalar

    result = minimize_scalar(
        lambda p: -lane_goodput(p, num_nodes, receivers),
        bounds=(1e-6, 1.0),
        method="bounded",
    )
    return float(result.x)


def md1_waiting_time(arrival_rate: float, service_time: float) -> float:
    """Mean M/D/1 queue wait, time units of ``service_time``'s unit.

    ``W = rho * s / (2 (1 - rho))`` with utilization
    ``rho = arrival_rate * service_time``.  Deterministic service is the
    right model for fixed-length slots.
    """
    if arrival_rate < 0 or service_time <= 0:
        raise ValueError("need arrival_rate >= 0 and service_time > 0")
    rho = arrival_rate * service_time
    if rho >= 1.0:
        return math.inf
    return rho * service_time / (2.0 * (1.0 - rho))


def lane_queuing_delay(
    p: float,
    slot_cycles: int,
    num_nodes: int = 16,
    receivers: int = 2,
) -> float:
    """Predicted mean source-queue delay on a lane, cycles.

    Combines the M/D/1 wait at the sender's serializer (service = one
    slot, arrivals ``p`` per slot) with the mean residual wait for the
    next slot boundary (``(slot - 1) / 2``), inflating service by the
    collision-retransmission factor ``1 / P(success)``.
    """
    if slot_cycles < 1:
        raise ValueError(f"slot length must be >= 1: {slot_cycles}")
    success = lane_success_probability(p, num_nodes, receivers)
    effective_service = slot_cycles / max(success, 1e-9)
    arrival_rate = p / slot_cycles  # packets per cycle
    wait = md1_waiting_time(arrival_rate, effective_service)
    slot_alignment = (slot_cycles - 1) / 2.0
    return wait + slot_alignment
