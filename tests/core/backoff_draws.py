"""The §4.3.2 back-off draw two ways, for the back-off tests.

:func:`network_draws` reads the slot counts an :class:`FsoiNetwork`
draws when it backs packets off; :func:`oracle_release` is a
re-derivation that shares no code with the network: a numpy
``Generator`` on the network's back-off seed, the window worked by
hand, and the slot rounding by hand.
"""

import math

from repro.core.backoff import BackoffPolicy
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.net.packet import LaneKind, Packet


def network_draws(policy: BackoffPolicy, retry: int, count: int, seed: int = 0) -> list[int]:
    """The slot counts a network draws backing off ``count`` packets at
    ``retry`` in one call, in filing order."""
    net = FsoiNetwork(FsoiConfig(num_nodes=2, backoff=policy, seed=seed))
    slot = net.lanes.slot_cycles(LaneKind.META)
    packets = [
        Packet(src=0, dst=1, lane=LaneKind.META, retries=retry) for _ in range(count)
    ]
    net._back_off(LaneKind.META, slot, packets, 0)
    heap = sorted(net._state[LaneKind.META][0].retx, key=lambda entry: entry[1])
    return [release // slot + 1 for release, _seq, _packet in heap]


def oracle_release(
    generator, policy: BackoffPolicy, retry: int, detect: int, slot: int
) -> tuple[int, int]:
    """``(slots, release cycle)`` of a back-off at ``retry`` noticed at
    ``detect``: ``1 + integers(0, span)`` slots counted from the first
    boundary at or after ``detect``, the first of them being that
    boundary itself."""
    window = min(policy.start_window * policy.base ** (retry - 1), policy.max_window)
    span = max(1, math.ceil(window))
    draw = 1 + int(generator.integers(0, span))
    boundary = detect
    while boundary % slot:
        boundary += 1
    return draw, boundary + (draw - 1) * slot
