"""Token-ring-arbitrated optical crossbar (corona-style).

Model: one shared optical channel per destination node (a
multiple-writer single-reader crossbar).  A token per channel circulates
the ring optically, completing a full round in a few core cycles when
free.  To transmit, a node waits for the channel's token to pass by,
seizes it, holds it for the transfer's serialization time, then
re-injects it at its own position.  Transfers never collide — the token
*is* the arbitration — but every transfer pays the token-wait latency,
on average half a round trip when uncontended and more under load.
Detection/ejection overhead is one cycle, as in the FSOI model.

Serialization matches the FSOI data-path width so the two designs have
comparable raw bandwidth; what differs is purely the arbitration story.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.lanes import RX_OVERHEAD, LaneConfig
from repro.net.interface import Interconnect
from repro.net.packet import LaneKind, Packet

__all__ = ["CoronaConfig", "CoronaNetwork"]


@dataclass(frozen=True)
class CoronaConfig:
    """Corona-style network parameters.

    ``token_round_cycles`` is how long a free token takes to circle the
    whole ring (optical propagation around the chip plus per-node
    detection — a few ns, i.e. a handful of core cycles).  A transfer
    holds the channel for the FSOI lane's slot length
    (``LaneConfig().slot_cycles(lane)``: 2 meta / 5 data cycles), so
    raw bandwidth is comparable.
    """

    num_nodes: int = 64
    token_round_cycles: int = 12
    injection_queue: int = 16

    def __post_init__(self) -> None:
        if self.token_round_cycles < 1:
            raise ValueError("token round trip must take >= 1 cycle")

    @property
    def nodes_per_cycle(self) -> int:
        """Ring positions the free token sweeps past per cycle."""
        return max(1, -(-self.num_nodes // self.token_round_cycles))


class _Channel:
    """One destination's shared channel and its circulating token."""

    __slots__ = ("owner_until", "token_position", "queues", "idle")

    def __init__(self, num_nodes: int):
        self.token_position = 0
        self.owner_until = -1  # cycle the current holder releases at
        self.idle = False      # fast path: no pending packets last sweep
        # Per-sender queues of packets waiting for this channel.
        self.queues: list[deque[Packet]] = [deque() for _ in range(num_nodes)]


class CoronaNetwork(Interconnect):
    """Cycle-level corona-style crossbar with token-ring arbitration."""

    def __init__(self, config: CoronaConfig):
        super().__init__(config.num_nodes)
        self.config = config
        self._channels = [_Channel(config.num_nodes) for _ in range(config.num_nodes)]
        self._deliveries: dict[int, list[Packet]] = {}
        self._token_waits = self.stats.group.latency("token_wait")
        self._serialization = {lane: LaneConfig().slot_cycles(lane) for lane in LaneKind}

    def try_send(self, packet: Packet, cycle: int) -> bool:
        self._check_packet(packet)
        src = packet.src
        if sum(len(ch.queues[src]) for ch in self._channels) >= self.config.injection_queue:
            self.stats.refused.add()
            return False
        packet.enqueue_cycle = cycle
        packet.scheduled_cycle = cycle
        self._channels[packet.dst].queues[src].append(packet)
        self.stats.sent.add()
        self.stats.bits_sent.add(packet.bits)
        return True

    def tick(self, cycle: int) -> None:
        deliveries = self._deliveries.pop(cycle, None)
        if deliveries is not None:
            for packet in deliveries:  # arrival order
                self._deliver(packet, cycle)
        for channel in self._channels:
            self._advance_token(channel, cycle)

    def _advance_token(self, channel: _Channel, cycle: int) -> None:
        if channel.owner_until >= cycle:
            return  # token held by a transmitting node
        if channel.idle and not any(channel.queues):
            return  # nothing waiting anywhere on this channel
        channel.idle = True
        packet = None
        for _step in range(self.config.nodes_per_cycle):
            position = (channel.token_position + 1) % self.num_nodes
            channel.token_position = position
            queue = channel.queues[position]
            if queue:
                packet = queue.popleft()
                channel.idle = False
                break
        if packet is None:
            return
        packet.first_tx_cycle = cycle
        packet.final_tx_cycle = cycle
        self._token_waits.record(cycle - packet.enqueue_cycle)
        serialization = self._serialization[packet.lane]
        channel.owner_until = cycle + serialization - 1
        deliver = cycle + serialization - 1 + RX_OVERHEAD
        self._deliveries.setdefault(deliver, []).append(packet)

    def quiescent(self) -> bool:
        if self._deliveries:
            return False
        return all(
            not any(ch.queues[n] for n in range(self.num_nodes))
            for ch in self._channels
        )

    def next_event(self, cycle: int) -> int | None:
        """Fast-forward horizon.  A held token sleeps until release; a
        sweeping token (``idle`` false, or packets queued anywhere on
        the channel) advances every cycle, pinning the horizon to "now".
        A channel that went idle with empty queues contributes nothing.
        """
        horizon = min(self._deliveries) if self._deliveries else None
        if horizon is not None and horizon <= cycle:
            return cycle
        for channel in self._channels:
            if channel.owner_until >= cycle:
                release = channel.owner_until + 1
                if horizon is None or release < horizon:
                    horizon = release
                continue
            if not channel.idle or any(channel.queues):
                return cycle
        return horizon

    def audit(self) -> None:
        """Beyond the base check: no sender holds more than
        ``injection_queue`` packets, and each filed delivery is its
        channel's current transfer — one per channel, due the cycle
        after the held token's ``owner_until`` (so never in the past:
        the channel frees only then)."""
        super().audit()
        for src in range(self.num_nodes):
            queued = sum(len(channel.queues[src]) for channel in self._channels)
            if queued > self.config.injection_queue:
                raise AssertionError(f"node {src} holds {queued} packets")
        filed = set()
        for cycle, packets in self._deliveries.items():
            for p in packets:
                held = p.final_tx_cycle + self._serialization[p.lane] - 1
                owner_until = self._channels[p.dst].owner_until
                if p.dst in filed or owner_until != held or cycle != held + RX_OVERHEAD:
                    raise AssertionError(
                        f"packet {p.uid} filed for {cycle}, token held until {owner_until}"
                    )
                filed.add(p.dst)
