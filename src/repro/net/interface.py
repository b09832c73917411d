"""The interconnect interface every network model implements.

The CMP simulator drives a network exclusively through this interface
(the :class:`Interconnect` docstring lists the whole contract):

* :meth:`Interconnect.try_send` — offer a packet; the network may refuse
  (finite source queues), in which case the caller stalls and retries.
* a delivery callback per node, invoked when a packet arrives.
* :meth:`Interconnect.tick` — advance one processor cycle.

All networks stamp the packet timing fields and record the common
:class:`InterconnectStats`, so the latency-breakdown and collision
figures are produced identically regardless of the model.
"""

from __future__ import annotations

import abc
from functools import partial
from operator import itemgetter
from typing import Callable, Optional

from repro.net.packet import Packet
from repro.util.stats import StatGroup

__all__ = ["DeliveryCallback", "InterconnectStats", "Interconnect"]

DeliveryCallback = Callable[[Packet], None]


class InterconnectStats:
    """Common statistics every network records.

    Latency components are recorded per delivered packet, split by lane,
    matching the breakdown of Figures 6(a)/7(a).  A delivery is one
    sample of ``joint``, ``(queuing, scheduling, resolution, network) ->
    count``; the five latency stats are read-only views of that table
    (total = the sum of the four), registered under their usual names.
    """

    def __init__(self) -> None:
        self.group = StatGroup("interconnect")
        self.sent = self.group.counter("packets_sent")
        self.delivered = self.group.counter("packets_delivered")
        self.refused = self.group.counter("send_refused")
        self.bits_sent = self.group.counter("bits_sent")
        self.joint: dict[tuple[int, int, int, int], int] = {}
        view = partial(self.group.view, joint=self.joint, version=self.delivered)
        self.queuing = view("queuing_delay", fold=itemgetter(0))
        self.scheduling = view("scheduling_delay", fold=itemgetter(1))
        self.network = view("network_delay", fold=itemgetter(3))
        self.resolution = view("resolution_delay", fold=itemgetter(2))
        self.total = view("total_delay", fold=sum)

    def record_delivery(self, packet: Packet) -> None:
        # The component arithmetic is inlined (rather than read through
        # the Packet delay properties); the stamps are ints.
        # FsoiNetwork.tick writes this update out for its deliveries.
        scheduled = packet.scheduled_cycle
        first = packet.first_tx_cycle
        final = packet.final_tx_cycle
        self.delivered.value += 1
        key = (
            first - scheduled, scheduled - packet.enqueue_cycle,
            final - first, packet.deliver_cycle - final,
        )
        joint = self.joint
        joint[key] = joint.get(key, 0) + 1

    def breakdown(self) -> dict[str, float]:
        """Mean per-packet latency split into the paper's four components."""
        return {
            "queuing": self.queuing.mean,
            "scheduling": self.scheduling.mean,
            "network": self.network.mean,
            "collision_resolution": self.resolution.mean,
            "total": self.total.mean,
        }


class Interconnect(abc.ABC):
    """Abstract base class for all network models.

    The six methods below (plus :meth:`set_delivery_callback` at
    wiring time) are all ``CmpSystem`` and the traffic drivers know
    about a network; which transport is behind them — FSOI, mesh, the
    ideal L0 / Lr networks, Corona — changes no caller:

    * :meth:`try_send` ``(packet, cycle) -> bool`` — offer a packet;
      ``False`` means the source queue is full and the caller retries.
      Never delivers synchronously: arrivals happen inside :meth:`tick`.
      Endpoints out of range, or a packet to its own source (a node
      does not send itself messages over the network), raise
      ``ValueError`` — in every model, from :meth:`_check_packet`.
    * :meth:`tick` ``(cycle)`` — one processor cycle; invokes the
      delivery callbacks of the packets that arrive in it.
    * :meth:`next_event` ``(cycle) -> Optional[int]`` — the fast-forward
      horizon: the earliest cycle at which a tick could do anything
      (``cycle`` itself: tick now; ``None``: idle until the next send).
    * :meth:`skip` ``(start, end)`` — account for the cycles a jump did
      not tick, so per-cycle tallies match a run that ticked them.
    * :meth:`quiescent` ``() -> bool`` — nothing buffered or in flight.
    * :meth:`audit` ``()`` — the model's self-check: deliveries never
      exceed sends, and whatever index or ledger the model keeps agrees
      with a recount of what it summarises; ``AssertionError`` on a
      mismatch.  Tests call it, and so do the health watchdogs.
    """

    def __init__(self, num_nodes: int):
        if num_nodes < 2:
            raise ValueError(f"need at least 2 nodes: {num_nodes}")
        self.num_nodes = num_nodes
        self.stats = InterconnectStats()
        self._callbacks: list[Optional[DeliveryCallback]] = [None] * num_nodes
        # Delivered counts, [src * num_nodes + dst]: an int bump per
        # delivery, no key tuple to build and hash.
        self._traffic = [0] * (num_nodes * num_nodes)

    # -- wiring -----------------------------------------------------------

    def set_delivery_callback(self, node: int, callback: DeliveryCallback) -> None:
        """Install the function invoked when a packet arrives at ``node``."""
        self._check_node(node)
        self._callbacks[node] = callback

    def _deliver(self, packet: Packet, cycle: int) -> None:
        """Stamp delivery, record stats, invoke the destination callback."""
        packet.deliver_cycle = cycle
        self.stats.record_delivery(packet)
        self._traffic[packet.src * self.num_nodes + packet.dst] += 1
        callback = self._callbacks[packet.dst]
        if callback is not None:
            callback(packet)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range [0, {self.num_nodes})")

    def _check_packet(self, packet: Packet) -> None:
        """The :meth:`try_send` precondition: both endpoints in range
        and distinct."""
        src, dst = packet.src, packet.dst
        if src == dst or not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            self._check_node(src)
            self._check_node(dst)
            raise ValueError(f"packet to self: node {src}")

    # -- the driving interface ---------------------------------------------

    @abc.abstractmethod
    def try_send(self, packet: Packet, cycle: int) -> bool:
        """Offer ``packet`` to the network at ``cycle``.

        Returns ``True`` if accepted (source queue had room); ``False``
        means the caller must stall and retry later.
        """

    @abc.abstractmethod
    def tick(self, cycle: int) -> None:
        """Advance the network by one processor cycle."""

    # -- fast-forward horizon (see docs/performance.md) ---------------------

    def next_event(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which this network can change state.

        ``cycle`` ("now") means the network must be ticked every cycle;
        ``None`` means it is fully idle and imposes no horizon.  The
        default pins the horizon to "now", which disables fast-forward
        over this network but is always correct; models override it
        with a real horizon.
        """
        return cycle

    def skip(self, start: int, end: int) -> None:
        """Account for the tick-free jump over ``[start, end)``.

        Called instead of ``tick`` for every cycle in the range when the
        fast-forward engine proved nothing can happen.  Models with
        per-cycle counters (e.g. FSOI slot tallies) override this; the
        default has nothing to account.
        """

    def traffic_matrix(self) -> list[list[int]]:
        """Delivered-packet counts indexed [src][dst].

        The communication pattern the run actually exercised — stencil
        codes light up mesh-neighbour entries, butterfly codes the XOR
        diagonals, sync-heavy codes the sync variables' home columns.
        """
        n = self.num_nodes
        return [self._traffic[src * n:src * n + n] for src in range(n)]

    def quiescent(self) -> bool:
        """True when no packets are buffered or in flight (end-of-run drain)."""
        return int(self.stats.sent) == int(self.stats.delivered)

    def audit(self) -> None:
        """The model's self-check; raises ``AssertionError`` on a breach.

        Every model: deliveries never exceed sends.  Models that keep a
        scheduling index or a ledger override this, calling it first.
        """
        sent, delivered = int(self.stats.sent), int(self.stats.delivered)
        if delivered > sent:
            raise AssertionError(
                f"delivered {delivered} packets but only {sent} sent"
            )
