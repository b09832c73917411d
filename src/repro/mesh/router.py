"""A canonical 4-stage virtual-channel wormhole router.

Models the baseline router of §6/§7.1: route computation, VC allocation,
switch allocation and switch traversal, abstracted as a fixed
``router_latency`` per traversal with one-flit-per-cycle throughput per
output port, plus credit-based flow control against finite downstream
buffers (4 VCs x 12 flits per input port by default, Table 3).

Timing model: when a flit wins switch allocation it leaves its input
buffer, and appears in the downstream input buffer ``router_latency +
link_latency`` cycles later (it occupies the downstream slot from the
moment it is sent — in-flight flits count against credits, as in a real
credit loop).  Head flits additionally need a free downstream VC
(packet-granularity VC allocation, wormhole body flits follow their
head).

Scheduling: the router keeps ``_ready_min``, the earliest cycle any of
its buffered head flits becomes processable (:data:`NEVER` when empty).
``tick`` returns at once before that cycle, and the mesh network ticks
only routers whose ``_ready_min`` is due (docs/performance.md).

Data layout: input VC ``vc`` of port ``in_port`` is buffer ``k = in_port
* num_vcs + vc`` — its arbitration index minus one — and that one
integer keys the flat buffer list, the occupied set and the per-output
requester sets, in this router and (for the flits it forwards) in the
downstream one.  ``inputs[port][vc]`` is the same buffers by port.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.mesh.routing import Port, mesh_coordinates, opposite
from repro.net.packet import Packet
from repro.obs.trace import TRACE

__all__ = ["NEVER", "Flit", "Router", "free_vc"]

#: "Nothing buffered" value of ``Router._ready_min``: later than any
#: simulated cycle.
NEVER = 1 << 62

_EAST, _WEST, _NORTH, _SOUTH, _LOCAL = (
    Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH, Port.LOCAL
)


@dataclass
class Flit:
    """One 72-bit flit of a packet."""

    packet: Packet
    index: int
    is_head: bool
    is_tail: bool


class _VcBuffer:
    """One virtual-channel FIFO at an input port."""

    __slots__ = ("capacity", "flits", "owner", "route_port", "out_vc")

    def __init__(self, capacity: int):
        self.capacity = capacity
        # Entries are (ready_cycle, flit): a flit occupies its slot from
        # the moment the upstream router sends it, becoming processable
        # at ready_cycle.
        self.flits: deque[tuple[int, Flit]] = deque()
        self.owner: Optional[Packet] = None    # packet currently using this VC
        self.route_port: Optional[Port] = None  # RC result for the owner
        self.out_vc: Optional[int] = None       # VA result for the owner


def free_vc(buffers: list[_VcBuffer]) -> Optional[int]:
    """First VC of an input port that a new packet's head flit may
    enter — unallocated (packet-granularity VC allocation) and with a
    credit — or ``None``."""
    for vc, buffer in enumerate(buffers):
        if buffer.owner is None and buffer.capacity > len(buffer.flits):
            return vc
    return None


class Router:
    """One mesh router.

    Parameters
    ----------
    node:
        This router's node id.
    side:
        Mesh side length (for XY routing).
    num_vcs, buffer_flits:
        Virtual channels per input port and flits per VC buffer.
    router_latency, link_latency:
        Cycles per router traversal and per link.
    deliver:
        Callback ``(packet, cycle)`` invoked when a tail flit ejects at
        the local port.
    """

    def __init__(
        self,
        node: int,
        side: int,
        num_vcs: int,
        buffer_flits: int,
        router_latency: int,
        link_latency: int,
        deliver: Callable[[Packet, int], None],
    ):
        if num_vcs < 1 or buffer_flits < 1:
            raise ValueError("need at least 1 VC and 1 buffer slot")
        if router_latency < 1 or link_latency < 0:
            raise ValueError("router latency >= 1, link latency >= 0")
        self.node = node
        self.side = side
        self.num_vcs = num_vcs
        self.router_latency = router_latency
        self.link_latency = link_latency
        self._hop_cycles = router_latency + link_latency
        self.deliver = deliver
        self._x, self._y = mesh_coordinates(node, side)
        self.inputs: dict[Port, list[_VcBuffer]] = {
            port: [_VcBuffer(buffer_flits) for _ in range(num_vcs)] for port in Port
        }
        # The same buffers, flat: _bufs[in_port * num_vcs + vc].
        self._bufs = [buffer for port in Port for buffer in self.inputs[port]]
        # Arbiter pointer per output: the arbitration index (k + 1) of
        # the last winner, plus one.  _arb_bound exceeds every index and
        # every pointer, whatever num_vcs is.
        self._arbiter_state: dict[Port, int] = {port: 0 for port in Port}
        self._arb_bound = len(self._bufs) + 2
        self._occupied: set[int] = set()  # k of every non-empty buffer
        # The non-empty buffers grouped by their owner's route port, so
        # arbitration walks exactly the VCs requesting each output.  A
        # non-empty buffer always has a defined route port (VC
        # allocation is packet-granular: a new head cannot enter until
        # the previous owner's tail has left), so membership is stable
        # while the buffer drains.
        self._requesters: list[set[int]] = [set() for _ in Port]
        # Per output in port order: (its requester set, (port,
        # downstream router, the input port it feeds there, that port's
        # buffers)).  Ejection has no downstream; connect() adds the
        # rest.
        self._outputs: list[tuple] = [
            (self._requesters[_LOCAL], (_LOCAL, None, None, None))
        ]
        self._ready_min = NEVER
        # Counters consumed by the Orion-style energy model.  A routed
        # flit is read from its input buffer exactly once, so buffer
        # reads are ``flits_routed`` and ``buffer_writes - flits_routed``
        # flits are buffered.
        self.flits_routed = 0
        self.buffer_writes = 0
        self.link_flits = 0

    def connect(self, out_port: Port, downstream: "Router") -> None:
        """Wire ``out_port`` to the facing input port of ``downstream``."""
        in_port = opposite(out_port)
        self._outputs.append((self._requesters[out_port], (
            out_port, downstream, in_port, downstream.inputs[in_port],
        )))
        self._outputs.sort(key=lambda output: output[1][0])

    # -- upstream-facing ----------------------------------------------------

    def accept_flit(self, port: Port, vc: int, flit: Flit, ready_cycle: int) -> None:
        """Place ``flit`` into input buffer (slot was reserved by credits)."""
        k = port * self.num_vcs + vc
        buffer = self._bufs[k]
        flits = buffer.flits
        if buffer.capacity <= len(flits):
            raise RuntimeError(
                f"credit protocol violated: buffer overflow at node {self.node} "
                f"{port.name}.vc{vc}"
            )
        if flit.is_head:
            if buffer.owner is not None:
                raise RuntimeError(
                    f"VC allocation violated: vc{vc} at node {self.node} "
                    f"{port.name} already owned"
                )
            packet = flit.packet
            buffer.owner = packet
            # XY dimension-order route (repro.mesh.routing.xy_route)
            # from this router's cached coordinates.
            dst = packet.dst
            side = self.side
            dx = dst % side
            if dx > self._x:
                route = _EAST
            elif dx < self._x:
                route = _WEST
            else:
                dy = dst // side
                if dy > self._y:
                    route = _SOUTH
                elif dy < self._y:
                    route = _NORTH
                else:
                    route = _LOCAL
            buffer.route_port = route
            buffer.out_vc = None
            if TRACE.enabled:
                TRACE.emit(
                    "vc_alloc", cat="mesh", cycle=ready_cycle,
                    node=self.node, packet=packet.uid,
                    port=port.name, vc=vc,
                    route=route.name,
                )
        if not flits:
            self._occupied.add(k)
            self._requesters[buffer.route_port].add(k)
            if ready_cycle < self._ready_min:
                self._ready_min = ready_cycle
        flits.append((ready_cycle, flit))
        self.buffer_writes += 1

    # -- per-cycle operation ---------------------------------------------

    def tick(self, cycle: int) -> None:
        """One cycle: each output port forwards at most one flit.

        Round-robin among the requesters of each output whose head flit
        is ready and passes flow control: the winner is the one whose
        arbitration index ``k + 1`` is cyclically nearest at or after
        the arbiter pointer, and the pointer then moves just past it.
        Indices are distinct, so the pick does not depend on set
        iteration order.  The winner crosses the switch in the same
        pass: a head flit enters the downstream router through
        ``accept_flit`` (route computation, VC-allocation check); a body
        flit follows its head into the VC already allocated, appended
        here under the same credit check.

        ``_ready_min`` is re-folded once, after the last output: until
        then only this tick reads the buffers, a neighbour's
        ``accept_flit`` lowers it by min-update whichever of the two
        ticks first, and the network reads it only between ticks.
        """
        if self._ready_min > cycle:
            return
        bufs = self._bufs
        bound = self._arb_bound
        arbiter = self._arbiter_state
        occupied = self._occupied
        forwarded = link_flits = 0
        for requesters, output in self._outputs:
            if not requesters:
                continue
            out_port, downstream, in_port, dinputs = output
            start = arbiter[out_port]
            best = bound
            best_k = -1
            # First allocatable downstream VC, looked up for the first
            # waiting head only (nothing changes it during the pass).
            free = -1
            for k in requesters:
                buffer = bufs[k]
                if buffer.flits[0][0] > cycle:
                    continue
                if dinputs is not None:  # ejection is never blocked
                    out_vc = buffer.out_vc
                    if out_vc is None:
                        # A head awaiting VC allocation (body flits
                        # follow an allocated head).
                        if free == -1:
                            free = free_vc(dinputs)
                        if free is None:
                            continue
                    else:
                        dbuf = dinputs[out_vc]
                        if dbuf.capacity <= len(dbuf.flits):
                            continue
                distance = k + 1 - start
                if distance < 0:
                    distance += bound
                if distance < best:
                    best = distance
                    best_k = k
            if best_k < 0:
                continue
            arbiter[out_port] = best_k + 2  # winner's index + 1

            # Switch traversal of the winner.
            buffer = bufs[best_k]
            flits = buffer.flits
            flit = flits.popleft()[1]
            if not flits:
                occupied.discard(best_k)
                requesters.discard(best_k)
            forwarded += 1
            if dinputs is None:
                if flit.is_tail:
                    if TRACE.enabled:
                        TRACE.emit(
                            "eject", cat="mesh",
                            cycle=cycle + self.router_latency,
                            node=self.node, packet=flit.packet.uid,
                            src=flit.packet.src,
                        )
                    self.deliver(flit.packet, cycle + self.router_latency)
            else:
                link_flits += 1
                ready = cycle + self._hop_cycles
                out_vc = buffer.out_vc
                if out_vc is None:
                    buffer.out_vc = free
                    downstream.accept_flit(in_port, free, flit, ready)
                else:
                    dbuf = dinputs[out_vc]
                    dflits = dbuf.flits
                    if dbuf.capacity <= len(dflits):
                        raise RuntimeError(
                            "credit protocol violated: buffer overflow at "
                            f"node {downstream.node} "
                            f"{in_port.name}.vc{out_vc}"
                        )
                    if not dflits:
                        dk = in_port * downstream.num_vcs + out_vc
                        downstream._occupied.add(dk)
                        downstream._requesters[dbuf.route_port].add(dk)
                        if ready < downstream._ready_min:
                            downstream._ready_min = ready
                    dflits.append((ready, flit))
                    downstream.buffer_writes += 1
            if flit.is_tail:
                buffer.owner = None
                buffer.route_port = None
                buffer.out_vc = None

        if forwarded:
            self.flits_routed += forwarded
            self.link_flits += link_flits
            # Heads left: recompute the earliest remaining readiness.
            ready_min = NEVER
            for k in occupied:
                ready = bufs[k].flits[0][0]
                if ready < ready_min:
                    ready_min = ready
            self._ready_min = ready_min

    def occupancy(self) -> int:
        """Buffered flits, recounted from the buffers (``audit`` checks
        the write and routed counters against it)."""
        return sum(len(buffer.flits) for buffer in self._bufs)
