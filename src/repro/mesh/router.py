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

Buffer layout: VC allocation is per packet, so a VC holds one packet's
flits at a time and the VC carries what a flit would: the owner, its
route port, its downstream VC and ``left``, its flits still to leave.
A buffered flit is just its ready cycle; the front flit is a head while
the VC has no downstream VC, and a tail when one flit is left.

Scheduling: a non-empty VC's front flit is in exactly one place.  From
its ready cycle on it is in ``_ready[route port]``, the output's ready
requesters; before that it is filed, once, on the readiness calendar the
router shares with its network (``calendar[ready cycle]``, a list of
``(ready set, k, node)`` entries), which
:class:`repro.mesh.network.MeshNetwork` promotes into the ready sets at
the start of that cycle.  :meth:`Router.switch` therefore arbitrates
among ready fronts only, and files a front it leaves behind that is not
yet ready (docs/performance.md).

Data layout: input VC ``vc`` of port ``in_port`` is buffer ``k = in_port
* num_vcs + vc`` — its arbitration index minus one — and that one
integer keys the flat buffer list and the per-output ready sets, in this
router and (for the flits it forwards) in the downstream one.
``inputs[port][vc]`` is the same buffers by port.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Optional

from repro.mesh.routing import Port, mesh_coordinates, opposite
from repro.net.packet import Packet
from repro.obs.trace import TRACE

__all__ = ["Router"]

_EAST, _WEST, _NORTH, _SOUTH, _LOCAL = (
    Port.EAST, Port.WEST, Port.NORTH, Port.SOUTH, Port.LOCAL
)


class _VcBuffer:
    """One virtual-channel FIFO at an input port (empty when unowned)."""

    __slots__ = ("flits", "owner", "route_port", "out_vc", "left")

    def __init__(self):
        # Ready cycles: a flit holds its slot from the moment it is sent.
        self.flits: deque[int] = deque()
        self.owner: Optional[Packet] = None     # packet currently using this VC
        self.route_port: Optional[Port] = None  # RC result for the owner
        self.out_vc: Optional[int] = None       # VA result; None: front is a head
        self.left = 0                           # owner's flits still to leave


class Router:
    """One mesh router.

    Parameters
    ----------
    node:
        This router's node id.
    side:
        Mesh side length (for XY routing).
    num_vcs, buffer_flits:
        Virtual channels per input port and flits per VC buffer
        (validated by :class:`repro.mesh.network.MeshConfig`).
    router_latency:
        Cycles per router traversal.
    calendar:
        The readiness calendar shared by every router of one network:
        ``ready cycle -> [(ready set, k, node), ...]``.
    """

    def __init__(
        self,
        node: int,
        side: int,
        num_vcs: int,
        buffer_flits: int,
        router_latency: int,
        calendar: dict[int, list],
    ):
        self.node = node
        self.side = side
        self.num_vcs = num_vcs
        self.buffer_flits = buffer_flits
        self.router_latency = router_latency
        self._calendar = calendar
        # XY route (repro.mesh.routing.xy_route) to ``dst``: ``_x_route[dst
        # % side] or _y_route[dst // side]`` (None = same column; LOCAL,
        # the falsy port, is only in the row table).
        x, y = mesh_coordinates(node, side)
        self._x_route = [_WEST] * x + [None] + [_EAST] * (side - 1 - x)
        self._y_route = [_NORTH] * y + [_LOCAL] + [_SOUTH] * (side - 1 - y)
        self.inputs: dict[Port, list[_VcBuffer]] = {
            port: [_VcBuffer() for _ in range(num_vcs)] for port in Port
        }
        # The same buffers, flat: _bufs[in_port * num_vcs + vc].
        self._bufs = [buffer for port in Port for buffer in self.inputs[port]]
        # Arbiter pointer per output: the arbitration index (k + 1) of
        # the last winner, plus one.  _arb_bound exceeds every index and
        # every pointer, whatever num_vcs is.
        self._arbiter_state: list[int] = [0] * len(Port)
        self._arb_bound = len(self._bufs) + 2
        # Per output port, the k of every buffer whose front flit is
        # ready (its ready cycle has been swept) and whose owner routes
        # there.
        self._ready: list[set[int]] = [set() for _ in Port]
        # Per output in port order: (its ready set, (port, downstream
        # router, the input port it feeds there, that port's buffers)).
        # Ejection has no downstream; connect() adds the rest.
        self._outputs: list[tuple] = [
            (self._ready[_LOCAL], (_LOCAL, None, None, None))
        ]
        # The outputs' ready sets in the same order: the selectors that
        # let switch() visit only the outputs with a ready requester.
        self._selectors: list[set[int]] = [self._ready[_LOCAL]]
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
        self._outputs.append((self._ready[out_port], (
            out_port, downstream, in_port, downstream.inputs[in_port],
        )))
        self._outputs.sort(key=lambda output: output[1][0])
        self._selectors = [output[0] for output in self._outputs]

    # -- upstream-facing ----------------------------------------------------

    def accept_flit(self, port: Port, vc: int, ready_cycle: int,
                    packet: Optional[Packet] = None, flits: int = 0) -> None:
        """Place a flit into input buffer ``vc`` of ``port`` from outside
        a switch (its slot reserved by credits): with ``packet``, the head
        of a ``flits``-flit packet, which takes the VC; else the owner's
        next flit.  ``ready_cycle`` must follow the last swept cycle.
        :meth:`switch` and ``MeshNetwork.tick`` enter the flits they
        forward and inject under the same checks and filing, written out."""
        k = port * self.num_vcs + vc
        buffer = self._bufs[k]
        if len(buffer.flits) >= self.buffer_flits:
            raise RuntimeError(
                f"credit protocol violated: buffer overflow at node {self.node} "
                f"{port.name}.vc{vc}"
            )
        if packet is not None:
            if buffer.owner is not None:
                raise RuntimeError(
                    f"VC allocation violated: vc{vc} at node {self.node} "
                    f"{port.name} already owned"
                )
            buffer.owner = packet
            buffer.left = flits
            dst = packet.dst
            buffer.route_port = route = (
                self._x_route[dst % self.side] or self._y_route[dst // self.side]
            )
            if TRACE.enabled:
                TRACE.emit(
                    "vc_alloc", cat="mesh", cycle=ready_cycle,
                    node=self.node, packet=packet.uid,
                    port=port.name, vc=vc, route=route.name,
                )
        if not buffer.flits:  # a new front: file it
            self._calendar.setdefault(ready_cycle, []).append(
                (self._ready[buffer.route_port], k, self.node)
            )
        buffer.flits.append(ready_cycle)
        self.buffer_writes += 1

    # -- per-cycle operation ---------------------------------------------

    def switch(self, cycle: int, ready: int, arrivals: list,
               ejected: list[Packet]) -> bool:
        """One cycle: each output port forwards at most one ready flit.

        Round-robin among the ready requesters of each output that pass
        flow control: the winner is the one whose arbitration index
        ``k + 1`` is cyclically nearest at or after the arbiter pointer
        (indices are distinct, so set order does not matter), or the
        lone requester, and the pointer moves just past it.  A head
        takes the first unallocated downstream VC (looked up once per
        output: nothing changes it during the pass) and gives it the
        owner, route and flit count; a body flit follows into the VC its
        head took.  A forwarded flit is stamped ``ready`` (``cycle +
        router_latency + link_latency``), and one entering an empty
        downstream VC is filed in ``arrivals``, the calendar's list for
        ``ready``; the winner's next flit, if any, stays ready or is
        filed under its own stamp.  An ejected tail is appended to
        ``ejected``.

        Returns whether a ready front is left (a flow-control blocked
        one included), i.e. whether the router stays live.
        """
        bufs = self._bufs
        capacity = self.buffer_flits
        arbiter = self._arbiter_state
        # A switch changes no ready set but the one it is visiting.
        for requesters, output in compress(self._outputs, self._selectors):
            out_port, downstream, in_port, dinputs = output
            if len(requesters) == 1:
                # Most outputs: one ready requester, the round-robin
                # loop's flow-control test below without the pointer.
                (best_k,) = requesters
                buffer = bufs[best_k]
                if dinputs is not None:  # ejection is never blocked
                    out_vc = buffer.out_vc
                    if out_vc is None:
                        for free, dbuf in enumerate(dinputs):
                            if dbuf.owner is None:
                                break
                        else:
                            continue
                    elif len(dinputs[out_vc].flits) >= capacity:
                        continue
            else:
                start = arbiter[out_port]
                best = bound = self._arb_bound
                best_k = -1
                free = -1  # first unallocated downstream VC; None: there is none
                for k in requesters:
                    candidate = bufs[k]
                    if dinputs is not None:
                        out_vc = candidate.out_vc
                        if out_vc is None:
                            if free == -1:
                                for free, dbuf in enumerate(dinputs):
                                    if dbuf.owner is None:
                                        break
                                else:
                                    free = None
                            if free is None:
                                continue
                        elif len(dinputs[out_vc].flits) >= capacity:
                            continue
                    distance = k + 1 - start
                    if distance < 0:
                        distance += bound
                    if distance < best:
                        best = distance
                        best_k = k
                        buffer = candidate
                if best_k < 0:
                    continue
            arbiter[out_port] = best_k + 2  # winner's index + 1

            # Switch traversal of the winner's front flit.
            flits = buffer.flits
            flits.popleft()
            if not flits:
                requesters.discard(best_k)
            elif flits[0] > cycle:  # the next flit is not ready yet
                requesters.discard(best_k)
                calendar = self._calendar
                entries = calendar.get(flits[0])
                if entries is None:
                    calendar[flits[0]] = [(requesters, best_k, self.node)]
                else:
                    entries.append((requesters, best_k, self.node))
            self.flits_routed += 1
            left = buffer.left
            if dinputs is None:
                if left == 1:
                    packet = buffer.owner
                    if TRACE.enabled:
                        TRACE.emit(
                            "eject", cat="mesh",
                            cycle=cycle + self.router_latency,
                            node=self.node, packet=packet.uid, src=packet.src,
                        )
                    ejected.append(packet)
            else:
                self.link_flits += 1
                out_vc = buffer.out_vc
                head = out_vc is None
                if head:
                    out_vc = buffer.out_vc = free
                dbuf = dinputs[out_vc]
                dflits = dbuf.flits
                if len(dflits) >= capacity:
                    raise RuntimeError(
                        "credit protocol violated: buffer overflow at "
                        f"node {downstream.node} {in_port.name}.vc{out_vc}"
                    )
                if head:
                    if dbuf.owner is not None:
                        raise RuntimeError(
                            f"VC allocation violated: vc{out_vc} at node "
                            f"{downstream.node} {in_port.name} already owned"
                        )
                    packet = dbuf.owner = buffer.owner
                    dbuf.left = left
                    dst = packet.dst
                    dbuf.route_port = route = (
                        downstream._x_route[dst % self.side]
                        or downstream._y_route[dst // self.side]
                    )
                    if TRACE.enabled:
                        TRACE.emit(
                            "vc_alloc", cat="mesh", cycle=ready,
                            node=downstream.node, packet=packet.uid,
                            port=in_port.name, vc=out_vc, route=route.name,
                        )
                if not dflits:  # a new downstream front: file it
                    arrivals.append((
                        downstream._ready[dbuf.route_port],
                        in_port * self.num_vcs + out_vc, downstream.node,
                    ))
                dflits.append(ready)
                downstream.buffer_writes += 1
            if left == 1:  # the tail left: the VC is free
                buffer.owner = None
                buffer.route_port = None
                buffer.out_vc = None
            buffer.left = left - 1

        return any(self._ready)

    def occupancy(self) -> int:
        """Buffered flits, recounted from the buffers (``audit`` checks
        the write and routed counters against it)."""
        return sum(len(buffer.flits) for buffer in self._bufs)
