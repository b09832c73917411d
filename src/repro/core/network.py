"""The cycle-level FSOI network simulator (paper §4.1–4.3, §5.2).

This is the executable form of the paper's interconnect: a fully
distributed quasi-crossbar with **no arbitration and no packet relay**.
Every node owns a meta lane and a data lane.  At each lane's slot
boundary every node may start transmitting one packet; simultaneous
transmissions that land on the same *receiver* of the same destination
collide — the photodetector sees the OR of the light pulses, the
PID/~PID header flags the corruption, no confirmation comes back, and
the senders retry under exponential back-off.

Timeline of one transmission (slot length ``L``, confirmation delay 2):

====================  =========================================
cycle ``s``           slot starts; serializer begins
cycle ``s + L - 1``   last bits received ("received in cycle n")
cycle ``n + 1``       decode / error check (rx overhead)
cycle ``n + 2``       confirmation arrives back at the sender
====================  =========================================

A phase-array system (64 nodes) charges one extra cycle whenever a
lane's beam must be re-steered to a new destination.

The confirmation lane (one VCSEL a node) never collides: a node sends
at most one packet per lane per slot, so it hears at most one
confirmation per lane per cycle, and the network models the lane as a
fixed delay.  A confirmation nothing hears (no ``on_confirmed`` hook)
is only its arrival cycle on the ``_unheard`` heap, which holds
quiescence and the horizon until it arrives.  The heard arrivals —
§5.1's confirmation-acked invalidations, and §5.1's one-bit signals (a
load-linked value, a store-conditional outcome, a barrier release),
which the directory conveys positionally in one of the lane's 12
mini-cycles a CPU cycle, no packet and no collision — run from the
``_heard`` heap at the same delay (:meth:`FsoiNetwork.send_signal`).

The simulator knows every slot's outcome immediately, so sender-side
collision *detection* is modeled by scheduling the sender's reaction at
the cycle it would have noticed the missing confirmation — no state is
leaked across nodes ahead of time.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush, heapreplace
from operator import itemgetter
from typing import Callable

from repro.core.backoff import BackoffPolicy
from repro.core.lanes import PHASE_SETUP_CYCLES, RX_OVERHEAD, LaneConfig
from repro.core.optimizations import (
    ExpectedReplies,
    OptimizationConfig,
    SlotReservations,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.net.interface import Interconnect
from repro.obs.trace import TRACE
from repro.net.packet import (
    LaneKind,
    Packet,
    candidate_senders,
    collision_detected,
    merged_header,
    merged_one_hot,
    one_hot_senders,
)
from repro.util.events import CycleCalendar
from repro.util.rng import RngHub

__all__ = ["FsoiConfig", "FsoiNetwork", "NEVER", "slot_horizon"]

#: "Nothing pending" readiness value: later than any simulated cycle.
NEVER = 1 << 62

#: Request-spacing prediction of request -> data-reply latency, cycles
#: (§5.2; Figure 5 shows the real distribution is tightly concentrated,
#: so a point estimate captures most of the win).
REPLY_LATENCY_ESTIMATE = 30


def slot_horizon(earliest_ready: int, cycle: int, slot_len: int) -> int | None:
    """First slot boundary at which a pending transmission can start.

    Slotted ALOHA quantizes transmission starts: a packet eligible at
    ``earliest_ready`` (clamped to ``cycle`` — an overdue packet starts
    at the *next* boundary, not a past one) goes out at the first
    multiple of ``slot_len`` at or after that.  ``None`` when nothing is
    pending (``earliest_ready`` at or past :data:`NEVER`).
    """
    if earliest_ready >= NEVER:
        return None
    eligible = earliest_ready if earliest_ready > cycle else cycle
    return ((eligible + slot_len - 1) // slot_len) * slot_len


@dataclass(frozen=True)
class FsoiConfig:
    """Configuration of the FSOI network.

    Parameters
    ----------
    num_nodes:
        N.  16 (dedicated lasers) and 64 (phase array) in the paper.
    lanes:
        Lane widths / slotting / receiver counts (Table 3 defaults).
    backoff:
        Retransmission policy (W=2.7, B=1.1 defaults).
    optimizations:
        §5 optimization switches.
    phase_array:
        Optical phase-array beam steering (§4.1, Figure 1b): a lane's
        VCSELs form one steerable beam instead of a dedicated array per
        destination, so a node's laser count stays constant in N.  A
        send to a new destination re-programs the phase controller for
        :data:`~repro.core.lanes.PHASE_SETUP_CYCLES` (Table 3: one
        cycle); consecutive sends to one destination pay nothing.
    packet_error_rate:
        Probability a *solo* packet is corrupted anyway (signaling
        errors; the collision mechanism absorbs them, §4.3.1).
    seed:
        Root seed for the network's private RNG streams.
    """

    num_nodes: int = 16
    lanes: LaneConfig = field(default_factory=LaneConfig)
    backoff: BackoffPolicy = field(default_factory=BackoffPolicy)
    optimizations: OptimizationConfig = field(default_factory=OptimizationConfig.none)
    phase_array: bool = False
    packet_error_rate: float = 0.0
    #: Paper footnote 7: for small-scale networks, a bit-vector (one-hot)
    #: PID encoding lets the receiver identify colliders definitively,
    #: making the §5.2 resolution hint always correct.
    one_hot_pid: bool = False
    #: §4.3.2 ablation: with ``slotted=False`` transmissions may start on
    #: any cycle and collide on *overlap* (pure ALOHA); the paper's
    #: design constrains starts to slot boundaries (slotted ALOHA, ref
    #: [40]), roughly halving the vulnerable window.  The ablation
    #: models neither ``packet_error_rate`` nor §5.2 resolution hints
    #: (construction refuses both), and it records no resolution
    #: delays, so ``mean_resolution_delay`` reads 0.0 even after
    #: collisions.
    slotted: bool = True
    #: Optional fault schedule (repro.faults).  ``None`` or an empty
    #: plan is guaranteed passive: no injector is built, no fault
    #: counters exist, and no extra randomness is drawn.
    faults: FaultPlan | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.packet_error_rate <= 1.0:
            raise ValueError(
                "packet_error_rate is a probability in [0, 1], got "
                f"{self.packet_error_rate!r}"
            )

    @property
    def id_bits(self) -> int:
        """Bits of PID in the header (and of ~PID)."""
        return max(1, math.ceil(math.log2(self.num_nodes)))


class _LaneState:
    """Per-(node, lane) transmit state.

    ``retx`` holds the packets waiting out a back-off window as a heap
    of ``(release, seq, packet)``: earliest release on top, ``seq``
    (unique per state) breaking ties in back-off order, so the top is
    the next retransmission and two entries never compare packets.
    On a phase-array network ``target`` is the destination the lane's
    beam is steered at (-1 before the first send) and ``retargets``
    counts the transmissions that had to re-steer it.
    """

    __slots__ = ("node", "queue", "retx", "retx_seq", "target", "retargets")

    def __init__(self, node: int):
        self.node = node
        self.queue: deque[Packet] = deque()
        self.retx: list[tuple[int, int, Packet]] = []
        self.retx_seq = 0
        self.target = -1
        self.retargets = 0


class FsoiNetwork(Interconnect):
    """Cycle-accurate model of the free-space optical interconnect.

    Per lane, the set of nodes whose queue or back-off heap holds a
    packet (``_pending``) is the network's one summary of pending work.
    A slot boundary visits those nodes in ascending node order — the
    order every RNG draw and trace event follows; a node with nothing
    due yet picks nothing and changes nothing — a retransmission is the
    top of its node's back-off heap, and the colliders of one event
    share one calendar entry.  The fast-forward horizon is the earliest
    head among the pending nodes rounded up to a boundary, and the
    network is quiescent when both pending sets, the outcome calendar
    and both confirmation heaps are empty.
    A fault plan adds no node to a boundary and nothing to the horizon:
    the sender's sparing probe (``FaultInjector.lane_suppressed``)
    answers at any later boundary as a probe at every boundary would
    have, so it is asked only where a node has something due.
    """

    def __init__(self, config: FsoiConfig, rng: RngHub | None = None):
        super().__init__(config.num_nodes)
        self.config = config
        self.lanes = config.lanes
        rng = rng if rng is not None else RngHub(config.seed)
        self._backoff_rng = rng.stream("fsoi.backoff")
        self._error_rng = rng.stream("fsoi.errors")
        self._hint_rng = rng.stream("fsoi.hints")

        if not config.slotted and (
            config.packet_error_rate or config.optimizations.resolution_hints
        ):
            raise ValueError(
                "the pure-ALOHA ablation (slotted=False) models neither "
                "packet_error_rate nor resolution_hints"
            )
        plan = config.faults
        if plan is not None and not plan.is_empty():
            if not config.slotted:
                raise ValueError(
                    "fault injection requires the slotted network "
                    "(the pure-ALOHA ablation has no fault hooks)"
                )
            self._injector = FaultInjector(
                plan,
                config.num_nodes,
                {
                    lane: config.lanes.receivers(lane)
                    for lane in (LaneKind.META, LaneKind.DATA)
                },
                rng.child("faults"),
            )
        else:
            self._injector = None

        self._state: dict[LaneKind, list[_LaneState]] = {
            lane: [_LaneState(node) for node in range(config.num_nodes)]
            for lane in (LaneKind.META, LaneKind.DATA)
        }
        self._calendar = CycleCalendar()
        self._now = -1  # last ticked cycle; _schedule must stay ahead of it
        # Cached heap reference for the per-cycle due guard (the
        # underlying list is mutated in place, never rebound).
        self._due = self._calendar._heap
        # The confirmation lane (see the module docstring): the arrivals
        # something hears as a (cycle, seq, action) heap, ``seq`` keeping
        # filing order within a cycle, and the arrival cycles of the
        # confirmations nothing hears.
        self._heard: list[tuple[int, int, Callable[[], None]]] = []
        self._heard_seq = 0
        self._unheard: list[int] = []
        self.confirmations_sent = 0
        self.signals_sent = 0
        #: Confirmations lost to injected faults (repro.faults); such a
        #: confirmation is never filed, so the sender times out.
        self.confirmations_dropped = 0
        # Per lane, the nodes whose queue or back-off heap holds a
        # packet: which nodes a slot boundary visits, whose heads the
        # fast-forward horizon reads, and quiescence.
        self._pending: dict[LaneKind, set[int]] = {
            lane: set() for lane in (LaneKind.META, LaneKind.DATA)
        }
        # §5.2 receiver tables, built only for the optimization that
        # reads them: request spacing's reply-slot reservations, and the
        # replies each node awaits (the resolution hint's candidates).
        opts = config.optimizations
        nodes = range(config.num_nodes)
        self._reservations = (
            [SlotReservations() for _ in nodes] if opts.request_spacing else []
        )
        self._expected = (
            [ExpectedReplies() for _ in nodes] if opts.resolution_hints else []
        )
        # Unslotted mode: per-(node, lane) transmitter busy horizon and
        # per-(dst, lane, receiver) in-flight transmissions
        # [(end_cycle, packet), ...] for overlap-collision detection.
        self._tx_busy_until: dict[tuple[int, LaneKind], int] = {}
        self._inflight: dict[tuple[int, LaneKind, int], list] = {}

        stats = self.stats.group
        self._lane_stats = {}
        for lane in (LaneKind.META, LaneKind.DATA):
            group = stats.group(lane.value)
            self._lane_stats[lane] = {
                "tx": group.counter("transmissions"),
                "collided_tx": group.counter("collided_transmissions"),
                "collision_events": group.counter("collision_events"),
                "error_tx": group.counter("error_corrupted"),
                "slots": group.counter("slots_elapsed"),
                "delivered": group.counter("delivered"),
            }
        # The per-lane constants of the tick, horizon and slot hot paths,
        # one row a lane: (lane, slot length, packet bits, receivers per
        # node, slots_elapsed counter, pending set).  A tuple, so a tick
        # walks it without a dict view.
        self._slot_table = tuple(
            (lane, self.lanes.slot_cycles(lane), lane.bits,
             self.lanes.receivers(lane), counters["slots"], self._pending[lane])
            for lane, counters in self._lane_stats.items()
        )
        data_group = stats.group(LaneKind.DATA.value)
        self._data_collision_types = {
            kind: data_group.counter(f"collisions_{kind}")
            for kind in ("memory", "writeback", "retransmission", "reply", "other")
        }
        self._hint_stats = {
            "issued": stats.counter("hints_issued"),
            "correct": stats.counter("hints_correct"),
            "wrong_winner": stats.counter("hints_wrong_winner"),
            "ignored": stats.counter("hints_ignored"),
        }
        self._spacing_delays = stats.latency("spacing_delay_inserted")
        # Hot-path hoists: one attribute load instead of a config-object
        # chain per offered packet, transmission and back-off.
        self._request_spacing = config.optimizations.request_spacing
        self._hints = config.optimizations.resolution_hints
        self._queue_capacity = self.lanes.queue_capacity
        self._slotted = config.slotted
        self._conf_delay = config.lanes.confirmation_delay
        self._error_rate = config.packet_error_rate
        self._phase_array = config.phase_array
        # Back-off span by retry count up to 64 (index 0, no retry, is an
        # empty range the draw refuses); a deeper retry computes it.
        self._spans = [0] + [config.backoff.span(retry) for retry in range(1, 65)]
        self._delivered = {
            lane: counters["delivered"] for lane, counters in self._lane_stats.items()
        }
        # Resolution delay measured only over packets that collided —
        # the quantity Figure 4's numerical model predicts.
        self._resolution_collided = {
            lane: stats.group(lane.value).latency("resolution_among_collided")
            for lane in (LaneKind.META, LaneKind.DATA)
        }
        # Fault counters exist only when injection is active, keeping the
        # fault-free stat tree (and its golden snapshots) byte-identical.
        self._fault_stats = None
        self._fault_lane_stats = None
        if self._injector is not None:
            fault_group = stats.group("fault")
            self._fault_lane_stats = {}
            for lane in (LaneKind.META, LaneKind.DATA):
                group = fault_group.group(lane.value)
                self._fault_lane_stats[lane] = {
                    "fault_lost": group.counter("fault_lost_tx"),
                    "injected_corrupt": group.counter("injected_corrupt_tx"),
                    "duplicate_rx": group.counter("duplicate_rx"),
                    "suppressed": group.counter("suppressed_attempts"),
                }
            self._fault_stats = {
                "confirm_dropped": fault_group.counter("confirmations_dropped"),
                "gave_up_lost": fault_group.counter("gave_up_lost"),
                "gave_up_delivered": fault_group.counter("gave_up_delivered"),
                "receiver_remaps": fault_group.counter("receiver_remaps"),
                "lane_down_events": fault_group.counter("lane_down_detected"),
            }

    # ------------------------------------------------------------------
    # Interconnect interface
    # ------------------------------------------------------------------

    def try_send(self, packet: Packet, cycle: int) -> bool:
        src = packet.src
        dst = packet.dst
        if (
            src < 0 or src >= self.num_nodes or dst < 0 or dst >= self.num_nodes
            or src == dst
        ):
            self._check_packet(packet)  # raises; the test above inlines it
        lane = packet.lane
        queue = self._state[lane][src].queue
        if len(queue) >= self._queue_capacity:
            self.stats.refused.add()
            return False
        packet.enqueue_cycle = cycle
        expects = packet.expects_data_reply
        if self._request_spacing and expects and lane is LaneKind.META:
            spacing = self._reserve_reply_slot(src, cycle)
            self._spacing_delays.record(spacing)
            packet.scheduled_cycle = cycle + spacing
        else:
            packet.scheduled_cycle = cycle
        if expects and self._hints:
            # The requester will await a data packet from the destination
            # (or whoever it forwards to); used by the resolution hint.
            self._expected[src].expect(dst)
        queue.append(packet)
        self._pending[lane].add(src)
        self.stats.sent.value += 1  # == .add(), minus the call frame
        return True

    def tick(self, cycle: int) -> None:
        traced = TRACE.enabled
        if traced:
            TRACE.cycle = cycle
        self._now = cycle
        unheard = self._unheard
        while unheard and unheard[0] <= cycle:
            heappop(unheard)  # a confirmation nothing hears arrives
        heard = self._heard
        while heard and heard[0][0] <= cycle:
            heappop(heard)[2]()  # an on_confirmed hook or a one-bit signal
        due = self._due
        if due and due[0][0] <= cycle:  # == self._calendar.run_due(cycle)
            by_lane = self._delivered
            delivered = self.stats.delivered
            joint = self.stats.joint
            traffic = self._traffic
            callbacks = self._callbacks
            n = self.num_nodes
            while due and due[0][0] <= cycle:
                entry = heappop(due)[2]
                if entry.__class__ is not Packet:
                    entry()  # a back-off
                    continue
                # A delivery: the lane tally and trace event, then the
                # tail every transport shares (== Interconnect._deliver,
                # record_delivery included, written out).
                if entry._corrupted:
                    continue  # pure ALOHA: an overlap corrupted it in flight
                by_lane[entry.lane].value += 1
                if traced:
                    TRACE.emit(
                        "deliver", cat="fsoi", cycle=cycle, node=entry.dst,
                        lane=entry.lane.value, packet=entry.uid, src=entry.src,
                    )
                entry.deliver_cycle = cycle
                delivered.value += 1
                scheduled = entry.scheduled_cycle
                first = entry.first_tx_cycle
                final = entry.final_tx_cycle
                key = (
                    first - scheduled, scheduled - entry.enqueue_cycle,
                    final - first, cycle - final,
                )
                joint[key] = joint.get(key, 0) + 1
                dst = entry.dst
                traffic[entry.src * n + dst] += 1
                callback = callbacks[dst]
                if callback is not None:
                    callback(entry)
        if not self._slotted:
            for row in self._slot_table:
                self._start_unslotted(row[0], cycle)
            return
        for row in self._slot_table:
            if cycle % row[1] == 0:
                # A slot boundary counts whether or not the lane (row[5],
                # its pending set) has a sender to visit.
                row[4].value += 1
                if row[5]:
                    self._start_slot(row, cycle)

    def quiescent(self) -> bool:
        meta, data = self._pending.values()
        return not (
            self._due or self._heard or self._unheard or meta or data
        )

    def send_signal(self, now: int, action: Callable[[], None]) -> int:
        """Send a §5.1 one-bit signal over the confirmation lane:
        ``action`` runs at the returned cycle, ``now`` plus the
        confirmation delay."""
        arrival = now + self._conf_delay
        self._hear(arrival, action)
        self.signals_sent += 1
        if TRACE.enabled:
            TRACE.emit(
                "signal_scheduled", cat="confirmation",
                cycle=now, arrival=arrival,
            )
        return arrival

    def _hear(self, arrival: int, action: Callable[[], None]) -> None:
        """File ``action`` to run at its confirmation-lane ``arrival``,
        after the arrivals filed earlier for that cycle."""
        self._heard_seq = seq = self._heard_seq + 1
        heappush(self._heard, (arrival, seq, action))

    # -- fast-forward horizon (see docs/performance.md) -----------------

    def next_event(self, cycle: int) -> int | None:
        """Earliest future cycle at which the network can change state.

        The horizon is the min over: the outcome calendar, the heard and
        the unheard confirmation arrivals, and — per lane with pending
        transmissions — the first slot boundary at or after the earliest
        packet becomes eligible (:func:`slot_horizon` of the earliest
        retransmission release or queue-head scheduled cycle among the
        lane's pending nodes).
        The pure-ALOHA ablation (``slotted=False``) starts
        transmissions on any cycle, so it pins the horizon to "now"
        (fast-forward inhibited).  A lane its sender has marked down
        under a fault plan adds nothing (see the class docstring).
        """
        if not self._slotted:
            return cycle
        horizon = min(
            self._due[0][0] if self._due else NEVER,
            self._heard[0][0] if self._heard else NEVER,
            self._unheard[0] if self._unheard else NEVER,
        )
        for lane, slot_len, _bits, _receivers, _slots, pending in self._slot_table:
            if not pending:
                continue
            # Only the two heads count: the heap top is the earliest
            # release, and a queue transmits in FIFO order.
            earliest = NEVER
            for state in map(self._state[lane].__getitem__, pending):
                retx = state.retx
                if retx and retx[0][0] < earliest:
                    earliest = retx[0][0]
                queue = state.queue
                if queue and queue[0].scheduled_cycle < earliest:
                    earliest = queue[0].scheduled_cycle
            boundary = slot_horizon(earliest, cycle, slot_len)
            if boundary < horizon:
                horizon = boundary
        if horizon >= NEVER:
            return None
        return horizon if horizon > cycle else cycle

    def skip(self, start: int, end: int) -> None:
        """Account the slot boundaries a fast-forward over ``[start, end)``
        jumped past (the naive loop's ``_start_slot`` calls would have
        found nothing to do, but they do count elapsed slots — the
        denominator of Figure 3's transmission/collision probabilities).
        """
        for lane in (LaneKind.META, LaneKind.DATA):
            boundaries = self.lanes.slots_in_range(start, end, lane)
            if boundaries:
                self._lane_stats[lane]["slots"].add(boundaries)

    # ------------------------------------------------------------------
    # Slot processing
    # ------------------------------------------------------------------

    def _start_slot(self, row: tuple, cycle: int) -> None:
        """A slot boundary on a lane with pending senders: gather one
        transmission a node, group them by receiver, and file each
        group's outcome.

        A transmission alone on its receiver is delivered and confirmed
        unless a signaling error or an injected fault corrupts it: the
        delivery is the packet itself on the outcome calendar (``tick``
        runs its tail), the confirmation a bare arrival cycle on
        ``_unheard`` when nothing hears it (``on_confirmed`` is
        ``None``), else an entry on ``_heard``.  A fault plan adds only
        its corruption draw, duplicate skip, confirmation drop and
        fire-once hook.
        """
        lane, slot_len, bits, receivers, _slots, pending = row
        inj = self._injector
        transmissions = 0
        states = self._state[lane]
        phase_array = self._phase_array
        traced = TRACE.enabled

        # Gather this slot's transmissions: one per node, retransmissions
        # take priority over fresh queue heads (they are older traffic).
        sends: list[tuple[Packet, int]] = []
        for node in sorted(pending):
            # == _pick_transmission, written out for the hot path; a node
            # with nothing due yet takes the `continue` before any effect.
            state = states[node]
            retx = state.retx
            queue = state.queue
            if retx and retx[0][0] <= cycle:  # earliest (release, seq) first
                packet = heappop(retx)[2]
            elif queue and queue[0].scheduled_cycle <= cycle:
                packet = queue.popleft()
            else:
                continue
            if not (retx or queue):
                pending.discard(node)
            if inj is not None and inj.lane_suppressed(node, lane, cycle):
                # Lane sparing: the sender has detected its dead lane and
                # stops lighting it — queued traffic fast-fails straight
                # into back-off (escalating towards give-up) without
                # occupying the medium or counting as a transmission.
                self._fault_lane_stats[lane]["suppressed"].add()
                packet.retries += 1
                if traced:
                    TRACE.emit(
                        "fault_suppressed", cat="fault", cycle=cycle,
                        node=node, lane=lane.value, packet=packet.uid,
                        retries=packet.retries,
                    )
                self._back_off(lane, slot_len, (packet,), cycle)
                continue
            if packet.first_tx_cycle < 0:
                packet.first_tx_cycle = cycle
            setup = 0
            if phase_array and packet.dst != state.target:
                # Re-steer the lane's beam (§4.1): one setup cycle.
                state.target = packet.dst
                state.retargets += 1
                setup = PHASE_SETUP_CYCLES
            transmissions += 1
            if traced:
                TRACE.emit(
                    "tx", cat="fsoi", cycle=cycle, node=packet.src,
                    lane=lane.value, packet=packet.uid, dur=slot_len,
                    dst=packet.dst, retries=packet.retries,
                )
            if inj is not None:
                if inj.tx_lane_dead(node, lane, cycle):
                    # Dark transmission: the VCSEL array emits nothing, so
                    # no receiver sees the packet and no confirmation comes
                    # back; the sender reacts exactly as to a collision.
                    if inj.note_dark_send(node, lane, cycle, slot_len):
                        self._fault_stats["lane_down_events"].add()
                        if traced:
                            TRACE.emit(
                                "fault_lane_down", cat="fault", cycle=cycle,
                                node=node, lane=lane.value,
                            )
                    self._fault_lost(lane, cycle, slot_len, packet, setup)
                    continue
                inj.note_successful_send(node, lane)
            sends.append((packet, setup))

        self._lane_stats[lane]["tx"].value += transmissions
        self.stats.bits_sent.value += transmissions * bits
        if not sends:
            return
        if len(sends) == 1 and inj is None:
            # A lone transmission cannot collide whichever receiver it
            # lands on (the fault-free partition is pure): its one group.
            groups = sends
        else:
            # Group by (destination, receiver) — the static sender
            # partition, remapped around dead receivers when faults are
            # active — keyed dst * R + receiver: a lone (packet, setup),
            # or the list of colliders.
            by_receiver: dict[int, tuple | list] = {}
            for send in sends:
                packet = send[0]
                src, dst = packet.src, packet.dst
                health = inj.receiver_health(dst, lane, cycle) if inj is not None else None
                if health is None:
                    # == lanes.receiver_for: the sender's rank among dst's
                    # N - 1 senders, modulo R (try_send refused src == dst).
                    receiver = (src if src < dst else src - 1) % receivers
                else:
                    receiver = self.lanes.receiver_for(
                        lane, src, dst, self.num_nodes, healthy=health
                    )
                    if receiver < 0:
                        # Every receiver at the destination is dark.
                        self._fault_lost(lane, cycle, slot_len, packet, send[1])
                        continue
                    if receiver != self.lanes.receiver_for(lane, src, dst, self.num_nodes):
                        self._fault_stats["receiver_remaps"].add()
                        if traced:
                            TRACE.emit(
                                "fault_receiver_remap", cat="fault", cycle=cycle,
                                node=dst, lane=lane.value,
                                packet=packet.uid, receiver=receiver,
                            )
                key = dst * receivers + receiver
                group = by_receiver.get(key)
                if group is None:
                    by_receiver[key] = send
                elif group.__class__ is tuple:
                    by_receiver[key] = [group, send]
                else:
                    group.append(send)
            groups = by_receiver.values()

        error_rate = self._error_rate
        conf_delay = self._conf_delay
        calendar = self._calendar
        due = self._due
        unheard = self._unheard
        hints = self._hints and lane is LaneKind.DATA
        for group in groups:
            if group.__class__ is list:
                self._handle_collision(lane, cycle, slot_len, group[0][0].dst, group)
                continue
            packet, setup = group
            receive_cycle = cycle + slot_len - 1 + setup
            if error_rate and self._error_rng.random() < error_rate:
                # A signaling error corrupts the packet; the sender sees a
                # missing confirmation, exactly like a collision (§4.3.1).
                self._lane_stats[lane]["error_tx"].add()
                if traced:
                    TRACE.emit(
                        "error_corrupt", cat="fsoi", cycle=cycle,
                        node=packet.dst, lane=lane.value, packet=packet.uid,
                    )
                self._time_out(lane, slot_len, packet, receive_cycle)
                continue
            hook = packet.on_confirmed
            duplicate = False
            if inj is not None:
                probability = inj.corruption_probability(
                    packet.src, lane, cycle, packet.bits
                )
                if inj.draw_corruption(probability):
                    # Droop / burst corruption fails the PID integrity check
                    # at the receiver — indistinguishable from a collision.
                    self._fault_lane_stats[lane]["injected_corrupt"].add()
                    if traced:
                        TRACE.emit(
                            "fault_corrupt", cat="fault", cycle=cycle,
                            node=packet.dst, lane=lane.value, packet=packet.uid,
                            probability=probability,
                        )
                    self._time_out(lane, slot_len, packet, receive_cycle)
                    continue
                # Under confirmation drops a sender may retransmit a packet
                # the destination already delivered; such duplicate
                # receptions are recognized (sequence numbers in the
                # header), not re-delivered.
                duplicate = packet._fault_delivered
                if duplicate:
                    self._fault_lane_stats[lane]["duplicate_rx"].add()
                    if traced:
                        TRACE.emit(
                            "fault_duplicate_rx", cat="fault", cycle=cycle,
                            node=packet.dst, lane=lane.value, packet=packet.uid,
                        )
                packet._fault_delivered = True
            if not duplicate:
                packet.final_tx_cycle = cycle
                if packet.retries > 0:
                    self._resolution_collided[lane].record(cycle - packet.first_tx_cycle)
                # == self._schedule(deliver_cycle, packet): a reception ends
                # in this slot or later, so the delivery is never in the past.
                calendar._seq = seq = calendar._seq + 1
                heappush(due, (receive_cycle + RX_OVERHEAD, seq, packet))
                if hints:
                    self._expected[packet.dst].fulfil(packet.src)
            arrival = receive_cycle + conf_delay
            if inj is not None:
                if inj.drop_confirmation(packet.src, arrival):
                    # The packet got through, but the confirmation pulse is
                    # lost: the sender walks the time-out path.
                    self.confirmations_dropped += 1
                    if traced:
                        TRACE.emit("confirm_dropped", cat="fault", cycle=receive_cycle)
                    self._fault_stats["confirm_dropped"].add()
                    self._time_out(lane, slot_len, packet, receive_cycle)
                    continue
                if hook is not None:
                    # The hook fires exactly once even if drops forced
                    # duplicate confirmed receptions.
                    def hook(p: Packet = packet) -> None:
                        if not p._fault_confirm_fired:
                            p._fault_confirm_fired = True
                            p.on_confirmed()
            # The confirmation arrives back at the sender two cycles after
            # reception; §5.1 consumers hook it via packet.on_confirmed.
            self.confirmations_sent += 1
            if hook is None:
                heappush(unheard, arrival)
            else:
                self._hear(arrival, hook)
            if traced:
                TRACE.emit(
                    "confirm_scheduled", cat="confirmation",
                    cycle=receive_cycle, arrival=arrival,
                )
                TRACE.emit(
                    "confirmation", cat="fsoi", cycle=arrival,
                    node=packet.src, lane=lane.value, packet=packet.uid,
                )

    def _start_unslotted(self, lane: LaneKind, cycle: int) -> None:
        """§4.3.2 ablation: pure-ALOHA transmission (no slot alignment).

        A node starts transmitting the moment its serializer is free;
        two transmissions collide when they *overlap in time* at the
        same receiver — the vulnerable window is twice a packet length,
        which is exactly what slotting halves (paper ref [40]).
        """
        lane_stats = self._lane_stats[lane]
        slot_len = self.lanes.slot_cycles(lane)
        if cycle % slot_len == 0:
            lane_stats["slots"].add()  # keep load normalization comparable
        conf_delay = self._conf_delay

        for node in range(self.num_nodes):
            if self._tx_busy_until.get((node, lane), 0) > cycle:
                continue
            state = self._state[lane][node]
            packet = self._pick_transmission(lane, state, cycle)
            if packet is None:
                continue
            if packet.first_tx_cycle < 0:
                packet.first_tx_cycle = cycle
            setup = 0
            if self._phase_array and packet.dst != state.target:
                state.target = packet.dst
                state.retargets += 1
                setup = PHASE_SETUP_CYCLES
            self._tx_busy_until[(node, lane)] = cycle + slot_len
            lane_stats["tx"].add()
            self.stats.bits_sent.add(packet.bits)
            if TRACE.enabled:
                TRACE.emit(
                    "tx", cat="fsoi", cycle=cycle, node=packet.src,
                    lane=lane.value, packet=packet.uid, dur=slot_len,
                    dst=packet.dst, retries=packet.retries,
                )

            key = (
                packet.dst,
                lane,
                self.lanes.receiver_for(lane, packet.src, packet.dst, self.num_nodes),
            )
            active = [
                entry for entry in self._inflight.get(key, []) if entry[0] > cycle
            ]
            end = cycle + slot_len
            if not active:
                self._inflight[key] = [(end, packet)]
                self._succeed_unslotted(lane, cycle, slot_len, packet, setup)
                continue

            # Overlap collision: corrupt everything still in the air.
            lane_stats["collision_events"].add()
            if TRACE.enabled:
                TRACE.emit(
                    "collision", cat="fsoi", cycle=cycle, node=packet.dst,
                    lane=lane.value,
                    senders=sorted({packet.src, *(p.src for _e, p in active)}),
                )
            if lane is LaneKind.DATA:
                self._data_collision_types[
                    self._classify([packet] + [p for _e, p in active])
                ].add()
            for _end, other in active:
                if other._corrupted:
                    continue
                other._corrupted = True
                other.retries += 1
                lane_stats["collided_tx"].add()
                detect = max(cycle + 1, _end - 1 + conf_delay + 1)
                self._schedule(
                    detect, partial(self._back_off, lane, slot_len, (other,), detect)
                )
            packet._corrupted = True
            packet.retries += 1
            lane_stats["collided_tx"].add()
            detect = cycle + slot_len - 1 + conf_delay + 1
            self._schedule(
                detect, partial(self._back_off, lane, slot_len, (packet,), detect)
            )
            active.append((end, packet))
            self._inflight[key] = active

    def _succeed_unslotted(
        self, lane: LaneKind, cycle: int, slot_len: int, packet: Packet, setup: int
    ) -> None:
        """Provisional success: the delivery (the packet on the outcome
        calendar) and the confirmation fire unless a later-starting
        transmission overlaps and corrupts this one mid-flight."""
        packet._corrupted = False
        packet.final_tx_cycle = cycle
        receive_cycle = cycle + slot_len - 1 + setup
        self._schedule(receive_cycle + RX_OVERHEAD, packet)
        hook = packet.on_confirmed
        arrival = receive_cycle + self._conf_delay

        def confirm() -> None:
            if packet._corrupted:
                return  # an overlap corrupted it after the filing
            self.confirmations_sent += 1
            if TRACE.enabled:
                TRACE.emit(
                    "confirm_scheduled", cat="confirmation",
                    cycle=receive_cycle, arrival=arrival,
                )
                TRACE.emit(
                    "confirmation", cat="fsoi", cycle=arrival,
                    node=packet.src, lane=lane.value, packet=packet.uid,
                )
            if hook is not None:
                hook()

        self._hear(arrival, confirm)

    def _pick_transmission(
        self, lane: LaneKind, state: _LaneState, cycle: int
    ) -> Packet | None:
        """Pop ``state``'s due transmission, if any, and drop its node
        from the lane's pending set once both heads are empty (the
        unslotted ablation; a slot boundary's gather writes the same
        steps out).  Retransmissions go first (they are older traffic).
        """
        retx = state.retx
        queue = state.queue
        if retx and retx[0][0] <= cycle:  # earliest (release, seq) first
            packet = heappop(retx)[2]
        elif queue and queue[0].scheduled_cycle <= cycle:
            packet = queue.popleft()
        else:
            return None
        if not (retx or queue):
            self._pending[lane].discard(state.node)
        return packet

    def _hold(self, lane: LaneKind, packet: Packet, release: int) -> None:
        """File ``packet`` for retransmission no earlier than ``release``."""
        src = packet.src
        state = self._state[lane][src]
        state.retx_seq += 1
        heappush(state.retx, (release, state.retx_seq, packet))
        self._pending[lane].add(src)

    def audit(self) -> None:
        """Two self-checks per lane and one of the confirmation lane,
        each raising an ``AssertionError`` that names what broke (raised,
        not asserted, so ``python -O`` keeps them):

        * the lane's pending set — which slot boundaries, the horizon and
          ``quiescent()`` read — is exactly the nodes whose queue or
          back-off heap holds a packet, and every back-off heap is one
          (so its top is the ``(release, seq)`` minimum);
        * no silent loss (§4.3.1): a transmission ends delivered,
          collided or signal-error corrupted — under a fault plan also
          fault-lost, injected-corrupt or a duplicate reception — so the
          fates never outnumber the transmissions, and equal them once
          the network is quiescent;
        * the heard and the unheard arrival cycles, which ``quiescent()``
          and the horizon read, are heaps, and none is at or before the
          last ticked cycle (that tick pops it).
        """
        super().audit()
        for kind, arrivals in (
            ("heard", [entry[0] for entry in self._heard]),
            ("unheard", self._unheard),
        ):
            if any(
                arrivals[(child - 1) >> 1] > arrivals[child]
                for child in range(1, len(arrivals))
            ):
                raise AssertionError(f"the {kind} confirmation arrivals are not a heap")
            if arrivals and arrivals[0] <= self._now:
                raise AssertionError(
                    f"the {kind} confirmation arrival at cycle {arrivals[0]} is "
                    f"still pending after tick {self._now}"
                )
        quiescent = self.quiescent()
        for lane, states in self._state.items():
            name = lane.value
            for node, state in enumerate(states):
                keys = [entry[:2] for entry in state.retx]
                if any(
                    keys[(child - 1) >> 1] > keys[child]
                    for child in range(1, len(keys))
                ):
                    raise AssertionError(
                        f"{name} lane: node {node}'s back-off list is not a heap"
                    )
            pending = self._pending[lane]
            holding = {
                node for node, state in enumerate(states) if state.queue or state.retx
            }
            if pending != holding:
                raise AssertionError(
                    f"{name} lane index lists {len(pending)} pending "
                    f"senders but {len(holding)} hold packets"
                )
            counts = self._lane_stats[lane]
            tx = counts["tx"].value
            fates = (
                counts["delivered"].value
                + counts["collided_tx"].value
                + counts["error_tx"].value
            )
            if self._injector is not None:
                faults = self._fault_lane_stats[lane]
                fates += (
                    faults["fault_lost"].value
                    + faults["injected_corrupt"].value
                    + faults["duplicate_rx"].value
                )
            if fates > tx or (quiescent and fates != tx):
                raise AssertionError(
                    f"{name} transmission ledger broken: {tx} transmissions "
                    f"vs {fates} fates{' (quiescent)' if quiescent else ''}"
                )

    # ------------------------------------------------------------------
    # Outcomes
    # ------------------------------------------------------------------

    def _fault_lost(
        self, lane: LaneKind, cycle: int, slot_len: int, packet: Packet, setup: int
    ) -> None:
        """An injected fault swallowed the transmission outright.

        The light never reached a working receiver (dead transmit array
        or all destination receivers dark), so the sender times out and
        backs off exactly as for a collision.
        """
        self._fault_lane_stats[lane]["fault_lost"].add()
        self._time_out(lane, slot_len, packet, cycle + slot_len - 1 + setup)
        if TRACE.enabled:
            TRACE.emit(
                "fault_lost_tx", cat="fault", cycle=cycle, node=packet.src,
                lane=lane.value, packet=packet.uid, dst=packet.dst,
                retries=packet.retries,
            )

    def _time_out(
        self, lane: LaneKind, slot_len: int, packet: Packet, receive_cycle: int
    ) -> None:
        """No confirmation comes back for a transmission that ended at
        ``receive_cycle``: the sender notices the cycle after it was due
        and backs off, exactly as after a collision (§4.3.1)."""
        packet.retries += 1
        detect = receive_cycle + self._conf_delay + 1
        self._schedule(detect, partial(self._back_off, lane, slot_len, (packet,), detect))

    def _handle_collision(
        self,
        lane: LaneKind,
        cycle: int,
        slot_len: int,
        dst: int,
        members: list[tuple[Packet, int]],
    ) -> None:
        lane_stats = self._lane_stats[lane]
        lane_stats["collision_events"].value += 1
        lane_stats["collided_tx"].value += len(members)
        packets = list(map(itemgetter(0), members))  # no comprehension frame
        if TRACE.enabled:
            TRACE.emit(
                "collision", cat="fsoi", cycle=cycle, node=dst,
                lane=lane.value, senders=sorted(p.src for p in packets),
            )
        if lane is LaneKind.DATA:
            self._data_collision_types[self._classify(packets)].value += 1

        winner: Packet | None = None
        if lane is LaneKind.DATA and self._hints:
            winner = self._issue_hint(cycle, slot_len, dst, packets)
            # Losers learn from the *absence* of the no-collision
            # notification right after the header and skip the next
            # slot (§5.2): back-off counted from the slot after next.
            detect = cycle + 1 + self._conf_delay
            base = cycle + 2 * slot_len
        else:
            # Last bits at cycle + slot_len - 1; no confirmation after it.
            detect = base = cycle + slot_len + self._conf_delay
        for packet in packets:
            packet.retries += 1
        # The colliders all notice in the same cycle: one calendar entry
        # backs them off in transmission order (the hint winner is
        # already re-queued by _issue_hint).  == self._schedule(detect,
        # ...): detection follows the slot, so it is never in the past.
        losers = packets if winner is None else [p for p in packets if p is not winner]
        back_off = partial(self._back_off, lane, slot_len, losers, base)
        calendar = self._calendar
        calendar._seq = seq = calendar._seq + 1
        heappush(self._due, (detect, seq, back_off))

    def _classify(self, packets: list[Packet]) -> str:
        """Figure 10's data-collision taxonomy (priority order), one pass."""
        writeback = retransmission = False
        replies = True
        for p in packets:
            if p.is_memory:
                return "memory"
            writeback = writeback or p.is_writeback
            retransmission = retransmission or p.retries > 0
            replies = replies and p.is_reply_to_request
        if writeback:
            return "writeback"
        if retransmission:
            return "retransmission"
        return "reply" if replies else "other"

    def _back_off(
        self, lane: LaneKind, slot_len: int, packets, base_cycle: int
    ) -> None:
        """Queue each of ``packets`` — one collision's losers, or a lone
        timed-out or suppressed sender — for retransmission after a
        random back-off, drawn in order.

        Each filing is ``_hold`` written out: a push on the sender's
        back-off heap, and the sender joins the lane's pending set.
        """
        inj = self._injector
        giveup = inj.plan.giveup_retries if inj is not None else None
        base = base_cycle  # pure ALOHA: any cycle may start a retry
        if self._slotted:  # == lanes.next_slot_start(base_cycle, lane)
            base = ((base_cycle + slot_len - 1) // slot_len) * slot_len
        spans = self._spans
        integers = self._backoff_rng.integers
        states = self._state[lane]
        pending = self._pending[lane]
        for packet in packets:
            retries = packet.retries
            if giveup is not None and retries > giveup:
                self._give_up(lane, packet, base_cycle)
                continue
            draw = 1 + integers(0, spans[retries] if retries < len(spans)
                                else self.config.backoff.span(retries))
            release = base + (draw - 1) * slot_len
            src = packet.src
            state = states[src]
            state.retx_seq = seq = state.retx_seq + 1
            heappush(state.retx, (release, seq, packet))
            pending.add(src)
            if TRACE.enabled:
                TRACE.emit(
                    "backoff_draw", cat="backoff", retry=retries,
                    window=self.config.backoff.window(retries), slots=draw,
                )
                TRACE.emit(
                    "backoff", cat="fsoi", cycle=base_cycle, node=src,
                    lane=lane.value, packet=packet.uid,
                    retries=retries, release=release,
                )

    def _give_up(self, lane: LaneKind, packet: Packet, cycle: int) -> None:
        """Bounded graceful degradation: the sender abandons the packet.

        Packets whose delivery already happened (only the confirmation
        was lost) are counted separately — nothing was actually lost.
        """
        if packet._fault_delivered:
            self._fault_stats["gave_up_delivered"].add()
            outcome = "delivered"
        else:
            self._fault_stats["gave_up_lost"].add()
            outcome = "lost"
        if TRACE.enabled:
            TRACE.emit(
                "fault_give_up", cat="fault", cycle=cycle, node=packet.src,
                lane=lane.value, packet=packet.uid, retries=packet.retries,
                outcome=outcome,
            )

    # ------------------------------------------------------------------
    # §5.2 optimizations
    # ------------------------------------------------------------------

    def _issue_hint(
        self, cycle: int, slot_len: int, dst: int, packets: list[Packet]
    ) -> Packet | None:
        """The receiver guesses the colliders and grants one the next slot.

        Returns the packet that actually gets the fast retransmission
        (None when the chosen winner was not a true collider).
        """
        if self.config.one_hot_pid:
            # Footnote 7: the bit-vector encoding decodes exactly.
            merged = merged_one_hot((p.src for p in packets), self.num_nodes)
            candidates = one_hot_senders(merged, self.num_nodes)
        else:
            pid, pidc = merged_header(
                (p.src for p in packets), id_bits=self.config.id_bits
            )
            assert collision_detected(pid, pidc)
            others = [n for n in range(self.num_nodes) if n != dst]
            candidates = candidate_senders(pid, pidc, others, self.config.id_bits)
        expected = self._expected[dst].expected_nodes()
        narrowed = [c for c in candidates if c in expected] or candidates
        chosen = int(narrowed[self._hint_rng.integers(0, len(narrowed))])
        self._hint_stats["issued"].add()

        actual = {p.src: p for p in packets}
        if chosen in actual:
            self._hint_stats["correct"].add()
            winner = actual[chosen]
            self._hold(LaneKind.DATA, winner, cycle + slot_len)
            if TRACE.enabled:
                TRACE.emit(
                    "hint", cat="fsoi", cycle=cycle, node=dst,
                    lane=LaneKind.DATA.value, packet=winner.uid,
                    chosen=chosen, outcome="correct",
                )
            return winner
        # Mis-identified: if that node happens to have a backed-off data
        # packet it wrongly jumps into the next slot; otherwise it simply
        # ignores the notification (paper §7.3).
        state = self._state[LaneKind.DATA][chosen]
        if state.retx:
            self._hint_stats["wrong_winner"].add()
            _release, seq, packet = state.retx[0]  # keeps its seq
            heapreplace(state.retx, (cycle + slot_len, seq, packet))
            outcome = "wrong_winner"
        else:
            self._hint_stats["ignored"].add()
            outcome = "ignored"
        if TRACE.enabled:
            TRACE.emit(
                "hint", cat="fsoi", cycle=cycle, node=dst,
                lane=LaneKind.DATA.value, chosen=chosen, outcome=outcome,
            )
        return None

    def expect_data_from(self, dst: int, src: int) -> None:
        """Register that ``dst`` anticipates a data packet from ``src``.

        Used by §5.2's split-transaction writebacks: the WB announcement
        tells the home node to expect the data packet, sharpening the
        resolution hint's candidate set.
        """
        self._check_node(dst)
        self._check_node(src)
        if self._hints:  # the hint's candidate filter is the only reader
            self._expected[dst].expect(src)

    def _reserve_reply_slot(self, node: int, cycle: int) -> int:
        """Request spacing: returns the cycles to delay the request by."""
        slot_len = self.lanes.slot_cycles(LaneKind.DATA)
        table = self._reservations[node]
        table.prune(cycle // slot_len)
        predicted_slot = (cycle + REPLY_LATENCY_ESTIMATE) // slot_len
        free_slot = table.next_free(predicted_slot)
        table.reserve(free_slot)
        return (free_slot - predicted_slot) * slot_len

    # ------------------------------------------------------------------
    # Internals & reporting
    # ------------------------------------------------------------------

    def _schedule(self, cycle: int, action) -> None:
        if cycle <= self._now:
            # A past-cycle entry would sit in the calendar forever (the
            # tick sweep has already passed it) — a silent stall bug in
            # the old dict-calendar days; now loud.
            raise ValueError(
                f"cannot schedule an outcome at cycle {cycle}; "
                f"the network already ticked cycle {self._now}"
            )
        # == self._calendar.schedule(cycle, action), minus the call frame.
        calendar = self._calendar
        calendar._seq = seq = calendar._seq + 1
        heappush(self._due, (cycle, seq, action))

    def transmission_probability(self, lane: LaneKind) -> float:
        """Measured per-node, per-slot transmission probability."""
        stats = self._lane_stats[lane]
        slots = int(stats["slots"])
        if slots == 0:
            return 0.0
        return int(stats["tx"]) / (slots * self.num_nodes)

    def collision_rate(self, lane: LaneKind) -> float:
        """Fraction of transmissions corrupted by a collision."""
        stats = self._lane_stats[lane]
        tx = int(stats["tx"])
        return int(stats["collided_tx"]) / tx if tx else 0.0

    def mean_resolution_delay(self, lane: LaneKind) -> float:
        """Mean collision-resolution delay over collided packets, cycles.

        The execution-driven counterpart of Figure 4's numerical model
        (§4.3.2: "the computed delay is 7.26 cycles and the simulated
        result is between 6.8 and 9.6").
        """
        return self._resolution_collided[lane].mean

    def collision_events_per_node_slot(self, lane: LaneKind) -> float:
        """Collision events per node per slot — Figure 3's P_coll."""
        stats = self._lane_stats[lane]
        slots = int(stats["slots"])
        if slots == 0:
            return 0.0
        return int(stats["collision_events"]) / (slots * self.num_nodes)

    def data_collision_breakdown(self) -> dict[str, int]:
        """Figure 10's collision-event counts by type."""
        return {k: int(v) for k, v in self._data_collision_types.items()}

    def hint_summary(self) -> dict[str, int]:
        return {k: int(v) for k, v in self._hint_stats.items()}

    @property
    def fault_injector(self) -> FaultInjector | None:
        """The active injector, or None for fault-free runs."""
        return self._injector

    def fault_summary(self) -> dict:
        """Fault/degradation counters (empty dict when faults are off)."""
        if self._injector is None:
            return {}
        out: dict = {k: int(v) for k, v in self._fault_stats.items()}
        for lane in (LaneKind.META, LaneKind.DATA):
            out[lane.value] = {
                k: int(v) for k, v in self._fault_lane_stats[lane].items()
            }
        out["confirmations_dropped"] = self.confirmations_dropped
        return out

    def phase_array_summary(self) -> dict[str, float]:
        """Aggregate OPA steering behaviour (empty for dedicated arrays)."""
        if not self._phase_array:
            return {}
        # Every counted transmission steers its lane's beam exactly once.
        sends = sum(counters["tx"].value for counters in self._lane_stats.values())
        retargets = sum(
            state.retargets for states in self._state.values() for state in states
        )
        return {
            "sends": sends,
            "retargets": retargets,
            "retarget_fraction": retargets / sends if sends else 0.0,
        }
