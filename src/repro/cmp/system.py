"""The CMP system: cores + coherence + interconnect + memory.

One :class:`CmpSystem` corresponds to one row of the paper's
experiments: an application signature running on N nodes over a chosen
interconnect.  The system owns the translation between coherence
messages and network packets, including the §5 optimization wiring:

* request packets are flagged ``expects_data_reply`` (request spacing
  and resolution hints key off this);
* sharer invalidations flagged ``ack_via_confirmation`` get an
  ``on_confirmed`` hook that synthesizes the InvAck at the directory
  when the FSOI confirmation arrives (§5.1);
* split writebacks announce themselves so the home node expects the
  data packet (§5.2);
* barrier/lock releases reach subscribed waiters as confirmation-channel
  signals instead of invalidation storms (§5.1).

Local traffic (an L1 talking to the directory slice on its own node)
bypasses the network with a one-cycle latency, as in the paper's
simulator.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from functools import partial
from heapq import heappush
from time import perf_counter
from types import MethodType
from typing import Callable, Optional, Union

from repro.coherence.directory import DirectoryConfig, DirectoryController
from repro.coherence.l1 import L1Config, L1Controller
from repro.coherence.messages import (
    DATA_E,
    DATA_M,
    DATA_S,
    EXC_ACK,
    INV,
    INV_ACK,
    MEM_READ,
    MEM_WRITE,
    WB_ANNOUNCE,
    CoherenceMessage,
    MsgType,
    make_message,
)
from repro.core.lanes import LaneConfig
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.corona.network import CoronaConfig, CoronaNetwork
from repro.cpu.core import Core, CoreConfig, CoreState, DueSchedule
from repro.cpu.memctrl import MemoryConfig, MemoryController
from repro.cpu.sync import SyncManager
from repro.cmp.results import CmpResults
from repro.faults.plan import FaultPlan
from repro.mesh.ideal import IdealConfig, IdealNetwork
from repro.mesh.network import MeshConfig, MeshNetwork
from repro.net.packet import Packet, make_packet
from repro.obs.profile import PROFILER
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TIMELINE
from repro.obs.trace import TRACE
from repro.util.events import CycleCalendar
from repro.util.rng import RngHub, derive_seed
from repro.util.stats import Histogram
from repro.workloads.splash2 import AppSignature, AppWorkload, signature

__all__ = ["CmpConfig", "CmpSystem", "run_app", "NETWORK_KINDS"]

NETWORK_KINDS = ("fsoi", "mesh", "l0", "lr1", "lr2", "corona")

#: Cycles a message to the sender's own home slice takes.  At 0 a core's
#: request to its own slice would be delivered inside the cores phase,
#: where nothing may change a core but its own action
#: (repro.cpu.core.DueSchedule).
LOCAL_LATENCY = 1

#: §4.4 per-line ordering sentinel: a line with a message in flight but
#: nothing queued behind it.  Shared so ``_send_from`` does not allocate
#: a deque for the common line that never queues a second message.
_LINE_IN_FLIGHT: tuple = ()


def _timed(phase: str, step: Callable) -> Callable:
    """``step`` with its wall time charged to profiler phase ``phase``,
    net of the nested coherence dispatch ``_deliver`` charges itself."""
    add, charged = PROFILER.add, PROFILER.phase_seconds

    def timed(*args):
        coherence = charged("coherence")
        t0 = perf_counter()
        out = step(*args)
        add(phase, perf_counter() - t0 - (charged("coherence") - coherence))
        return out

    return timed


@dataclass(frozen=True)
class CmpConfig:
    """One experiment's configuration (Table 3 defaults)."""

    num_nodes: int = 16
    app: Union[str, AppSignature] = "ba"
    network: str = "fsoi"
    optimizations: OptimizationConfig = field(
        default_factory=OptimizationConfig.none
    )
    memory_gbps: float = 8.8
    core: CoreConfig = field(default_factory=CoreConfig)
    l1: L1Config = field(default_factory=L1Config)
    directory: DirectoryConfig = field(default_factory=DirectoryConfig)
    #: Figure 11 sensitivity knobs: narrower FSOI lanes / mesh links.
    fsoi_lanes: Optional["LaneConfig"] = None
    mesh_bandwidth_scale: float = 1.0
    #: §4.3.1 engineering-margin studies: probability a solo FSOI packet
    #: is corrupted by signaling errors (handled like a collision).
    fsoi_packet_error_rate: float = 0.0
    #: Fault-injection schedule (repro.faults, docs/faults.md).  An
    #: empty plan is passive; non-empty plans are FSOI-only — faults
    #: model the optical substrate's failure modes.
    faults: Optional[FaultPlan] = None
    #: Pre-populate the L2/directory with the workload's reuse pools so
    #: runs measure steady state rather than the cold-start transient
    #: (the paper measures inside the parallel sections, long after the
    #: data is first touched).  Streaming regions stay cold by design.
    warm_start: bool = True
    #: Next-event fast-forward: jump over cycles where no subsystem can
    #: change state (docs/performance.md).  Results are bit-identical
    #: either way; disable only to cross-check or to step the naive
    #: loop under a debugger.
    fast_forward: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_nodes < self.memory_channels:
            raise ValueError(
                f"num_nodes {self.num_nodes} is below memory_channels "
                f"{self.memory_channels}: each channel needs a node of its own"
            )
        if self.network not in NETWORK_KINDS:
            raise ValueError(
                f"unknown network {self.network!r}; choose from {NETWORK_KINDS}"
            )
        if not self.memory_gbps > 0.0:
            raise ValueError(
                f"memory_gbps must be positive, got {self.memory_gbps!r}"
            )
        if not 0.0 <= self.fsoi_packet_error_rate <= 1.0:
            raise ValueError(
                "fsoi_packet_error_rate is a probability in [0, 1], got "
                f"{self.fsoi_packet_error_rate!r}"
            )
        opts = self.optimizations
        any_opts = (
            opts.confirmation_ack or opts.llsc_subscription
            or opts.request_spacing or opts.resolution_hints
            or opts.split_writeback
        )
        if any_opts and self.network != "fsoi":
            raise ValueError(
                "the §5 optimizations rely on the FSOI confirmation "
                f"channel; network {self.network!r} cannot use them"
            )
        if (
            self.faults is not None
            and not self.faults.is_empty()
            and self.network != "fsoi"
        ):
            raise ValueError(
                "fault plans model the FSOI optical substrate; network "
                f"{self.network!r} cannot use them"
            )

    @property
    def app_signature(self) -> AppSignature:
        if isinstance(self.app, AppSignature):
            return self.app
        return signature(self.app)

    @property
    def memory_channels(self) -> int:
        return 4 if self.num_nodes <= 16 else 8


class CmpSystem:
    """One full chip: build with a config, :meth:`run`, then :meth:`close`."""

    def __init__(self, config: CmpConfig):
        self.config = config
        self.cycle = 0
        n = config.num_nodes
        self._rng = RngHub(config.seed)

        self.network = self._build_network()
        self._is_fsoi = isinstance(self.network, FsoiNetwork)
        self._calendar = CycleCalendar()
        self._overflow: list[deque[Packet]] = [deque() for _ in range(n)]
        # Fast-forward accounting (docs/performance.md): every simulated
        # cycle is either executed by tick() or jumped by _skip_to().
        self.executed_cycles = 0
        self.skipped_cycles = 0
        self._due = self._calendar._heap  # cached guard (never rebound)
        self._fast_forward = config.fast_forward
        self._overflow_active: set[int] = set()  # nodes with queued packets
        # Per-system packet ids: the global default factory in
        # :class:`Packet` depends on process history, which would make
        # trace streams (``args.packet``) differ between otherwise
        # identical runs.  Allocating from a per-instance counter keeps
        # seeded traces byte-reproducible across runs and engines.
        self._packet_uid = itertools.count()
        # §4.4 per-line ordering: (node, line) -> queued (msg, delay)
        # deque, or the _LINE_IN_FLIGHT sentinel when nothing is queued.
        self._line_pending: dict[tuple[int, int], "deque | tuple"] = {}

        # Memory controllers, evenly spread over the nodes: channel i at
        # the middle of the i-th of `channels` equal shares, so distinct
        # (n >= channels) and ascending.
        channels = config.memory_channels
        self.controller_nodes = [
            (2 * i + 1) * n // (2 * channels) for i in range(channels)
        ]
        # Transfer starts run last in their cycle's calendar sweep, in node order.
        mem_config = MemoryConfig.from_gbps(config.memory_gbps)
        self.memory = {
            node: MemoryController(
                node, partial(self._send_from, node),
                partial(self._calendar.schedule_last, rank), mem_config,
            )
            for rank, node in enumerate(self.controller_nodes)
        }

        # Coherence substrate.
        opts = config.optimizations
        l1_config = replace(config.l1, split_writeback=opts.split_writeback)
        dir_config = replace(
            config.directory, confirmation_ack=opts.confirmation_ack
        )
        self.l1s = [
            L1Controller(
                node, partial(self._send_from, node), self.home_of, l1_config
            )
            for node in range(n)
        ]
        self.directories = [
            DirectoryController(
                node, partial(self._send_from, node), self.memory_node_of,
                dir_config,
            )
            for node in range(n)
        ]

        # Cores and synchronization.  Each core draws from the named
        # stream "core.<node>"; the schedule runs the due ones per tick.
        self.sync = SyncManager(n, subscription=opts.llsc_subscription)
        app = config.app_signature
        self.app_label = app.label
        self._due_cores = DueSchedule(clock=self)
        self.cores = [
            Core(
                node,
                AppWorkload(app, node, n),
                self.l1s[node],
                self.sync,
                config.core,
                seed=derive_seed(config.seed, f"core.{node}"),
                schedule=self._due_cores,
            )
            for node in range(n)
        ]
        # One cycle, in order: tick() runs these steps, and the profiled
        # loop times the same rows under these phase names.
        self._phases = (
            ("calendar", self._calendar.run_due),
            ("overflow", self._drain_overflow),
            ("network", self.network.tick),
            ("cores", self._due_cores.tick),
        )
        self._steps = tuple(step for _phase, step in self._phases)
        if opts.llsc_subscription:
            self.sync.on_barrier_release = self._signal_barrier_release
            self.sync.on_lock_release = self._signal_lock_release

        # Figure 5: read-miss request -> reply latency distribution.
        self._request_issue: dict[tuple[int, int], int] = {}
        self.reply_latency = Histogram("reply_latency", 0, 200, 20)

        self._handlers = self._build_handlers()
        #: ``_to_l1[mtype._value_]``: a message an L1 handles.
        self._to_l1 = [False] * len(self._handlers)
        for mtype in L1Controller.HANDLERS:
            self._to_l1[mtype._value_] = True
        for node in range(n):
            self.network.set_delivery_callback(node, self._on_packet)

        if config.warm_start:
            self._warm_start()

    def _warm_start(self) -> None:
        """Pre-populate caches with the steady-state working set.

        Reuse/sync lines become valid in their home L2 slice (DV); each
        core's private *hot set* is additionally installed in its L1 in
        E state (directory DM with that core as owner) — those lines are
        resident essentially always once the parallel section is warm,
        and without this every run would start with an unrepresentative
        compulsory-miss burst.
        """
        from repro.coherence.directory import DirState, WarmLines
        from repro.cpu.sync import SyncManager as SM

        app = self.config.app_signature
        directories, l1s, home_of = self.directories, self.l1s, self.home_of
        reuse = [core.workload.reuse_lines() for core in self.cores]
        sync = [SM.barrier_line()]
        sync.extend(SM.lock_line(i) for i in range(app.lock_count))
        ranges = [
            *reuse,
            self.cores[0].workload.shared_lines(),
            *(range(line, line + 1) for line in sync),
        ]
        hot = [span[: app.hot_lines] for span in reuse]
        warm = WarmLines(ranges, owned=((span, node) for node, span in enumerate(hot)))
        if self.config.directory.capacity_lines is not None:
            # Bounded slices count live entries for capacity pressure,
            # so the warm set must be materialized eagerly — and in this
            # insertion order: eviction order hangs on how the set
            # iterates.
            lines: set[int] = set()
            for span in ranges:
                lines.update(span)
            hot = [[] for _ in l1s]  # each L1's hot lines, in set order
            for line in lines:
                owner = warm.get(line)[1]
                if owner is None:
                    directories[home_of(line)].entry(line).state = DirState.DV
                else:
                    directories[home_of(line)].preload_owned(line, owner)
                    hot[owner].append(line)
        else:
            # Unbounded slices (the calibrated default): the directory
            # side stays a lazily-consumed warm set shared across slices
            # (home-partitioned, so no two slices ever race on one line).
            for directory in directories:
                directory.preload_valid(warm)
        for l1, lines in zip(l1s, hot):
            l1.preload_exclusive(lines)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _build_network(self):
        config = self.config
        n = config.num_nodes
        kind = config.network
        if kind == "fsoi":
            fsoi_kwargs = {}
            if config.fsoi_lanes is not None:
                fsoi_kwargs["lanes"] = config.fsoi_lanes
            if config.faults is not None:
                fsoi_kwargs["faults"] = config.faults
            return FsoiNetwork(
                FsoiConfig(
                    num_nodes=n,
                    optimizations=config.optimizations,
                    phase_array=n > 16,
                    packet_error_rate=config.fsoi_packet_error_rate,
                    seed=config.seed,
                    **fsoi_kwargs,
                ),
                rng=self._rng.child("fsoi"),
            )
        if kind == "mesh":
            return MeshNetwork(
                MeshConfig(
                    num_nodes=n, bandwidth_scale=config.mesh_bandwidth_scale
                )
            )
        if kind == "l0":
            return IdealNetwork(IdealConfig.l0(n))
        if kind == "lr1":
            return IdealNetwork(IdealConfig.lr1(n))
        if kind == "lr2":
            return IdealNetwork(IdealConfig.lr2(n))
        if kind == "corona":
            return CoronaNetwork(CoronaConfig(num_nodes=n))
        raise ValueError(f"unknown network kind {kind!r}")  # pragma: no cover

    def home_of(self, line: int) -> int:
        """Home directory slice of a line (address-interleaved)."""
        return line % self.config.num_nodes

    def memory_node_of(self, line: int) -> int:
        """Node hosting the memory channel that serves ``line``."""
        index = self.home_of(line) % self.config.memory_channels
        return self.controller_nodes[index]

    def _build_handlers(self) -> list:
        """The coherence jump table: ``table[mtype._value_][dest]`` is
        the function that handles a ``mtype`` message delivered to node
        ``dest`` — the controllers' own Table 2 handlers
        (``L1Controller.HANDLERS`` / ``DirectoryController.HANDLERS``),
        bound per node, plus the three things only the system knows: a
        memory controller's arrival cycle, Figure 5's request-to-reply
        latency, and §5.2's data-packet expectation at the home node.
        """
        n = self.config.num_nodes
        table: list = [None] * (len(MsgType) + 1)  # auto() values start at 1
        for controllers, handlers in (
            (self.l1s, L1Controller.HANDLERS),
            (self.directories, DirectoryController.HANDLERS),
        ):
            for mtype, handler in handlers.items():
                table[mtype._value_] = [
                    MethodType(handler, controller)
                    for controller in controllers
                ]

        memory = self.memory

        def on_memory(msg: CoherenceMessage) -> None:
            memory[msg.dest].handle(msg, self.cycle)

        table[MEM_READ._value_] = table[MEM_WRITE._value_] = [on_memory] * n

        request_issue = self._request_issue
        record = self.reply_latency.record

        def timed(fills: list):
            def on_reply(msg: CoherenceMessage) -> None:
                dest = msg.dest
                issued = request_issue.pop((dest, msg.line), None)
                if issued is not None:
                    record(self.cycle - issued)
                fills[dest](msg)

            return [on_reply] * n

        for mtype in (DATA_S, DATA_E, DATA_M, EXC_ACK):
            table[mtype._value_] = timed(table[mtype._value_])

        if self._is_fsoi and self.config.optimizations.split_writeback:
            expect_data_from = self.network.expect_data_from
            announced = table[WB_ANNOUNCE._value_]

            def on_wb_announce(msg: CoherenceMessage) -> None:
                dest = msg.dest
                if msg.sender != dest:  # crossed the network
                    expect_data_from(dest, msg.sender)
                announced[dest](msg)

            table[WB_ANNOUNCE._value_] = [on_wb_announce] * n
        return table

    # ------------------------------------------------------------------
    # message transport
    # ------------------------------------------------------------------

    def _send_from(self, node: int, msg: CoherenceMessage, delay: int) -> None:
        """Send with per-line point-to-point ordering (paper §4.4).

        A node delays any further message about a cache line until its
        previous message about that line has been delivered — the
        serialization the paper uses to cut down transient states.
        Without it, a meta-lane DwgAck can overtake the data-lane
        WriteBack it logically follows, which Table 2 does not handle.
        """
        if msg.mtype.is_request and msg.sender == msg.requester:
            self._request_issue[(msg.requester, msg.line)] = self.cycle
        key = (node, msg.line)
        line_pending = self._line_pending
        pending = line_pending.get(key)
        if pending is None:
            # Mark the line in flight with the shared sentinel; the real
            # deque is only allocated if a second message actually queues
            # behind this one (most lines never do).
            line_pending[key] = _LINE_IN_FLIGHT
            self._transmit(node, msg, delay)
        elif pending is _LINE_IN_FLIGHT:
            line_pending[key] = deque(((msg, delay),))
        else:
            pending.append((msg, delay))

    def _transmit(self, node: int, msg: CoherenceMessage, delay: int) -> None:
        # Past/present cycles run now (the tick sweep has already passed
        # them, so a calendar entry would never fire), which also spares
        # the common immediate case (delay 0, remote) the action object.
        cycle = self.cycle
        if msg.dest == node:
            due = cycle + delay + LOCAL_LATENCY
            action = partial(self._deliver, msg, node)
        else:
            due = cycle + delay
            if due <= cycle:
                self._inject(node, msg)
                return
            action = partial(self._inject, node, msg)
        # == self._calendar.schedule(due, action), minus the call frame.
        calendar = self._calendar
        calendar._seq = seq = calendar._seq + 1
        heappush(self._due, (due, seq, action))

    def _on_packet(self, packet: Packet) -> None:
        self._deliver(packet.payload, packet.src)

    def _deliver(self, msg: CoherenceMessage, holder: Optional[int]) -> None:
        """Run a delivered message's handler at the delivery instant,
        then release ``holder``'s §4.4 hold on the line (``None``: a
        §5.1 confirmation-synthesized ack, which never held one).

        The one site every delivery passes through — network packets,
        local completions and confirmation acks — and so the one place
        the profiler's "coherence" phase is taken, and where a message
        for an L1 first cuts the receiving core back from its run-ahead
        window (:meth:`Core.cut`): the window applied hits ahead of the
        clock, and the L1 must be at "now" before the message changes it.
        """
        value = msg.mtype._value_
        if PROFILER.enabled:
            t0 = perf_counter()
            if self._to_l1[value]:
                self.cores[msg.dest].cut()
            self._handlers[value][msg.dest](msg)
            if holder is not None:
                self._release_line(holder, msg.line)
            PROFILER.add("coherence", perf_counter() - t0)
            return
        if self._to_l1[value]:
            self.cores[msg.dest].cut()
        self._handlers[value][msg.dest](msg)
        if holder is not None:
            self._release_line(holder, msg.line)

    def _release_line(self, node: int, line: int) -> None:
        key = (node, line)
        pending = self._line_pending.get(key)
        if pending is None:
            return
        if pending:
            msg, delay = pending.popleft()
            self._transmit(node, msg, delay)
        else:
            del self._line_pending[key]

    def _inject(self, node: int, msg: CoherenceMessage) -> None:
        packet = self._packetize(node, msg)
        queue = self._overflow[node]
        if queue or not self.network.try_send(packet, self.cycle):
            queue.append(packet)
            self._overflow_active.add(node)

    def _packetize(self, node: int, msg: CoherenceMessage) -> Packet:
        # The packet-field booleans are precomputed per MsgType member
        # (repro.coherence.messages) and the packet is built by the
        # validation-free fast constructor: _packetize runs once per
        # remote message on the hottest send path.
        mtype = msg.mtype
        packet = make_packet(
            node,
            msg.dest,
            mtype.lane,
            msg,
            mtype.pkt_is_reply,
            mtype.pkt_is_writeback,
            mtype.pkt_is_memory,
            mtype.pkt_expects_data,
            next(self._packet_uid),
        )
        if mtype is INV and msg.ack_via_confirmation and self._is_fsoi:
            # §5.1: the confirmation of this packet's delivery stands in
            # for the sharer's InvAck at the home directory.
            ack = make_message(
                INV_ACK, msg.line, msg.dest, node, msg.requester
            )
            packet.on_confirmed = partial(self._deliver, ack, None)
        return packet

    # -- §5.1 subscription signals ----------------------------------------------

    def _signal_barrier_release(self, epoch: int) -> None:
        waiting = [
            core
            for core in self.cores
            if core.state is CoreState.BARRIER_WAIT
        ]
        for core in waiting:
            self._signal(core)

    def _signal_lock_release(self, lock_id: int, waiters: list[int]) -> None:
        for node in waiters:
            self._signal(self.cores[node])

    def _signal(self, core: Core) -> None:
        # llsc_subscription is FSOI-only (CmpConfig validation).
        self.network.send_signal(self.cycle, core.release_signal)

    # ------------------------------------------------------------------
    # the simulation loop
    # ------------------------------------------------------------------

    def tick(self) -> None:
        """Execute one cycle, and leave every core exactly at the next
        one (cut back from any run-ahead window) for whoever reads or
        drives the system between ticks."""
        self._tick(self._steps)
        self._due_cores.cut_all()

    def _tick(self, steps: tuple) -> None:
        """One cycle: the phase table's steps (or the profiled loop's
        timed copies of them), in order."""
        cycle = self.cycle
        if TRACE.enabled:
            TRACE.cycle = cycle
        for step in steps:
            step(cycle)
        self.executed_cycles += 1
        self.cycle = cycle + 1

    def _drain_overflow(self, cycle: int) -> None:
        # Node order matters for injection fairness; only nodes with a
        # backed-up queue are visited (the naive sweep's empty-queue
        # iterations were pure overhead).
        if not self._overflow_active:
            return
        for node in sorted(self._overflow_active):
            queue = self._overflow[node]
            while queue and self.network.try_send(queue[0], cycle):
                queue.popleft()
            if not queue:
                self._overflow_active.discard(node)

    # -- next-event fast-forward (docs/performance.md) ------------------

    def _next_event(self) -> Optional[int]:
        """Min over every subsystem's event horizon.

        Returns the current cycle when any subsystem can change state
        *now* (the loop must tick), a future cycle when everything is
        provably inert until then (the loop may jump), or ``None`` when
        the whole system is quiescent (nothing will ever happen again).
        """
        cycle = self.cycle
        # A RUNNING core, parked on a run-ahead window or not, pins the
        # horizon to "now" no matter what the other subsystems report —
        # the common case, two set checks.
        due_cores = self._due_cores
        if due_cores.running or due_cores.parked:
            return cycle
        horizon = None
        due = self._due
        if due:
            c = due[0][0]
            if c <= cycle:  # a transfer start filed for this cycle
                return cycle
            horizon = c
        if self._overflow_active:
            # A backed-up injection retries (and counts a refusal)
            # every cycle, exactly as the naive loop does.
            return cycle
        c = due_cores.next_event(cycle)  # hold releases, spin polls
        if c is not None:
            if c <= cycle:
                return cycle
            if horizon is None or c < horizon:
                horizon = c
        c = self.network.next_event(cycle)
        if c is not None:
            if c <= cycle:
                return cycle
            if horizon is None or c < horizon:
                horizon = c
        return horizon

    def _skip_to(self, end: int) -> None:
        """Jump the clock from ``self.cycle`` to ``end`` in one step.

        Every per-cycle side effect the naive loop would have produced
        over ``[cycle, end)`` is applied in bulk: the network's
        elapsed-slot tallies here, the cores' stall/sync counters by
        the cores themselves (they charge elapsed cycles at their next
        transition or read, jumped or not).  Tracing records the span
        instead of inhibiting the skip.
        """
        start = self.cycle
        gap = end - start
        if gap <= 0:  # pragma: no cover - callers guarantee end > cycle
            return
        self.network.skip(start, end)
        self.skipped_cycles += gap
        if TRACE.enabled:
            TRACE.cycle = start
            TRACE.emit("fast_forward", cat="loop", cycle=start, dur=gap)
        self.cycle = end

    def _advance(
        self, target: int, done: Optional[Callable[[], bool]] = None
    ) -> bool:
        """The simulation loop: step the clock up to ``target``.

        A step is a tick or, with fast-forward on, a jump to the event
        horizon capped at the segment end.  ``done`` is checked before
        each step; returns whether it stopped the loop.  Observation
        reads the loop rather than forking it: a segment ends at the
        timeline's next window boundary, which is sampled when the clock
        lands there, and the profiler's timed steps are picked once.
        The loop ends with every core cut back from its run-ahead
        window, so the system reads exactly at ``self.cycle``.
        """
        steps, next_event = self._steps, self._next_event
        profiled = PROFILER.enabled
        if profiled:
            steps = tuple(_timed(*row) for row in self._phases)
            next_event = _timed("horizon", next_event)
            executed, skipped = self.executed_cycles, self.skipped_cycles
        tick = partial(self._tick, steps)
        timeline = TIMELINE if TIMELINE.enabled and TIMELINE.attach(self) else None
        fast_forward = self._fast_forward
        stopped = False
        while self.cycle < target and not stopped:
            end = target if timeline is None else min(target, timeline.next_due)
            while self.cycle < end:
                if done is not None and done():
                    break
                if fast_forward:
                    horizon = next_event()
                    if horizon is None:
                        self._skip_to(end)
                        continue
                    if horizon > self.cycle:
                        self._skip_to(min(horizon, end))
                        continue
                tick()
            stopped = self.cycle < end
            if timeline is not None:
                timeline.sample(self.cycle)
        self._due_cores.cut_all()
        if profiled:
            PROFILER.cycles += self.executed_cycles - executed
            PROFILER.skipped += self.skipped_cycles - skipped
        return stopped

    def run(self, cycles: int) -> CmpResults:
        """Simulate ``cycles`` cycles and collect the results."""
        if cycles < 0:
            raise ValueError(f"cannot run a negative number of cycles: {cycles}")
        self._advance(self.cycle + cycles)
        return self._results()

    def run_until_instructions(
        self, instructions: int, max_cycles: int = 10_000_000
    ) -> CmpResults:
        """Run until the cores have retired ``instructions`` in total.

        This is the paper's own methodology — execution *time* for a
        fixed workload ("we measure the same workload"); the speedup of
        two configurations is then their cycle-count ratio, identical
        to the IPC ratio only in steady state.

        The loop checks the work target once per step: instruction
        counts only move on executed ticks (no core is RUNNING during a
        jump), so the stop cycle matches the every-cycle loop's exactly.
        A parked core's count is arithmetic in the clock
        (:attr:`Core.instructions`), so the check cuts no window.
        """
        if instructions < 1:
            raise ValueError(f"need a positive work target: {instructions}")
        cores = self.cores
        if self._advance(
            self.cycle + max_cycles,
            lambda: sum(core.instructions for core in cores) >= instructions,
        ):
            return self._results()
        raise RuntimeError(
            f"work target {instructions} not reached within {max_cycles} cycles"
        )

    # ------------------------------------------------------------------
    # end of life
    # ------------------------------------------------------------------

    _closed = False  # set on the instance by close()

    def close(self) -> None:
        """Release the system, so that dropping it frees it at once.

        A built system is a web of reference cycles: the controllers'
        ``_send_from`` hooks, the phase and handler tables, the sync
        release hooks, the schedule's clock, the delivery callbacks, the
        cores' fill hooks and issue closures, the routers' links, the
        calendars and the packets in flight with their ``on_confirmed``
        acks.  Left alone, only a full pass of the cyclic collector
        frees it.  Dropping the state of the system and of each
        component it built cuts every cycle, so the last reference going
        frees the whole graph by reference counting.  (The memory
        controllers and the calendar are slotted: a controller's
        ``send`` ends at this system, and its ``schedule`` at the
        calendar, whose filed transfer starts lead back to it — emptying
        the calendar cuts that cycle.)

        Results and metrics read before stay valid; any later use of the
        system raises ``RuntimeError``.  Idempotent.  Whoever builds a
        system closes it when done with it.
        """
        if self._closed:
            return
        self._due.clear()
        network = self.network
        owned = [
            self, self._due_cores, self.sync, network,
            *self.cores, *self.l1s, *self.directories,
        ]
        if isinstance(network, MeshNetwork):
            owned.extend(network.routers)
        for component in owned:
            vars(component).clear()
        self._closed = True

    def __getattr__(self, name: str):
        # Reached only when the normal lookup fails: once the system is
        # closed, for every one of its attributes.
        if self._closed:
            raise RuntimeError(f"CmpSystem is closed (read of {name!r})")
        raise AttributeError(f"'CmpSystem' object has no attribute {name!r}")

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def metrics_registry(self) -> MetricsRegistry:
        """One registry over every subsystem's live stats.

        Mounts the interconnect's stat tree plus the per-node L1,
        directory, core and memory-controller groups, and gauges for
        run progress, sync totals and the confirmation channel.  The
        registry reads live objects, so build it once and snapshot
        whenever needed (``repro trace --metrics``, the sweep metric
        archive, the golden metrics tests, timeline samples); each
        snapshot first cuts the cores back from their run-ahead windows.
        """
        reg = MetricsRegistry(
            f"{self.app_label}.{self.config.network}",
            settle=self._due_cores.cut_all,
        )
        reg.mount("network", self.network.stats.group)
        for node, l1 in enumerate(self.l1s):
            reg.mount(f"l1.n{node:02d}", l1.stats)
        for node, directory in enumerate(self.directories):
            reg.mount(f"directory.n{node:02d}", directory.stats)
        for node, core in enumerate(self.cores):
            reg.mount(f"core.n{node:02d}", core.stats)
        for node in sorted(self.memory):
            reg.mount(f"memory.n{node:02d}", self.memory[node].stats)
        reg.gauge("run.app", self.app_label)
        reg.gauge("run.network", self.config.network)
        reg.gauge("run.num_nodes", self.config.num_nodes)
        reg.gauge("run.cycles", lambda: self.cycle)
        reg.gauge(
            "run.instructions",
            lambda: sum(core.instructions for core in self.cores),
        )
        reg.gauge("sync.barriers_completed", lambda: self.sync.barriers_completed)
        reg.gauge("sync.lock_acquisitions", lambda: self.sync.lock_acquisitions)
        reg.gauge("sync.lock_retries", lambda: self.sync.lock_retries)
        reg.gauge(
            "reply_latency",
            lambda: {
                "count": self.reply_latency.count,
                "fractions": self.reply_latency.fractions(),
            },
        )
        if TRACE.enabled:
            # Gauges exist only while tracing so untraced metrics
            # snapshots stay byte-identical (the fault-gauge pattern).
            # ``dropped`` counts ring-buffer overwrites — a non-zero
            # value means the exported trace is a truncated suffix.
            reg.gauge("trace.emitted", lambda: TRACE.emitted)
            reg.gauge("trace.dropped", lambda: TRACE.dropped)
        if self._is_fsoi:
            reg.gauge(
                "confirmation.confirmations_sent",
                lambda: self.network.confirmations_sent,
            )
            reg.gauge(
                "confirmation.signals_sent",
                lambda: self.network.signals_sent,
            )
            if self.network.fault_injector is not None:
                # Gauges exist only under an active plan so fault-free
                # metrics snapshots stay byte-identical.
                reg.gauge(
                    "confirmation.confirmations_dropped",
                    lambda: self.network.confirmations_dropped,
                )
                reg.gauge("fault.plan_label", self.config.faults.label)
                reg.gauge("fault.plan_hash", self.config.faults.content_hash())
        return reg

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def _results(self) -> CmpResults:
        def merge(groups) -> dict[str, int]:
            out: dict[str, int] = {}
            for group in groups:
                for key, value in group.as_dict().items():
                    if isinstance(value, int):
                        out[key] = out.get(key, 0) + value
            return out

        net = self.network.stats
        fsoi: dict = {}
        if self._is_fsoi:
            from repro.net.packet import LaneKind

            lane_groups = self.network.stats.group.as_dict()
            fsoi = {
                "meta_transmissions": lane_groups["meta"]["transmissions"],
                "data_transmissions": lane_groups["data"]["transmissions"],
                "meta_tx_probability": self.network.transmission_probability(
                    LaneKind.META
                ),
                "data_tx_probability": self.network.transmission_probability(
                    LaneKind.DATA
                ),
                "meta_collision_rate": self.network.collision_rate(LaneKind.META),
                "data_collision_rate": self.network.collision_rate(LaneKind.DATA),
                "meta_collisions_per_node_slot": (
                    self.network.collision_events_per_node_slot(LaneKind.META)
                ),
                "meta_resolution_delay": (
                    self.network.mean_resolution_delay(LaneKind.META)
                ),
                "data_resolution_delay": (
                    self.network.mean_resolution_delay(LaneKind.DATA)
                ),
                "data_collision_breakdown": self.network.data_collision_breakdown(),
                "hints": self.network.hint_summary(),
                "confirmations": self.network.confirmations_sent,
                "signals": self.network.signals_sent,
                "phase_array": self.network.phase_array_summary(),
            }
            if self.network.fault_injector is not None:
                fsoi["faults"] = self.network.fault_summary()
        mesh_activity = (
            self.network.activity() if isinstance(self.network, MeshNetwork) else {}
        )
        core_cycles = merge(c.stats for c in self.cores)
        return CmpResults(
            app=self.app_label,
            network=self.config.network,
            num_nodes=self.config.num_nodes,
            cycles=self.cycle,
            instructions=sum(c.instructions for c in self.cores),
            instructions_per_core=[c.instructions for c in self.cores],
            latency_breakdown=net.breakdown(),
            packets_sent=int(net.sent),
            packets_delivered=int(net.delivered),
            bits_sent=int(net.bits_sent),
            l1=merge(c.stats for c in self.l1s),
            directory=merge(d.stats for d in self.directories),
            memory=merge(m.stats for m in self.memory.values()),
            sync={
                "barriers_completed": self.sync.barriers_completed,
                "lock_acquisitions": self.sync.lock_acquisitions,
                "lock_retries": self.sync.lock_retries,
            },
            core_cycles={
                "busy": core_cycles["busy_cycles"],
                "stall": core_cycles["stall_cycles"],
                "sync": core_cycles["sync_cycles"],
            },
            reply_latency=self.reply_latency,
            fsoi=fsoi,
            mesh_activity=mesh_activity,
            traffic_matrix=self.network.traffic_matrix(),
            loop={
                "executed_cycles": self.executed_cycles,
                "skipped_cycles": self.skipped_cycles,
            },
        )


def run_app(
    app: Union[str, AppSignature],
    network: str,
    num_nodes: int = 16,
    cycles: int = 20_000,
    optimizations: Optional[OptimizationConfig] = None,
    seed: int = 0,
    **config_kwargs,
) -> CmpResults:
    """Convenience one-call experiment: build, run, return results."""
    config = CmpConfig(
        num_nodes=num_nodes,
        app=app,
        network=network,
        optimizations=optimizations or OptimizationConfig.none(),
        seed=seed,
        **config_kwargs,
    )
    system = CmpSystem(config)
    try:
        return system.run(cycles)
    finally:
        system.close()
