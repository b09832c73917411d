"""The timing core model.

Per DESIGN.md's substitution table, the out-of-order Alpha pipeline is
abstracted into a configurable issue rate; everything the interconnect
study depends on is modeled explicitly:

* memory accesses flow through the real L1 controller and MESI protocol;
* a configurable fraction of misses are *dependent* loads that stall the
  core until the fill (the rest overlap, bounded by the MSHR file);
* barrier and lock episodes spin through the coherence protocol (or
  block on confirmation-channel subscriptions when §5.1 is enabled).

The progress metric is retired instructions; application speedup is the
ratio of instructions per cycle between two interconnect configurations,
mirroring the paper's execution-time ratio for a fixed workload window.

Most cores are blocked most of the time, and a blocked core's tick is
one counter increment, so a chip does not tick its cores: a
:class:`DueSchedule` runs the ones with something to do and each
:class:`Core` charges its busy / stall / sync cycles lazily
(docs/performance.md, "What a core-cycle costs").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from heapq import heappop, heappush
from typing import Optional

from repro.coherence.l1 import AccessResult, L1Controller, L1State
from repro.cpu.mshr import MshrFile
from repro.cpu.sync import SyncManager
from repro.util.rng import ReplayRng, word_threshold
from repro.util.stats import StatGroup
from repro.workloads.ops import Op, OpKind
from repro.workloads.splash2 import _REGION, _SHARED_BASE, AppWorkload

__all__ = [
    "OpKind",
    "Op",
    "CoreConfig",
    "Core",
    "CoreState",
    "DueSchedule",
    "hold_release_cycle",
    "spin_poll_cycle",
]


@dataclass(frozen=True)
class CoreConfig:
    """Timing parameters of one core.

    Defaults are calibrated against Table 3's 4-wide Alpha 21264 model:
    an effective issue rate of 3 (4-wide minus front-end losses) and
    75% of misses behaving as dependent loads reproduce the paper's
    network-sensitivity level (Figure 6's speedup magnitudes).
    """

    ipc: int = 3                     # effective issue slots per cycle
    blocking_fraction: float = 0.75  # misses that stall like dependent loads
    mshr_limit: int = 8
    spin_interval: int = 4           # cycles between spin reads

    def __post_init__(self) -> None:
        if self.ipc < 1:
            raise ValueError(f"ipc must be >= 1: {self.ipc}")
        if not 0.0 <= self.blocking_fraction <= 1.0:
            raise ValueError(
                f"blocking fraction out of [0,1]: {self.blocking_fraction}"
            )
        if self.spin_interval < 1:
            raise ValueError(f"spin_interval must be >= 1: {self.spin_interval}")


class CoreState(Enum):
    RUNNING = auto()
    STALLED = auto()         # waiting for a fill (dependent miss / MSHR full)
    BARRIER_ARRIVE = auto()  # performing the arrival write
    BARRIER_SPIN = auto()    # spinning on the barrier line
    BARRIER_WAIT = auto()    # §5.1 subscription: blocked on a signal
    LOCK_ACQUIRE = auto()    # performing the acquire write
    LOCK_SPIN = auto()       # spinning on the lock line
    LOCK_WAIT = auto()       # §5.1 subscription: blocked on a signal
    LOCK_HOLD = auto()       # inside the critical section
    LOCK_RELEASE = auto()    # performing the release write


_RUNNING = CoreState.RUNNING
_STALLED = CoreState.STALLED
_LOCK_HOLD = CoreState.LOCK_HOLD
_SPIN_STATES = (CoreState.BARRIER_SPIN, CoreState.LOCK_SPIN)
_NEVER = -1  # no action scheduled (``Core._due_at``)


# ---------------------------------------------------------------------------
# The due-core schedule
# ---------------------------------------------------------------------------


def hold_release_cycle(anchor: int, hold_cycles: int) -> int:
    """Absolute cycle of a lock hold's release tick.

    ``anchor`` is the first cycle the core spends in LOCK_HOLD.  A hold
    lasts ``hold_cycles`` ticks and releases on the last of them; a
    degenerate zero-cycle hold still burns its one release tick:

    >>> hold_release_cycle(10, 30)
    39
    >>> hold_release_cycle(10, 0)
    10
    """
    return anchor + max(1, hold_cycles) - 1


def spin_poll_cycle(anchor: int, next_spin: int) -> int:
    """Absolute cycle of a spinning core's next poll.

    A spin loop polls no earlier than ``next_spin`` (``spin_interval``
    after its previous poll), so the first poll after entering a spin
    state at ``anchor`` lands on whichever comes later:

    >>> spin_poll_cycle(10, 4), spin_poll_cycle(10, 12)
    (10, 12)
    """
    return anchor if next_spin <= anchor else next_spin


class DueSchedule:
    """Which cores of one chip have something to do at which cycle.

    Only four kinds of tick act: a RUNNING core issues, a parked one
    runs the op that ended its run-ahead window (:func:`_fused_issue`),
    a LOCK_HOLD core releases on the last cycle of its hold, a spinning
    core polls every ``spin_interval`` cycles.  Every other tick —
    STALLED, the wait states, the stretches between polls, the hits and
    WORK ops a parked core has already applied — only counts a cycle,
    which the cores charge lazily (:meth:`Core._enter`).  So the cores
    phase visits the RUNNING set plus the wakes, holds and polls whose
    deadline (the window's end, :func:`hold_release_cycle`,
    :func:`spin_poll_cycle`) has come, in ascending node order, and
    nobody else.

    That is exactly the work, in exactly the order, of ticking every
    core every cycle, because during the cores phase nothing changes a
    core's state but its own action: every external wake — a data fill,
    a confirmation, a §5.1 release signal — arrives through the
    calendar or the network tick, both of which run *before* the cores
    in ``CmpSystem.tick``, no network's ``try_send`` delivers
    synchronously, and a local delivery takes one cycle
    (``repro.cmp.system.LOCAL_LATENCY``).  The same argument makes a
    window exact: whatever could change a parked core's L1 arrives
    outside the cores phase, and cuts the window back to that cycle
    first (:meth:`Core.cut`).

    ``clock`` is any object whose ``cycle`` attribute is the cycle being
    simulated (the ``CmpSystem``); a schedule built without one keeps
    its own, which :meth:`Core.tick` advances.
    """

    def __init__(self, clock=None):
        self.cycle = 0
        self.clock = clock if clock is not None else self
        self.cores: dict[int, Core] = {}
        #: True while :meth:`tick` runs the due cores' own actions.
        self.acting = False
        self.running: set[int] = set()
        #: RUNNING cores parked on a run-ahead window.
        self.parked: set[int] = set()
        # (deadline, node) heap; an entry is live while it matches the
        # core's ``_due_at`` and is dropped otherwise.
        self._due: list[tuple[int, int]] = []

    def park(self, node: int, deadline: int) -> None:
        """Take RUNNING ``node`` off the per-cycle set until
        ``deadline``, the cycle of the op that ends its window."""
        self.cores[node]._due_at = deadline
        heappush(self._due, (deadline, node))
        self.parked.add(node)
        self.running.discard(node)

    def unpark(self, node: int) -> None:
        """Put a cut core back on the per-cycle set."""
        self.cores[node]._due_at = _NEVER
        self.parked.discard(node)
        self.running.add(node)

    def cut_all(self) -> None:
        """Cut every parked core's window back to the current cycle."""
        cores = self.cores
        for node in sorted(self.parked):
            cores[node]._cut()

    def tick(self, cycle: int) -> None:
        """The cores phase of ``cycle``."""
        cores = self.cores
        due: Optional[list[int]] = None
        heap = self._due
        while heap and heap[0][0] <= cycle:
            deadline, node = heappop(heap)
            core = cores[node]
            if core._due_at == deadline:
                # Due: a later entry for the same deadline (the core was
                # rescheduled for it) is dead from here on.
                core._due_at = _NEVER
                self.parked.discard(node)
                if due is None:
                    due = [node]
                else:
                    due.append(node)
        running = self.running
        if running:
            due = running.union(due) if due is not None else running
        elif due is None:
            return
        self.acting = True
        try:
            for node in sorted(due):
                core = cores[node]
                state = core.state
                if state is _RUNNING:
                    core._issue(cycle)
                elif state is _LOCK_HOLD:
                    core._release_hold()
                else:
                    core._poll(cycle)
        finally:
            self.acting = False

    def next_event(self, cycle: int) -> Optional[int]:
        """The cores' fast-forward horizon (docs/performance.md).

        A RUNNING core, parked or not, pins "now"; otherwise the
        earliest live hold release or spin poll; ``None`` when every
        core is blocked on an external event.  Dead heap entries are
        discarded on the way.
        """
        if self.running or self.parked:
            return cycle
        cores = self.cores
        heap = self._due
        while heap:
            deadline, node = heap[0]
            if cores[node]._due_at == deadline:
                return deadline
            heappop(heap)
        return None


# ---------------------------------------------------------------------------
# The core
# ---------------------------------------------------------------------------


class _SettlingStatGroup(StatGroup):
    """A core's stat group: reading it first settles the core's lazily
    charged busy / stall / sync cycles (:meth:`Core.settle`)."""

    def __init__(self, core: "Core"):
        super().__init__(f"core.{core.node}")
        self._core = core

    def as_dict(self) -> dict:
        self._core.settle()
        return super().as_dict()


class Core:
    """One node's processor, driven by a workload's operation stream.

    ``seed`` seeds the core's private RNG stream; ``schedule`` is the
    chip's :class:`DueSchedule` (a core built without one gets a private
    schedule and is driven with :meth:`tick`).  Read the cycle counters
    through ``stats``: that is what settles them.
    """

    def __init__(
        self,
        node: int,
        workload,
        l1: L1Controller,
        sync: SyncManager,
        config: Optional[CoreConfig] = None,
        seed: Optional[int] = None,
        schedule: Optional[DueSchedule] = None,
    ):
        self.node = node
        self.l1 = l1
        self.sync = sync
        self.config = config or CoreConfig()
        self._rng = ReplayRng(node if seed is None else seed)
        self.mshr = MshrFile(self.config.mshr_limit)
        l1.on_fill = self.on_fill

        self.state = CoreState.RUNNING
        self._instructions = 0
        #: Slot (``cycle * ipc + slot``) from which a parked window
        #: retires one instruction per slot; -1 when not parked.
        self._run_from = -1
        self._pending: Optional[Op] = None
        self._stall_line: Optional[int] = None  # None = any fill resumes
        self._sync_line = -1
        self._sync_write = False
        self._sync_issued = False  # the sync request is in flight
        self._barrier_epoch = -1
        self._lock_id = -1
        self._lock_generation = -1
        self._hold_cycles = 0  # length of the coming critical section
        self._next_spin = 0    # earliest cycle of the next spin poll

        self.stats = stats = _SettlingStatGroup(self)
        self._busy = stats.counter("busy_cycles")
        self._stall = stats.counter("stall_cycles")
        self._sync = stats.counter("sync_cycles")
        #: Exclusive cycle through which the three counters are settled.
        self._settled = 0
        #: Cycle of the core's next scheduled action: its hold release,
        #: spin poll or parked window's end; _NEVER when none is.
        self._due_at = _NEVER
        self._schedule = schedule = schedule or DueSchedule()
        schedule.cores[node] = self
        schedule.running.add(node)

        self._detach = None
        self.workload = workload

    @property
    def instructions(self) -> int:
        """Instructions retired before the current cycle.

        A parked window has applied its ops ahead of the clock, one
        retired instruction per slot, so the count at the current cycle
        is arithmetic — like the busy ledger, reading it cuts nothing.
        """
        run_from = self._run_from
        if run_from < 0:
            return self._instructions
        return (
            self._instructions
            + self._schedule.clock.cycle * self.config.ipc
            - run_from
        )

    @property
    def workload(self):
        return self._workload

    @workload.setter
    def workload(self, workload) -> None:
        """Takes effect at the next issue, and picks the issue loop: the
        fused one when the stream is an ``AppWorkload``'s, the generic
        ``next_op`` one for anything else (a trace, a scripted test)."""
        if self._detach is not None:
            # The fused loop may hold a window and holds the RNG cursor.
            self._detach()
        self._workload = workload
        self._issue = (
            self._compile if type(workload) is AppWorkload
            else self._issue_next_op
        )
        self._cut = self._detach = None

    def _compile(self, cycle: int) -> None:
        """The first issue of an ``AppWorkload``: compile the fused loop
        from the core's state as it is now, then issue through it."""
        self._issue, self._cut, self._detach = _fused_issue(self)
        self._issue(cycle)

    def cut(self) -> None:
        """Cut a parked run-ahead window back to the current cycle (a
        no-op unless parked): anything that reads or changes the core's
        L1 or workload from outside the cores phase calls this first."""
        if self._run_from >= 0:
            self._cut()

    # ------------------------------------------------------------------
    # cycle accounting and scheduling
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """One cycle of a core that is not part of a chip: advance its
        private schedule's clock around that schedule's cores phase, and
        leave the core exactly at the next cycle for whoever drives its
        L1 between ticks."""
        schedule = self._schedule
        schedule.cycle = cycle
        schedule.tick(cycle)
        schedule.cycle = cycle + 1
        schedule.cut_all()

    def settle(self) -> None:
        """Bring the cycle counters up to date.  Idempotent; reads
        happen between ticks, so the current cycle's tick has not
        happened yet."""
        self._charge(self.state, self._schedule.clock.cycle)

    def _charge(self, state: CoreState, through: int) -> None:
        """Count the unsettled cycles before ``through`` as spent in
        ``state``."""
        settled = self._settled
        if through > settled:
            (
                self._busy if state is _RUNNING
                else self._stall if state is _STALLED
                else self._sync
            ).value += through - settled
            self._settled = through

    def _enter(self, new: CoreState) -> None:
        """Every state change: settle the cycle ledger, (un)schedule.

        A tick counts towards the state the core was in when the tick
        began.  A transition made by the core's own action happens
        *during* its tick, so the old state is charged through the
        current cycle; one made from outside (a fill, a release signal)
        lands before the cores phase, so the current cycle's tick
        already belongs to the new state.
        """
        old = self.state
        self.state = new
        schedule = self._schedule
        self._charge(old, schedule.clock.cycle + (1 if schedule.acting else 0))
        settled = self._settled  # the first cycle spent in the new state
        node = self.node
        if old is _RUNNING:
            schedule.running.discard(node)
        self._due_at = _NEVER
        if new is _RUNNING:
            schedule.running.add(node)
        elif new is _LOCK_HOLD:
            self._due_at = due = hold_release_cycle(settled, self._hold_cycles)
            heappush(schedule._due, (due, node))
        elif new in _SPIN_STATES:
            self._due_at = due = spin_poll_cycle(settled, self._next_spin)
            heappush(schedule._due, (due, node))

    # ------------------------------------------------------------------
    # issue: the generic loop (the fused one is _fused_issue)
    # ------------------------------------------------------------------

    def _issue_next_op(self, cycle: int) -> None:
        for _slot in range(self.config.ipc):
            op = self._pending
            self._pending = None
            if op is None:
                op = self._workload.next_op(self._rng)
            if op.kind is OpKind.WORK:
                self._instructions += 1
                continue
            if op.kind is OpKind.MEM:
                if not self._issue_mem(op):
                    break
                continue
            if op.kind is OpKind.BARRIER:
                self._enter(CoreState.BARRIER_ARRIVE)
                self._sync_access(SyncManager.barrier_line(), True)
                break
            # LOCK episode
            self._lock_id = op.lock_id
            self._hold_cycles = op.hold_cycles
            self._enter(CoreState.LOCK_ACQUIRE)
            self._sync_access(SyncManager.lock_line(op.lock_id), True)
            break

    def _issue_mem(self, op: Op) -> bool:
        """Returns False when the core must stop issuing this cycle."""
        line = op.line
        if self.l1.state(line).is_transient:
            # Secondary access to an in-flight line ("z"): wait for it.
            self._pending = op
            self._stall_line = line
            self._enter(CoreState.STALLED)
            return False
        will_miss = self._would_miss(line, op.is_write)
        if will_miss and not self.mshr.allocate(line):
            # MSHR file full: structural stall until something fills.
            self._pending = op
            self._stall_line = None
            self._enter(CoreState.STALLED)
            return False
        result = self.l1.access(line, op.is_write)
        self._instructions += 1
        if result is AccessResult.HIT:
            if will_miss:  # defensive: prediction said miss but it hit
                self.mshr.release(line)
            return True
        if self._rng.random() < self.config.blocking_fraction:
            self._stall_line = line
            self._enter(CoreState.STALLED)
            return False
        return True

    def _would_miss(self, line: int, is_write: bool) -> bool:
        state = self.l1.state(line)
        if state is L1State.I:
            return True
        return is_write and state is L1State.S

    # ------------------------------------------------------------------
    # fills
    # ------------------------------------------------------------------

    def on_fill(self, line: int) -> None:
        self.mshr.release(line)
        state = self.state
        if state is CoreState.STALLED:
            if self._stall_line is None or self._stall_line == line:
                self._stall_line = None
                self._enter(CoreState.RUNNING)
            return
        if line != self._sync_line:
            return
        if state in _SPIN_STATES:
            self._check_spin_result()
        elif state in (
            CoreState.BARRIER_ARRIVE,
            CoreState.LOCK_ACQUIRE,
            CoreState.LOCK_RELEASE,
        ):
            if self._sync_issued:
                self._sync_issued = False
                self._sync_complete()
            else:
                # The fill cleared whatever transaction blocked us;
                # retry the sync access itself.
                self._sync_access(self._sync_line, self._sync_write)

    # ------------------------------------------------------------------
    # synchronization episodes
    # ------------------------------------------------------------------

    def _sync_access(self, line: int, is_write: bool) -> None:
        self._sync_line = line
        self._sync_write = is_write
        self._sync_issued = False
        if self.l1.state(line).is_transient:
            return  # a previous transaction (e.g. a spin read) is in
            # flight; on_fill will retry this access
        result = self.l1.access(line, is_write)
        if result is AccessResult.HIT:
            self._sync_complete()
        elif result is AccessResult.MISS:
            self._sync_issued = True
        # STALL cannot occur: transience was pre-checked above.

    def _sync_complete(self) -> None:
        """The current sync read/write has globally performed."""
        state = self.state
        if state is CoreState.BARRIER_ARRIVE:
            self._barrier_epoch = self.sync.barrier_arrive(self.node)
            if self.sync.barrier_released(self._barrier_epoch):
                self._enter(CoreState.RUNNING)  # we were the last arriver
            elif self.sync.subscription:
                self._enter(CoreState.BARRIER_WAIT)
            else:
                self._enter(CoreState.BARRIER_SPIN)
        elif state is CoreState.LOCK_ACQUIRE:
            if self.sync.try_acquire(self._lock_id, self.node):
                self._enter(CoreState.LOCK_HOLD)
            elif self.sync.subscription:
                self._lock_generation = self.sync.lock_generation(self._lock_id)
                self._enter(CoreState.LOCK_WAIT)
            else:
                self._lock_generation = self.sync.lock_generation(self._lock_id)
                self._enter(CoreState.LOCK_SPIN)
        elif state is CoreState.LOCK_RELEASE:
            self.sync.release(self._lock_id, self.node)
            self._lock_id = -1
            self._enter(CoreState.RUNNING)
        # Spin states complete via _check_spin_result instead.

    def _release_hold(self) -> None:
        """The last tick of a critical section: start the release write."""
        self._enter(CoreState.LOCK_RELEASE)
        self._sync_access(SyncManager.lock_line(self._lock_id), True)

    def _poll(self, cycle: int) -> None:
        """One poll of a spin loop: read the sync line, and unless that
        ended (or restarted) the spin, come back in ``spin_interval``."""
        self._next_spin = cycle + self.config.spin_interval
        line = self._sync_line
        # A transient line means the spin read is already outstanding.
        if not self.l1.state(line).is_transient:
            if self.l1.access(line, False) is AccessResult.HIT:
                self._check_spin_result()
        if self._due_at == _NEVER and self.state in _SPIN_STATES:
            self._due_at = self._next_spin
            heappush(self._schedule._due, (self._next_spin, self.node))

    def _check_spin_result(self) -> None:
        if self.state is CoreState.BARRIER_SPIN:
            if self.sync.barrier_released(self._barrier_epoch):
                self._enter(CoreState.RUNNING)
        elif self.state is CoreState.LOCK_SPIN:
            if self.sync.lock_generation(self._lock_id) != self._lock_generation:
                self._enter(CoreState.LOCK_ACQUIRE)
                self._sync_access(SyncManager.lock_line(self._lock_id), True)

    # -- §5.1 subscription signals ------------------------------------------

    def release_signal(self) -> None:
        """A confirmation-channel release bit arrived (subscription mode)."""
        if self.state is CoreState.BARRIER_WAIT:
            if self.sync.barrier_released(self._barrier_epoch):
                self._enter(CoreState.RUNNING)
        elif self.state is CoreState.LOCK_WAIT:
            self._enter(CoreState.LOCK_ACQUIRE)
            self._sync_access(SyncManager.lock_line(self._lock_id), True)


# ---------------------------------------------------------------------------
# The fused issue loop
# ---------------------------------------------------------------------------

#: Most ops one run-ahead window applies: a signature that never misses
#: and never synchronises would otherwise never park.  The cap also
#: bounds what a cut throws away (docs/performance.md, "Dropped").
_RUN_AHEAD_OPS = 128
#: The sync-op cadence of a signature without barriers (or locks).
_NO_SYNC = 1 << 62


def _fused_issue(core: Core):
    """Compile ``core``'s issue loop for its ``AppWorkload``.

    Returns ``(issue, cut, detach)``.  ``issue(cycle)`` is
    ``Core._issue_next_op`` + ``Core._issue_mem`` +
    ``AppWorkload.next_op`` / ``_pick_line`` / ``_pick_shared`` in one
    function — same branch order, same RNG consumption, same L1
    counter and request sequence, no ``Op`` built for the ~99% of ops
    that never stall.  Misses and upgrades go through the real
    ``L1Controller.access``; only the hit path (no protocol side
    effects beyond counters, LRU and the silent E → M upgrade) is
    inlined.  ``tests/cmp/test_behaviour_pins.py`` holds it equal to
    the generic loop.

    **Run-ahead windows.**  Between misses a core's issue is a function
    of its RNG cursor, its workload counters and its L1, and nothing
    else can touch those during the cores phase.  So one call applies
    every op up to the first one that is not a hit — a miss, an
    upgrade, a transient line, an MSHR-full stall, a barrier or a lock
    — ``ipc`` slots per cycle, possibly many cycles ahead of the clock:
    WORK runs are counted in bulk (one draw each, MEM iff it is below
    ``mem_fraction``) against a sync-cadence bound computed once per
    window, and hits are applied eagerly.  If that op falls in a later
    cycle the core parks on :meth:`DueSchedule.park` until then and
    runs it at its deadline, in node order and in its slot, exactly
    when the per-cycle loop would have; meanwhile
    :attr:`Core.instructions` and the busy ledger count arithmetically.
    Whatever reads or changes a parked core from outside the cores
    phase first calls ``cut()``, which undoes every op from the current
    cycle on — RNG cursor (handing back any block it drew:
    ``ReplayRng._ahead``), workload counters, LRU stamps and
    ``cache._clock``, E → M upgrades, hit counters — from journals kept
    per hit.  The core's next window draws the undone ops again from the
    rewound cursor: ops are a function of the cursor and the workload
    counters only, and a refill takes the handed-back blocks before it
    draws new ones, so they come out the same and are checked against
    the L1 as it is then.
    ``detach()`` cuts and writes the cursor back to the
    :class:`ReplayRng`, for ``Core.workload``'s setter.

    Everything per-core-constant — signature fractions, workload
    geometry, L1 internals, counter objects, state enums — is captured
    as a closure free variable, so each call's prologue is a handful
    of loads instead of re-deriving ~40 locals.

    So is the RNG cursor ``(words, pos, has32, stash32)``: while this
    loop runs nothing else consumes the core's stream.  Every
    ``random()`` the ops are made of is compared against a fraction, so
    it is one read from the block of raw words and one integer compare
    against the fraction's :func:`~repro.util.rng.word_threshold`; the
    four per-access bounded draws (hot line, shared-pool line,
    neighbour, peer slot) are Lemire multiply-shifts with precomputed
    rejection thresholds.  Exhaustion is an ``IndexError`` instead of a
    bounds compare per draw — free on the hot path under 3.11 exception
    tables.  The once-per-episode lock-id draw hands the cursor to
    ``ReplayRng.integers`` and takes it back.
    """
    workload = core._workload
    sig = workload.signature
    config = core.config
    l1 = core.l1
    cache = l1.array
    states = l1._states
    states_get = states.get
    sets = cache._sets
    nsets = cache.num_sets
    counts = l1._count
    c_read_hits = counts["read_hits"]
    c_write_hits = counts["write_hits"]
    mshr_allocate = core.mshr.allocate
    l1_access = l1.access
    enter = core._enter
    sync_access = core._sync_access
    rng = core._rng
    refill = rng._refill
    ahead = rng._ahead
    node = core.node
    schedule = core._schedule
    chip = schedule.clock
    park = schedule.park
    unpark = schedule.unpark

    # Every draw the ops are made of is compared against a fraction, so
    # the loop compares raw words against each fraction's word threshold.
    ipc = config.ipc
    blocking_below = word_threshold(config.blocking_fraction)
    mem_below = word_threshold(sig.mem_fraction)
    shared_below = word_threshold(sig.shared_fraction)
    shared_or_stream_below = word_threshold(
        sig.shared_fraction + sig.stream_fraction
    )
    cold_below = word_threshold(sig.private_cold_fraction)
    write_below = word_threshold(sig.write_fraction)
    shared_write_below = word_threshold(sig.shared_write_fraction)
    hot_lines = sig.hot_lines
    cold_lines = sig.cold_lines
    lock_count = sig.lock_count
    lock_hold_cycles = sig.lock_hold_cycles
    barrier_interval = sig.barrier_interval
    lock_interval = sig.lock_interval
    pattern = sig.comm_pattern
    pool_lines = sig.shared_pool_lines
    private_base = workload._private_base
    stream_base = workload._stream_base
    cold_base = workload._cold_base
    workload_node = workload.node
    num_nodes = workload.num_nodes
    shared_slots = max(1, pool_lines // num_nodes)
    butterfly_mod = max(1, num_nodes.bit_length() - 1)
    neighbors = workload._neighbors
    nneigh = len(neighbors)

    # Per-site Lemire rejection thresholds: ``(2**32 - high) % high``.
    # A draw is accepted iff ``(v32 * high) & 0xFFFFFFFF >= threshold``
    # — equivalent to :meth:`ReplayRng.integers`'s accept/reject
    # sequence because the threshold is below ``high``.  A range of one
    # consumes no words.
    def _lemire_threshold(high: int) -> int:
        return (0x1_0000_0000 - high) % high if high > 1 else 0

    hot_threshold = _lemire_threshold(hot_lines)
    pool_threshold = _lemire_threshold(pool_lines)
    neigh_threshold = _lemire_threshold(nneigh)
    slots_threshold = _lemire_threshold(shared_slots)

    S, E, M = L1State.S, L1State.E, L1State.M
    MEM = OpKind.MEM
    STALLED = CoreState.STALLED
    BARRIER_ARRIVE = CoreState.BARRIER_ARRIVE
    LOCK_ACQUIRE = CoreState.LOCK_ACQUIRE
    barrier_line = SyncManager.barrier_line()
    lock_line0 = SyncManager.lock_line(0)

    # Sync-op cadence as absolute op counts instead of per-op modulo:
    # ``count % interval == 0`` fires exactly at multiples, so the
    # next multiple past the ops already generated reproduces it.
    generated = workload._ops_generated
    next_barrier = next_lock = _NO_SYNC
    if barrier_interval:
        next_barrier = (generated // barrier_interval + 1) * barrier_interval
    if lock_interval:
        next_lock = (generated // lock_interval + 1) * lock_interval

    # The RNG cursor; ``issue`` keeps it in locals while it runs.
    cur_words = rng._buffer
    cur_pos = rng._pos
    cur_has32 = rng._has32
    cur_stash32 = rng._stash32
    # A parked window: the MEM op that ended it (generated, not yet
    # issued; None when the window ended at its bound), its op count
    # and the slot its deadline resumes at (-1: not parked).
    end_line = None
    end_write = False
    window_ops = 0
    wake_slot = -1
    # Where the latest window started — its op count and cursor — and
    # its journals, keyed by op index within the window: per hit, flat,
    # the way (None: a hit on a line the tag array does not hold), its
    # previous LRU stamp, the access kind and the cursor after the op;
    # per block entered, flat, the block; per E -> M upgrade the line;
    # per workload-counter move the counters before it.  One set per
    # core, reused: a core has at most one window.
    start_count = 0
    start_words: Optional[list[int]] = None
    start_pos = 0
    start_has32 = False
    start_stash32 = 0
    journal: list = []
    drawn: list = []
    flipped: list[tuple] = []
    moved: list[tuple] = []

    def counters(n: int) -> tuple:
        return (
            n, workload._stream_pos, workload._cold_pos,
            workload._butterfly_stage,
        )

    def next_block(n: int) -> list[int]:
        words = refill()
        drawn.extend((n, words))
        return words

    def issue(cycle: int) -> None:
        nonlocal cur_words, cur_pos, cur_has32, cur_stash32
        nonlocal end_line, end_write, window_ops, wake_slot
        nonlocal next_barrier, next_lock, start_count, start_words
        nonlocal start_pos, start_has32, start_stash32
        position = cycle * ipc
        stop = position + ipc
        if wake_slot >= 0:
            # Woken at the deadline: the window's ops are retired.
            position += wake_slot
            wake_slot = -1
            core._run_from = -1
            core._instructions += window_ops
        line = end_line
        is_write = end_write
        end_line = None
        op = core._pending
        if op is not None:
            # A stalled MEM op resumes first (never WORK/sync).
            core._pending = None
            line = op.line
            is_write = op.is_write
        words = cur_words
        pos = cur_pos
        has32 = cur_has32
        stash32 = cur_stash32
        touched = journal
        try:
            while True:
                if line is not None:
                    # -- the MEM op at ``position`` (Core._issue_mem) ----
                    state = states_get(line)
                    if state is E or state is M or (state is S and not is_write):
                        # Only a resumed op can hit here.
                        l1_access(line, is_write)
                    elif state is None or state is S:
                        # A miss — invalid, or a write to a shared line (an
                        # upgrade) — via the full controller.
                        if not mshr_allocate(line):
                            core._pending = Op(kind=MEM, line=line, is_write=is_write)
                            core._stall_line = None
                            enter(STALLED)
                            return
                        l1_access(line, is_write)
                        core._instructions += 1
                        try:
                            r = words[pos]
                        except IndexError:
                            words = refill()
                            pos = 0
                            r = words[0]
                        pos += 1
                        if r < blocking_below:
                            core._stall_line = line
                            enter(STALLED)
                            return
                        position += 1
                        line = None
                        continue
                    else:
                        # Transient ("z"): secondary access waits for the fill.
                        core._pending = Op(kind=MEM, line=line, is_write=is_write)
                        core._stall_line = line
                        enter(STALLED)
                        return
                    core._instructions += 1
                    position += 1
                    line = None

                count = workload._ops_generated
                if position < stop:
                    if count + 1 == next_barrier:
                        count += 1
                        workload._ops_generated = count
                        next_barrier += barrier_interval
                        if count == next_lock:
                            # The naive modulo check never sees a count the
                            # barrier consumed; the lock cadence is unshifted.
                            next_lock += lock_interval
                        enter(BARRIER_ARRIVE)
                        sync_access(barrier_line, True)
                        return
                    if count + 1 == next_lock:
                        workload._ops_generated = count + 1
                        next_lock += lock_interval
                        # Once per episode: the cursor goes through the RNG
                        # object for this draw.
                        rng._buffer = words
                        rng._pos = pos
                        rng._has32 = has32
                        rng._stash32 = stash32
                        lock_id = rng.integers(0, lock_count)
                        words = rng._buffer
                        pos = rng._pos
                        has32 = rng._has32
                        stash32 = rng._stash32
                        core._lock_id = lock_id
                        core._hold_cycles = lock_hold_cycles
                        enter(LOCK_ACQUIRE)
                        sync_access(lock_line0 + lock_id, True)
                        return

                # -- a window: every op up to the first non-hit ----------
                limit = (
                    next_barrier if next_barrier < next_lock else next_lock
                ) - count - 1
                if limit > _RUN_AHEAD_OPS:
                    limit = _RUN_AHEAD_OPS
                start_count = count
                start_words = words
                start_pos = pos
                start_has32 = has32
                start_stash32 = stash32
                if touched:
                    del touched[:]
                if drawn:
                    del drawn[:]
                if flipped:
                    del flipped[:]
                if moved:
                    del moved[:]
                clock = cache._clock
                n = writes = 0
                while True:
                    if line is not None:
                        state = states_get(line)
                        if not (
                            state is M or state is E
                            or (state is S and not is_write)
                        ):
                            count += 1
                            break
                        # A hit: CacheArray.touch inlined (LRU), journalled
                        # so a cut can undo it.
                        clock += 1
                        for way in sets[line % nsets]:
                            if way.line == line:
                                touched += (
                                    n, way, way.last_use, is_write,
                                    pos, has32, stash32,
                                )
                                way.last_use = clock
                                break
                        else:
                            touched += (
                                n, None, None, is_write, pos, has32, stash32
                            )
                        if is_write:
                            writes += 1
                            if state is E:
                                states[line] = M
                                flipped.append((n, line))
                        n += 1
                    # A run of WORK ops, one draw each, up to a draw
                    # below mem_fraction (a MEM op) or the window's bound.
                    start = pos
                    try:
                        while words[pos] >= mem_below:
                            pos += 1
                    except IndexError:
                        n += pos - start
                        if n >= limit:
                            pos -= n - limit
                            n = limit
                            line = None
                            break
                        words = next_block(n)
                        pos = 0
                        line = None  # applied already: scan on
                        continue
                    n += pos - start
                    if n >= limit:
                        pos -= n - limit
                        n = limit
                        line = None
                        break
                    # A MEM op: past its kind draw, the region draw.
                    try:
                        r = words[pos + 1]
                        pos += 2
                    except IndexError:
                        words = next_block(n)
                        pos = 1
                        r = words[0]
                    if r < shared_below:
                        if pattern == "uniform":
                            if pool_lines < 2:
                                line = _SHARED_BASE
                            else:
                                while True:
                                    if has32:
                                        has32 = False
                                        v = stash32
                                    else:
                                        try:
                                            word = words[pos]
                                        except IndexError:
                                            words = next_block(n)
                                            pos = 0
                                            word = words[0]
                                        pos += 1
                                        stash32 = word >> 32
                                        has32 = True
                                        v = word & 0xFFFFFFFF
                                    m = v * pool_lines
                                    if (m & 0xFFFFFFFF) >= pool_threshold:
                                        break
                                line = _SHARED_BASE + (m >> 32)
                        else:
                            if pattern == "butterfly":
                                moved.append(counters(n))
                                stage = workload._butterfly_stage
                                workload._butterfly_stage = (
                                    stage + 1
                                ) % butterfly_mod
                                peer = workload_node ^ (1 << stage)
                            elif nneigh < 2:
                                peer = neighbors[0]
                            else:  # neighbor
                                while True:
                                    if has32:
                                        has32 = False
                                        v = stash32
                                    else:
                                        try:
                                            word = words[pos]
                                        except IndexError:
                                            words = next_block(n)
                                            pos = 0
                                            word = words[0]
                                        pos += 1
                                        stash32 = word >> 32
                                        has32 = True
                                        v = word & 0xFFFFFFFF
                                    m = v * nneigh
                                    if (m & 0xFFFFFFFF) >= neigh_threshold:
                                        break
                                peer = neighbors[m >> 32]
                            if shared_slots < 2:
                                slot_draw = 0
                            else:
                                while True:
                                    if has32:
                                        has32 = False
                                        v = stash32
                                    else:
                                        try:
                                            word = words[pos]
                                        except IndexError:
                                            words = next_block(n)
                                            pos = 0
                                            word = words[0]
                                        pos += 1
                                        stash32 = word >> 32
                                        has32 = True
                                        v = word & 0xFFFFFFFF
                                    m = v * shared_slots
                                    if (m & 0xFFFFFFFF) >= slots_threshold:
                                        break
                                slot_draw = m >> 32
                            line = (
                                _SHARED_BASE
                                + peer % num_nodes
                                + slot_draw * num_nodes
                            )
                        try:
                            r = words[pos]
                        except IndexError:
                            words = next_block(n)
                            pos = 0
                            r = words[0]
                        pos += 1
                        is_write = r < shared_write_below
                    else:
                        if r < shared_or_stream_below:
                            moved.append(counters(n))
                            line = stream_base + (workload._stream_pos % _REGION)
                            workload._stream_pos += 1
                        else:
                            try:
                                r = words[pos]
                            except IndexError:
                                words = next_block(n)
                                pos = 0
                                r = words[0]
                            pos += 1
                            if r < cold_below:
                                moved.append(counters(n))
                                line = cold_base + (workload._cold_pos % cold_lines)
                                workload._cold_pos += 1
                            elif hot_lines == 1:
                                # integers(0, 1) consumes no words.
                                line = private_base
                            else:
                                # Hot private line — the single most frequent
                                # bounded draw.
                                while True:
                                    if has32:
                                        has32 = False
                                        v = stash32
                                    else:
                                        try:
                                            word = words[pos]
                                        except IndexError:
                                            words = next_block(n)
                                            pos = 0
                                            word = words[0]
                                        pos += 1
                                        stash32 = word >> 32
                                        has32 = True
                                        v = word & 0xFFFFFFFF
                                    m = v * hot_lines
                                    # A power-of-two set never rejects.
                                    if not hot_threshold or (
                                        m & 0xFFFFFFFF
                                    ) >= hot_threshold:
                                        break
                                line = private_base + (m >> 32)
                        try:
                            r = words[pos]
                        except IndexError:
                            words = next_block(n)
                            pos = 0
                            r = words[0]
                        pos += 1
                        is_write = r < write_below
                workload._ops_generated = count + n
                hits = len(touched) // 7
                if hits:
                    cache._clock = clock
                    c_read_hits.value += hits - writes
                    if writes:
                        c_write_hits.value += writes
                position += n
                if position < stop:
                    # The window ended inside this cycle: nothing to park,
                    # and ``line`` (if any) runs next, in its slot.
                    core._instructions += n
                    continue
                end_line = line
                end_write = is_write
                core._run_from = position - n
                window_ops = n
                wake_slot = position % ipc
                park(node, position // ipc)
                return
        finally:
            cur_words = words
            cur_pos = pos
            cur_has32 = has32
            cur_stash32 = stash32
            if drawn and wake_slot < 0:
                # No window to cut: let go of the blocks behind the cursor.
                del drawn[:]
                start_words = None

    def cut() -> None:
        nonlocal cur_words, cur_pos, cur_has32, cur_stash32
        nonlocal end_line, wake_slot
        kept = chip.cycle * ipc - core._run_from  # ops before now
        # Undo the hits at or after op ``kept``, latest first.
        end = keep = len(journal)
        while keep and journal[keep - 7] >= kept:
            keep -= 7
        writes = 0
        for at in range(end - 7, keep - 7, -7):
            way = journal[at + 1]
            if way is not None:
                way.last_use = journal[at + 2]
            writes += journal[at + 3]
        undone = (end - keep) // 7
        cache._clock -= undone
        c_write_hits.value -= writes
        c_read_hits.value -= undone - writes
        for n, line in flipped:
            if n >= kept:
                states[line] = E
        moves = [move for move in moved if move[0] >= kept]
        if moves:
            (
                workload._stream_pos, workload._cold_pos,
                workload._butterfly_stage,
            ) = moves[0][1:]
        workload._ops_generated = start_count + kept
        # The cursor after the last kept hit (or at the window's start),
        # moved on one draw per WORK op since, in the block it had
        # reached; the blocks past it go back to the RNG.
        if keep:
            before, _way, _stamp, _write, pos, cur_has32, cur_stash32 = (
                journal[keep - 7:keep]
            )
        else:
            before = -1
            pos, cur_has32, cur_stash32 = start_pos, start_has32, start_stash32
        words = start_words
        at = 0
        while at < len(drawn) and drawn[at] <= before:
            words = drawn[at + 1]
            at += 2
        pos += kept - 1 - before
        while pos > len(words):
            pos -= len(words)
            words = drawn[at + 1]
            at += 2
        cur_words = words
        cur_pos = pos
        ahead.extend(reversed(drawn[at + 1::2]))
        del drawn[:]
        end_line = None
        wake_slot = -1
        core._instructions += kept
        core._run_from = -1
        unpark(node)

    def detach() -> None:
        if wake_slot >= 0:
            cut()
        rng._buffer = cur_words
        rng._pos = cur_pos
        rng._has32 = cur_has32
        rng._stash32 = cur_stash32

    return issue, cut, detach
