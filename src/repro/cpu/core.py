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
from repro.util.rng import ReplayRng
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
            raise ValueError(f"blocking fraction out of [0,1]")


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
_NEVER = -1  # no hold release / spin poll scheduled


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

    Only three kinds of tick act: a RUNNING core issues, a LOCK_HOLD
    core releases on the last cycle of its hold, a spinning core polls
    every ``spin_interval`` cycles.  Every other tick — STALLED, the
    wait states, the stretches between polls — only counts a cycle,
    which the cores charge lazily (:meth:`Core._enter`).  So the cores
    phase visits the RUNNING set plus the holds and polls whose
    deadline (:func:`hold_release_cycle`, :func:`spin_poll_cycle`) has
    come, in ascending node order, and nobody else.

    That is exactly the work, in exactly the order, of ticking every
    core every cycle, because during the cores phase nothing changes a
    core's state but its own action: every external wake — a data fill,
    a confirmation, a §5.1 release signal — arrives through the
    calendar or the network tick, both of which run *before* the cores
    in ``CmpSystem.tick``, and no network's ``try_send`` delivers
    synchronously.

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
        self._worklist: list[int] = []  # sorted cache of ``running``
        self._dirty = True
        # (deadline, node) heaps; an entry is live while it matches the
        # core's ``_hold_at`` / ``_spin_at`` and is dropped otherwise.
        self._holds: list[tuple[int, int]] = []
        self._polls: list[tuple[int, int]] = []

    def tick(self, cycle: int) -> None:
        """The cores phase of ``cycle``."""
        cores = self.cores
        due: Optional[list[int]] = None
        holds = self._holds
        while holds and holds[0][0] <= cycle:
            deadline, node = heappop(holds)
            if cores[node]._hold_at == deadline:
                due = [node] if due is None else due + [node]
        polls = self._polls
        while polls and polls[0][0] <= cycle:
            deadline, node = heappop(polls)
            if cores[node]._spin_at == deadline:
                due = [node] if due is None else due + [node]
        running = self.running
        if due is None and not running:
            return
        self.acting = True
        try:
            if due is None:
                # Cores run in multi-cycle bursts, so the sorted
                # worklist is usually the same cycle over cycle: resort
                # only on churn.  Every member is RUNNING and stays so
                # until its own turn; there is no state to dispatch on.
                if self._dirty:
                    self._worklist = sorted(running)
                    self._dirty = False
                for node in self._worklist:
                    cores[node]._issue(cycle)
                return
            for node in sorted(running.union(due)):
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

        A RUNNING core pins "now"; otherwise the earliest live hold
        release or spin poll; ``None`` when every core is blocked on an
        external event.  Dead heap entries are discarded on the way.
        """
        if self.running:
            return cycle
        cores = self.cores
        horizon = None
        heap = self._holds
        while heap:
            deadline, node = heap[0]
            if cores[node]._hold_at == deadline:
                horizon = deadline
                break
            heappop(heap)
        heap = self._polls
        while heap:
            deadline, node = heap[0]
            if cores[node]._spin_at == deadline:
                if horizon is None or deadline < horizon:
                    horizon = deadline
                break
            heappop(heap)
        return horizon


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
        self.instructions = 0
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
        self._hold_at = _NEVER  # scheduled release tick while LOCK_HOLD
        self._spin_at = _NEVER  # scheduled poll while spinning
        self._schedule = schedule = schedule or DueSchedule()
        schedule.cores[node] = self
        schedule.running.add(node)

        self._park = None
        self.workload = workload

    @property
    def workload(self):
        return self._workload

    @workload.setter
    def workload(self, workload) -> None:
        """Takes effect at the next issue, and picks the issue loop: the
        fused one when the stream is an ``AppWorkload``'s, the generic
        ``next_op`` one for anything else (a trace, a scripted test)."""
        if self._park is not None:
            self._park()  # the fused loop held the RNG cursor
        self._workload = workload
        if type(workload) is AppWorkload:
            self._issue, self._park = _fused_issue(self)
        else:
            self._issue, self._park = self._issue_next_op, None

    # ------------------------------------------------------------------
    # cycle accounting and scheduling
    # ------------------------------------------------------------------

    def tick(self, cycle: int) -> None:
        """One cycle of a core that is not part of a chip: advance its
        private schedule's clock around that schedule's cores phase."""
        schedule = self._schedule
        schedule.cycle = cycle
        schedule.tick(cycle)
        schedule.cycle = cycle + 1

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
            schedule._dirty = True
        elif old is _LOCK_HOLD:
            self._hold_at = _NEVER
        elif old in _SPIN_STATES:
            self._spin_at = _NEVER
        if new is _RUNNING:
            schedule.running.add(node)
            schedule._dirty = True
        elif new is _LOCK_HOLD:
            self._hold_at = release = hold_release_cycle(
                settled, self._hold_cycles
            )
            heappush(schedule._holds, (release, node))
        elif new in _SPIN_STATES:
            self._spin_at = poll = spin_poll_cycle(settled, self._next_spin)
            heappush(schedule._polls, (poll, node))

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
                self.instructions += 1
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
        self.instructions += 1
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
        self._spin_at = _NEVER
        self._next_spin = cycle + self.config.spin_interval
        line = self._sync_line
        # A transient line means the spin read is already outstanding.
        if not self.l1.state(line).is_transient:
            if self.l1.access(line, False) is AccessResult.HIT:
                self._check_spin_result()
        if self._spin_at == _NEVER and self.state in _SPIN_STATES:
            self._spin_at = self._next_spin
            heappush(self._schedule._polls, (self._next_spin, self.node))

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


def _fused_issue(core: Core):
    """Compile ``core``'s issue loop for its ``AppWorkload``.

    Returns ``(issue, park)``.  ``issue(cycle)`` is
    ``Core._issue_next_op`` + ``Core._issue_mem`` +
    ``AppWorkload.next_op`` / ``_pick_line`` / ``_pick_shared`` in one
    function — same branch order, same RNG consumption, same L1
    counter and request sequence, no ``Op`` built for the ~99% of ops
    that never stall.  Misses and upgrades go through the real
    ``L1Controller.access``; only the hit path (no protocol side
    effects beyond counters and LRU) is inlined.
    ``tests/cmp/test_vector_equivalence.py`` holds it equal to the
    generic loop.

    Everything per-core-constant — signature fractions, workload
    geometry, L1 internals, counter objects, state enums — is captured
    as a closure free variable, so each call's prologue is a handful
    of loads instead of re-deriving ~40 locals.

    So is the RNG cursor: while this loop runs nothing else consumes
    the core's stream, so the buffer position and 32-bit stash live in
    closure cells, every ``random()`` is one read from the
    block-precomputed float list, and the four per-access bounded draws
    (hot line, shared-pool line, neighbour, peer slot) are Lemire
    multiply-shifts with precomputed rejection thresholds.  Exhaustion
    is an ``IndexError`` instead of a bounds compare per draw — free on
    the hot path under 3.11 exception tables.  ``park()`` writes the
    cursor back to the :class:`ReplayRng`: for the once-per-episode
    lock-id draw, which goes through ``ReplayRng.integers``, and for
    ``Core.workload``'s setter when the core changes issue loop.
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

    slots = range(config.ipc)
    blocking_fraction = config.blocking_fraction
    mem_fraction = sig.mem_fraction
    shared_fraction = sig.shared_fraction
    shared_or_stream = sig.shared_fraction + sig.stream_fraction
    cold_fraction = sig.private_cold_fraction
    write_fraction = sig.write_fraction
    shared_write_fraction = sig.shared_write_fraction
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
    node = workload.node
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
    # next multiple past the ops already generated reproduces it; -1
    # never matches.
    generated = workload._ops_generated
    next_barrier = next_lock = -1
    if barrier_interval:
        next_barrier = (generated // barrier_interval + 1) * barrier_interval
    if lock_interval:
        next_lock = (generated // lock_interval + 1) * lock_interval

    words = rng._buffer
    floats = rng._floats
    pos = rng._pos
    has32 = rng._has32
    stash32 = rng._stash32

    def park() -> None:
        rng._pos = pos
        rng._has32 = has32
        rng._stash32 = stash32

    def issue(cycle: int) -> None:
        nonlocal next_barrier, next_lock
        nonlocal words, floats, pos, has32, stash32
        count = workload._ops_generated
        instr = 0
        op = core._pending

        try:
            for _slot in slots:
                if op is not None:
                    # A stalled MEM op resumes first (never WORK/sync).
                    core._pending = None
                    line = op.line
                    is_write = op.is_write
                    op = None
                else:
                    count += 1
                    if count == next_barrier:
                        next_barrier += barrier_interval
                        if count == next_lock:
                            # The naive modulo check never sees a count
                            # the barrier consumed; the lock cadence is
                            # unshifted.
                            next_lock += lock_interval
                        enter(BARRIER_ARRIVE)
                        sync_access(barrier_line, True)
                        return
                    if count == next_lock:
                        next_lock += lock_interval
                        # Once per episode: hand the cursor to the
                        # RNG object for this draw and take it back.
                        park()
                        lock_id = rng.integers(0, lock_count)
                        words = rng._buffer
                        floats = rng._floats
                        pos = rng._pos
                        has32 = rng._has32
                        stash32 = rng._stash32
                        core._lock_id = lock_id
                        core._hold_cycles = lock_hold_cycles
                        enter(LOCK_ACQUIRE)
                        sync_access(lock_line0 + lock_id, True)
                        return
                    try:
                        r = floats[pos]
                    except IndexError:
                        words = refill()
                        floats = rng._floats
                        pos = 0
                        r = floats[0]
                    pos += 1
                    if r >= mem_fraction:
                        instr += 1
                        continue
                    try:
                        r = floats[pos]
                    except IndexError:
                        words = refill()
                        floats = rng._floats
                        pos = 0
                        r = floats[0]
                    pos += 1
                    if r < shared_fraction:
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
                                            words = refill()
                                            floats = rng._floats
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
                                stage = workload._butterfly_stage
                                workload._butterfly_stage = (
                                    stage + 1
                                ) % butterfly_mod
                                peer = node ^ (1 << stage)
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
                                            words = refill()
                                            floats = rng._floats
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
                                            words = refill()
                                            floats = rng._floats
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
                            r = floats[pos]
                        except IndexError:
                            words = refill()
                            floats = rng._floats
                            pos = 0
                            r = floats[0]
                        pos += 1
                        is_write = r < shared_write_fraction
                    else:
                        if r < shared_or_stream:
                            line = stream_base + (
                                workload._stream_pos % _REGION
                            )
                            workload._stream_pos += 1
                        else:
                            try:
                                r = floats[pos]
                            except IndexError:
                                words = refill()
                                floats = rng._floats
                                pos = 0
                                r = floats[0]
                            pos += 1
                            if r < cold_fraction:
                                line = cold_base + (
                                    workload._cold_pos % cold_lines
                                )
                                workload._cold_pos += 1
                            elif hot_lines == 1:
                                # integers(0, 1) consumes no words.
                                line = private_base
                            else:
                                # Hot private line — the single most
                                # frequent bounded draw.
                                while True:
                                    if has32:
                                        has32 = False
                                        v = stash32
                                    else:
                                        try:
                                            word = words[pos]
                                        except IndexError:
                                            words = refill()
                                            floats = rng._floats
                                            pos = 0
                                            word = words[0]
                                        pos += 1
                                        stash32 = word >> 32
                                        has32 = True
                                        v = word & 0xFFFFFFFF
                                    m = v * hot_lines
                                    if (m & 0xFFFFFFFF) >= hot_threshold:
                                        break
                                line = private_base + (m >> 32)
                        try:
                            r = floats[pos]
                        except IndexError:
                            words = refill()
                            floats = rng._floats
                            pos = 0
                            r = floats[0]
                        pos += 1
                        is_write = r < write_fraction

                # -- memory issue (Core._issue_mem, fused) --------------
                state = states_get(line)
                if state is E or state is M or (state is S and not is_write):
                    # A hit: CacheArray.touch inlined (LRU + counts).
                    cache._clock = clock = cache._clock + 1
                    for way in sets[line % nsets]:
                        if way.line == line:
                            way.last_use = clock
                            cache.hits += 1
                            break
                    else:
                        cache.misses += 1
                    if is_write:
                        c_write_hits.value += 1
                        states[line] = M
                    else:
                        c_read_hits.value += 1
                    instr += 1
                    continue
                if state is None or state is S:
                    # A miss — invalid, or a write to a shared line (an
                    # upgrade) — via the full controller.
                    if not mshr_allocate(line):
                        core._pending = Op(
                            kind=MEM, line=line, is_write=is_write
                        )
                        core._stall_line = None
                        enter(STALLED)
                        return
                    l1_access(line, is_write)
                    instr += 1
                    try:
                        r = floats[pos]
                    except IndexError:
                        words = refill()
                        floats = rng._floats
                        pos = 0
                        r = floats[0]
                    pos += 1
                    if r < blocking_fraction:
                        core._stall_line = line
                        enter(STALLED)
                        return
                    continue
                # Transient ("z"): secondary access waits for the fill.
                core._pending = Op(kind=MEM, line=line, is_write=is_write)
                core._stall_line = line
                enter(STALLED)
                return
        finally:
            workload._ops_generated = count
            core.instructions += instr


    return issue, park
