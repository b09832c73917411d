"""The columnar vectorized core engine (docs/performance.md).

The naive simulation loop ticks every :class:`~repro.cpu.core.Core`
object every cycle.  At 16 nodes that is ~78% wasted work (most cores
are STALLED, burning one counter increment per tick) and the remaining
~22% — the RUNNING cores' ``_issue`` path — is dominated by
``numpy.random.Generator`` scalar draws and per-op object construction.
Neither cost shrinks with better networks; it is the ceiling on the
256–1024-node sweeps the ROADMAP targets.

This module replaces the per-object tick with a *columnar* engine that
is **bit-exact** with the naive loop (every golden snapshot, counter and
``CmpResults`` field identical — enforced by
``tests/cmp/test_vector_equivalence.py``):

* **Columnar phase ledgers** — per-node accrual boundaries and pending
  busy/stall/sync counts live in parallel numpy arrays indexed by node
  (:func:`accrue_columns`).  Passive states (STALLED, the wait states,
  the between-poll stretches of a spin) cost *nothing per cycle*: their
  counter arithmetic is charged lazily, in bulk, at the next state
  transition or flush.  This is legal because a passive tick's entire
  body is ``counter += 1`` — the same argument that makes the
  fast-forward engine's ``skip()`` exact, applied per node instead of
  per system.
* **Event-scheduled actives** — the only states with per-cycle actions
  are RUNNING (issue), LOCK_HOLD (the release tick) and the spin states
  (the polls).  RUNNING nodes live in a set; hold releases and spin
  polls live in heaps keyed by the absolute cycle computed by
  :func:`hold_release_cycle` / :func:`spin_poll_cycle`.  The per-cycle
  core phase touches exactly the nodes the naive loop would have found
  something to do for.
* **A replayed RNG** — :class:`ReplayRng` reproduces the exact draw
  stream of ``numpy.random.Generator(PCG64(seed))`` from buffered raw
  64-bit words, turning ~0.4–1.3 µs scalar draws into ~0.1 µs list
  reads without perturbing a single sample.
* **An inlined issue path** — :class:`ColumnarCore` overrides
  ``_issue`` with a fused generate-and-access loop that skips ``Op``
  construction for the ~99% of ops that never stall and inlines the L1
  hit path, while delegating every miss to the real
  :meth:`~repro.coherence.l1.L1Controller.access` so the protocol
  machinery (requests, transients, fills) is shared, not duplicated.

Why this cannot change results: during the cores phase no core's state
can be mutated by anything but its own action.  Every external wake —
a data fill, a confirmation, a §5.1 release signal — arrives through
the calendar or the network tick, and both run *before* the cores in
``CmpSystem.tick``; no network's ``try_send`` delivers synchronously.
So the engine's per-cycle worklist (running ∪ due holds ∪ due polls),
processed in node order, visits exactly the nodes whose naive tick
would have done real work, in the same order, with the same RNG
stream.

The naive object-per-node loop remains the reference implementation,
selected with ``CmpConfig(vectorized=False)`` or ``REPRO_NO_VECTOR=1``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Optional

import numpy as np

from repro.coherence.l1 import L1State
from repro.coherence.messages import MsgType
from repro.cpu.core import Core, CoreState, Op, OpKind
from repro.cpu.sync import SyncManager
from repro.util.stats import StatGroup
from repro.workloads.splash2 import _REGION, _SHARED_BASE

__all__ = [
    "ReplayRng",
    "ColumnarCore",
    "VectorCoreEngine",
    "accrue_columns",
    "hold_release_cycle",
    "spin_poll_cycle",
    "mshr_admit_mask",
    "BUCKET_CODE",
    "BUSY",
    "STALL",
    "SYNC",
]

# ---------------------------------------------------------------------------
# Columnar kernels
#
# Small pure functions over parallel per-node arrays.  They are the
# engine's arithmetic core and the unit the hypothesis suite
# (tests/cpu/test_vector_primitives.py) checks against scalar
# re-derivations on random state vectors.
# ---------------------------------------------------------------------------

#: Cycle-bucket codes: which counter a tick in a given state feeds.
BUSY, STALL, SYNC = 0, 1, 2
NUM_BUCKETS = 3

#: CoreState -> bucket code, mirroring Core.tick's counter choice.
BUCKET_CODE = {
    state: (
        BUSY if state is CoreState.RUNNING
        else STALL if state is CoreState.STALLED
        else SYNC
    )
    for state in CoreState
}

_SPIN_STATES = (CoreState.BARRIER_SPIN, CoreState.LOCK_SPIN)
_NEVER = -1


def accrue_columns(
    until: np.ndarray, pending: np.ndarray, codes: np.ndarray, boundary: int
) -> np.ndarray:
    """Charge every node's elapsed ticks to its current bucket, in bulk.

    ``until[j]`` is the exclusive cycle through which node ``j``'s
    counters are settled; ``codes[j]`` its current bucket.  After the
    call every node is settled through ``boundary``: ``pending[j, c]``
    gained ``max(0, boundary - until[j])`` for ``c = codes[j]`` and
    ``until`` is clamped up to ``boundary``.  Nodes already settled at
    or past ``boundary`` (their own action pre-settled the in-flight
    tick) are untouched.  Returns the per-node deltas.
    """
    delta = boundary - until
    np.clip(delta, 0, None, out=delta)
    pending[np.arange(len(until)), codes] += delta
    np.maximum(until, boundary, out=until)
    return delta


def hold_release_cycle(anchor: int, hold_cycles: int) -> int:
    """Absolute cycle of a lock hold's release tick.

    ``anchor`` is the first cycle the naive loop would tick the core in
    LOCK_HOLD.  Each tick decrements the countdown and releases when it
    reaches zero, so ``hold_cycles >= 1`` releases on the
    ``hold_cycles``-th tick and a degenerate zero-cycle hold still
    burns its one release tick:

    >>> hold_release_cycle(10, 30)
    39
    >>> hold_release_cycle(10, 0)
    10
    """
    return anchor + max(1, hold_cycles) - 1


def spin_poll_cycle(anchor: int, next_spin: int) -> int:
    """Absolute cycle of a spinning core's next poll.

    The naive spin loop gates on ``cycle >= _next_spin`` every tick, so
    the first poll after entering a spin state at ``anchor`` lands on
    whichever comes later:

    >>> spin_poll_cycle(10, 4), spin_poll_cycle(10, 12)
    (10, 12)
    """
    return anchor if next_spin <= anchor else next_spin


def mshr_admit_mask(
    occupancy: np.ndarray, limit: int, merged: np.ndarray
) -> np.ndarray:
    """Columnar mirror of :meth:`MshrFile.allocate`'s admission rule.

    A batch of one prospective miss per node is admitted where the line
    already holds a register (a merge) or the file has a free one.
    Used by the engine's :meth:`VectorCoreEngine.audit` invariant check
    and validated against the scalar file by the property suite.
    """
    return merged | (occupancy < limit)


# ---------------------------------------------------------------------------
# Bit-exact RNG replay
# ---------------------------------------------------------------------------


class ReplayRng:
    """Replays ``numpy.random.Generator(PCG64(seed))`` draws from a buffer.

    The cores draw scalars one at a time (op mix, line choice,
    blocking-fraction), which pays numpy's full ufunc dispatch per draw.
    This class pulls raw 64-bit words from the bit generator in blocks
    (``PCG64.random_raw``) and applies the same output transforms the
    Generator would, so the produced stream is *identical sample for
    sample* — including PCG64's cross-call stash of the unused high
    half of a word split for 32-bit output:

    * ``random()`` — ``(word >> 11) * 2**-53`` (53-bit mantissa fill).
    * ``integers(low, high)`` — Lemire's 32-bit multiply-shift bounded
      draw with rejection, the path numpy takes for the default
      ``int64`` dtype whenever the range fits in 32 bits (every draw
      the workloads make).  A range of one returns ``low`` without
      consuming a word, exactly as numpy does.

    The equivalence is pinned by hypothesis tests interleaving both
    call types against a real ``Generator`` over random seeds.
    """

    __slots__ = ("_raw", "_buffer", "_floats", "_pos", "_has32", "_stash32")

    _BLOCK = 1024

    def __init__(self, seed: int):
        self._raw = np.random.PCG64(seed).random_raw
        self._buffer: list[int] = []
        self._floats: list[float] = []
        self._pos = 0
        self._has32 = False
        self._stash32 = 0

    def _refill(self) -> list[int]:
        """Replace the exhausted buffer with a fresh block of raw words.

        The ``random()`` transform is precomputed for the whole block:
        ``(word >> 11) * 2**-53`` is one exact uint64 shift and one
        float64 multiply whether done by numpy on the block or by
        Python per word, so ``_floats[i]`` is bitwise what ``random()``
        would return for ``_buffer[i]``.
        """
        raw = self._raw(self._BLOCK)
        self._buffer = buffer = raw.tolist()
        self._floats = ((raw >> 11) * 1.1102230246251565e-16).tolist()
        self._pos = 0
        return buffer

    def _next64(self) -> int:
        pos = self._pos
        buffer = self._buffer
        if pos >= len(buffer):
            buffer = self._refill()
            pos = 0
        self._pos = pos + 1
        return buffer[pos]

    def _next32(self) -> int:
        # PCG64 splits one 64-bit word into two 32-bit outputs: the low
        # half first, the high half stashed for the next 32-bit request
        # (64-bit requests bypass and preserve the stash).
        if self._has32:
            self._has32 = False
            return self._stash32
        word = self._next64()
        self._stash32 = word >> 32
        self._has32 = True
        return word & 0xFFFFFFFF

    def random(self) -> float:
        """One double in [0, 1), identical to ``Generator.random()``."""
        pos = self._pos
        if pos >= len(self._buffer):
            self._refill()
            pos = 0
        self._pos = pos + 1
        return self._floats[pos]

    def integers(self, low: int, high: int) -> int:
        """One int in [low, high), identical to ``Generator.integers``."""
        rng = high - low - 1  # inclusive range, numpy's convention
        if rng == 0:
            return low
        rng_excl = rng + 1
        m = self._next32() * rng_excl
        leftover = m & 0xFFFFFFFF
        if leftover < rng_excl:
            threshold = (0xFFFFFFFF - rng) % rng_excl
            while leftover < threshold:
                m = self._next32() * rng_excl
                leftover = m & 0xFFFFFFFF
        return low + (m >> 32)


# ---------------------------------------------------------------------------
# The columnar core
# ---------------------------------------------------------------------------


class ColumnarCore(Core):
    """A :class:`Core` whose state transitions notify the vector engine.

    Behaviourally identical to the base core — the overridden
    ``_issue`` consumes the same RNG stream, touches the same L1/MSHR
    structures in the same order and leaves identical counters; it just
    does so without per-op allocation or per-draw ufunc dispatch.  The
    ``state`` property is the engine's write-through hook: every
    transition settles the node's cycle ledger and (un)schedules it.
    """

    def __init__(self, engine: "VectorCoreEngine", *args, **kwargs):
        # The base initializer assigns ``self.state`` before the engine
        # registry knows this node; arm the hook only afterwards.
        self._engine: Optional[VectorCoreEngine] = None
        self._state_value = CoreState.RUNNING
        super().__init__(*args, **kwargs)
        self._engine = engine
        engine.register(self)
        # Pre-resolved workload geometry for the fused issue loop.
        workload = self.workload
        sig = workload.signature
        n = workload.num_nodes
        self._shared_slots = max(1, sig.shared_pool_lines // n)
        self._butterfly_mod = max(1, n.bit_length() - 1)
        node = workload.node
        side = int(round(n ** 0.5))
        x, y = node % side, node // side
        candidates = []
        if x > 0:
            candidates.append(node - 1)
        if x < side - 1:
            candidates.append(node + 1)
        if y > 0:
            candidates.append(node - side)
        if y < side - 1:
            candidates.append(node + side)
        self._neighbors = candidates
        # Compile the fused issue loop with every per-core constant in
        # closure cells; overriding the method with the instance
        # attribute is what the engine's ``core._issue(cycle)`` binds.
        self._issue = _build_issue(self)

    @property
    def state(self) -> CoreState:
        return self._state_value

    @state.setter
    def state(self, new: CoreState) -> None:
        old = self._state_value
        self._state_value = new
        engine = self._engine
        if engine is not None and new is not old:
            engine.on_state_change(self, old, new)

def _build_issue(core: "ColumnarCore"):
    """Compile ``core``'s fused issue loop, constants in closure cells.

    The fused loop is ``Core._issue`` + ``Core._issue_mem`` +
    ``AppWorkload.next_op`` / ``_pick_line`` / ``_pick_shared`` in one
    function — same branch order, same RNG consumption, same L1
    counter and request sequence.  Misses fall through to the real
    ``L1Controller.access``; only the hit paths (no protocol side
    effects beyond counters and LRU) are inlined.

    Everything per-core-constant — signature fractions, workload
    geometry, L1 internals, counter objects, state enums — is captured
    as a closure free variable, so each call's prologue is a handful
    of RNG-cursor loads instead of re-deriving ~40 locals; at three
    issue calls per simulated cycle the prologue used to be a fifth of
    the whole cores phase.

    The uniform draws are inlined: the RNG cursor and 32-bit stash
    live in locals, every ``random()`` is one read from the
    block-precomputed float list, and the hot-private bounded draw
    (the overwhelmingly most frequent ``integers`` call) is Lemire
    with a precomputed rejection threshold.  The rarer bounded draws
    still go through :meth:`ReplayRng.integers`, with cursor and stash
    written back before and re-read after (a rejection sequence can
    consume words and refill the buffer); the ``finally`` keeps them
    consistent across every exit path and settles the locally
    accumulated op and instruction counts.
    """
    workload = core.workload
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
    c_upgrades = counts["upgrades"]
    mshr_allocate = core.mshr.allocate
    l1_access = l1.access
    l1_request = l1._request
    cache_touch = cache.touch
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
    num_nodes = workload.num_nodes
    shared_slots = core._shared_slots
    butterfly_mod = core._butterfly_mod
    neighbors = core._neighbors
    nneigh = len(neighbors)
    node = workload.node

    # Per-site Lemire rejection thresholds for every bounded draw the
    # loop can make: ``(2**32 - high) % high``.  A draw is accepted iff
    # ``(v32 * high) & 0xFFFFFFFF >= threshold`` — equivalent to
    # :meth:`ReplayRng.integers`'s accept/reject sequence because the
    # threshold is below ``high``.  A range of one consumes no words.
    def _lemire_threshold(high: int) -> int:
        return (0x1_0000_0000 - high) % high if high > 1 else 0

    hot_threshold = _lemire_threshold(hot_lines)
    pool_threshold = _lemire_threshold(pool_lines)
    neigh_threshold = _lemire_threshold(nneigh)
    slots_threshold = _lemire_threshold(shared_slots)
    lock_threshold = _lemire_threshold(lock_count)

    S, E, M = L1State.S, L1State.E, L1State.M
    S_MA = L1State.S_MA
    REQ_UPG = MsgType.REQ_UPG
    MEM = OpKind.MEM
    STALLED = CoreState.STALLED
    BARRIER_ARRIVE = CoreState.BARRIER_ARRIVE
    LOCK_ACQUIRE = CoreState.LOCK_ACQUIRE
    barrier_line = SyncManager.barrier_line()
    lock_line0 = SyncManager.lock_line(0)

    # Sync-op cadence as absolute op counts instead of per-op modulo:
    # ``count % interval == 0`` fires exactly at multiples, so the
    # next-multiple cells reproduce it; -1 never matches.
    next_barrier = barrier_interval or -1
    next_lock = lock_interval or -1

    # The RNG cursor lives in closure cells, not on the ReplayRng: with
    # every draw inlined nothing else consumes this core's stream, so
    # per-call attribute loads and write-backs would be pure overhead.
    # Exhaustion is handled by IndexError instead of a bounds compare
    # per draw — free on the hot path under 3.11 exception tables.
    words = rng._buffer
    floats = rng._floats
    pos = rng._pos
    has32 = rng._has32
    stash32 = rng._stash32

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
                        core.state = BARRIER_ARRIVE
                        sync_access(barrier_line, True)
                        return
                    if count == next_lock:
                        next_lock += lock_interval
                        if lock_count < 2:
                            lock_id = 0
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
                                m = v * lock_count
                                if (m & 0xFFFFFFFF) >= lock_threshold:
                                    break
                            lock_id = m >> 32
                        core._lock_id = lock_id
                        core._hold_left = lock_hold_cycles
                        core.state = LOCK_ACQUIRE
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
                if state is None:
                    # Invalid: a definite miss via the full controller.
                    if not mshr_allocate(line):
                        core._pending = Op(
                            kind=MEM, line=line, is_write=is_write
                        )
                        core._stall_line = None
                        core.state = STALLED
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
                        core.state = STALLED
                        return
                    continue
                if state is S:
                    if is_write:
                        # Upgrade: a miss, but only counters + request.
                        if not mshr_allocate(line):
                            core._pending = Op(
                                kind=MEM, line=line, is_write=is_write
                            )
                            core._stall_line = None
                            core.state = STALLED
                            return
                        cache_touch(line)
                        c_upgrades.value += 1
                        l1_request(line, REQ_UPG)
                        states[line] = S_MA
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
                            core.state = STALLED
                            return
                        continue
                    # Read hit: CacheArray.touch inlined (LRU + counts).
                    cache._clock = clock = cache._clock + 1
                    for way in sets[line % nsets]:
                        if way.line == line:
                            way.last_use = clock
                            cache.hits += 1
                            break
                    else:
                        cache.misses += 1
                    c_read_hits.value += 1
                    instr += 1
                    continue
                if state is E or state is M:
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
                # Transient ("z"): secondary access waits for the fill.
                core._pending = Op(kind=MEM, line=line, is_write=is_write)
                core._stall_line = line
                core.state = STALLED
                return
        finally:
            workload._ops_generated = count
            core.instructions += instr

    return issue


class _FlushingStatGroup(StatGroup):
    """A core stat group that settles the columnar ledger before reads.

    The engine accrues busy/stall/sync lazily; any consumer reading the
    counters through the group (metrics registry snapshots, golden
    tests) must see the settled values.  ``flush`` is idempotent.
    """

    def __init__(self, engine: "VectorCoreEngine", name: str):
        super().__init__(name)
        self._engine = engine

    def as_dict(self) -> dict:
        self._engine.flush()
        return super().as_dict()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class VectorCoreEngine:
    """Batched cores phase over columnar per-node state.

    Owns the parallel arrays (accrual boundaries, pending bucket
    counts, state codes, hold/spin deadlines), the RUNNING set and the
    hold/spin heaps.  ``CmpSystem`` calls :meth:`core_phase` in place
    of the per-core tick loop, :meth:`next_core_event` for the cores'
    contribution to the fast-forward horizon, and :meth:`flush` before
    reading counters.  Skips need no per-core work at all: the lazy
    ledger charges jumped cycles at the next transition or flush.
    """

    def __init__(self, system):
        self._system = system
        n = system.config.num_nodes
        self.num_nodes = n
        self.cores: list[ColumnarCore] = []
        #: Exclusive cycle through which each node's counters are settled.
        self.until = np.zeros(n, dtype=np.int64)
        #: Unsettled busy/stall/sync tick counts per node.
        self.pending = np.zeros((n, NUM_BUCKETS), dtype=np.int64)
        #: Current bucket code per node (mirror of each core's state).
        self.codes = np.zeros(n, dtype=np.int64)
        #: Absolute deadline per node, _NEVER when not held/spinning.
        self.hold_at = np.full(n, _NEVER, dtype=np.int64)
        self.spin_at = np.full(n, _NEVER, dtype=np.int64)
        self._running: set[int] = set()
        self._worklist: list[int] = []  # sorted cache of _running
        self._running_dirty = True
        self._hold_heap: list[tuple[int, int]] = []
        self._spin_heap: list[tuple[int, int]] = []
        self._in_phase = False
        self._issues: Optional[list] = None  # prebound core._issue hooks

    # -- construction ----------------------------------------------------

    def stats_for(self, node: int) -> StatGroup:
        """The stat group a :class:`ColumnarCore` should be built with."""
        return _FlushingStatGroup(self, f"core.{node}")

    def register(self, core: ColumnarCore) -> None:
        assert core.node == len(self.cores), "register cores in node order"
        self.cores.append(core)
        self.codes[core.node] = BUCKET_CODE[core.state]
        if core.state is CoreState.RUNNING:
            self._running.add(core.node)

    # -- write-through state hook ---------------------------------------

    def on_state_change(
        self, core: ColumnarCore, old: CoreState, new: CoreState
    ) -> None:
        j = core.node
        now = self._system.cycle
        # A transition from the node's own action happens *during* its
        # tick: that tick belongs to the old state (the naive loop
        # counts before acting), so settle through now+1.  External
        # transitions (fills, signals) land before the cores phase, so
        # the node's tick at ``now`` already belongs to the new state.
        # During the phase only the acting node can transition (no
        # network path delivers to a core synchronously), so a single
        # in-phase flag is enough to tell the two apart.
        boundary = now + 1 if self._in_phase else now
        until = self.until
        settled = until[j]
        if boundary > settled:
            self.pending[j, BUCKET_CODE[old]] += boundary - settled
            until[j] = settled = boundary
        self.codes[j] = BUCKET_CODE[new]
        anchor = int(settled) if settled > now else now

        if old is CoreState.RUNNING:
            self._running.discard(j)
            self._running_dirty = True
        elif old is CoreState.LOCK_HOLD:
            self.hold_at[j] = _NEVER
        elif old in _SPIN_STATES:
            self.spin_at[j] = _NEVER

        if new is CoreState.RUNNING:
            self._running.add(j)
            self._running_dirty = True
        elif new is CoreState.LOCK_HOLD:
            release = hold_release_cycle(anchor, core._hold_left)
            self.hold_at[j] = release
            heappush(self._hold_heap, (release, j))
        elif new in _SPIN_STATES:
            poll = spin_poll_cycle(anchor, core._next_spin)
            self.spin_at[j] = poll
            heappush(self._spin_heap, (poll, j))

    # -- the cores phase -------------------------------------------------

    def core_phase(self, cycle: int) -> None:
        """Everything the naive per-core tick loop would do at ``cycle``."""
        due: Optional[list[int]] = None
        hold_heap = self._hold_heap
        if hold_heap and hold_heap[0][0] <= cycle:
            hold_at = self.hold_at
            while hold_heap and hold_heap[0][0] <= cycle:
                deadline, j = heappop(hold_heap)
                if hold_at[j] == deadline:
                    due = [j] if due is None else due + [j]
        spin_heap = self._spin_heap
        if spin_heap and spin_heap[0][0] <= cycle:
            spin_at = self.spin_at
            while spin_heap and spin_heap[0][0] <= cycle:
                deadline, j = heappop(spin_heap)
                if spin_at[j] == deadline:
                    due = [j] if due is None else due + [j]
        running = self._running
        if due is None:
            if not running:
                return
            # Cores run in multi-cycle bursts, so the sorted worklist is
            # usually identical cycle over cycle; resort only on churn.
            if self._running_dirty:
                self._worklist = sorted(running)
                self._running_dirty = False
            # Every member of a clean worklist is RUNNING (membership is
            # maintained by on_state_change) and stays RUNNING until its
            # own turn — nothing delivers to a core mid-phase — so the
            # per-core state dispatch below is redundant here.
            issues = self._issues
            if issues is None:
                issues = self._issues = [c._issue for c in self.cores]
            self._in_phase = True
            try:
                for j in self._worklist:
                    issues[j](cycle)
            finally:
                self._in_phase = False
            return
        worklist = sorted(running.union(due))
        cores = self.cores
        RUNNING = CoreState.RUNNING
        self._in_phase = True
        try:
            for j in worklist:
                core = cores[j]
                state = core._state_value
                if state is RUNNING:
                    core._issue(cycle)
                elif state is CoreState.LOCK_HOLD:
                    # The release tick.  The naive loop decremented every
                    # tick; the lazy countdown lands the same final value.
                    core._hold_left = (
                        0 if core._hold_left > 0 else core._hold_left - 1
                    )
                    core.state = CoreState.LOCK_RELEASE
                    core._sync_access(
                        SyncManager.lock_line(core._lock_id), True
                    )
                else:
                    # A spin poll (state is one of the two spin states).
                    self.spin_at[j] = _NEVER
                    core._spin(cycle)
                    if (
                        self.spin_at[j] == _NEVER
                        and core._state_value in _SPIN_STATES
                    ):
                        poll = core._next_spin
                        self.spin_at[j] = poll
                        heappush(spin_heap, (poll, j))
        finally:
            self._in_phase = False

    # -- fast-forward horizon (docs/performance.md) ----------------------

    def next_core_event(self, cycle: int) -> Optional[int]:
        """The cores' joint horizon: min over running/holds/polls.

        Matches the min over every naive ``Core.next_event`` exactly:
        a RUNNING node pins "now"; otherwise the earliest valid hold
        release or spin poll; ``None`` when every node is blocked on an
        external event.  Stale heap entries (the node left the state)
        are discarded lazily.
        """
        if self._running:
            return cycle
        horizon = None
        heap = self._hold_heap
        hold_at = self.hold_at
        while heap:
            deadline, j = heap[0]
            if hold_at[j] == deadline:
                horizon = deadline
                break
            heappop(heap)
        heap = self._spin_heap
        spin_at = self.spin_at
        while heap:
            deadline, j = heap[0]
            if spin_at[j] == deadline:
                if horizon is None or deadline < horizon:
                    horizon = deadline
                break
            heappop(heap)
        return horizon

    # -- settlement ------------------------------------------------------

    def flush(self) -> None:
        """Settle every node's lazy ticks into its real counters.

        Idempotent; called before any counter read (results, metrics
        snapshots).  Never called mid-tick, so the boundary is the
        current cycle (ticks at the current cycle have not happened).
        """
        accrue_columns(self.until, self.pending, self.codes, self._system.cycle)
        pending = self.pending
        for j in np.nonzero(pending.any(axis=1))[0]:
            core = self.cores[j]
            busy, stall, sync = pending[j]
            if busy:
                core.busy_cycles.add(int(busy))
            if stall:
                core.stall_cycles.add(int(stall))
            if sync:
                core.sync_cycles.add(int(sync))
        pending[:] = 0

    # -- invariants ------------------------------------------------------

    def audit(self) -> None:
        """Cross-check the columnar arrays against the scalar objects.

        Used by the scale smoke test: membership sets, bucket codes,
        deadline tokens and MSHR occupancy must all be consistent with
        the per-core object state the reference engine would hold.
        """
        now = self._system.cycle
        occupancy = np.fromiter(
            (core.mshr.in_use for core in self.cores),
            dtype=np.int64,
            count=self.num_nodes,
        )
        limit = self.cores[0].config.mshr_limit
        admitted = mshr_admit_mask(
            occupancy, limit, np.zeros(self.num_nodes, dtype=bool)
        )
        assert bool(np.all(occupancy <= limit)), "MSHR occupancy over limit"
        assert bool(np.all(admitted == (occupancy < limit)))
        for j, core in enumerate(self.cores):
            state = core._state_value
            assert (j in self._running) == (state is CoreState.RUNNING)
            assert self.codes[j] == BUCKET_CODE[state]
            assert (self.hold_at[j] != _NEVER) == (state is CoreState.LOCK_HOLD)
            assert (self.spin_at[j] != _NEVER) == (state in _SPIN_STATES)
            assert self.until[j] <= now + 1
