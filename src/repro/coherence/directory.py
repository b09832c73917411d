"""L2 / directory controller — Table 2's lower state machine, verbatim.

Stable states: **DI** (not cached anywhere, not resident in this L2
slice), **DV** (valid in L2, no sharers), **DS** (shared by one or more
L1s, L2 copy valid), **DM** (exclusive at one L1 owner, L2 copy
potentially stale).  Transients are named by (previous, next) stable
pair with a superscript for what they wait on: ``D`` a data reply,
``A`` just acknowledgments — e.g. ``DS.DM^DA`` waits for InvAcks and
then supplies data, ``DS.DM^A`` (the upgrade path) waits for InvAcks
and sends only an ExcAck.

"z" events are queued per line and drained when the line reaches a
stable state; a queued Req(Upg) whose sender is no longer a sharer is
reinterpreted as Req(Ex) (the table's ``(Req(Ex))`` annotations).  When
a line's queue is full the directory NACKs with Retry — the paper's
probabilistic fetch-deadlock avoidance (§4.3.1 fn. 3).

One deviation from the table text: on ``DwgAck`` in ``DM.DSD`` we move
to **DS** (owner downgraded to S, requester added as S) where the
scanned table prints "/DM"; DS is the only reading consistent with the
L1 table's ``Dwg -> DwgAck(D)/S`` row.

Timing note for the fast-forward engine (docs/performance.md): the
directory is *purely reactive* — it has no tick, never self-schedules,
and every outgoing message routes through the system calendar via its
``send`` callback.  It therefore contributes no event horizon of its
own; its future activity is always represented by a calendar entry or
an in-flight packet, both already covered by other horizons.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from enum import Enum, auto
from typing import Callable, Optional

from repro.coherence.messages import (
    DATA_E,
    DATA_M,
    DATA_S,
    DWG,
    DWG_ACK,
    DWG_ACK_DATA,
    EXC_ACK,
    INV,
    INV_ACK,
    INV_ACK_DATA,
    MEM_ACK,
    MEM_READ,
    MEM_WRITE,
    REQ_EX,
    REQ_SH,
    REQ_UPG,
    RETRY,
    WB_ANNOUNCE,
    WRITEBACK,
    CoherenceMessage,
    MsgType,
    make_message,
)
from repro.obs.trace import TRACE
from repro.util.stats import StatGroup

__all__ = ["DirState", "DirectoryController", "DirectoryConfig", "WarmLines"]

#: Queued ("z") messages per line before the directory NACKs.
LINE_QUEUE_DEPTH = 4
#: Queued messages across the slice before it NACKs (Table 3: 64).
REQUEST_QUEUE_DEPTH = 64

SendFn = Callable[[CoherenceMessage, int], None]


class DirState(Enum):
    DI = auto()
    DV = auto()
    DS = auto()
    DM = auto()
    DI_DSD = auto()   # memory fetch for a shared request
    DI_DMD = auto()   # memory fetch for an exclusive request
    DS_DIA = auto()   # invalidating sharers to evict the line
    DS_DMDA = auto()  # invalidating sharers, will send Data(M)
    DS_DMA = auto()   # invalidating sharers, will send ExcAck (upgrade)
    DM_DID = auto()   # invalidating the owner to evict the line
    DM_DSD = auto()   # downgrading the owner for a shared request
    DM_DMD = auto()   # invalidating the owner for an exclusive request
    DM_DSA = auto()   # owner wrote back during downgrade; awaiting DwgAck
    DM_DMA = auto()   # owner wrote back during invalidate; awaiting InvAck

    # ``is_transient`` is a precomputed member attribute (filled in
    # below): it gates every request and every queue drain, where a
    # plain attribute load beats a property call plus a tuple scan.
    is_transient: bool


for _member in DirState:
    _member.is_transient = _member.name not in ("DI", "DV", "DS", "DM")
del _member

# Members as module constants (see repro.coherence.messages).
(
    _DI, _DV, _DS, _DM, _DI_DSD, _DI_DMD, _DS_DIA, _DS_DMDA, _DS_DMA,
    _DM_DID, _DM_DSD, _DM_DMD, _DM_DSA, _DM_DMA,
) = DirState


@dataclass
class DirectoryConfig:
    """Directory slice parameters (Table 3 defaults)."""

    l2_latency: int = 15          # slice access latency, applied per response
    confirmation_ack: bool = False  # §5.1 — flag sharer invalidations
    #: Lines this L2 slice can hold (Table 3: 64 KB / 32 B = 2048).
    #: ``None`` models an unbounded slice — the default for calibrated
    #: experiments, where the workload signatures already encode which
    #: accesses miss the L2 (see DESIGN.md); a bound turns capacity
    #: pressure into real Repl recalls.
    capacity_lines: Optional[int] = None


@dataclass(slots=True)
class _Entry:
    """Directory state for one line homed at this slice."""

    state: DirState = _DI
    sharers: set[int] = field(default_factory=set)
    dirty: bool = False           # L2 copy differs from memory
    requester: int = -1           # beneficiary of the in-flight transaction
    acks_needed: int = 0
    #: "z" messages waiting for a stable state: the shared empty tuple
    #: until the first one queues (most lines never queue; a deque per
    #: entry was a third of what installing an entry costs).
    queued: "deque | tuple" = ()
    last_use: int = 0             # LRU clock for capacity eviction

    @property
    def owner(self) -> int:
        if len(self.sharers) != 1:
            raise RuntimeError(f"owner of a non-DM entry: {self.sharers}")
        return next(iter(self.sharers))


_COLD = (_DI, None)
_VALID = (_DV, None)


class WarmLines:
    """The warm-start lines as what they are: a few step-1 ``range``s
    of line numbers minus the lines already consumed.

    ``ranges`` are resident-valid (DV) in their home slice; each
    ``(range, owner)`` in ``owned`` is held exclusively (DM) by
    ``owner``'s L1, and wins over ``ranges`` where the two overlap.
    :meth:`get` answers in O(log ranges) with storage proportional to
    the lines *touched*, not the lines warm (a 256-node warm start
    covers ~1 M lines in 258 ranges, 16k of them owned in 256).
    """

    def __init__(self, ranges, owned=()):
        self._starts: list[int] = []
        self._stops: list[int] = []
        for span in sorted((r.start, r.stop) for r in ranges if len(r)):
            if self._stops and span[0] <= self._stops[-1]:  # overlap: merge
                self._stops[-1] = max(self._stops[-1], span[1])
            else:
                self._starts.append(span[0])
                self._stops.append(span[1])
        owned = sorted((r.start, r.stop, owner) for r, owner in owned if len(r))
        self._owned_starts = [start for start, _stop, _owner in owned]
        self._owned_stops = [stop for _start, stop, _owner in owned]
        self._owners = [owner for _start, _stop, owner in owned]
        self._consumed: set[int] = set()

    def get(self, line: int) -> tuple[DirState, Optional[int]]:
        """``(DM, owner)``, ``(DV, None)``, or ``(DI, None)`` for a line
        that is not warm or already consumed."""
        if line in self._consumed:
            return _COLD
        index = bisect_right(self._owned_starts, line) - 1
        if index >= 0 and line < self._owned_stops[index]:
            return _DM, self._owners[index]
        index = bisect_right(self._starts, line) - 1
        if index >= 0 and line < self._stops[index]:
            return _VALID
        return _COLD

    def discard(self, line: int) -> None:
        self._consumed.add(line)

    def __bool__(self) -> bool:
        return bool(self._starts or self._owned_starts)


class DirectoryController:
    """One node's L2 slice + directory for the lines homed there."""

    def __init__(
        self,
        node: int,
        send: SendFn,
        memory_node_of: Callable[[int], int],
        config: Optional[DirectoryConfig] = None,
        stats: Optional[StatGroup] = None,
    ):
        self.node = node
        self.send = send
        self.memory_node_of = memory_node_of
        self.config = config or DirectoryConfig()
        self._entries: dict[int, _Entry] = {}
        #: Warm-start lines resident-valid (DV) in this slice but not
        #: yet materialized as entries; :meth:`entry` materializes (and
        #: consumes) them on first touch.  May be shared between slices
        #: — home interleaving guarantees no two slices are ever asked
        #: about the same line.  See :meth:`preload_valid`.
        self._warm = WarmLines(())
        self._queued_total = 0
        self._lru_clock = 0
        self._l2_latency = self.config.l2_latency
        stats = stats or StatGroup(f"dir.{node}")
        self.stats = stats
        count = self._count = {
            name: stats.counter(name)
            for name in (
                "requests", "mem_reads", "mem_writes", "invalidations_sent",
                "downgrades_sent", "nacks_sent", "queued", "reinterpreted",
                "writebacks", "conf_acked_invs", "capacity_evictions",
            )
        }
        # The handlers bump these once per message.
        self._requests = count["requests"]
        self._mem_reads = count["mem_reads"]
        self._invalidations_sent = count["invalidations_sent"]
        self._downgrades_sent = count["downgrades_sent"]
        self._writebacks = count["writebacks"]

    # -- lookups -------------------------------------------------------------

    def entry(self, line: int) -> _Entry:
        ent = self._entries.get(line)
        if ent is None:
            ent = _Entry()
            warm = self._warm
            if warm:
                state, owner = warm.get(line)
                if state is not _DI:
                    # Consume the warm marker: once materialized the
                    # entry alone carries the state (an eviction back to
                    # DI must not resurrect as DV / DM on the next touch).
                    warm.discard(line)
                    ent.state = state
                    if owner is not None:
                        ent.sharers.add(owner)
            self._entries[line] = ent
        return ent

    def state(self, line: int) -> DirState:
        ent = self._entries.get(line)
        if ent is not None:
            return ent.state
        if self._warm:
            return self._warm.get(line)[0]
        return _DI

    def preload_valid(self, lines: WarmLines) -> None:
        """Warm-start ``lines`` in this slice: DV, or DM where owned.

        Nothing is materialized here: :meth:`entry` creates the DV / DM
        entry on a line's first touch and marks it consumed in ``lines``,
        so the cost of a warm start follows the lines a run touches (a
        few hundred in a short run), not the lines that are warm (~67k at
        16 nodes, ~1 M at 256).  ``lines`` may be one object shared with
        the other slices — home interleaving guarantees no two slices
        are ever asked about the same line.

        Requires an unbounded slice: capacity accounting counts live
        entries, so a bounded slice must materialize its warm set
        eagerly (the caller keeps the eager path in that case).
        """
        if self.config.capacity_lines is not None:
            raise ValueError("lazy warm start needs an unbounded L2 slice")
        self._warm = lines

    def preload_owned(self, line: int, owner: int) -> None:
        """Warm-start ``line`` as held exclusively (DM) by ``owner``'s L1."""
        self._entries[line] = _Entry(_DM, {owner})

    def outstanding(self) -> int:
        return sum(1 for e in self._entries.values() if e.state.is_transient)

    # -- event entry point -----------------------------------------------------

    def handle(self, msg: CoherenceMessage) -> None:
        """Run ``msg`` through its Table 2 column (:data:`HANDLERS`)."""
        handler = self.HANDLERS.get(msg.mtype)
        if handler is None:
            raise RuntimeError(f"directory at {self.node} cannot handle {msg}")
        handler(self, msg)

    def _touch(self, msg: CoherenceMessage) -> _Entry:
        """Every event's preamble: the line's entry, LRU-stamped."""
        ent = self._entries.get(msg.line)
        if ent is None:
            ent = self.entry(msg.line)  # cold: materialize / warm set
        self._lru_clock = clock = self._lru_clock + 1
        ent.last_use = clock
        if TRACE.enabled:
            TRACE.emit(
                "dir_event", cat="coherence", node=self.node,
                line=msg.line, mtype=msg.mtype.name,
                state=ent.state.name, sender=msg.sender,
            )
        return ent

    # -- requests ---------------------------------------------------------------

    def _on_request(self, msg: CoherenceMessage) -> None:
        ent = self._touch(msg)
        self._requests.value += 1
        if ent.state.is_transient:
            self._enqueue_or_nack(ent, msg)  # Table 2's "z"
            return
        self._handle_request(ent, msg)
        if self.config.capacity_lines is not None:
            self._enforce_capacity(protect=msg.line)

    def _handle_request(self, ent: _Entry, msg: CoherenceMessage) -> None:
        """A request in a stable state: fresh, or drained from the queue."""
        mtype, line, req = msg.mtype, msg.line, msg.requester
        if mtype is REQ_UPG and req not in ent.sharers:
            # Race: the requester was invalidated after sending the
            # upgrade; Table 2's "(Req(Ex))" reinterpretation.
            self._count["reinterpreted"].value += 1
            mtype = REQ_EX

        state = ent.state
        if state is _DM:
            owner = ent.owner
            ent.requester = req
            ent.acks_needed = 1
            if mtype is REQ_SH:
                self._downgrades_sent.value += 1
                self.send(
                    make_message(DWG, line, self.node, owner, req),
                    self._l2_latency,
                )
                ent.state = _DM_DSD
            else:  # REQ_EX, or REQ_UPG reinterpreted above
                self._invalidate(line, (owner,), sharer_inv=False)
                ent.state = _DM_DMD
        elif state is _DS:
            if mtype is REQ_SH:
                self._reply(line, req, DATA_S)
                ent.sharers.add(req)
                return
            targets = ent.sharers - {req}
            ent.requester = req
            if targets:
                self._invalidate(line, targets, sharer_inv=True)
                ent.acks_needed = len(targets)
                ent.sharers -= targets
                ent.state = _DS_DMA if mtype is REQ_UPG else _DS_DMDA
            else:  # sole sharer requesting exclusivity
                self._reply(line, req, EXC_ACK if mtype is REQ_UPG else DATA_M)
                ent.sharers = {req}
                ent.state = _DM
        elif state is _DV:
            self._reply(line, req, DATA_E if mtype is REQ_SH else DATA_M)
            ent.sharers = {req}
            ent.state = _DM
        elif state is _DI:
            self._mem_reads.value += 1
            ent.requester = req
            ent.state = _DI_DSD if mtype is REQ_SH else _DI_DMD
            node = self.node
            self.send(
                make_message(
                    MEM_READ, line, node, self.memory_node_of(line), node
                ),
                self._l2_latency,
            )
        else:  # pragma: no cover - guarded by the callers
            raise RuntimeError(f"request dispatched in transient {state}")

    # -- responses / completions ------------------------------------------------
    #
    # Never "z" for a correctly operating protocol; each dispatches by
    # state and then drains the requests that queued behind it.

    def _on_wb_announce(self, msg: CoherenceMessage) -> None:
        self._touch(msg)  # §5.2: informational; the network layer uses it

    def _on_writeback(self, msg: CoherenceMessage) -> None:
        ent = self._touch(msg)
        self._writebacks.value += 1
        ent.dirty = True
        state = ent.state
        if state is _DM:
            ent.sharers.clear()
            ent.state = _DV
        elif state is _DM_DID:
            ent.state = _DS_DIA  # still awaiting the InvAck
        elif state is _DM_DSD:
            ent.state = _DM_DSA
        elif state is _DM_DMD:
            ent.state = _DM_DMA
        else:
            raise RuntimeError(f"WriteBack in {state.name}: {msg}")
        if ent.queued:
            self._drain(ent)

    def _on_mem_ack(self, msg: CoherenceMessage) -> None:
        ent = self._touch(msg)
        state = ent.state
        if state is _DI_DSD:
            self._grant(ent, msg.line, DATA_E)
        elif state is _DI_DMD:
            self._grant(ent, msg.line, DATA_M)
        else:
            raise RuntimeError(f"MemAck in {state.name}: {msg}")
        ent.dirty = False
        if ent.queued:
            self._drain(ent)

    def _on_inv_ack(self, msg: CoherenceMessage) -> None:
        ent = self._touch(msg)
        line = msg.line
        if msg.mtype is INV_ACK_DATA:
            ent.dirty = True
        state = ent.state
        if state is _DS_DMDA or state is _DS_DMA or state is _DS_DIA:
            ent.acks_needed -= 1
            if ent.acks_needed <= 0:
                if state is _DS_DIA:  # evicting
                    self._evict_line(ent, line)
                else:
                    self._grant(
                        ent, line, DATA_M if state is _DS_DMDA else EXC_ACK
                    )
        elif state is _DM_DMD or state is _DM_DMA:
            self._grant(ent, line, DATA_M)
        elif state is _DM_DID:
            self._evict_line(ent, line)
        else:
            raise RuntimeError(f"InvAck in {state.name}: {msg}")
        if ent.queued:
            self._drain(ent)

    def _on_dwg_ack(self, msg: CoherenceMessage) -> None:
        ent = self._touch(msg)
        line = msg.line
        if msg.mtype is DWG_ACK_DATA:
            ent.dirty = True
        state = ent.state
        if state is _DM_DSD:
            # Owner downgraded to S; requester joins as S.  (See module
            # docstring for the DS-vs-DM table deviation.)
            self._reply(line, ent.requester, DATA_S)
            ent.sharers.add(ent.requester)
            ent.state = _DS
            ent.requester = -1
            ent.acks_needed = 0
        elif state is _DM_DSA:
            # Owner wrote back before the downgrade landed: requester is
            # now the only holder and gets the line exclusively.
            self._grant(ent, line, DATA_E)
        else:
            raise RuntimeError(f"DwgAck in {state.name}: {msg}")
        if ent.queued:
            self._drain(ent)

    # -- L2 replacement (the Repl column) -----------------------------------------

    def replace(self, line: int) -> None:
        """Evict ``line`` from this L2 slice (the directory Repl event)."""
        if self.state(line) is _DI:
            return
        entry = self.entry(line)  # a warm line never touched: materialize
        state = entry.state
        if state.is_transient:
            raise RuntimeError(f"cannot replace line {line:#x} in {state.name}")
        if state is _DV:
            self._evict_line(entry, line)
        elif state is _DS:
            targets = set(entry.sharers)
            self._invalidate(line, targets, sharer_inv=True)
            entry.acks_needed = len(targets)
            entry.sharers.clear()
            entry.state = _DS_DIA
        else:  # DM
            self._invalidate(line, (entry.owner,), sharer_inv=False)
            entry.acks_needed = 1
            entry.state = _DM_DID

    def _evict_line(self, entry: _Entry, line: int) -> None:
        if entry.dirty:
            self._count["mem_writes"].value += 1
            node = self.node
            self.send(
                make_message(
                    MEM_WRITE, line, node, self.memory_node_of(line), node
                ),
                self._l2_latency,
            )
        entry.state = _DI
        entry.sharers.clear()
        entry.dirty = False
        self._drain(entry)
        if not entry.queued and entry.state is _DI:
            self._entries.pop(line, None)

    # -- helpers ----------------------------------------------------------------

    def _invalidate(self, line: int, targets, sharer_inv: bool) -> None:
        node = self.node
        for target in sorted(targets):
            self._invalidations_sent.value += 1
            # §5.1 applies only to *remote* sharer invalidations: a local
            # delivery never crosses the network, so there is no
            # confirmation to stand in for the acknowledgment.
            use_conf = (
                sharer_inv and self.config.confirmation_ack and target != node
            )
            if use_conf:
                self._count["conf_acked_invs"].value += 1
            self.send(
                make_message(INV, line, node, target, node, use_conf),
                self._l2_latency,
            )

    def _reply(self, line: int, dest: int, mtype: MsgType) -> None:
        self.send(
            make_message(mtype, line, self.node, dest, dest), self._l2_latency
        )

    def _grant(self, entry: _Entry, line: int, mtype: MsgType) -> None:
        """Complete the transaction: ``mtype`` goes to the requester,
        who becomes the line's only holder (DM)."""
        req = entry.requester
        self.send(
            make_message(mtype, line, self.node, req, req), self._l2_latency
        )
        entry.sharers = {req}
        entry.state = _DM
        entry.requester = -1
        entry.acks_needed = 0

    def _enqueue_or_nack(self, entry: _Entry, msg: CoherenceMessage) -> None:
        if (
            len(entry.queued) >= LINE_QUEUE_DEPTH
            or self._queued_total >= REQUEST_QUEUE_DEPTH
        ):
            self._count["nacks_sent"].value += 1
            req = msg.requester
            self.send(make_message(RETRY, msg.line, self.node, req, req), 0)
            return
        self._count["queued"].value += 1
        if not entry.queued:
            entry.queued = deque()
        entry.queued.append(msg)
        self._queued_total += 1

    def _drain(self, entry: _Entry) -> None:
        """Process queued requests while the line is stable."""
        while entry.queued and not entry.state.is_transient:
            msg = entry.queued.popleft()
            self._queued_total -= 1
            self._handle_request(entry, msg)

    def _enforce_capacity(self, protect: int) -> None:
        """Recall the LRU stable line when the slice is over capacity.

        The Repl column of Table 2: the victim's holders are recalled
        (Inv/Dwg as its state requires) and dirty data written back.
        ``protect`` (the line just touched) is never chosen.  Transient
        lines cannot be evicted; if everything is transient the slice
        temporarily runs over capacity, as a real pending-miss file
        would.
        """
        capacity = self.config.capacity_lines
        if capacity is None:
            return
        live = [
            (line, entry)
            for line, entry in self._entries.items()
            if entry.state is not _DI
        ]
        if len(live) <= capacity:
            return
        candidates = [
            (entry.last_use, line)
            for line, entry in live
            if not entry.state.is_transient and line != protect
        ]
        if not candidates:
            return
        excess = len(live) - capacity
        for _use, line in sorted(candidates)[:excess]:
            self._count["capacity_evictions"].value += 1
            self.replace(line)

    #: Table 2's event columns: message type -> handler.  The CMP layer
    #: builds its per-node jump table from this map, so a delivered
    #: message runs the same function whether it arrives through
    #: :meth:`handle` or through ``CmpSystem``.
    HANDLERS = {
        REQ_SH: _on_request,
        REQ_EX: _on_request,
        REQ_UPG: _on_request,
        WRITEBACK: _on_writeback,
        WB_ANNOUNCE: _on_wb_announce,
        INV_ACK: _on_inv_ack,
        INV_ACK_DATA: _on_inv_ack,
        DWG_ACK: _on_dwg_ack,
        DWG_ACK_DATA: _on_dwg_ack,
        MEM_ACK: _on_mem_ack,
    }
