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

from repro.coherence.messages import CoherenceMessage, MsgType
from repro.obs.trace import TRACE
from repro.util.stats import StatGroup

__all__ = ["DirState", "DirectoryController", "DirectoryConfig", "WarmLines"]

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
    # ``code`` is a dense integer for the columnar engine's state
    # gathers (repro.coherence.vector).
    is_transient: bool
    code: int


for _member in DirState:
    _member.is_transient = _member.name not in ("DI", "DV", "DS", "DM")
    _member.code = _member.value
del _member


@dataclass
class DirectoryConfig:
    """Directory slice parameters (Table 3 defaults)."""

    l2_latency: int = 15          # slice access latency, applied per response
    line_queue_depth: int = 4     # queued ("z") messages per line before NACK
    request_queue_depth: int = 64 # total queued messages before NACK
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

    state: DirState = DirState.DI
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


class WarmLines:
    """The warm-start lines as what they are: a few step-1 ``range``s
    of line numbers minus the lines already consumed.

    Offers the three set operations :class:`DirectoryController` uses —
    ``in``, ``discard`` and truthiness — with O(log ranges) membership
    and storage proportional to the lines *touched*, not the lines warm
    (a 256-node warm start covers ~1 M lines in 258 ranges).
    """

    def __init__(self, ranges, consumed=()):
        self._starts: list[int] = []
        self._stops: list[int] = []
        for span in sorted((r.start, r.stop) for r in ranges if len(r)):
            if self._stops and span[0] <= self._stops[-1]:  # overlap: merge
                self._stops[-1] = max(self._stops[-1], span[1])
            else:
                self._starts.append(span[0])
                self._stops.append(span[1])
        self._consumed = set(consumed)

    def __contains__(self, line: int) -> bool:
        index = bisect_right(self._starts, line) - 1
        return (
            index >= 0
            and line < self._stops[index]
            and line not in self._consumed
        )

    def discard(self, line: int) -> None:
        self._consumed.add(line)

    def __bool__(self) -> bool:
        return bool(self._starts)


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
        #: Columnar-engine ledger hook (repro.coherence.vector): called
        #: with the delta (+1 enqueue, -1 drain) whenever the "z" queue
        #: population changes, so the engine's per-node queued column
        #: stays write-through.  ``None`` (the default) keeps the
        #: reference path cost at a single predicate check.
        self.queue_ledger: Optional[Callable[[int], None]] = None
        stats = stats or StatGroup(f"dir.{node}")
        self.stats = stats
        self._count = {
            name: stats.counter(name)
            for name in (
                "requests", "mem_reads", "mem_writes", "invalidations_sent",
                "downgrades_sent", "nacks_sent", "queued", "reinterpreted",
                "writebacks", "conf_acked_invs", "capacity_evictions",
            )
        }

    # -- lookups -------------------------------------------------------------

    def entry(self, line: int) -> _Entry:
        ent = self._entries.get(line)
        if ent is None:
            ent = _Entry()
            warm = self._warm
            if warm and line in warm:
                # Consume the warm marker: once materialized the entry
                # alone carries the state (an eviction back to DI must
                # not resurrect as DV on the next touch).
                warm.discard(line)
                ent.state = DirState.DV
            self._entries[line] = ent
        return ent

    def state(self, line: int) -> DirState:
        ent = self._entries.get(line)
        if ent is not None:
            return ent.state
        if self._warm and line in self._warm:
            return DirState.DV
        return DirState.DI

    def preload_valid(self, lines: WarmLines) -> None:
        """Warm-start ``lines`` as resident-valid (DV) in this slice.

        Nothing is materialized here: :meth:`entry` creates the DV entry
        on a line's first touch and marks it consumed in ``lines``, so
        the cost of a warm start follows the lines a run touches (a few
        hundred in a short run), not the lines that are warm (~67k at 16
        nodes, ~1 M at 256).  ``lines`` may be one object shared with
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
        self._entries[line] = _Entry(DirState.DM, {owner})

    def outstanding(self) -> int:
        return sum(1 for e in self._entries.values() if e.state.is_transient)

    # -- event entry point -----------------------------------------------------

    def handle(self, msg: CoherenceMessage) -> None:
        entry = self.entry(msg.line)
        self._lru_clock += 1
        entry.last_use = self._lru_clock
        if TRACE.enabled:
            TRACE.emit(
                "dir_event", cat="coherence", node=self.node,
                line=msg.line, mtype=msg.mtype.name,
                state=entry.state.name, sender=msg.sender,
            )
        if msg.mtype is MsgType.WB_ANNOUNCE:
            return  # §5.2: informational; the network layer uses it
        if msg.mtype.is_request:
            self._count["requests"].add()
            if entry.state.is_transient:
                self._enqueue_or_nack(entry, msg)
                return
            self._handle_request(entry, msg)
            self._enforce_capacity(protect=msg.line)
            return
        # Non-request events are never "z" for a correctly operating
        # protocol; dispatch by state.
        self._handle_response(entry, msg)
        self._drain(entry, msg.line)

    # -- requests in stable states ------------------------------------------------

    def _handle_request(self, entry: _Entry, msg: CoherenceMessage) -> None:
        mtype, line, req = msg.mtype, msg.line, msg.requester
        if mtype is MsgType.REQ_UPG and req not in entry.sharers:
            # Race: the requester was invalidated after sending the
            # upgrade; Table 2's "(Req(Ex))" reinterpretation.
            self._count["reinterpreted"].add()
            mtype = MsgType.REQ_EX

        state = entry.state
        if state is DirState.DI:
            self._fetch_from_memory(entry, line, req, shared=mtype is MsgType.REQ_SH)
        elif state is DirState.DV:
            if mtype is MsgType.REQ_SH:
                self._reply(line, req, MsgType.DATA_E)
            else:
                self._reply(line, req, MsgType.DATA_M)
            entry.sharers = {req}
            entry.state = DirState.DM
        elif state is DirState.DS:
            self._request_in_ds(entry, line, req, mtype)
        elif state is DirState.DM:
            self._request_in_dm(entry, line, req, mtype)
        else:  # pragma: no cover - guarded by caller
            raise RuntimeError(f"request dispatched in transient {state}")

    def _request_in_ds(
        self, entry: _Entry, line: int, req: int, mtype: MsgType
    ) -> None:
        if mtype is MsgType.REQ_SH:
            self._reply(line, req, MsgType.DATA_S)
            entry.sharers.add(req)
            return
        targets = entry.sharers - {req}
        entry.requester = req
        if not targets:
            # Sole sharer requesting exclusivity.
            if mtype is MsgType.REQ_UPG:
                self._reply(line, req, MsgType.EXC_ACK, data=False)
            else:
                self._reply(line, req, MsgType.DATA_M)
            entry.sharers = {req}
            entry.state = DirState.DM
            return
        self._invalidate(line, targets, sharer_inv=True)
        entry.acks_needed = len(targets)
        entry.sharers -= targets
        entry.state = (
            DirState.DS_DMA if mtype is MsgType.REQ_UPG else DirState.DS_DMDA
        )

    def _request_in_dm(
        self, entry: _Entry, line: int, req: int, mtype: MsgType
    ) -> None:
        owner = entry.owner
        entry.requester = req
        entry.acks_needed = 1
        if mtype is MsgType.REQ_SH:
            self._count["downgrades_sent"].add()
            self.send(
                CoherenceMessage(
                    mtype=MsgType.DWG, line=line, sender=self.node,
                    dest=owner, requester=req,
                ),
                self.config.l2_latency,
            )
            entry.state = DirState.DM_DSD
        else:  # REQ_EX, or REQ_UPG reinterpreted above
            self._invalidate(line, {owner}, sharer_inv=False)
            entry.state = DirState.DM_DMD

    # -- responses / completions ------------------------------------------------

    def _handle_response(self, entry: _Entry, msg: CoherenceMessage) -> None:
        state = entry.state
        mtype = msg.mtype
        line = msg.line

        if mtype is MsgType.WRITEBACK:
            self._count["writebacks"].add()
            entry.dirty = True
            if state is DirState.DM:
                entry.sharers.clear()
                entry.state = DirState.DV
            elif state is DirState.DM_DID:
                entry.state = DirState.DS_DIA  # still awaiting the InvAck
            elif state is DirState.DM_DSD:
                entry.state = DirState.DM_DSA
            elif state is DirState.DM_DMD:
                entry.state = DirState.DM_DMA
            else:
                raise RuntimeError(f"WriteBack in {state.name}: {msg}")
            return

        if mtype is MsgType.MEM_ACK:
            if state is DirState.DI_DSD:
                self._reply(line, entry.requester, MsgType.DATA_E)
            elif state is DirState.DI_DMD:
                self._reply(line, entry.requester, MsgType.DATA_M)
            else:
                raise RuntimeError(f"MemAck in {state.name}: {msg}")
            entry.dirty = False
            entry.sharers = {entry.requester}
            self._finish(entry)
            return

        if mtype in (MsgType.INV_ACK, MsgType.INV_ACK_DATA):
            self._on_inv_ack(entry, msg)
            return

        if mtype in (MsgType.DWG_ACK, MsgType.DWG_ACK_DATA):
            self._on_dwg_ack(entry, msg)
            return

        raise RuntimeError(f"directory at {self.node} cannot handle {msg}")

    def _on_inv_ack(self, entry: _Entry, msg: CoherenceMessage) -> None:
        state, line = entry.state, msg.line
        if msg.mtype is MsgType.INV_ACK_DATA:
            entry.dirty = True
        if state in (DirState.DS_DMDA, DirState.DS_DMA, DirState.DS_DIA):
            entry.acks_needed -= 1
            if entry.acks_needed > 0:
                return
            if state is DirState.DS_DMDA:
                self._reply(line, entry.requester, MsgType.DATA_M)
                entry.sharers = {entry.requester}
                self._finish(entry)
            elif state is DirState.DS_DMA:
                self._reply(line, entry.requester, MsgType.EXC_ACK, data=False)
                entry.sharers = {entry.requester}
                self._finish(entry)
            else:  # DS_DIA — evicting
                self._evict_line(entry, line)
            return
        if state is DirState.DM_DMD or state is DirState.DM_DMA:
            self._reply(line, entry.requester, MsgType.DATA_M)
            entry.sharers = {entry.requester}
            self._finish(entry)
            return
        if state is DirState.DM_DID:
            self._evict_line(entry, line)
            return
        raise RuntimeError(f"InvAck in {state.name}: {msg}")

    def _on_dwg_ack(self, entry: _Entry, msg: CoherenceMessage) -> None:
        state, line = entry.state, msg.line
        if msg.mtype is MsgType.DWG_ACK_DATA:
            entry.dirty = True
        if state is DirState.DM_DSD:
            # Owner downgraded to S; requester joins as S.  (See module
            # docstring for the DS-vs-DM table deviation.)
            self._reply(line, entry.requester, MsgType.DATA_S)
            entry.sharers.add(entry.requester)
            entry.state = DirState.DS
            self._finish(entry, already_stable=True)
            return
        if state is DirState.DM_DSA:
            # Owner wrote back before the downgrade landed: requester is
            # now the only holder and gets the line exclusively.
            self._reply(line, entry.requester, MsgType.DATA_E)
            entry.sharers = {entry.requester}
            self._finish(entry)
            return
        raise RuntimeError(f"DwgAck in {state.name}: {msg}")

    # -- L2 replacement (the Repl column) -----------------------------------------

    def replace(self, line: int) -> None:
        """Evict ``line`` from this L2 slice (the directory Repl event)."""
        entry = self._entries.get(line)
        if entry is None or entry.state is DirState.DI:
            return
        state = entry.state
        if state.is_transient:
            raise RuntimeError(f"cannot replace line {line:#x} in {state.name}")
        if state is DirState.DV:
            self._evict_line(entry, line)
        elif state is DirState.DS:
            targets = set(entry.sharers)
            self._invalidate(line, targets, sharer_inv=True)
            entry.acks_needed = len(targets)
            entry.sharers.clear()
            entry.state = DirState.DS_DIA
        else:  # DM
            self._invalidate(line, {entry.owner}, sharer_inv=False)
            entry.acks_needed = 1
            entry.state = DirState.DM_DID

    def _evict_line(self, entry: _Entry, line: int) -> None:
        if entry.dirty:
            self._count["mem_writes"].add()
            self.send(
                CoherenceMessage(
                    mtype=MsgType.MEM_WRITE, line=line, sender=self.node,
                    dest=self.memory_node_of(line), requester=self.node,
                ),
                self.config.l2_latency,
            )
        entry.state = DirState.DI
        entry.sharers.clear()
        entry.dirty = False
        self._drain(entry, line)
        if not entry.queued and entry.state is DirState.DI:
            self._entries.pop(line, None)

    # -- helpers ----------------------------------------------------------------

    def _fetch_from_memory(
        self, entry: _Entry, line: int, req: int, shared: bool
    ) -> None:
        self._count["mem_reads"].add()
        entry.requester = req
        entry.state = DirState.DI_DSD if shared else DirState.DI_DMD
        self.send(
            CoherenceMessage(
                mtype=MsgType.MEM_READ, line=line, sender=self.node,
                dest=self.memory_node_of(line), requester=self.node,
            ),
            self.config.l2_latency,
        )

    def _invalidate(self, line: int, targets: set[int], sharer_inv: bool) -> None:
        for target in sorted(targets):
            self._count["invalidations_sent"].add()
            # §5.1 applies only to *remote* sharer invalidations: a local
            # delivery never crosses the network, so there is no
            # confirmation to stand in for the acknowledgment.
            use_conf = (
                sharer_inv
                and self.config.confirmation_ack
                and target != self.node
            )
            if use_conf:
                self._count["conf_acked_invs"].add()
            self.send(
                CoherenceMessage(
                    mtype=MsgType.INV, line=line, sender=self.node,
                    dest=target, requester=self.node,
                    ack_via_confirmation=use_conf,
                ),
                self.config.l2_latency,
            )

    def _reply(self, line: int, dest: int, mtype: MsgType, data: bool = True) -> None:
        self.send(
            CoherenceMessage(
                mtype=mtype, line=line, sender=self.node,
                dest=dest, requester=dest,
            ),
            self.config.l2_latency,
        )

    def _finish(self, entry: _Entry, already_stable: bool = False) -> None:
        if not already_stable:
            entry.state = DirState.DM
        entry.requester = -1
        entry.acks_needed = 0

    def _enqueue_or_nack(self, entry: _Entry, msg: CoherenceMessage) -> None:
        if (
            len(entry.queued) >= self.config.line_queue_depth
            or self._queued_total >= self.config.request_queue_depth
        ):
            self._count["nacks_sent"].add()
            self.send(
                CoherenceMessage(
                    mtype=MsgType.RETRY, line=msg.line, sender=self.node,
                    dest=msg.requester, requester=msg.requester,
                ),
                0,
            )
            return
        self._count["queued"].add()
        if not entry.queued:
            entry.queued = deque()
        entry.queued.append(msg)
        self._queued_total += 1
        if self.queue_ledger is not None:
            self.queue_ledger(1)

    def _drain(self, entry: _Entry, line: int) -> None:
        """Process queued requests while the line is stable."""
        while entry.queued and not entry.state.is_transient:
            msg = entry.queued.popleft()
            self._queued_total -= 1
            if self.queue_ledger is not None:
                self.queue_ledger(-1)
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
            if entry.state is not DirState.DI
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
            self._count["capacity_evictions"].add()
            self.replace(line)
