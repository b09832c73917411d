"""L1 cache controller — Table 2's upper state machine, verbatim.

States: the MESI stable states plus three transients named by their
(previous, next) stable pair: ``I.SD`` (read miss, awaiting data),
``I.MD`` (write miss, awaiting data), ``S.MA`` (upgrade, awaiting ack).

Events and actions follow the table:

* CPU ``Read``/``Write``/``Repl`` (eviction) come from the core side via
  :meth:`L1Controller.access` and fills.
* ``Data``/``ExcAck``/``Inv``/``Dwg``/``Retry`` arrive from the
  directory via :meth:`L1Controller.handle`.
* "z" rows (transient states refusing CPU accesses) surface as
  ``AccessResult.STALL`` — the core retries the access later, exactly
  like a blocked MSHR.

§5.1's confirmation-as-acknowledgment: when an invalidation is flagged
``ack_via_confirmation``, a *data-less* acknowledgment is omitted — the
network-level confirmation of the Inv's delivery already told the
directory everything a plain InvAck would (the commitment to apply the
invalidation).  Acks that carry a modified line are always explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Callable, Optional

from repro.coherence.messages import CoherenceMessage, MsgType
from repro.obs.trace import TRACE
from repro.util.cache import CacheArray
from repro.util.stats import StatGroup

__all__ = ["L1State", "AccessResult", "L1Controller"]

#: send(msg, delay_cycles) — provided by the CMP adapter.
SendFn = Callable[[CoherenceMessage, int], None]


class L1State(Enum):
    I = auto()
    S = auto()
    E = auto()
    M = auto()
    I_SD = auto()  # I -> S, waiting for data
    I_MD = auto()  # I -> M, waiting for data
    S_MA = auto()  # S -> M, waiting for ack

    # ``is_transient`` is a precomputed member attribute (filled in
    # below): it is tested on every CPU access and every directory-side
    # event, where a plain attribute load beats a property call plus a
    # tuple scan.  ``code`` is a dense integer for the columnar engine's
    # state gathers (repro.coherence.vector).
    is_transient: bool
    code: int


for _member in L1State:
    _member.is_transient = _member.name in ("I_SD", "I_MD", "S_MA")
    _member.code = _member.value
del _member


class AccessResult(Enum):
    HIT = auto()
    MISS = auto()   # request issued; core will be called back on fill
    STALL = auto()  # line in a transient state ("z"); retry later


@dataclass
class L1Config:
    """L1 geometry and behaviour knobs (Table 3 defaults)."""

    capacity_bytes: int = 8192
    line_bytes: int = 32
    ways: int = 2
    retry_delay: int = 20           # cycles before resending after a NACK
    confirmation_ack: bool = False  # §5.1 (effective only over FSOI)
    split_writeback: bool = False   # §5.2
    wb_announce_lead: int = 6       # announce -> data gap for split WBs


class L1Controller:
    """One node's private L1 data cache controller."""

    def __init__(
        self,
        node: int,
        send: SendFn,
        home_of: Callable[[int], int],
        config: Optional[L1Config] = None,
        on_fill: Optional[Callable[[int], None]] = None,
        stats: Optional[StatGroup] = None,
    ):
        self.node = node
        self.send = send
        self.home_of = home_of
        self.config = config or L1Config()
        self.on_fill = on_fill or (lambda line: None)
        self._states: dict[int, L1State] = {}
        #: Columnar-engine ledger hook (repro.coherence.vector): called
        #: as ``ledger(old_state, new_state)`` from :meth:`_set_state` so
        #: the engine's per-node transient-line column stays write-through
        #: for the reference code paths its fused kernels do not cover.
        #: ``None`` (the default) keeps the reference path cost at a
        #: single predicate check.
        self.ledger: Optional[Callable[[L1State, L1State], None]] = None
        self.array = CacheArray.from_geometry(
            self.config.capacity_bytes,
            self.config.line_bytes,
            self.config.ways,
            is_evictable=lambda line: not self.state(line).is_transient,
        )
        stats = stats or StatGroup(f"l1.{node}")
        self.stats = stats
        self._count = {
            name: stats.counter(name)
            for name in (
                "read_hits", "write_hits", "read_misses", "write_misses",
                "upgrades", "stalls", "invalidations", "downgrades",
                "writebacks", "retries", "acks_suppressed",
            )
        }

    # -- state helpers -----------------------------------------------------

    def state(self, line: int) -> L1State:
        return self._states.get(line, L1State.I)

    def preload_exclusive(self, line: int) -> None:
        """Warm-start ``line`` resident in E (its home holds it DM for
        this node: :meth:`DirectoryController.preload_owned`)."""
        self.array.insert(line)
        self._states[line] = L1State.E

    def _set_state(self, line: int, state: L1State) -> None:
        if self.ledger is not None:
            self.ledger(self._states.get(line, L1State.I), state)
        if state is L1State.I:
            self._states.pop(line, None)
        else:
            self._states[line] = state

    def outstanding(self) -> int:
        """Number of lines in transient states (live misses)."""
        return sum(1 for s in self._states.values() if s.is_transient)

    # -- CPU side (Read / Write / Repl columns) ------------------------------

    def access(self, line: int, is_write: bool) -> AccessResult:
        """One load or store; may issue a request to the home directory."""
        state = self.state(line)
        if state.is_transient:
            self._count["stalls"].add()
            return AccessResult.STALL

        if state is L1State.I:
            if is_write:
                self._count["write_misses"].add()
                self._request(line, MsgType.REQ_EX)
                self._set_state(line, L1State.I_MD)
            else:
                self._count["read_misses"].add()
                self._request(line, MsgType.REQ_SH)
                self._set_state(line, L1State.I_SD)
            return AccessResult.MISS

        self.array.touch(line)
        if state is L1State.S:
            if is_write:
                self._count["upgrades"].add()
                self._request(line, MsgType.REQ_UPG)
                self._set_state(line, L1State.S_MA)
                return AccessResult.MISS
            self._count["read_hits"].add()
            return AccessResult.HIT

        # E or M: reads and writes both hit; a write to E silently
        # upgrades to M (the exclusive state's whole point).
        if is_write:
            self._count["write_hits"].add()
            self._set_state(line, L1State.M)
        else:
            self._count["read_hits"].add()
        return AccessResult.HIT

    def _request(self, line: int, mtype: MsgType) -> None:
        if TRACE.enabled:
            TRACE.emit(
                "l1_request", cat="coherence", node=self.node,
                line=line, mtype=mtype.name,
            )
        self.send(
            CoherenceMessage(
                mtype=mtype,
                line=line,
                sender=self.node,
                dest=self.home_of(line),
                requester=self.node,
            ),
            0,
        )

    def _evict(self, line: int) -> None:
        """The Repl column: silent for clean lines, writeback for M."""
        state = self.state(line)
        if state is L1State.M:
            self._count["writebacks"].add()
            home = self.home_of(line)
            delay = 0
            if self.config.split_writeback:
                # §5.2: announce first so the home expects the data packet.
                self.send(
                    CoherenceMessage(
                        mtype=MsgType.WB_ANNOUNCE,
                        line=line,
                        sender=self.node,
                        dest=home,
                        requester=self.node,
                    ),
                    0,
                )
                delay = self.config.wb_announce_lead
            self.send(
                CoherenceMessage(
                    mtype=MsgType.WRITEBACK,
                    line=line,
                    sender=self.node,
                    dest=home,
                    requester=self.node,
                ),
                delay,
            )
        self._set_state(line, L1State.I)

    # -- directory side (Data / ExcAck / Inv / Dwg / Retry columns) -----------

    def handle(self, msg: CoherenceMessage) -> None:
        mtype = msg.mtype
        if TRACE.enabled:
            TRACE.emit(
                "l1_event", cat="coherence", node=self.node,
                line=msg.line, mtype=mtype.name,
                state=self.state(msg.line).name,
            )
        if mtype in (MsgType.DATA_S, MsgType.DATA_E, MsgType.DATA_M):
            self._on_data(msg)
        elif mtype is MsgType.EXC_ACK:
            self._on_exc_ack(msg)
        elif mtype is MsgType.INV:
            self._on_inv(msg)
        elif mtype is MsgType.DWG:
            self._on_dwg(msg)
        elif mtype is MsgType.RETRY:
            self._on_retry(msg)
        else:
            raise ValueError(f"L1 at node {self.node} cannot handle {msg}")

    def _on_data(self, msg: CoherenceMessage) -> None:
        line, state = msg.line, self.state(msg.line)
        if state is L1State.I_SD:
            if msg.mtype is MsgType.DATA_M:
                raise RuntimeError(f"DATA_M for a read miss: {msg}")
            new = L1State.S if msg.mtype is MsgType.DATA_S else L1State.E
        elif state is L1State.I_MD:
            if msg.mtype is not MsgType.DATA_M:
                raise RuntimeError(f"{msg.mtype.name} for a write miss: {msg}")
            new = L1State.M
        else:
            raise RuntimeError(f"unexpected data in {state.name}: {msg}")
        victim = self.array.insert(line)
        if victim is not None:
            self._evict(victim)
        self._set_state(line, new)
        self.on_fill(line)

    def _on_exc_ack(self, msg: CoherenceMessage) -> None:
        if self.state(msg.line) is not L1State.S_MA:
            raise RuntimeError(f"ExcAck in {self.state(msg.line).name}: {msg}")
        self._set_state(msg.line, L1State.M)
        self.on_fill(msg.line)

    def _on_inv(self, msg: CoherenceMessage) -> None:
        line, state = msg.line, self.state(msg.line)
        self._count["invalidations"].add()
        if state is L1State.M:
            self._ack(msg, MsgType.INV_ACK_DATA)
            self.array.remove(line)
            self._set_state(line, L1State.I)
            return
        # Data-less acknowledgment cases.
        if state in (L1State.S, L1State.E):
            self.array.remove(line)
            self._set_state(line, L1State.I)
        elif state is L1State.S_MA:
            # Our upgrade lost the race; it becomes a full write miss and
            # the directory reinterprets the queued Req(Upg) as Req(Ex).
            self.array.remove(line)
            self._set_state(line, L1State.I_MD)
        # I / I.SD / I.MD: acknowledge and stay (Table 2 row entries).
        suppress = msg.ack_via_confirmation and state is not L1State.E
        if suppress:
            self._count["acks_suppressed"].add()
        else:
            self._ack(msg, MsgType.INV_ACK)

    def _on_dwg(self, msg: CoherenceMessage) -> None:
        line, state = msg.line, self.state(msg.line)
        self._count["downgrades"].add()
        if state in (L1State.S, L1State.S_MA):
            # Table 2 marks both error: the line is already Shared.
            raise RuntimeError(f"Dwg to a shared line: {msg}")
        if state is L1State.M:
            self._ack(msg, MsgType.DWG_ACK_DATA)
            self._set_state(line, L1State.S)
            return
        if state is L1State.E:
            self._set_state(line, L1State.S)
        # I / I.SD / I.MD: acknowledge and stay.
        self._ack(msg, MsgType.DWG_ACK)

    def _on_retry(self, msg: CoherenceMessage) -> None:
        """NACK from the directory: resend the outstanding request."""
        state = self.state(msg.line)
        resend = {
            L1State.I_SD: MsgType.REQ_SH,
            L1State.I_MD: MsgType.REQ_EX,
            L1State.S_MA: MsgType.REQ_UPG,
        }.get(state)
        if resend is None:
            return  # the transaction already resolved another way
        self._count["retries"].add()
        self.send(
            CoherenceMessage(
                mtype=resend,
                line=msg.line,
                sender=self.node,
                dest=self.home_of(msg.line),
                requester=self.node,
            ),
            self.config.retry_delay,
        )

    def _ack(self, cause: CoherenceMessage, mtype: MsgType) -> None:
        self.send(
            CoherenceMessage(
                mtype=mtype,
                line=cause.line,
                sender=self.node,
                dest=cause.sender,
                requester=cause.requester,
            ),
            0,
        )
