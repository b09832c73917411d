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
from repro.util.cache import CacheArray
from repro.util.stats import StatGroup

__all__ = ["L1State", "AccessResult", "L1Controller"]

#: send(msg, delay_cycles) — provided by the CMP adapter.
SendFn = Callable[[CoherenceMessage, int], None]

#: Cycles before resending a request the directory NACKed.
RETRY_DELAY = 20
#: §5.2 split writeback: announce -> data gap, cycles.
WB_ANNOUNCE_LEAD = 6


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
    # tuple scan.
    is_transient: bool


for _member in L1State:
    _member.is_transient = _member.name in ("I_SD", "I_MD", "S_MA")
del _member

# Members as module constants (see repro.coherence.messages).
_I, _S, _E, _M, _I_SD, _I_MD, _S_MA = L1State

#: NACKed transient state -> the request to resend.
_RESEND = {_I_SD: REQ_SH, _I_MD: REQ_EX, _S_MA: REQ_UPG}


class AccessResult(Enum):
    HIT = auto()
    MISS = auto()   # request issued; core will be called back on fill
    STALL = auto()  # line in a transient state ("z"); retry later


_HIT, _MISS, _STALL = AccessResult


@dataclass
class L1Config:
    """L1 geometry and behaviour knobs (Table 3 defaults)."""

    capacity_bytes: int = 8192
    line_bytes: int = 32
    ways: int = 2
    split_writeback: bool = False   # §5.2


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
        self.array = CacheArray.from_geometry(
            self.config.capacity_bytes,
            self.config.line_bytes,
            self.config.ways,
            is_evictable=lambda line: not self.state(line).is_transient,
        )
        stats = stats or StatGroup(f"l1.{node}")
        self.stats = stats
        count = self._count = {
            name: stats.counter(name)
            for name in (
                "read_hits", "write_hits", "read_misses", "write_misses",
                "upgrades", "stalls", "invalidations", "downgrades",
                "writebacks", "retries", "acks_suppressed",
            )
        }
        # The directory-side handlers bump these once per message.
        self._invalidations = count["invalidations"]
        self._downgrades = count["downgrades"]
        self._writebacks = count["writebacks"]
        self._acks_suppressed = count["acks_suppressed"]

    # -- state helpers -----------------------------------------------------

    def state(self, line: int) -> L1State:
        return self._states.get(line, _I)

    def preload_exclusive(self, lines) -> None:
        """Warm-start ``lines``, in order, resident in E (their homes
        hold them DM for this node)."""
        insert, states = self.array.insert, self._states
        for line in lines:
            insert(line)
            states[line] = _E

    def outstanding(self) -> int:
        """Number of lines in transient states (live misses)."""
        return sum(1 for s in self._states.values() if s.is_transient)

    # -- CPU side (Read / Write / Repl columns) ------------------------------

    def access(self, line: int, is_write: bool) -> AccessResult:
        """One load or store; may issue a request to the home directory."""
        states = self._states
        state = states.get(line, _I)
        if state.is_transient:
            self._count["stalls"].value += 1
            return _STALL

        if state is _I:
            if is_write:
                self._count["write_misses"].value += 1
                self._request(line, REQ_EX)
                states[line] = _I_MD
            else:
                self._count["read_misses"].value += 1
                self._request(line, REQ_SH)
                states[line] = _I_SD
            return _MISS

        self.array.touch(line)
        if state is _S:
            if is_write:
                self._count["upgrades"].value += 1
                self._request(line, REQ_UPG)
                states[line] = _S_MA
                return _MISS
            self._count["read_hits"].value += 1
            return _HIT

        # E or M: reads and writes both hit; a write to E silently
        # upgrades to M (the exclusive state's whole point).
        if is_write:
            self._count["write_hits"].value += 1
            states[line] = _M
        else:
            self._count["read_hits"].value += 1
        return _HIT

    def _request(self, line: int, mtype: MsgType) -> None:
        if line < 0:  # the one place a line address becomes a message
            raise ValueError(f"negative line address: {line}")
        if TRACE.enabled:
            TRACE.emit(
                "l1_request", cat="coherence", node=self.node,
                line=line, mtype=mtype.name,
            )
        node = self.node
        self.send(make_message(mtype, line, node, self.home_of(line), node), 0)

    def _evict(self, line: int) -> None:
        """The Repl column: silent for clean lines, writeback for M.

        The victim is never transient (``is_evictable`` excludes
        transient lines from replacement)."""
        if self._states.pop(line, _I) is _M:
            self._writebacks.value += 1
            node = self.node
            home = self.home_of(line)
            delay = 0
            if self.config.split_writeback:
                # §5.2: announce first so the home expects the data packet.
                self.send(make_message(WB_ANNOUNCE, line, node, home, node), 0)
                delay = WB_ANNOUNCE_LEAD
            self.send(make_message(WRITEBACK, line, node, home, node), delay)

    # -- directory side (Data / ExcAck / Inv / Dwg / Retry columns) -----------

    def handle(self, msg: CoherenceMessage) -> None:
        """Run ``msg`` through its Table 2 column (:data:`HANDLERS`)."""
        handler = self.HANDLERS.get(msg.mtype)
        if handler is None:
            raise ValueError(f"L1 at node {self.node} cannot handle {msg}")
        handler(self, msg)

    def _trace_event(self, msg: CoherenceMessage, state: L1State) -> None:
        TRACE.emit(
            "l1_event", cat="coherence", node=self.node,
            line=msg.line, mtype=msg.mtype.name, state=state.name,
        )

    def _on_data(self, msg: CoherenceMessage) -> None:
        line = msg.line
        states = self._states
        state = states.get(line, _I)
        if TRACE.enabled:
            self._trace_event(msg, state)
        mtype = msg.mtype
        if state is _I_SD:
            if mtype is DATA_M:
                raise RuntimeError(f"DATA_M for a read miss: {msg}")
            new = _S if mtype is DATA_S else _E
        elif state is _I_MD:
            if mtype is not DATA_M:
                raise RuntimeError(f"{mtype.name} for a write miss: {msg}")
            new = _M
        else:
            raise RuntimeError(f"unexpected data in {state.name}: {msg}")
        victim = self.array.insert(line)
        if victim is not None:
            self._evict(victim)
        states[line] = new
        self.on_fill(line)

    def _on_exc_ack(self, msg: CoherenceMessage) -> None:
        line = msg.line
        state = self._states.get(line, _I)
        if TRACE.enabled:
            self._trace_event(msg, state)
        if state is not _S_MA:
            raise RuntimeError(f"ExcAck in {state.name}: {msg}")
        self._states[line] = _M
        self.on_fill(line)

    def _on_inv(self, msg: CoherenceMessage) -> None:
        line = msg.line
        states = self._states
        state = states.get(line, _I)
        if TRACE.enabled:
            self._trace_event(msg, state)
        self._invalidations.value += 1
        if state is _M:
            self._ack(msg, INV_ACK_DATA)
            self.array.remove(line)
            del states[line]
            return
        # Data-less acknowledgment cases.
        if state is _S or state is _E:
            self.array.remove(line)
            del states[line]
        elif state is _S_MA:
            # Our upgrade lost the race; it becomes a full write miss and
            # the directory reinterprets the queued Req(Upg) as Req(Ex).
            self.array.remove(line)
            states[line] = _I_MD
        # I / I.SD / I.MD: acknowledge and stay (Table 2 row entries).
        if msg.ack_via_confirmation and state is not _E:
            self._acks_suppressed.value += 1
        else:
            self._ack(msg, INV_ACK)

    def _on_dwg(self, msg: CoherenceMessage) -> None:
        line = msg.line
        states = self._states
        state = states.get(line, _I)
        if TRACE.enabled:
            self._trace_event(msg, state)
        self._downgrades.value += 1
        if state is _S or state is _S_MA:
            # Table 2 marks both error: the line is already Shared.
            raise RuntimeError(f"Dwg to a shared line: {msg}")
        if state is _M:
            self._ack(msg, DWG_ACK_DATA)
            states[line] = _S
            return
        if state is _E:
            states[line] = _S
        # I / I.SD / I.MD: acknowledge and stay.
        self._ack(msg, DWG_ACK)

    def _on_retry(self, msg: CoherenceMessage) -> None:
        """NACK from the directory: resend the outstanding request."""
        line = msg.line
        state = self._states.get(line, _I)
        if TRACE.enabled:
            self._trace_event(msg, state)
        resend = _RESEND.get(state)
        if resend is None:
            return  # the transaction already resolved another way
        self._count["retries"].value += 1
        node = self.node
        self.send(
            make_message(resend, line, node, self.home_of(line), node),
            RETRY_DELAY,
        )

    def _ack(self, cause: CoherenceMessage, mtype: MsgType) -> None:
        self.send(
            make_message(
                mtype, cause.line, self.node, cause.sender, cause.requester
            ),
            0,
        )

    #: Table 2's directory-side columns: message type -> handler.  The
    #: CMP layer builds its per-node jump table from this map, so a
    #: delivered message runs the same function whether it arrives
    #: through :meth:`handle` or through ``CmpSystem``.
    HANDLERS = {
        DATA_S: _on_data,
        DATA_E: _on_data,
        DATA_M: _on_data,
        EXC_ACK: _on_exc_ack,
        INV: _on_inv,
        DWG: _on_dwg,
        RETRY: _on_retry,
    }
