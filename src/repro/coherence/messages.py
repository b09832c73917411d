"""Coherence message vocabulary and its network-packet mapping.

Message types follow Table 2's event columns.  Anything carrying a cache
line (data replies, writebacks, acks-with-data from an M owner) travels
as a 360-bit data packet; requests, invalidations, downgrades and plain
acks are 72-bit meta packets (Table 3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum, auto

from repro.net.packet import LaneKind

__all__ = ["MsgType", "CoherenceMessage", "make_message"]

_message_ids = itertools.count()


class MsgType(Enum):
    """Every message exchanged by L1s, directories and memory."""

    # L1 -> directory
    REQ_SH = auto()       # read in shared mode
    REQ_EX = auto()       # read in exclusive mode
    REQ_UPG = auto()      # upgrade S -> M
    WRITEBACK = auto()    # eviction of an M line (carries data)
    WB_ANNOUNCE = auto()  # §5.2 split-transaction writeback announcement
    INV_ACK = auto()      # invalidation acknowledgment
    INV_ACK_DATA = auto()  # invalidation ack from an M owner (carries data)
    DWG_ACK = auto()      # downgrade acknowledgment
    DWG_ACK_DATA = auto()  # downgrade ack from an M owner (carries data)
    # directory -> L1
    DATA_S = auto()       # data reply, shared
    DATA_E = auto()       # data reply, exclusive
    DATA_M = auto()       # data reply, modified (write permission)
    EXC_ACK = auto()      # upgrade granted, no data needed
    INV = auto()          # invalidate
    DWG = auto()          # downgrade to shared
    RETRY = auto()        # NACK: resend later (fetch-deadlock avoidance)
    # directory <-> memory controller
    MEM_READ = auto()     # fetch line from memory
    MEM_WRITE = auto()    # write line back to memory (carries data)
    MEM_ACK = auto()      # memory read completion (carries data)

    # ``carries_data`` / ``lane`` / ``is_request`` and the ``pkt_*``
    # packetization flags are precomputed member attributes (filled in
    # below) rather than properties: message classification runs once
    # per send *and* per delivery on the dispatch hot path, where a
    # plain attribute load beats a descriptor call plus frozenset
    # membership test.
    carries_data: bool
    lane: LaneKind
    is_request: bool
    pkt_is_reply: bool
    pkt_is_writeback: bool
    pkt_is_memory: bool
    pkt_expects_data: bool


_DATA_CARRYING = frozenset(
    {
        MsgType.WRITEBACK,
        MsgType.INV_ACK_DATA,
        MsgType.DWG_ACK_DATA,
        MsgType.DATA_S,
        MsgType.DATA_E,
        MsgType.DATA_M,
        MsgType.MEM_WRITE,
        MsgType.MEM_ACK,
    }
)

for _member in MsgType:
    _member.carries_data = _member in _DATA_CARRYING
    _member.lane = LaneKind.DATA if _member.carries_data else LaneKind.META
    _member.is_request = _member in (
        MsgType.REQ_SH,
        MsgType.REQ_EX,
        MsgType.REQ_UPG,
    )
    # Packet-field classification (``CmpSystem._packetize``): which
    # Packet booleans a message of this type sets when put on the wire.
    _member.pkt_is_reply = _member in (
        MsgType.DATA_S,
        MsgType.DATA_E,
        MsgType.DATA_M,
        MsgType.MEM_ACK,
    )
    _member.pkt_is_writeback = _member is MsgType.WRITEBACK
    _member.pkt_is_memory = _member in (
        MsgType.MEM_READ,
        MsgType.MEM_WRITE,
        MsgType.MEM_ACK,
    )
    _member.pkt_expects_data = _member in (
        MsgType.REQ_SH,
        MsgType.REQ_EX,
        MsgType.MEM_READ,
    )
del _member

#: The members as module constants, in definition order: the handlers
#: compare message types once or more per message, and on CPython 3.11
#: a module global costs a tenth of the ``MsgType.X`` descriptor lookup.
(
    REQ_SH, REQ_EX, REQ_UPG, WRITEBACK, WB_ANNOUNCE,
    INV_ACK, INV_ACK_DATA, DWG_ACK, DWG_ACK_DATA,
    DATA_S, DATA_E, DATA_M, EXC_ACK, INV, DWG, RETRY,
    MEM_READ, MEM_WRITE, MEM_ACK,
) = MsgType


@dataclass(slots=True)
class CoherenceMessage:
    """One protocol message about one cache line.

    ``requester`` is carried through the directory's transient states so
    forwarded data ends up at the right node; ``sender`` is whoever put
    the message on the wire.
    """

    mtype: MsgType
    line: int
    sender: int
    dest: int
    requester: int = -1
    #: §5.1 — set on INV messages whose delivery confirmation doubles as
    #: the acknowledgment; the receiver omits the data-less InvAck packet.
    ack_via_confirmation: bool = False
    uid: int = field(default_factory=lambda: next(_message_ids))

    def __post_init__(self) -> None:
        if self.line < 0:
            raise ValueError(f"negative line address: {self.line}")

    @property
    def lane(self) -> LaneKind:
        return self.mtype.lane

    def __repr__(self) -> str:
        return (
            f"Msg({self.mtype.name} line={self.line:#x} "
            f"{self.sender}->{self.dest} req={self.requester})"
        )


_new_message = CoherenceMessage.__new__


def make_message(
    mtype: MsgType,
    line: int,
    sender: int,
    dest: int,
    requester: int,
    ack_via_confirmation: bool = False,
) -> CoherenceMessage:
    """Hot-path constructor: direct slot writes, shared uid counter.

    Bit-identical to calling the dataclass — the uid comes from the same
    ``itertools.count`` — minus the ``__post_init__`` negative-line
    check, which the controllers' send sites satisfy by construction:
    every line address they send comes from a message that was already
    validated on entry or from a line resident in a cache array.
    """
    msg = _new_message(CoherenceMessage)
    msg.mtype = mtype
    msg.line = line
    msg.sender = sender
    msg.dest = dest
    msg.requester = requester
    msg.ack_via_confirmation = ack_via_confirmation
    msg.uid = next(_message_ids)
    return msg
