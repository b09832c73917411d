"""Table 2, transcribed: every (state, event) cell checked explicitly.

The other coherence tests exercise flows; this file is the *table
itself* as an executable artifact — for each cell, the outcome class:

* ``OK``     — handled (a transition and/or messages);
* ``ERROR``  — the paper marks it "error": the implementation raises;
* ``Z``      — "z": the event cannot be processed now (CPU accesses
  stall; directory requests queue).

Cells the paper leaves blank for the CPU columns of transient rows are
the z/stall cases; impossible network events must raise so protocol
bugs surface loudly instead of corrupting state.

For every handled cell the table also says *what* happens, and the
``*_EFFECTS`` maps below carry it as data — next state, the messages
emitted (as a multiset of ``MsgType``) and the counters that move — so
the one set of handlers is checked against the paper rather than
against a second implementation of itself.
``tests/coherence/test_dispatch.py`` replays the same cells
through ``CmpSystem``'s jump table.
"""

from collections import Counter

import pytest

from repro.coherence.directory import (
    DirectoryConfig,
    DirectoryController,
    DirState,
)
from repro.coherence.l1 import AccessResult, L1Controller, L1State
from repro.coherence.messages import CoherenceMessage, MsgType

LINE = 0x5A

OK, ERROR, Z = "ok", "error", "z"


# ---------------------------------------------------------------------------
# L1: rows I, S, E, M, I.SD, I.MD, S.MA x events Read, Write, Inv, Dwg, Data
# ---------------------------------------------------------------------------

#: (state, event) -> expected outcome class, straight from Table 2.
L1_MATRIX = {
    # Read        Write       Inv        Dwg        Data
    L1State.I:    {"read": OK, "write": OK, "inv": OK, "dwg": OK, "data": ERROR},
    L1State.S:    {"read": OK, "write": OK, "inv": OK, "dwg": ERROR, "data": ERROR},
    L1State.E:    {"read": OK, "write": OK, "inv": OK, "dwg": OK, "data": ERROR},
    L1State.M:    {"read": OK, "write": OK, "inv": OK, "dwg": OK, "data": ERROR},
    L1State.I_SD: {"read": Z, "write": Z, "inv": OK, "dwg": OK, "data": OK},
    L1State.I_MD: {"read": Z, "write": Z, "inv": OK, "dwg": OK, "data": OK},
    L1State.S_MA: {"read": Z, "write": Z, "inv": OK, "dwg": ERROR, "data": ERROR},
}


#: (state, event) -> (next state, messages emitted, counters moved) for
#: the handled cells.  ``inv*`` is the §5.1 variant of Inv (the delivery
#: confirmation stands in for a data-less ack), ``retry`` the NACK.
I, S, E, M = L1State.I, L1State.S, L1State.E, L1State.M
I_SD, I_MD, S_MA = L1State.I_SD, L1State.I_MD, L1State.S_MA
T = MsgType
L1_EFFECTS = {
    (I, "read"): (I_SD, [T.REQ_SH], ["read_misses"]),
    (I, "write"): (I_MD, [T.REQ_EX], ["write_misses"]),
    (I, "inv"): (I, [T.INV_ACK], ["invalidations"]),
    (I, "dwg"): (I, [T.DWG_ACK], ["downgrades"]),
    (S, "read"): (S, [], ["read_hits"]),
    (S, "write"): (S_MA, [T.REQ_UPG], ["upgrades"]),
    (S, "inv"): (I, [T.INV_ACK], ["invalidations"]),
    (E, "read"): (E, [], ["read_hits"]),
    (E, "write"): (M, [], ["write_hits"]),
    (E, "inv"): (I, [T.INV_ACK], ["invalidations"]),
    (E, "dwg"): (S, [T.DWG_ACK], ["downgrades"]),
    (M, "read"): (M, [], ["read_hits"]),
    (M, "write"): (M, [], ["write_hits"]),
    (M, "inv"): (I, [T.INV_ACK_DATA], ["invalidations"]),
    (M, "dwg"): (S, [T.DWG_ACK_DATA], ["downgrades"]),
    (I_SD, "inv"): (I_SD, [T.INV_ACK], ["invalidations"]),
    (I_SD, "dwg"): (I_SD, [T.DWG_ACK], ["downgrades"]),
    (I_SD, "data"): (S, [], []),
    (I_MD, "inv"): (I_MD, [T.INV_ACK], ["invalidations"]),
    (I_MD, "dwg"): (I_MD, [T.DWG_ACK], ["downgrades"]),
    (I_MD, "data"): (M, [], []),
    # The upgrade lost the race: it becomes a full write miss.
    (S_MA, "inv"): (I_MD, [T.INV_ACK], ["invalidations"]),
    # Columns the outcome matrix above does not carry.
    (I_SD, "data_e"): (E, [], []),
    (S_MA, "exc_ack"): (M, [], []),
    (I, "inv*"): (I, [], ["invalidations", "acks_suppressed"]),
    (S, "inv*"): (I, [], ["invalidations", "acks_suppressed"]),
    (E, "inv*"): (I, [T.INV_ACK], ["invalidations"]),  # E may be dirty
    (M, "inv*"): (I, [T.INV_ACK_DATA], ["invalidations"]),
    (S_MA, "inv*"): (I_MD, [], ["invalidations", "acks_suppressed"]),
    (I_SD, "retry"): (I_SD, [T.REQ_SH], ["retries"]),
    (I_MD, "retry"): (I_MD, [T.REQ_EX], ["retries"]),
    (S_MA, "retry"): (S_MA, [T.REQ_UPG], ["retries"]),
    (S, "retry"): (S, [], []),  # resolved another way meanwhile
}


def counts(controller):
    return {name: c.value for name, c in controller._count.items()}


def moved(before, controller):
    """Counter deltas since ``before``, zero rows dropped."""
    return {
        name: value - before[name]
        for name, value in counts(controller).items()
        if value != before[name]
    }


def l1_in_state(state: L1State):
    log = []
    l1 = L1Controller(
        node=1,
        send=lambda msg, delay: log.append(msg),
        home_of=lambda line: 0,
    )

    def feed(mtype):
        l1.handle(CoherenceMessage(mtype=mtype, line=LINE, sender=0, dest=1))

    if state in (L1State.S, L1State.E):
        l1.access(LINE, False)
        feed(MsgType.DATA_S if state is L1State.S else MsgType.DATA_E)
    elif state is L1State.M:
        l1.access(LINE, True)
        feed(MsgType.DATA_M)
    elif state is L1State.I_SD:
        l1.access(LINE, False)
    elif state is L1State.I_MD:
        l1.access(LINE, True)
    elif state is L1State.S_MA:
        l1.access(LINE, False)
        feed(MsgType.DATA_S)
        l1.access(LINE, True)
    assert l1.state(LINE) is state
    l1.log = log
    return l1


def l1_apply(l1, event: str):
    if event == "read":
        return l1.access(LINE, False)
    if event == "write":
        return l1.access(LINE, True)
    mtype = {
        "inv": MsgType.INV,
        "inv*": MsgType.INV,
        "dwg": MsgType.DWG,
        # The data event: the kind a fill in that state would carry.
        "data": MsgType.DATA_S
        if l1.state(LINE) is not L1State.I_MD
        else MsgType.DATA_M,
        "data_e": MsgType.DATA_E,
        "exc_ack": MsgType.EXC_ACK,
        "retry": MsgType.RETRY,
    }[event]
    l1.handle(CoherenceMessage(
        mtype=mtype, line=LINE, sender=0, dest=1,
        ack_via_confirmation=event == "inv*",
    ))


def check_l1_effects(l1, state, event):
    """Apply ``event`` and hold the cell to :data:`L1_EFFECTS`."""
    next_state, emitted, counters = L1_EFFECTS[state, event]
    before = counts(l1)
    del l1.log[:]
    result = l1_apply(l1, event)
    assert l1.state(LINE) is next_state
    assert Counter(m.mtype for m in l1.log) == Counter(emitted)
    assert moved(before, l1) == dict.fromkeys(counters, 1)
    for message in l1.log:  # every message goes home, about this line
        assert (message.line, message.sender, message.dest) == (LINE, 1, 0)
    return result


@pytest.mark.parametrize(
    "state,event,expected",
    [
        (state, event, expected)
        for state, row in L1_MATRIX.items()
        for event, expected in row.items()
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_l1_matrix_cell(state, event, expected):
    l1 = l1_in_state(state)
    if expected is ERROR:
        with pytest.raises(RuntimeError):
            l1_apply(l1, event)
    elif expected is Z:
        assert l1_apply(l1, event) is AccessResult.STALL
        assert l1.state(LINE) is state  # z leaves the state untouched
        assert counts(l1)["stalls"] == 1
    else:
        result = check_l1_effects(l1, state, event)
        if event in ("read", "write"):
            hit = L1_EFFECTS[state, event][1] == []
            assert result is (AccessResult.HIT if hit else AccessResult.MISS)


@pytest.mark.parametrize(
    "state,event",
    [cell for cell in L1_EFFECTS if cell[1] not in L1_MATRIX[cell[0]]],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_l1_cell_beyond_the_outcome_matrix(state, event):
    """ExcAck, Data(E), Retry and the §5.1 Inv variant."""
    check_l1_effects(l1_in_state(state), state, event)


@pytest.mark.parametrize("state", [I, S, E, M, I_SD, I_MD])
def test_l1_exc_ack_outside_an_upgrade_is_an_error(state):
    with pytest.raises(RuntimeError):
        l1_apply(l1_in_state(state), "exc_ack")


# ---------------------------------------------------------------------------
# Directory: stable rows x events
# ---------------------------------------------------------------------------

DIR_MATRIX = {
    #               Req(Sh)  Req(Ex)  WriteBack  InvAck  DwgAck  MemAck
    DirState.DI: {"sh": OK, "ex": OK, "wb": ERROR, "inv_ack": ERROR,
                  "dwg_ack": ERROR, "mem_ack": ERROR},
    DirState.DV: {"sh": OK, "ex": OK, "wb": ERROR, "inv_ack": ERROR,
                  "dwg_ack": ERROR, "mem_ack": ERROR},
    DirState.DS: {"sh": OK, "ex": OK, "wb": ERROR, "inv_ack": ERROR,
                  "dwg_ack": ERROR, "mem_ack": ERROR},
    DirState.DM: {"sh": OK, "ex": OK, "wb": OK, "inv_ack": ERROR,
                  "dwg_ack": ERROR, "mem_ack": ERROR},
}

DIR_EVENTS = {
    "sh": MsgType.REQ_SH,
    "ex": MsgType.REQ_EX,
    "wb": MsgType.WRITEBACK,
    "inv_ack": MsgType.INV_ACK,
    "dwg_ack": MsgType.DWG_ACK,
    "mem_ack": MsgType.MEM_ACK,
}


D = DirState
#: (state, event) -> (next state, sharers after, messages emitted,
#: counters moved).  Fixture: home node 0, requester 3, DS shared by
#: {1, 2}, DM owned by 1, memory at node 7.  ``upg@1`` is an upgrade
#: from sharer 1; a plain ``upg`` comes from node 3, which is *not* a
#: sharer — Table 2's "(Req(Ex))" reinterpretation.
DIR_EFFECTS = {
    (D.DI, "sh"): (D.DI_DSD, set(), [T.MEM_READ],
                   {"requests": 1, "mem_reads": 1}),
    (D.DI, "ex"): (D.DI_DMD, set(), [T.MEM_READ],
                   {"requests": 1, "mem_reads": 1}),
    (D.DV, "sh"): (D.DM, {3}, [T.DATA_E], {"requests": 1}),
    (D.DV, "ex"): (D.DM, {3}, [T.DATA_M], {"requests": 1}),
    (D.DS, "sh"): (D.DS, {1, 2, 3}, [T.DATA_S], {"requests": 1}),
    (D.DS, "ex"): (D.DS_DMDA, set(), [T.INV, T.INV],
                   {"requests": 1, "invalidations_sent": 2}),
    (D.DM, "sh"): (D.DM_DSD, {1}, [T.DWG],
                   {"requests": 1, "downgrades_sent": 1}),
    (D.DM, "ex"): (D.DM_DMD, {1}, [T.INV],
                   {"requests": 1, "invalidations_sent": 1}),
    (D.DM, "wb"): (D.DV, set(), [], {"writebacks": 1}),
    # The Req(Upg) column.
    (D.DS, "upg@1"): (D.DS_DMA, {1}, [T.INV],
                      {"requests": 1, "invalidations_sent": 1}),
    (D.DS, "upg"): (D.DS_DMDA, set(), [T.INV, T.INV],
                    {"requests": 1, "reinterpreted": 1,
                     "invalidations_sent": 2}),
    (D.DV, "upg"): (D.DM, {3}, [T.DATA_M],
                    {"requests": 1, "reinterpreted": 1}),
    (D.DM, "upg"): (D.DM_DMD, {1}, [T.INV],
                    {"requests": 1, "reinterpreted": 1,
                     "invalidations_sent": 1}),
    # Transient rows: the completions (reached via TRANSIENT_SETUPS).
    (D.DI_DSD, "mem_ack"): (D.DM, {1}, [T.DATA_E], {}),
    (D.DI_DMD, "mem_ack"): (D.DM, {1}, [T.DATA_M], {}),
    (D.DS_DMA, "inv_ack"): (D.DM, {1}, [T.EXC_ACK], {}),
    (D.DM_DSD, "dwg_ack"): (D.DS, {1, 2}, [T.DATA_S], {}),
    (D.DM_DSD, "wb"): (D.DM_DSA, {1}, [], {"writebacks": 1}),
    (D.DM_DMD, "inv_ack"): (D.DM, {2}, [T.DATA_M], {}),
    (D.DM_DMD, "wb"): (D.DM_DMA, {1}, [], {"writebacks": 1}),
    (D.DM_DID, "inv_ack"): (D.DI, set(), [], {}),
    (D.DM_DID, "wb"): (D.DS_DIA, {1}, [], {"writebacks": 1}),
}


def directory_in_state(state: DirState):
    log = []
    directory = DirectoryController(
        node=0,
        send=lambda msg, delay: log.append(msg),
        memory_node_of=lambda line: 7,
        config=DirectoryConfig(l2_latency=0),
    )
    directory.log = log
    entry = directory.entry(LINE)
    entry.state = state
    if state is DirState.DS:
        entry.sharers = {1, 2}
    elif state is DirState.DM:
        entry.sharers = {1}
    return directory


def check_directory_effects(directory, state, event):
    """Deliver ``event`` and hold the cell to :data:`DIR_EFFECTS`."""
    next_state, sharers, emitted, counters = DIR_EFFECTS[state, event]
    name, _, sender = event.partition("@")
    mtype = MsgType.REQ_UPG if name == "upg" else DIR_EVENTS[name]
    sender = int(sender or 3)
    before = counts(directory)
    del directory.log[:]
    directory.handle(CoherenceMessage(
        mtype=mtype, line=LINE, sender=sender, dest=0, requester=sender
    ))
    assert directory.state(LINE) is next_state
    if next_state is not DirState.DI:  # an evicted entry is dropped
        assert directory.entry(LINE).sharers == sharers
    assert Counter(m.mtype for m in directory.log) == Counter(emitted)
    assert moved(before, directory) == counters


@pytest.mark.parametrize(
    "state,event,expected",
    [
        (state, event, expected)
        for state, row in DIR_MATRIX.items()
        for event, expected in row.items()
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_directory_matrix_cell(state, event, expected):
    directory = directory_in_state(state)
    if expected is ERROR:
        with pytest.raises(RuntimeError):
            directory.handle(CoherenceMessage(
                mtype=DIR_EVENTS[event], line=LINE, sender=3, dest=0,
                requester=3,
            ))
    else:
        check_directory_effects(directory, state, event)


@pytest.mark.parametrize(
    "state,event",
    [
        cell for cell in DIR_EFFECTS
        if cell[0] in DIR_MATRIX and cell[1] not in DIR_MATRIX[cell[0]]
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_directory_upgrade_cell(state, event):
    check_directory_effects(directory_in_state(state), state, event)


# The "z" column for the directory: every request type queues in every
# transient state reachable from a stable one.

TRANSIENT_SETUPS = {
    DirState.DI_DSD: lambda d: d.handle(_req(MsgType.REQ_SH, 1)),
    DirState.DI_DMD: lambda d: d.handle(_req(MsgType.REQ_EX, 1)),
    DirState.DS_DMDA: lambda d: d.handle(_req(MsgType.REQ_EX, 3)),
    DirState.DS_DMA: lambda d: d.handle(_req(MsgType.REQ_UPG, 1)),
    DirState.DM_DSD: lambda d: d.handle(_req(MsgType.REQ_SH, 2)),
    DirState.DM_DMD: lambda d: d.handle(_req(MsgType.REQ_EX, 2)),
    DirState.DM_DID: lambda d: d.replace(LINE),
    DirState.DS_DIA: lambda d: d.replace(LINE),
}


#: The stable state each transient above is entered from.
TRANSIENT_START = {
    DirState.DI_DSD: DirState.DI,
    DirState.DI_DMD: DirState.DI,
    DirState.DS_DMDA: DirState.DS,
    DirState.DS_DMA: DirState.DS,
    DirState.DS_DIA: DirState.DS,
    DirState.DM_DSD: DirState.DM,
    DirState.DM_DMD: DirState.DM,
    DirState.DM_DID: DirState.DM,
}


def _req(mtype, sender):
    return CoherenceMessage(
        mtype=mtype, line=LINE, sender=sender, dest=0, requester=sender
    )


@pytest.mark.parametrize("transient", sorted(TRANSIENT_SETUPS, key=lambda s: s.name),
                         ids=lambda s: s.name)
@pytest.mark.parametrize("request_type",
                         [MsgType.REQ_SH, MsgType.REQ_EX, MsgType.REQ_UPG],
                         ids=lambda m: m.name)
def test_directory_transients_queue_requests(transient, request_type):
    """Table 2's z cells: requests arriving in any transient state are
    deferred, never processed immediately and never dropped."""
    directory = directory_in_state(TRANSIENT_START[transient])
    TRANSIENT_SETUPS[transient](directory)
    assert directory.state(LINE) is transient
    before = len(directory.entry(LINE).queued)
    directory.handle(_req(request_type, 3))
    assert directory.state(LINE) is transient  # unchanged
    assert len(directory.entry(LINE).queued) == before + 1


@pytest.mark.parametrize(
    "transient,event",
    [cell for cell in DIR_EFFECTS if cell[0] in TRANSIENT_SETUPS],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_directory_transient_completion_cell(transient, event):
    """Table 2's transient rows: the ack / data that completes the
    transaction grants the line (or finishes the eviction)."""
    directory = directory_in_state(TRANSIENT_START[transient])
    TRANSIENT_SETUPS[transient](directory)
    assert directory.state(LINE) is transient
    check_directory_effects(directory, transient, event)
