"""Table 2 lower half: the L2/directory controller state machine."""

import pytest

from repro.coherence.directory import (
    DirectoryConfig,
    DirectoryController,
    DirState,
)
from repro.coherence.messages import CoherenceMessage, MsgType

LINE = 0x99


def make_dir(config=None):
    log = []
    directory = DirectoryController(
        node=0,
        send=lambda msg, delay: log.append(msg),
        memory_node_of=lambda line: 7,
        config=config or DirectoryConfig(l2_latency=0),
    )
    return directory, log


def req(mtype, sender, line=LINE):
    return CoherenceMessage(
        mtype=mtype, line=line, sender=sender, dest=0, requester=sender
    )


def mem_ack(line=LINE):
    return CoherenceMessage(
        mtype=MsgType.MEM_ACK, line=line, sender=7, dest=0, requester=0
    )


class TestDiState:
    def test_req_sh_fetches_memory(self):
        d, log = make_dir()
        d.handle(req(MsgType.REQ_SH, 1))
        assert d.state(LINE) is DirState.DI_DSD
        assert log[0].mtype is MsgType.MEM_READ
        assert log[0].dest == 7

    def test_mem_ack_replies_exclusive(self):
        d, log = make_dir()
        d.handle(req(MsgType.REQ_SH, 1))
        d.handle(mem_ack())
        assert log[-1].mtype is MsgType.DATA_E
        assert log[-1].dest == 1
        assert d.state(LINE) is DirState.DM
        assert d.entry(LINE).sharers == {1}

    def test_req_ex_path(self):
        d, log = make_dir()
        d.handle(req(MsgType.REQ_EX, 2))
        assert d.state(LINE) is DirState.DI_DMD
        d.handle(mem_ack())
        assert log[-1].mtype is MsgType.DATA_M

    def test_writeback_in_di_is_error(self):
        d, _ = make_dir()
        with pytest.raises(RuntimeError):
            d.handle(req(MsgType.WRITEBACK, 1))


class TestDvState:
    def _to_dv(self, d):
        entry = d.entry(LINE)
        entry.state = DirState.DV

    def test_req_sh_grants_exclusive(self):
        d, log = make_dir()
        self._to_dv(d)
        d.handle(req(MsgType.REQ_SH, 3))
        assert log[-1].mtype is MsgType.DATA_E
        assert d.state(LINE) is DirState.DM

    def test_req_ex_grants_modified(self):
        d, log = make_dir()
        self._to_dv(d)
        d.handle(req(MsgType.REQ_EX, 3))
        assert log[-1].mtype is MsgType.DATA_M

    def test_replace_evicts(self):
        d, log = make_dir()
        self._to_dv(d)
        d.replace(LINE)
        assert d.state(LINE) is DirState.DI
        assert not any(m.mtype is MsgType.MEM_WRITE for m in log)  # clean

    def test_replace_dirty_writes_memory(self):
        d, log = make_dir()
        self._to_dv(d)
        d.entry(LINE).dirty = True
        d.replace(LINE)
        assert any(m.mtype is MsgType.MEM_WRITE for m in log)


class TestDsState:
    def _to_ds(self, d, sharers):
        entry = d.entry(LINE)
        entry.state = DirState.DS
        entry.sharers = set(sharers)

    def test_req_sh_adds_sharer(self):
        d, log = make_dir()
        self._to_ds(d, {1})
        d.handle(req(MsgType.REQ_SH, 2))
        assert log[-1].mtype is MsgType.DATA_S
        assert d.entry(LINE).sharers == {1, 2}
        assert d.state(LINE) is DirState.DS

    def test_req_ex_invalidates_all_sharers(self):
        d, log = make_dir()
        self._to_ds(d, {1, 2, 3})
        d.handle(req(MsgType.REQ_EX, 4))
        invs = [m for m in log if m.mtype is MsgType.INV]
        assert sorted(m.dest for m in invs) == [1, 2, 3]
        assert d.state(LINE) is DirState.DS_DMDA

    def test_acks_then_data_m(self):
        d, log = make_dir()
        self._to_ds(d, {1, 2})
        d.handle(req(MsgType.REQ_EX, 4))
        d.handle(req(MsgType.INV_ACK, 1))
        assert d.state(LINE) is DirState.DS_DMDA  # one ack outstanding
        d.handle(req(MsgType.INV_ACK, 2))
        assert log[-1].mtype is MsgType.DATA_M
        assert log[-1].dest == 4
        assert d.state(LINE) is DirState.DM
        assert d.entry(LINE).sharers == {4}

    def test_upgrade_waits_acks_then_exc_ack(self):
        d, log = make_dir()
        self._to_ds(d, {1, 2})
        d.handle(req(MsgType.REQ_UPG, 1))
        assert d.state(LINE) is DirState.DS_DMA
        d.handle(req(MsgType.INV_ACK, 2))
        assert log[-1].mtype is MsgType.EXC_ACK
        assert log[-1].dest == 1
        assert d.state(LINE) is DirState.DM

    def test_sole_sharer_upgrade_immediate(self):
        d, log = make_dir()
        self._to_ds(d, {1})
        d.handle(req(MsgType.REQ_UPG, 1))
        assert log[-1].mtype is MsgType.EXC_ACK
        assert d.state(LINE) is DirState.DM

    def test_upgrade_from_nonsharer_reinterpreted(self):
        """Table 2's (Req(Ex)) annotation: the upgrader lost its line."""
        d, log = make_dir()
        self._to_ds(d, {1, 2})
        d.handle(req(MsgType.REQ_UPG, 9))
        invs = [m for m in log if m.mtype is MsgType.INV]
        assert sorted(m.dest for m in invs) == [1, 2]
        assert d.state(LINE) is DirState.DS_DMDA  # data path, not ack path

    def test_replace_invalidates_then_evicts(self):
        d, log = make_dir()
        self._to_ds(d, {1, 2})
        d.replace(LINE)
        assert d.state(LINE) is DirState.DS_DIA
        d.handle(req(MsgType.INV_ACK, 1))
        d.handle(req(MsgType.INV_ACK, 2))
        assert d.state(LINE) is DirState.DI


class TestDmState:
    def _to_dm(self, d, owner=1):
        entry = d.entry(LINE)
        entry.state = DirState.DM
        entry.sharers = {owner}

    def test_req_sh_downgrades_owner(self):
        d, log = make_dir()
        self._to_dm(d)
        d.handle(req(MsgType.REQ_SH, 2))
        assert log[-1].mtype is MsgType.DWG
        assert log[-1].dest == 1
        assert d.state(LINE) is DirState.DM_DSD

    def test_dwg_ack_data_forwards_shared(self):
        d, log = make_dir()
        self._to_dm(d)
        d.handle(req(MsgType.REQ_SH, 2))
        d.handle(req(MsgType.DWG_ACK_DATA, 1))
        assert log[-1].mtype is MsgType.DATA_S
        assert log[-1].dest == 2
        assert d.state(LINE) is DirState.DS
        assert d.entry(LINE).sharers == {1, 2}
        assert d.entry(LINE).dirty  # owner's data was modified

    def test_dwg_ack_clean_serves_from_l2(self):
        d, log = make_dir()
        self._to_dm(d)
        d.handle(req(MsgType.REQ_SH, 2))
        d.handle(req(MsgType.DWG_ACK, 1))
        assert log[-1].mtype is MsgType.DATA_S
        assert d.state(LINE) is DirState.DS

    def test_req_ex_invalidates_owner(self):
        d, log = make_dir()
        self._to_dm(d)
        d.handle(req(MsgType.REQ_EX, 3))
        assert log[-1].mtype is MsgType.INV
        assert d.state(LINE) is DirState.DM_DMD
        d.handle(req(MsgType.INV_ACK_DATA, 1))
        assert log[-1].mtype is MsgType.DATA_M
        assert d.entry(LINE).sharers == {3}
        assert d.state(LINE) is DirState.DM

    def test_voluntary_writeback(self):
        d, _ = make_dir()
        self._to_dm(d)
        d.handle(req(MsgType.WRITEBACK, 1))
        assert d.state(LINE) is DirState.DV
        assert d.entry(LINE).dirty
        assert d.entry(LINE).sharers == set()

    def test_writeback_races_downgrade(self):
        """Table 2: DM.DSD + WriteBack -> DM.DSA; DwgAck -> Data(E)."""
        d, log = make_dir()
        self._to_dm(d)
        d.handle(req(MsgType.REQ_SH, 2))
        d.handle(req(MsgType.WRITEBACK, 1))  # owner evicted mid-flight
        assert d.state(LINE) is DirState.DM_DSA
        d.handle(req(MsgType.DWG_ACK, 1))  # the I-state L1 still acks
        assert log[-1].mtype is MsgType.DATA_E  # requester now sole holder
        assert d.state(LINE) is DirState.DM
        assert d.entry(LINE).sharers == {2}

    def test_writeback_races_invalidate(self):
        """Table 2: DM.DMD + WriteBack -> DM.DMA; InvAck -> Data(M)."""
        d, log = make_dir()
        self._to_dm(d)
        d.handle(req(MsgType.REQ_EX, 3))
        d.handle(req(MsgType.WRITEBACK, 1))
        assert d.state(LINE) is DirState.DM_DMA
        d.handle(req(MsgType.INV_ACK, 1))
        assert log[-1].mtype is MsgType.DATA_M

    def test_writeback_races_eviction(self):
        """Table 2: DM.DID + WriteBack -> DS.DIA; InvAck -> evict."""
        d, _ = make_dir()
        self._to_dm(d)
        d.replace(LINE)
        assert d.state(LINE) is DirState.DM_DID
        d.handle(req(MsgType.WRITEBACK, 1))
        assert d.state(LINE) is DirState.DS_DIA
        d.handle(req(MsgType.INV_ACK, 1))
        assert d.state(LINE) is DirState.DI

    def test_eviction_with_dirty_ack(self):
        d, log = make_dir()
        self._to_dm(d)
        d.replace(LINE)
        d.handle(req(MsgType.INV_ACK_DATA, 1))
        assert d.state(LINE) is DirState.DI
        assert any(m.mtype is MsgType.MEM_WRITE for m in log)


class TestQueuingAndNacks:
    def test_requests_queue_during_transients(self):
        d, log = make_dir()
        d.handle(req(MsgType.REQ_SH, 1))  # DI -> DI.DSD
        d.handle(req(MsgType.REQ_SH, 2))  # must queue ("z")
        assert len(d.entry(LINE).queued) == 1
        d.handle(mem_ack())
        # Drain: node 1 got Data(E); node 2's queued request now runs and
        # downgrades node 1.
        assert any(m.mtype is MsgType.DWG and m.dest == 1 for m in log)

    def test_queued_upgrade_reinterpreted_after_invalidation(self):
        d, log = make_dir()
        entry = d.entry(LINE)
        entry.state = DirState.DS
        entry.sharers = {1, 2}
        d.handle(req(MsgType.REQ_EX, 3))       # invalidates 1 and 2
        d.handle(req(MsgType.REQ_UPG, 1))      # queued; 1 loses its line
        d.handle(req(MsgType.INV_ACK, 1))
        d.handle(req(MsgType.INV_ACK, 2))      # 3 becomes owner; drain
        assert int(d.stats.as_dict()["reinterpreted"]) == 1
        # Node 1's "upgrade" now behaves as Req(Ex): invalidate owner 3.
        assert any(m.mtype is MsgType.INV and m.dest == 3 for m in log)

    def test_line_queue_overflow_nacks(self):
        d, log = make_dir()
        d.handle(req(MsgType.REQ_SH, 1))  # in flight: the line is transient
        for sender in range(2, 6):
            d.handle(req(MsgType.REQ_SH, sender))  # 4 queued
        assert len(d.entry(LINE).queued) == 4
        d.handle(req(MsgType.REQ_SH, 6))  # NACKed
        retries = [m for m in log if m.mtype is MsgType.RETRY]
        assert len(retries) == 1 and retries[0].dest == 6

    def test_global_queue_overflow_nacks(self):
        d, log = make_dir()
        lines = range(1, 17)
        for line in lines:
            d.handle(req(MsgType.REQ_SH, 1, line=line))
            for sender in range(2, 6):
                d.handle(req(MsgType.REQ_SH, sender, line=line))
        assert sum(len(d.entry(line).queued) for line in lines) == 64
        assert not [m for m in log if m.mtype is MsgType.RETRY]
        d.handle(req(MsgType.REQ_SH, 1, line=17))
        d.handle(req(MsgType.REQ_SH, 2, line=17))  # NACKed: 64 queued in all
        retries = [m for m in log if m.mtype is MsgType.RETRY]
        assert len(retries) == 1
        assert (retries[0].dest, retries[0].line) == (2, 17)

    def test_wb_announce_is_informational(self):
        d, log = make_dir()
        d.handle(req(MsgType.WB_ANNOUNCE, 1))
        assert log == []
        assert d.state(LINE) is DirState.DI


class TestConfirmationAckFlag:
    def test_remote_sharer_invs_flagged(self):
        d, log = make_dir(DirectoryConfig(l2_latency=0, confirmation_ack=True))
        entry = d.entry(LINE)
        entry.state = DirState.DS
        entry.sharers = {1, 2}
        d.handle(req(MsgType.REQ_EX, 3))
        invs = [m for m in log if m.mtype is MsgType.INV]
        assert all(m.ack_via_confirmation for m in invs)

    def test_local_sharer_inv_not_flagged(self):
        d, log = make_dir(DirectoryConfig(l2_latency=0, confirmation_ack=True))
        entry = d.entry(LINE)
        entry.state = DirState.DS
        entry.sharers = {0, 2}  # node 0 is the directory's own node
        d.handle(req(MsgType.REQ_EX, 3))
        by_dest = {m.dest: m for m in log if m.mtype is MsgType.INV}
        assert not by_dest[0].ack_via_confirmation
        assert by_dest[2].ack_via_confirmation

    def test_owner_invs_never_flagged(self):
        d, log = make_dir(DirectoryConfig(l2_latency=0, confirmation_ack=True))
        entry = d.entry(LINE)
        entry.state = DirState.DM
        entry.sharers = {1}
        d.handle(req(MsgType.REQ_EX, 3))
        invs = [m for m in log if m.mtype is MsgType.INV]
        assert not invs[0].ack_via_confirmation
