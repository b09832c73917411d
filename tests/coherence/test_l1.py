"""Table 2 upper half: the L1 cache controller state machine."""

import pytest

from repro.coherence.l1 import (
    RETRY_DELAY,
    WB_ANNOUNCE_LEAD,
    AccessResult,
    L1Config,
    L1Controller,
    L1State,
)
from repro.coherence.messages import CoherenceMessage, MsgType

LINE = 0x40


def make_l1(log=None, config=None, fills=None):
    log = log if log is not None else []
    fills = fills if fills is not None else []
    return (
        L1Controller(
            node=1,
            send=lambda msg, delay: log.append((msg, delay)),
            home_of=lambda line: 0,
            config=config,
            on_fill=lambda line: fills.append(line),
        ),
        log,
        fills,
    )


def msg(mtype, line=LINE, sender=0, dest=1):
    return CoherenceMessage(mtype=mtype, line=line, sender=sender, dest=dest)


class TestStableStateAccesses:
    def test_read_miss_issues_req_sh(self):
        l1, log, _ = make_l1()
        assert l1.access(LINE, False) is AccessResult.MISS
        assert l1.state(LINE) is L1State.I_SD
        assert log[0][0].mtype is MsgType.REQ_SH

    def test_write_miss_issues_req_ex(self):
        l1, log, _ = make_l1()
        assert l1.access(LINE, True) is AccessResult.MISS
        assert l1.state(LINE) is L1State.I_MD
        assert log[0][0].mtype is MsgType.REQ_EX

    def test_read_hit_in_s(self):
        l1, log, _ = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_S))
        assert l1.access(LINE, False) is AccessResult.HIT
        assert l1.state(LINE) is L1State.S

    def test_write_in_s_upgrades(self):
        l1, log, _ = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_S))
        assert l1.access(LINE, True) is AccessResult.MISS
        assert l1.state(LINE) is L1State.S_MA
        assert log[-1][0].mtype is MsgType.REQ_UPG

    def test_write_in_e_silent_upgrade(self):
        l1, log, _ = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_E))
        before = len(log)
        assert l1.access(LINE, True) is AccessResult.HIT
        assert l1.state(LINE) is L1State.M
        assert len(log) == before  # no message for E -> M

    def test_m_read_and_write_hit(self):
        l1, _, _ = make_l1()
        l1.access(LINE, True)
        l1.handle(msg(MsgType.DATA_M))
        assert l1.access(LINE, False) is AccessResult.HIT
        assert l1.access(LINE, True) is AccessResult.HIT
        assert l1.state(LINE) is L1State.M


class TestTransientStalls:
    @pytest.mark.parametrize("is_write", [False, True])
    def test_z_rows_stall(self, is_write):
        l1, _, _ = make_l1()
        l1.access(LINE, False)  # I -> I.SD
        assert l1.access(LINE, is_write) is AccessResult.STALL

    def test_s_ma_stalls_too(self):
        l1, _, _ = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_S))
        l1.access(LINE, True)  # S -> S.MA
        assert l1.access(LINE, False) is AccessResult.STALL


class TestDataArrival:
    def test_data_s_fills_shared(self):
        l1, _, fills = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_S))
        assert l1.state(LINE) is L1State.S
        assert fills == [LINE]

    def test_data_e_fills_exclusive(self):
        l1, _, _ = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_E))
        assert l1.state(LINE) is L1State.E

    def test_data_m_fills_modified(self):
        l1, _, _ = make_l1()
        l1.access(LINE, True)
        l1.handle(msg(MsgType.DATA_M))
        assert l1.state(LINE) is L1State.M

    def test_data_m_for_read_miss_is_error(self):
        l1, _, _ = make_l1()
        l1.access(LINE, False)
        with pytest.raises(RuntimeError):
            l1.handle(msg(MsgType.DATA_M))

    def test_unsolicited_data_is_error(self):
        l1, _, _ = make_l1()
        with pytest.raises(RuntimeError):
            l1.handle(msg(MsgType.DATA_S))

    def test_exc_ack_completes_upgrade(self):
        l1, _, fills = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_S))
        l1.access(LINE, True)
        l1.handle(msg(MsgType.EXC_ACK))
        assert l1.state(LINE) is L1State.M
        assert fills == [LINE, LINE]

    def test_exc_ack_outside_s_ma_is_error(self):
        l1, _, _ = make_l1()
        with pytest.raises(RuntimeError):
            l1.handle(msg(MsgType.EXC_ACK))


class TestInvalidation:
    def _to_state(self, l1, state):
        if state in (L1State.S, L1State.E):
            l1.access(LINE, False)
            l1.handle(msg(MsgType.DATA_S if state is L1State.S else MsgType.DATA_E))
        elif state is L1State.M:
            l1.access(LINE, True)
            l1.handle(msg(MsgType.DATA_M))
        elif state is L1State.I_SD:
            l1.access(LINE, False)
        elif state is L1State.I_MD:
            l1.access(LINE, True)
        elif state is L1State.S_MA:
            l1.access(LINE, False)
            l1.handle(msg(MsgType.DATA_S))
            l1.access(LINE, True)

    @pytest.mark.parametrize(
        "state,expected_after",
        [
            (L1State.I, L1State.I),
            (L1State.S, L1State.I),
            (L1State.E, L1State.I),
            (L1State.I_SD, L1State.I_SD),
            (L1State.I_MD, L1State.I_MD),
            (L1State.S_MA, L1State.I_MD),
        ],
    )
    def test_inv_transitions_and_plain_ack(self, state, expected_after):
        l1, log, _ = make_l1()
        self._to_state(l1, state)
        log.clear()
        l1.handle(msg(MsgType.INV))
        assert l1.state(LINE) is expected_after
        acks = [m for m, _d in log if m.mtype is MsgType.INV_ACK]
        assert len(acks) == 1

    def test_inv_in_m_acks_with_data(self):
        l1, log, _ = make_l1()
        self._to_state(l1, L1State.M)
        log.clear()
        l1.handle(msg(MsgType.INV))
        assert l1.state(LINE) is L1State.I
        assert log[0][0].mtype is MsgType.INV_ACK_DATA

    def test_confirmation_ack_suppression(self):
        l1, log, _ = make_l1()
        self._to_state(l1, L1State.S)
        log.clear()
        inv = msg(MsgType.INV)
        inv.ack_via_confirmation = True
        l1.handle(inv)
        assert log == []  # the network confirmation is the ack
        assert int(l1.stats.as_dict()["acks_suppressed"]) == 1

    def test_e_state_never_suppresses(self):
        # The directory treats an E owner as DM and needs the explicit ack.
        l1, log, _ = make_l1()
        self._to_state(l1, L1State.E)
        log.clear()
        inv = msg(MsgType.INV)
        inv.ack_via_confirmation = True
        l1.handle(inv)
        assert log[0][0].mtype is MsgType.INV_ACK


class TestDowngrade:
    def test_dwg_in_m_acks_with_data(self):
        l1, log, _ = make_l1()
        l1.access(LINE, True)
        l1.handle(msg(MsgType.DATA_M))
        log.clear()
        l1.handle(msg(MsgType.DWG))
        assert l1.state(LINE) is L1State.S
        assert log[0][0].mtype is MsgType.DWG_ACK_DATA

    def test_dwg_in_e_plain_ack(self):
        l1, log, _ = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_E))
        log.clear()
        l1.handle(msg(MsgType.DWG))
        assert l1.state(LINE) is L1State.S
        assert log[0][0].mtype is MsgType.DWG_ACK

    def test_dwg_in_i_acks_and_stays(self):
        l1, log, _ = make_l1()
        l1.handle(msg(MsgType.DWG))
        assert l1.state(LINE) is L1State.I
        assert log[0][0].mtype is MsgType.DWG_ACK

    def test_dwg_in_s_is_error(self):
        l1, _, _ = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_S))
        with pytest.raises(RuntimeError):
            l1.handle(msg(MsgType.DWG))


class TestRetry:
    @pytest.mark.parametrize(
        "setup_write,expected",
        [(False, MsgType.REQ_SH), (True, MsgType.REQ_EX)],
    )
    def test_retry_resends_request(self, setup_write, expected):
        l1, log, _ = make_l1()
        l1.access(LINE, setup_write)
        log.clear()
        l1.handle(msg(MsgType.RETRY))
        resent, delay = log[0]
        assert resent.mtype is expected
        assert delay == RETRY_DELAY

    def test_retry_for_upgrade(self):
        l1, log, _ = make_l1()
        l1.access(LINE, False)
        l1.handle(msg(MsgType.DATA_S))
        l1.access(LINE, True)
        log.clear()
        l1.handle(msg(MsgType.RETRY))
        assert log[0][0].mtype is MsgType.REQ_UPG

    def test_retry_in_stable_state_ignored(self):
        l1, log, _ = make_l1()
        l1.handle(msg(MsgType.RETRY))
        assert log == []


class TestEviction:
    def test_m_eviction_writes_back(self):
        config = L1Config(capacity_bytes=64, line_bytes=32, ways=1)  # 2 sets
        l1, log, _ = make_l1(config=config)
        l1.access(0, True)
        l1.handle(msg(MsgType.DATA_M, line=0))
        log.clear()
        # Line 2 maps to set 0 as well; its fill evicts the dirty line 0.
        l1.access(2, False)
        l1.handle(msg(MsgType.DATA_E, line=2))
        writebacks = [m for m, _d in log if m.mtype is MsgType.WRITEBACK]
        assert len(writebacks) == 1 and writebacks[0].line == 0
        assert l1.state(0) is L1State.I

    def test_clean_eviction_is_silent(self):
        config = L1Config(capacity_bytes=64, line_bytes=32, ways=1)
        l1, log, _ = make_l1(config=config)
        l1.access(0, False)
        l1.handle(msg(MsgType.DATA_S, line=0))
        log.clear()
        l1.access(2, False)
        l1.handle(msg(MsgType.DATA_E, line=2))
        assert all(m.mtype is not MsgType.WRITEBACK for m, _d in log)

    def test_split_writeback_announces_first(self):
        config = L1Config(
            capacity_bytes=64, line_bytes=32, ways=1, split_writeback=True
        )
        l1, log, _ = make_l1(config=config)
        l1.access(0, True)
        l1.handle(msg(MsgType.DATA_M, line=0))
        log.clear()
        l1.access(2, False)
        l1.handle(msg(MsgType.DATA_E, line=2))
        kinds = [m.mtype for m, _d in log]
        announce = kinds.index(MsgType.WB_ANNOUNCE)
        wb = kinds.index(MsgType.WRITEBACK)
        assert announce < wb
        assert log[wb][1] == WB_ANNOUNCE_LEAD  # data delayed
