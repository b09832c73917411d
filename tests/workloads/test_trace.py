"""Tests for trace-driven workloads."""

import numpy as np
import pytest

from repro.cpu.core import Op, OpKind
from repro.workloads.splash2 import AppWorkload, signature
from repro.workloads.trace import (
    TraceWorkload,
    format_op,
    parse_trace,
    record_trace,
)


class TestParse:
    def test_all_record_kinds(self):
        ops = parse_trace(
            ["W", "R 0x10", "S 16", "B", "L 3 25", "# comment", ""]
        )
        assert [op.kind for op in ops] == [
            OpKind.WORK, OpKind.MEM, OpKind.MEM, OpKind.BARRIER, OpKind.LOCK
        ]
        assert ops[1].line == 0x10 and not ops[1].is_write
        assert ops[2].line == 16 and ops[2].is_write
        assert ops[4].lock_id == 3 and ops[4].hold_cycles == 25

    def test_malformed_line_reports_position(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_trace(["W", "R"])

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            parse_trace(["X 1"])

    def test_case_insensitive(self):
        ops = parse_trace(["r 0x1", "s 0x2"])
        assert not ops[0].is_write and ops[1].is_write


class TestRoundTrip:
    def test_format_parse_identity(self):
        ops = [
            Op(kind=OpKind.WORK),
            Op(kind=OpKind.MEM, line=0x42, is_write=True),
            Op(kind=OpKind.MEM, line=7),
            Op(kind=OpKind.BARRIER),
            Op(kind=OpKind.LOCK, lock_id=2, hold_cycles=30),
        ]
        reparsed = parse_trace(format_op(op) for op in ops)
        assert reparsed == ops


class TestTraceWorkload:
    def test_replays_then_idles(self):
        trace = TraceWorkload([Op(kind=OpKind.MEM, line=1)])
        rng = np.random.default_rng(0)
        first = trace.next_op(rng)
        assert first.kind is OpKind.MEM
        assert trace.next_op(rng).kind is OpKind.WORK
        assert trace.replays_exhausted

    def test_remaining_and_reset(self):
        trace = TraceWorkload([Op(kind=OpKind.WORK)] * 3)
        rng = np.random.default_rng(0)
        trace.next_op(rng)
        assert trace.remaining == 2
        trace.reset()
        assert trace.remaining == 3

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("R 0x5\nS 0x6\n")
        trace = TraceWorkload(path)
        assert len(trace.ops) == 2


class TestRecord:
    def test_record_from_signature(self, tmp_path):
        workload = AppWorkload(signature("ba"), node=0, num_nodes=16)
        path = tmp_path / "ba.trace"
        ops = record_trace(workload, 200, path, seed=3)
        assert len(ops) == 200
        replayed = TraceWorkload(path)
        assert len(replayed.ops) == 200
        # Memory ops survive the round trip exactly.
        originals = [op for op in ops if op.kind is OpKind.MEM]
        copies = [op for op in replayed.ops if op.kind is OpKind.MEM]
        assert originals == copies

    def test_record_reproducible(self, tmp_path):
        first = record_trace(
            AppWorkload(signature("ba"), 0, 16), 100, tmp_path / "a", seed=3
        )
        second = record_trace(
            AppWorkload(signature("ba"), 0, 16), 100, tmp_path / "b", seed=3
        )
        assert first == second

    def test_count_validated(self, tmp_path):
        with pytest.raises(ValueError):
            record_trace(
                AppWorkload(signature("ba"), 0, 16), 0, tmp_path / "x"
            )


class TestEndToEnd:
    def test_cmp_runs_on_traces(self, tmp_path):
        """A full CMP where every core replays a recorded trace."""
        from repro.cmp import CmpConfig, CmpSystem
        from repro.workloads.trace import TraceWorkload

        system = CmpSystem(CmpConfig(num_nodes=16, app="ba", network="fsoi"))
        for node, core in enumerate(system.cores):
            recorded = record_trace(
                AppWorkload(signature("ba"), node, 16),
                2000,
                tmp_path / f"core{node}.trace",
                seed=node,
            )
            core.workload = TraceWorkload(recorded)
        result = system.run(1500)
        assert result.instructions > 0
        assert result.packets_delivered > 0
        # The assigned traces are what the cores executed.
        for core in system.cores:
            assert core.workload.remaining < 2000
