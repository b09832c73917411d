"""Unit tests for the ring-buffered tracer and trace-event schema."""

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.obs.trace import CATEGORIES
from repro.obs import (
    TRACE,
    TraceEvent,
    Tracer,
    tracing,
    validate_event,
    validate_trace_file,
)


class TestTraceEvent:
    def test_instant_phase_and_scope(self):
        event = TraceEvent(name="tx", cat="fsoi", cycle=7, node=3, lane="meta")
        assert event.ph == "i"
        chrome = event.to_chrome()
        assert chrome["ph"] == "i"
        assert chrome["s"] == "t"
        assert chrome["ts"] == 7
        assert chrome["pid"] == 3
        assert chrome["tid"] == "meta"

    def test_span_phase_carries_dur(self):
        event = TraceEvent(name="tx", cat="fsoi", cycle=7, dur=4)
        chrome = event.to_chrome()
        assert chrome["ph"] == "X"
        assert chrome["dur"] == 4
        assert "s" not in chrome

    def test_packet_and_extra_args_ride_in_args(self):
        event = TraceEvent(
            name="tx", cat="fsoi", cycle=1, packet=42, args={"dst": 5}
        )
        assert event.to_chrome()["args"] == {"packet": 42, "dst": 5}

    def test_defaults_for_missing_identity(self):
        chrome = TraceEvent(name="x", cat="c", cycle=0).to_chrome()
        assert chrome["pid"] == 0       # no node -> pid 0
        assert chrome["tid"] == "c"     # no lane -> category lane


class TestTracer:
    def test_emit_and_len(self):
        tracer = Tracer(capacity=8)
        tracer.emit("a", cat="x")
        tracer.emit("b", cat="y", cycle=3)
        assert len(tracer) == 2
        assert tracer.emitted == 2

    def test_cycle_defaults_to_tracer_cycle(self):
        tracer = Tracer()
        tracer.cycle = 99
        tracer.emit("a", cat="x")
        assert next(tracer.events()).cycle == 99

    def test_ring_drops_oldest_and_counts(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.emit(f"e{i}", cat="x")
        assert len(tracer) == 3
        assert tracer.emitted == 5
        assert tracer.dropped == 2
        assert [e.name for e in tracer.events()] == ["e2", "e3", "e4"]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_category_allow_list_filters_at_emit(self):
        tracer = Tracer(categories=["fsoi"])
        tracer.emit("keep", cat="fsoi")
        tracer.emit("drop", cat="coherence")
        assert [e.name for e in tracer.events()] == ["keep"]
        assert tracer.emitted == 1

    def test_event_filters_compose(self):
        tracer = Tracer()
        tracer.emit("tx", cat="fsoi", node=1, lane="meta", packet=10)
        tracer.emit("tx", cat="fsoi", node=1, lane="data", packet=11)
        tracer.emit("rx", cat="fsoi", node=2, lane="meta", packet=10)
        assert len(list(tracer.events(node=1))) == 2
        assert len(list(tracer.events(node=1, lane="meta"))) == 1
        assert len(list(tracer.events(packet=10))) == 2
        assert len(list(tracer.events(name="rx", cat="fsoi"))) == 1
        assert not list(tracer.events(node=99))

    def test_category_counts_sorted(self):
        tracer = Tracer()
        tracer.emit("a", cat="z")
        tracer.emit("b", cat="a")
        tracer.emit("c", cat="z")
        assert tracer.category_counts() == {"a": 1, "z": 2}

    def test_clear(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            tracer.emit("e", cat="x")
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0 and tracer.dropped == 0


class TestExport:
    def test_write_jsonl_roundtrip_validates(self, tmp_path):
        tracer = Tracer()
        tracer.emit("tx", cat="fsoi", cycle=1, node=0, lane="meta", dur=4)
        tracer.emit("collision", cat="fsoi", cycle=2, node=3, senders=[1, 2])
        path = tmp_path / "t.jsonl"
        assert tracer.write_jsonl(path) == 2
        assert validate_trace_file(path) == 2
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["ph"] == "X"
        assert lines[1]["args"]["senders"] == [1, 2]

    def test_write_jsonl_applies_filters(self, tmp_path):
        tracer = Tracer()
        tracer.emit("a", cat="fsoi", node=0)
        tracer.emit("b", cat="fsoi", node=1)
        path = tmp_path / "t.jsonl"
        assert tracer.write_jsonl(path, node=1) == 1
        assert json.loads(path.read_text())["name"] == "b"

    def test_write_chrome_json_shape(self, tmp_path):
        tracer = Tracer()
        tracer.emit("a", cat="fsoi", cycle=5)
        path = tmp_path / "t.json"
        assert tracer.write_chrome_json(path) == 1
        data = json.loads(path.read_text())
        assert isinstance(data["traceEvents"], list)
        validate_event(data["traceEvents"][0])


class TestValidation:
    def good(self):
        return {"name": "tx", "cat": "fsoi", "ph": "i", "ts": 1, "pid": 0,
                "tid": "meta", "s": "t"}

    def test_good_event_passes(self):
        validate_event(self.good())

    @pytest.mark.parametrize("key", ["name", "cat", "ph", "ts", "pid", "tid"])
    def test_missing_required_key_rejected(self, key):
        event = self.good()
        del event[key]
        with pytest.raises(ValueError, match=key):
            validate_event(event)

    def test_bad_phase_rejected(self):
        event = self.good()
        event["ph"] = "B"
        with pytest.raises(ValueError, match="phase"):
            validate_event(event)

    def test_span_without_dur_rejected(self):
        event = self.good()
        event["ph"] = "X"
        del event["s"]
        with pytest.raises(ValueError, match="dur"):
            validate_event(event)

    def test_non_numeric_ts_rejected(self):
        event = self.good()
        event["ts"] = "later"
        with pytest.raises(ValueError, match="ts"):
            validate_event(event)

    def test_file_validation_reports_line_numbers(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps(self.good()) + "\n" + "{not json}\n"
        )
        with pytest.raises(ValueError, match=":2"):
            validate_trace_file(path)

    def test_empty_trace_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        with pytest.raises(ValueError, match="empty"):
            validate_trace_file(path)


class TestTracingContext:
    def test_enables_then_restores_disabled(self):
        assert not TRACE.enabled
        with tracing() as tracer:
            assert tracer is TRACE
            assert TRACE.enabled
        assert not TRACE.enabled

    def test_events_survive_exit(self):
        with tracing() as tracer:
            TRACE.emit("a", cat="x")
        assert [e.name for e in tracer.events()] == ["a"]

    def test_entry_clears_previous_trace(self):
        with tracing() as tracer:
            TRACE.emit("old", cat="x")
        with tracing() as tracer:
            TRACE.emit("new", cat="x")
        assert [e.name for e in tracer.events()] == ["new"]

    def test_capacity_and_categories_applied(self):
        with tracing(capacity=2, categories=["keep"]) as tracer:
            for i in range(3):
                TRACE.emit(f"e{i}", cat="keep")
            TRACE.emit("x", cat="other")
        assert len(tracer) == 2
        assert tracer.dropped == 1
        assert all(e.cat == "keep" for e in tracer.events())

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            with tracing(capacity=0):
                pass


def test_trace_points_emit_the_known_categories():
    """Every ``TRACE.emit`` under ``src/repro`` passes a literal ``cat=``
    from :data:`CATEGORIES`, and every name there has a trace point."""
    used = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "TRACE"
            ):
                [cat] = [k.value for k in node.keywords if k.arg == "cat"]
                assert isinstance(cat, ast.Constant), f"{path}:{node.lineno}"
                assert cat.value in CATEGORIES, f"{path}:{node.lineno}"
                used.add(cat.value)
    assert used == set(CATEGORIES)
