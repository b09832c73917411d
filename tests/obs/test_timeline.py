"""Timeline collector: determinism, passivity, exports, delta algebra.

The acceptance bar for the telemetry layer: a seeded 16-node FSOI run
with ``window=100`` must export byte-identical JSONL across repeated
runs, with ``fast_forward`` on and off, and equal to its pinned digest,
while perturbing nothing the simulator measures.  The export formats (JSONL, chrome
counter events, OpenMetrics) are validated with the same linters the
CLI uses.
"""

import gc
import hashlib
import json
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmp import CmpConfig, CmpSystem
from repro.obs import (
    TIMELINE,
    load_timeline_jsonl,
    timelining,
    validate_event,
    validate_openmetrics,
    window_deltas,
)

CYCLES = 1500
WINDOW = 100


def timelined_run(cycles=CYCLES, window=WINDOW, capacity=4096, **config_kwargs):
    """Run a seeded 16-node system under the timeline; return
    ``(result_dict, jsonl_text, system)`` with the collector still
    holding its windows (timelining keeps data on exit)."""
    config_kwargs.setdefault("app", "fft")
    config_kwargs.setdefault("network", "fsoi")
    config_kwargs.setdefault("num_nodes", 16)
    config_kwargs.setdefault("seed", 3)
    system = CmpSystem(CmpConfig(**config_kwargs))
    with timelining(window=window, capacity=capacity) as timeline:
        result = system.run(cycles).to_dict()
    return result, timeline.to_jsonl(), system


class TestDeterminism:
    """The acceptance criterion: byte-identical JSONL everywhere."""

    def test_repeat_runs_byte_identical(self):
        _, first, _ = timelined_run()
        _, second, _ = timelined_run()
        assert first == second

    def test_fast_forward_byte_identical(self):
        _, enabled, _ = timelined_run()
        _, disabled, _ = timelined_run(fast_forward=False)
        assert enabled == disabled

    def test_archive_matches_pin(self, pinned):
        _, archive, _ = timelined_run()
        digest = hashlib.sha256(archive.encode()).hexdigest()
        pinned("fft-fsoi-16-seed3-timeline-w100", {"jsonl": digest})

    def test_sliced_run_matches_single_run(self):
        """Driving the run in window-sized slices (as ``repro top``
        does) samples the same boundaries as one uninterrupted run."""
        _, single, _ = timelined_run()
        system = CmpSystem(
            CmpConfig(app="fft", network="fsoi", num_nodes=16, seed=3)
        )
        with timelining(window=WINDOW) as timeline:
            for _ in range(CYCLES // WINDOW):
                system.run(WINDOW)
            sliced = timeline.to_jsonl()
        assert sliced == single


class TestPassivity:
    """A timelined run measures exactly what a plain run measures."""

    @pytest.mark.parametrize("network", ["fsoi", "mesh"])
    def test_results_identical_minus_loop(self, network):
        plain = CmpSystem(
            CmpConfig(app="fft", network=network, num_nodes=16, seed=3)
        ).run(CYCLES).to_dict()
        timed, _, _ = timelined_run(network=network)
        # The loop samples between segments and never forces a tick at a
        # window boundary, so even the executed/skipped split (``loop``)
        # is the plain run's.
        assert timed == plain

    @pytest.mark.parametrize("window", [2, 7])
    def test_loop_identical_on_an_idle_config(self, window):
        """oc over the ideal network fast-forwards, so a tick forced at
        any window boundary would show in ``loop``."""
        config = CmpConfig(app="oc", network="l0", num_nodes=16, seed=1)
        plain = CmpSystem(config).run(CYCLES).to_dict()
        assert plain["loop"]["skipped_cycles"] > 0
        with timelining(window=window) as timeline:
            timed = CmpSystem(config).run(CYCLES).to_dict()
        assert len(timeline) == CYCLES // window + (CYCLES % window > 0)
        assert timed == plain

    def test_timeline_left_disabled_after_block(self):
        timelined_run()
        assert not TIMELINE.enabled

    def test_block_exit_lets_go_of_the_system(self):
        """The collector keeps its windows, not the system: closed and
        dropped, it is freed with the cyclic collector off."""
        gc.collect()
        gc.disable()
        try:
            _, jsonl, system = timelined_run(cycles=400)
            ref = weakref.ref(system)
            system.close()
            del system
            assert ref() is None
        finally:
            gc.enable()
        assert TIMELINE.to_jsonl() == jsonl
        assert TIMELINE.meta["app"] == "fft"


class TestCollectedWindows:
    def test_window_count_and_cycles(self):
        _, text, _ = timelined_run()
        data = [json.loads(line) for line in text.splitlines()]
        meta, windows = data[0], data[1:]
        assert meta["type"] == "meta"
        assert meta["window"] == WINDOW
        assert meta["windows"] == len(windows) == CYCLES // WINDOW
        assert [w["cycle"] for w in windows] == list(
            range(WINDOW, CYCLES + 1, WINDOW)
        )

    def test_meta_identifies_the_run(self):
        _, text, _ = timelined_run()
        meta = json.loads(text.splitlines()[0])
        assert meta["app"] == "fft"
        assert meta["network"] == "fsoi"
        assert meta["num_nodes"] == 16
        assert meta["seed"] == 3
        assert meta["dropped_windows"] == 0

    def test_totals_match_final_registry(self):
        _, _, system = timelined_run()
        flat = system.metrics_registry().flatten()
        totals = TIMELINE.totals()
        assert totals
        for path, value in totals.items():
            assert value == pytest.approx(float(flat[path])), path

    def test_ring_drop_folds_into_totals(self):
        """A tiny ring drops old windows but keeps cumulative sums."""
        _, _, system = timelined_run(capacity=4)
        assert TIMELINE.dropped_windows == CYCLES // WINDOW - 4
        assert len(TIMELINE) == 4
        flat = system.metrics_registry().flatten()
        for path, value in TIMELINE.totals().items():
            assert value == pytest.approx(float(flat[path])), path
        delivered = TIMELINE.cumulative("network.packets_delivered")
        assert delivered[-1] == pytest.approx(
            float(flat["network.packets_delivered"])
        )

    def test_series_and_matrix_agree(self):
        timelined_run()
        column = TIMELINE.paths.index("run.instructions")
        assert np.array_equal(
            TIMELINE.series("run.instructions"), TIMELINE.matrix()[:, column]
        )
        with pytest.raises(KeyError):
            TIMELINE.series("no.such.path")


class TestExports:
    def test_jsonl_round_trips_through_loader(self, tmp_path):
        _, text, _ = timelined_run()
        path = tmp_path / "run.timeline.jsonl"
        assert TIMELINE.write_jsonl(path) == CYCLES // WINDOW
        loaded = load_timeline_jsonl(path)
        assert loaded["meta"] == json.loads(text.splitlines()[0])
        assert loaded["cycles"] == list(TIMELINE.cycles())
        assert np.allclose(loaded["deltas"], TIMELINE.matrix())

    def test_loader_rejects_malformed_files(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "window", "cycle": 5, "deltas": []}\n')
        with pytest.raises(ValueError, match="window before meta"):
            load_timeline_jsonl(path)
        path.write_text("")
        with pytest.raises(ValueError, match="no meta line"):
            load_timeline_jsonl(path)

    def test_counter_events_are_schema_valid(self):
        timelined_run()
        events = TIMELINE.counter_events()
        assert len(events) == (CYCLES // WINDOW) * len(TIMELINE.paths)
        for event in events:
            validate_event(event)
            assert event["ph"] == "C"

    def test_openmetrics_lints_and_counts(self, tmp_path):
        timelined_run()
        text = TIMELINE.to_openmetrics()
        # one _total per path plus the three collector gauges
        assert validate_openmetrics(text) == len(TIMELINE.paths) + 3
        path = tmp_path / "metrics.prom"
        assert TIMELINE.write_openmetrics(path) == len(TIMELINE.paths) + 3
        assert path.read_text() == text


class TestOpenMetricsValidator:
    GOOD = "# TYPE repro_x counter\nrepro_x_total 3\n# EOF\n"

    def test_accepts_minimal_exposition(self):
        assert validate_openmetrics(self.GOOD) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("# TYPE repro_x counter\nrepro_x_total 3\n", "missing # EOF"),
            (GOOD + "trailing 1\n", "content after # EOF"),
            ("# TYPE repro_x counter\n# EOF\n", "no samples"),
            ("orphan_total 3\n# EOF\n", "no TYPE declaration"),
            ("# TYPE repro_x counter\nrepro_x_total abc\n# EOF\n",
             "non-numeric"),
            ("# TYPE repro_x counter\n# TYPE repro_x gauge\n"
             "repro_x_total 1\n# EOF\n", "duplicate TYPE"),
        ],
    )
    def test_rejects_malformed_expositions(self, text, message):
        with pytest.raises(ValueError, match=message):
            validate_openmetrics(text)


class TestWindowDeltaAlgebra:
    counters = st.lists(
        st.integers(min_value=0, max_value=2**40), min_size=1, max_size=8
    )

    @given(st.lists(counters, min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_monotone_counters_never_go_negative(self, rows):
        # Build a monotone trajectory: each row of nonnegative
        # increments advances every column (resized to a fixed width).
        width = len(rows[0])
        traj = [np.zeros(width)]
        for row in rows:
            step = np.resize(np.array(row, dtype=np.float64), width)
            traj.append(traj[-1] + step)
        for prev, cur in zip(traj, traj[1:]):
            assert (window_deltas(prev, cur) >= 0).all()

    @given(st.lists(counters, min_size=2, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_deltas_telescope_to_final_minus_base(self, rows):
        width = len(rows[0])
        traj = [
            np.resize(np.array(r, dtype=np.float64), width) for r in rows
        ]
        total = sum(
            window_deltas(prev, cur) for prev, cur in zip(traj, traj[1:])
        )
        assert np.array_equal(total, traj[-1] - traj[0])

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=20, deadline=None)
    def test_shape_mismatch_raises(self, a, b):
        if a == b:
            window_deltas(np.zeros(a), np.zeros(b))
        else:
            with pytest.raises(ValueError, match="shape mismatch"):
                window_deltas(np.zeros(a), np.zeros(b))


class TestConfiguration:
    def test_invalid_window_and_capacity_rejected(self):
        with pytest.raises(ValueError, match="window"):
            timelining(window=0).__enter__()
        with pytest.raises(ValueError, match="capacity"):
            timelining(capacity=0).__enter__()
        TIMELINE.configure()  # restore a sane global state
        TIMELINE.enabled = False

    def test_custom_paths_select_columns(self):
        system = CmpSystem(
            CmpConfig(app="fft", network="fsoi", num_nodes=16, seed=3)
        )
        with timelining(window=WINDOW, paths=["network.packets_*"]) as tl:
            system.run(400)
        assert tl.paths == [
            "network.packets_delivered", "network.packets_sent"
        ]
