"""Run-ahead windows: engaged on the paper's points, invisible to readers.

A RUNNING core whose workload is an ``AppWorkload`` applies its hits
ahead of the clock, up to the first op that is not a hit, and parks on
``DueSchedule.park`` until that op's cycle (``repro.cpu.core``,
``_fused_issue``); whatever reads or changes a parked core from outside
the cores phase first cuts the window back to the current cycle.

* :class:`TestEngagement` spies on the schedule: on barnes over FSOI
  windows must be long and rarely cut, so a silent fall-back to
  per-cycle issue fails a test, not only the benchmark — and none may
  outrun the ``_RUN_AHEAD_OPS`` cap.
* :class:`TestCutsAreExact` steps a system with public ``tick()`` and
  ``run(k)`` calls and, after every step, compares what a reader sees —
  L1 states, LRU stamps, the registry snapshot, retired instructions,
  workload counters — with the same configuration issuing through the
  generic ``next_op`` loop, which never runs ahead.
* :class:`TestOneDeadline` holds the schedule's bookkeeping: a core has
  one scheduled action at a time — a parked window's end, a hold
  release or a spin poll — kept once, in ``Core._due_at`` and a live
  entry of the schedule's one heap.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cmp import CmpConfig, CmpSystem
from repro.core.optimizations import OptimizationConfig
from repro.cpu.core import _RUN_AHEAD_OPS, CoreState, DueSchedule
from repro.sweep import canonical_json
from tests.conftest import NextOpOnly


class ScheduleSpy:
    """Counts windows, their length, and the cuts — all of them, those a
    delivered message forced, and those that handed a block back to the
    RNG because the window had drawn past a refill."""

    def __init__(self, monkeypatch):
        self.windows: list[int] = []
        self.cuts = self.message_cuts = self.refill_cuts = 0
        self._delivering = 0
        park, unpark = DueSchedule.park, DueSchedule.unpark
        deliver = CmpSystem._deliver

        def spy_park(schedule, node, deadline):
            self.windows.append(deadline - schedule.clock.cycle)
            park(schedule, node, deadline)

        def spy_unpark(schedule, node):
            self.cuts += 1
            self.message_cuts += self._delivering > 0
            self.refill_cuts += bool(schedule.cores[node]._rng._ahead)
            unpark(schedule, node)

        def spy_deliver(system, msg, holder):
            self._delivering += 1
            try:
                deliver(system, msg, holder)
            finally:
                self._delivering -= 1

        # Patched before a system is built: each core's issue loop binds
        # the schedule's methods when it is compiled.
        monkeypatch.setattr(DueSchedule, "park", spy_park)
        monkeypatch.setattr(DueSchedule, "unpark", spy_unpark)
        monkeypatch.setattr(CmpSystem, "_deliver", spy_deliver)


class TestEngagement:
    def test_windows_are_long_and_rarely_cut(self, monkeypatch):
        spy = ScheduleSpy(monkeypatch)
        config = CmpConfig(app="ba", network="fsoi", seed=3)
        CmpSystem(config).run(2000)
        assert spy.windows, "no core ever ran ahead"
        assert sum(spy.windows) / len(spy.windows) >= 10
        assert spy.cuts <= 0.25 * len(spy.windows)
        # At most _RUN_AHEAD_OPS ops a window, ipc of them a cycle.
        assert max(spy.windows) <= math.ceil(_RUN_AHEAD_OPS / config.core.ipc) + 1


def app_workload(core):
    """The ``AppWorkload`` behind a core, through a ``NextOpOnly``."""
    return getattr(core.workload, "_workload", core.workload)


def observed(system: CmpSystem, registry) -> dict:
    """What a reader of ``system`` between two steps can see of it."""
    return {
        "cycle": system.cycle,
        "loop": (system.executed_cycles, system.skipped_cycles),
        "metrics": json.loads(canonical_json(registry.snapshot())),
        "instructions": [core.instructions for core in system.cores],
        "workloads": [
            (w._ops_generated, w._stream_pos, w._cold_pos, w._butterfly_stage)
            for w in map(app_workload, system.cores)
        ],
        "l1": [
            (
                l1._states,
                l1.array._clock,
                [[(way.line, way.last_use) for way in ways]
                 for ways in l1.array._sets],
            )
            for l1 in system.l1s
        ],
    }


def assert_steps_match_generic(config: CmpConfig, steps, reassign_at=None):
    """Step a run-ahead system and a generic-loop one alike (``1``: a
    public ``tick()``; ``k``: ``run(k)``) and require equal readings
    after every step.  At step ``reassign_at`` the run-ahead system's
    cores are switched to the generic loop and, a step later, back."""
    ahead, generic = CmpSystem(config), CmpSystem(config)
    for core in generic.cores:
        core.workload = NextOpOnly(core.workload)
    readers = ahead.metrics_registry(), generic.metrics_registry()
    for index, cycles in enumerate(steps):
        if index == reassign_at:
            for core in ahead.cores:
                core.workload = NextOpOnly(core.workload)
        elif reassign_at is not None and index == reassign_at + 1:
            for core in ahead.cores:
                core.workload = app_workload(core)
        for system in (ahead, generic):
            if cycles == 1:
                system.tick()
            else:
                system.run(cycles)
        assert observed(ahead, readers[0]) == observed(generic, readers[1]), (
            f"diverged after step {index} ({cycles} cycles)"
        )
    assert canonical_json(ahead.run(1).to_dict()) == canonical_json(
        generic.run(1).to_dict()
    )


class TestCutsAreExact:
    def test_message_and_refill_cuts_and_a_reassignment(self, monkeypatch):
        spy = ScheduleSpy(monkeypatch)
        assert_steps_match_generic(
            CmpConfig(app="ba", network="fsoi", seed=3),
            [1, 1, 40, 1, 300, 3, 1, 400, 1, 600, 2],
            reassign_at=5,
        )
        # The run exercised what the readings have to survive.
        assert spy.message_cuts > 0
        assert spy.refill_cuts > 0

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        app=st.sampled_from(["ba", "oc", "mp", "ws", "fft", "ro"]),
        network=st.sampled_from(["fsoi", "mesh", "lr2"]),
        seed=st.integers(min_value=0, max_value=50),
        fast_forward=st.booleans(),
        steps=st.lists(
            st.one_of(st.just(1), st.integers(min_value=2, max_value=150)),
            min_size=2,
            max_size=10,
        ),
        reassign_at=st.one_of(st.none(), st.integers(min_value=0, max_value=8)),
    )
    def test_every_step_matches_the_generic_loop(
        self, app, network, seed, fast_forward, steps, reassign_at
    ):
        assert_steps_match_generic(
            CmpConfig(
                app=app, network=network, seed=seed, fast_forward=fast_forward
            ),
            steps,
            reassign_at,
        )


NONE = OptimizationConfig.none()
SPIN_STATES = (CoreState.BARRIER_SPIN, CoreState.LOCK_SPIN)
WAIT_STATES = (CoreState.BARRIER_WAIT, CoreState.LOCK_WAIT)


def assert_one_deadline(schedule: DueSchedule, now: int) -> set[str]:
    """The schedule invariant at cycle ``now`` (the next cycle to run);
    returns the kinds of blocked episode it saw."""
    live = set(schedule._due)
    kinds = set()
    for node, core in schedule.cores.items():
        parked = node in schedule.parked
        assert parked == (core._run_from >= 0), node
        hold = core.state is CoreState.LOCK_HOLD
        spin = core.state in SPIN_STATES
        kinds.update(
            kind for kind, on in (
                ("window", parked), ("hold", hold), ("poll", spin),
                ("wait", core.state in WAIT_STATES),
            ) if on
        )
        if parked or hold or spin:
            assert core._due_at >= now, (node, core.state, core._due_at)
            assert (core._due_at, node) in live, (node, core.state)
        else:
            assert core._due_at == -1, (node, core.state, core._due_at)
    return kinds


class TestOneDeadline:
    @pytest.mark.parametrize("app, network, cycles, optimizations, kinds", [
        ("ro", "fsoi", 3000, NONE, {"window", "hold", "poll"}),
        ("ro", "mesh", 3000, NONE, {"window", "hold", "poll"}),
        ("ba", "fsoi", 12000, NONE, {"window", "hold", "poll"}),
        ("ba", "mesh", 12000, NONE, {"window", "hold", "poll"}),
        ("ro", "fsoi", 3000, OptimizationConfig(llsc_subscription=True),
         {"window", "hold", "wait"}),
    ], ids=["ro-fsoi", "ro-mesh", "ba-fsoi", "ba-mesh", "ro-fsoi-llsc"])
    def test_each_core_keeps_one_deadline(
        self, monkeypatch, app, network, cycles, optimizations, kinds
    ):
        """After every cores phase (windows still parked) and after
        every public ``tick()`` (every window cut back)."""
        seen = set()
        tick = DueSchedule.tick

        def checked_tick(schedule, cycle):
            tick(schedule, cycle)
            seen.update(assert_one_deadline(schedule, cycle + 1))

        # Patched before the system is built: its phase table binds the
        # schedule's tick.
        monkeypatch.setattr(DueSchedule, "tick", checked_tick)
        system = CmpSystem(CmpConfig(
            app=app, network=network, num_nodes=16, seed=1,
            optimizations=optimizations,
        ))
        while system.cycle < cycles:
            system.run(97)
            system.tick()
            assert not system._due_cores.parked
            assert_one_deadline(system._due_cores, system.cycle)
        assert seen == kinds
