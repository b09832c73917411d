"""A system's lifetime: :meth:`CmpSystem.close` and two systems in one process.

A built system is a web of reference cycles, so without ``close()`` only
the cyclic collector frees it.  The acceptance bar: with the collector
off, closing and dropping a system that ran frees every object it built,
on every network and on the paths that add edges of their own (the §5
optimisations, a fault plan, a bounded directory, tracing, a run stopped
with cores parked on run-ahead windows, one stopped with a memory
transfer start filed on the calendar).
"""

import gc
import weakref

import pytest

import repro.cmp.system
from repro.cli import main
from repro.cmp import CmpConfig, CmpSystem, run_app
from repro.cmp.system import NETWORK_KINDS
from repro.coherence.directory import DirectoryConfig
from repro.core.optimizations import OptimizationConfig
from repro.obs import tracing
from repro.sweep import canonical_json, execute_point, make_point
from tests.conftest import EQUIVALENCE_FAULT_PLAN

CYCLES = 300


class _Stop(Exception):
    pass


def _stop_mid_run(system: CmpSystem, steps: int) -> None:
    """Leave ``system`` the way an exception out of its loop (a sweep
    point's timeout) does: stopped mid-run, windows still parked."""
    calls = iter(range(steps))

    def done() -> bool:
        if next(calls, None) is None:
            raise _Stop
        return False

    with pytest.raises(_Stop):
        system._advance(system.cycle + 10 * steps, done)


@pytest.fixture
def no_collector():
    """The cyclic collector off (and emptied first), so only reference
    counting frees anything the test drops."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


VARIANTS = {kind: {"network": kind} for kind in NETWORK_KINDS} | {
    "fsoi+all": {"optimizations": OptimizationConfig.all()},
    "fsoi+faults": {"faults": EQUIVALENCE_FAULT_PLAN},
    "bounded-directory": {"directory": DirectoryConfig(capacity_lines=64)},
    "traced": {},
    "parked": {},
    "queued-memory": {"memory_gbps": 0.5},
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_closed_system_is_freed_without_the_collector(variant, no_collector):
    config = CmpConfig(num_nodes=16, app="ba", seed=7, **VARIANTS[variant])
    system = CmpSystem(config)
    if variant == "traced":
        with tracing():
            results = system.run(CYCLES)
    else:
        results = system.run(CYCLES)
    metrics = system.metrics_registry().snapshot()  # (cuts every window)
    if variant == "parked":
        _stop_mid_run(system, 40)
        assert system._due_cores.parked, "no core parked mid-run"
    if variant == "queued-memory":
        _stop_mid_run(system, 40)
        assert any(c.pending for c in system.memory.values()), "no queue"
    before = canonical_json([results.to_dict(), metrics])
    ref = weakref.ref(system)
    system.close()
    system.close()  # idempotent
    del system
    assert ref() is None, "the closed system outlived its last reference"
    assert gc.collect() == 0
    # What was read before close() holds no live part of the system.
    assert canonical_json([results.to_dict(), metrics]) == before


class TestClose:
    @pytest.mark.parametrize("call", [
        lambda system: system.run(10),
        lambda system: system.run_until_instructions(100),
        lambda system: system.tick(),
    ], ids=["run", "run_until_instructions", "tick"])
    def test_closed_system_fails_loudly(self, call):
        system = CmpSystem(CmpConfig(num_nodes=16))
        system.run(50)
        system.close()
        with pytest.raises(RuntimeError, match="closed"):
            call(system)

    def test_missing_attribute_of_an_open_system_is_an_attribute_error(self):
        system = CmpSystem(CmpConfig(num_nodes=16))
        with pytest.raises(AttributeError, match="no_such_thing"):
            system.no_such_thing  # noqa: B018
        assert not hasattr(system, "no_such_thing")
        system.close()

    def test_run_app_leaves_nothing_for_the_collector(self, no_collector):
        run_app("oc", "fsoi", cycles=CYCLES, seed=1)
        assert gc.collect() == 0

    @pytest.mark.parametrize("archives", [False, True])
    def test_execute_point_frees_its_system(
        self, archives, tmp_path, monkeypatch, no_collector
    ):
        """Inline and pool sweeps run every point through here; the
        metrics and timeline archives read the system before it closes."""
        built = []

        class Watched(CmpSystem):
            def __init__(self, config):
                super().__init__(config)
                built.append(weakref.ref(self))

        monkeypatch.setattr(repro.cmp.system, "CmpSystem", Watched)
        dirs = {}
        if archives:
            dirs = {"metrics_dir": str(tmp_path / "m"),
                    "timeline_dir": str(tmp_path / "t")}
        execute_point(make_point("ba", "fsoi", cycles=CYCLES, seed=1).to_dict(), **dirs)
        assert len(built) == 1 and built[0]() is None
        if not archives:
            # (Writing the archives leaves a few recursive closures of the
            # JSON encoder and the registry walk behind, none of the system.)
            assert gc.collect() == 0

    def test_execute_point_closes_a_failed_run(self, monkeypatch):
        """The crash path (and a point timeout, which raises out of the
        loop the same way) closes the system too."""
        built = []

        def failing_run(self, cycles):
            built.append(self)
            raise _Stop

        monkeypatch.setattr(CmpSystem, "run", failing_run)
        with pytest.raises(_Stop):
            execute_point(make_point("ba", "mesh", cycles=CYCLES, seed=1).to_dict())
        monkeypatch.undo()
        with pytest.raises(RuntimeError, match="closed"):
            built[0].run(1)


class TestCliClosesWhatItBuilds:
    """Every command that builds a system closes it once, after its last
    read: the metrics export, the health report, the final ``top`` frame."""

    @pytest.mark.parametrize("argv", [
        ["run", "--health"],
        ["compare"],
        ["trace", "--out", "{tmp}/t.jsonl", "--metrics", "{tmp}/m.json"],
        ["profile"],
        ["faults", "--kill", "3:data", "--health", "--metrics", "{tmp}/m.json"],
        ["top", "--once", "--out", "{tmp}/timeline.jsonl"],
    ], ids=lambda argv: argv[0])
    def test_one_close_per_system_built(self, argv, tmp_path, monkeypatch):
        built, closed = [], []
        init, close = CmpSystem.__init__, CmpSystem.close

        def counting_init(self, config):
            init(self, config)
            built.append(self)

        def counting_close(self):
            closed.append(self)
            close(self)

        monkeypatch.setattr(CmpSystem, "__init__", counting_init)
        monkeypatch.setattr(CmpSystem, "close", counting_close)
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main([*argv, "--cycles", str(CYCLES)]) == 0
        assert len(built) == (2 if argv[0] == "compare" else 1)
        assert sorted(map(id, closed)) == sorted(map(id, built))


class TestTwoSystemsInOneProcess:
    """Two systems advanced in interleaved segments are each their solo
    run: no state shared through a class, a module or a singleton."""

    CONFIGS = (
        CmpConfig(num_nodes=16, app="ba", network="fsoi", seed=3),
        CmpConfig(num_nodes=16, app="oc", network="mesh", seed=8),
    )
    SEGMENTS = (150, 1, 400, 77, 600)

    def solo(self, config):
        system = CmpSystem(config)
        runs = [system.run(k).to_dict() for k in self.SEGMENTS]
        return runs, canonical_json(system.metrics_registry().snapshot())

    def test_interleaved_equals_solo(self):
        solo = [self.solo(config) for config in self.CONFIGS]
        systems = [CmpSystem(config) for config in self.CONFIGS]
        runs = [[], []]
        for k in self.SEGMENTS:
            for system, out in zip(systems, runs):
                out.append(system.run(k).to_dict())
        metrics = [
            canonical_json(system.metrics_registry().snapshot())
            for system in systems
        ]
        assert (runs[0], metrics[0]) == solo[0]
        assert (runs[1], metrics[1]) == solo[1]

    def test_closing_one_leaves_the_other_alone(self):
        expected = self.solo(self.CONFIGS[1])
        first, second = (CmpSystem(config) for config in self.CONFIGS)
        runs = []
        for index, k in enumerate(self.SEGMENTS):
            if index < 2:
                first.run(k)
            elif index == 2:
                first.close()
            runs.append(second.run(k).to_dict())
        metrics = canonical_json(second.metrics_registry().snapshot())
        assert (runs, metrics) == expected
