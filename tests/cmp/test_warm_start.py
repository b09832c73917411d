"""The warm start: a range-backed (state, owner) view, an eager bounded path.

``CmpSystem._warm_start`` hands the unbounded directory slices the warm
lines as ranges (:class:`repro.coherence.directory.WarmLines`): the
reuse regions, the shared pool and the sync lines resident-valid (DV),
each core's hot lines held exclusively (DM) by that core.  It used to
materialise a ``set`` of every DV line and a DM entry per hot line; the
reference here is that materialised view, built the way the old code
built it.  The capacity-bounded path still materialises — and its
eviction order hangs on how that set iterates — so one bounded run is
pinned to the digests recorded at the last commit with the materialised
set.
"""

import random
import tracemalloc

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.directory import DirectoryConfig, DirState, WarmLines
from repro.coherence.messages import INV
from repro.cpu.sync import SyncManager
from repro.workloads import APPLICATIONS
from tests.coherence.test_directory import make_dir
from tests.conftest import fingerprint

DI, DV, DM = DirState.DI, DirState.DV, DirState.DM


def materialised_warm_view(system):
    """line -> (state, owner) as the pre-range code built it."""
    app = system.config.app_signature
    lines = set()
    for core in system.cores:
        lines.update(core.workload.reuse_lines())
    lines.update(system.cores[0].workload.shared_lines())
    lines.add(SyncManager.barrier_line())
    lines.update(SyncManager.lock_line(i) for i in range(app.lock_count))
    view = dict.fromkeys(lines, (DV, None))
    for node, core in enumerate(system.cores):
        for line in core.workload.reuse_lines()[: app.hot_lines]:
            view[line] = (DM, node)
    return view


class TestRangeBackedSet:
    @pytest.mark.parametrize("num_nodes", (16, 64, 256))
    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    def test_membership_matches_materialised_set(self, app, num_nodes):
        system = CmpSystem(CmpConfig(num_nodes=num_nodes, app=app, network="l0"))
        warm = system.directories[0]._warm
        assert all(d._warm is warm for d in system.directories)
        reference = materialised_warm_view(system)

        workload = system.cores[0].workload
        spans = [core.workload.reuse_lines() for core in system.cores]
        spans.append(workload.shared_lines())
        hot_lines = system.config.app_signature.hot_lines
        probes = set()
        for span in spans:
            probes.update((span.start - 1, span.start, span.stop - 1, span.stop))
            hot = span[hot_lines - 1 : hot_lines + 1]  # the hot/DV boundary
            probes.update(hot)
        sync = SyncManager.barrier_line()
        probes.update(range(sync - 1, sync + system.config.app_signature.lock_count + 3))
        rng = random.Random(num_nodes)
        lo, hi = spans[0].start - 64, spans[-2].stop + 64
        probes.update(rng.randrange(lo, hi) for _ in range(2000))
        probes.update(rng.choice(spans[rng.randrange(len(spans))]) for _ in range(2000))

        assert warm
        wrong = [
            line for line in probes
            if warm.get(line) != reference.get(line, (DI, None))
        ]
        assert not wrong, [hex(line) for line in sorted(wrong)[:8]]

    def test_overlapping_and_empty_ranges(self):
        warm = WarmLines(
            [range(10, 20), range(15, 30), range(5, 5), range(40, 41)],
            owned=[(range(12, 14), 3), (range(0, 0), 4), (range(40, 42), 5)],
        )
        assert [line for line in range(0, 50) if warm.get(line)[0] is DV] == [
            *range(10, 12), *range(14, 30)
        ]
        assert {line: warm.get(line) for line in range(0, 50) if warm.get(line)[0] is DM} == {
            12: (DM, 3), 13: (DM, 3), 40: (DM, 5), 41: (DM, 5)
        }
        assert not WarmLines([])
        assert not WarmLines([range(3, 3)], owned=[(range(5, 5), 0)])
        assert WarmLines([], owned=[(range(5, 6), 0)])

    def test_discard_is_permanent(self):
        warm = WarmLines([range(0, 8)], owned=[(range(4, 6), 9)])
        warm.discard(2)
        assert warm.get(2) == (DI, None) and warm.get(3) == (DV, None)
        assert warm.get(4) == (DM, 9)
        warm.discard(4)
        assert warm.get(4) == (DI, None) and warm.get(5) == (DM, 9)
        assert warm  # truthiness gates the lookup; it is not a count


class TestDirectoryWarmLines:
    def make_dir(self, warm):
        directory, log = make_dir()
        directory.preload_valid(warm)
        return directory, log

    def test_untouched_warm_line_reads_dv(self):
        directory, _ = self.make_dir(WarmLines([range(0x100, 0x200)]))
        assert directory.state(0x180) is DirState.DV
        assert directory.state(0x200) is DirState.DI
        assert 0x180 not in directory._entries  # state() materialises nothing

    def test_untouched_owned_line_reads_dm(self):
        directory, _ = self.make_dir(
            WarmLines([range(0x100, 0x200)], owned=[(range(0x100, 0x140), 6)])
        )
        assert directory.state(0x120) is DirState.DM
        assert directory.state(0x140) is DirState.DV
        assert not directory._entries  # state() materialises nothing
        entry = directory.entry(0x120)  # first touch builds the DM entry
        assert entry.state is DirState.DM and entry.owner == 6

    def test_consumed_line_is_never_warm_again(self):
        directory, _ = self.make_dir(WarmLines([range(0x100, 0x200)]))
        assert directory.entry(0x180).state is DirState.DV
        directory.replace(0x180)  # eviction back to DI drops the entry
        assert 0x180 not in directory._entries
        assert directory.state(0x180) is DirState.DI
        assert directory.entry(0x180).state is DirState.DI  # not resurrected

    def test_replace_untouched_warm_dv_line_evicts_it(self):
        directory, log = self.make_dir(WarmLines([range(0x100, 0x200)]))
        directory.replace(0x180)  # never touched: replace must still see DV
        assert directory.state(0x180) is DirState.DI
        assert 0x180 not in directory._entries
        assert log == []  # clean: no memory write

    def test_replace_untouched_hot_dm_line_recalls_owner(self):
        directory, log = self.make_dir(
            WarmLines([range(0x100, 0x200)], owned=[(range(0x100, 0x140), 6)])
        )
        directory.replace(0x120)  # never touched: replace must see DM at 6
        assert directory.state(0x120) is DirState.DM_DID
        assert [(m.mtype, m.line, m.dest) for m in log] == [(INV, 0x120, 6)]

    def test_replace_cold_line_is_a_no_op(self):
        directory, log = self.make_dir(WarmLines([range(0x100, 0x200)]))
        directory.replace(0x300)
        assert not directory._entries and log == []

    def test_bounded_slice_refuses_lazy_warm_start(self):
        directory, _ = make_dir(DirectoryConfig(capacity_lines=64))
        with pytest.raises(ValueError):
            directory.preload_valid(WarmLines([range(4)]))

    def test_system_warm_line_reads_dv_and_hot_line_dm(self):
        system = CmpSystem(CmpConfig(num_nodes=16, app="ba"))
        reuse = system.cores[5].workload.reuse_lines()
        hot_lines = system.config.app_signature.hot_lines
        cold, hot = reuse[hot_lines], reuse[hot_lines - 1]
        assert system.directories[system.home_of(cold)].state(cold) is DirState.DV
        directory = system.directories[system.home_of(hot)]
        assert directory.state(hot) is DirState.DM
        assert hot not in directory._entries
        entry = directory.entry(hot)
        assert entry.state is DirState.DM and entry.sharers == {5}


class TestConstructionAllocatesWhatARunTouches:
    def test_no_directory_entry_for_an_untouched_hot_line(self):
        system = CmpSystem(CmpConfig(num_nodes=16, app="ba", network="fsoi"))
        assert not any(directory._entries for directory in system.directories)
        hot_lines = system.config.app_signature.hot_lines
        for node, core in enumerate(system.cores):
            hot = core.workload.reuse_lines()[:hot_lines]
            assert all(system.l1s[node].state(line).name == "E" for line in hot)

    def test_untouched_l1_sets_are_the_shared_empty_tuple(self):
        system = CmpSystem(CmpConfig(num_nodes=16, app="ba", network="fsoi"))
        hot_lines = system.config.app_signature.hot_lines
        array = system.l1s[0].array
        hot = system.cores[0].workload.reuse_lines()[:hot_lines]
        filled = {line % array.num_sets for line in hot}
        assert all(type(array._sets[index]) is list for index in filled)
        untouched = [ways for index, ways in enumerate(array._sets) if index not in filled]
        assert untouched and untouched[0] == ()
        assert all(ways is untouched[0] for ways in untouched)  # one shared tuple

    def test_256_node_construction_stays_under_8_mib(self):
        # 13.95 MiB traced before hot lines and L1 sets became lazy.
        tracemalloc.start()
        try:
            system = CmpSystem(CmpConfig(num_nodes=256, network="fsoi"))
            traced, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        system.close()
        assert traced < 8 * 2**20, f"{traced / 2**20:.2f} MiB"


def test_bounded_run_pinned_to_materialised_set():
    # Recorded at 889c3ac (set-backed warm start) with this exact call.
    digests, _, _ = fingerprint(
        cycles=1500,
        num_nodes=16,
        app="tsp",
        network="fsoi",
        seed=3,
        directory=DirectoryConfig(capacity_lines=64),
    )
    assert digests == {
        "results": "b600aeb6064dbdf2502025a4dfdbaa29c4c2d47f9e2bc4bc127343a51c0ffd16",
        "metrics": "16feff6863b5ce216e2df0417b53bb9794fa2f38497b95ca57fe193e520e57d0",
    }
