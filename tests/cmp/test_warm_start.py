"""The warm start: a range-backed DV set, an eager bounded path.

``CmpSystem._warm_start`` hands the unbounded directory slices the warm
lines as ranges (:class:`repro.coherence.directory.WarmLines`) where it
used to materialise a ``set`` of every line; the reference here is that
set, built the way the old code built it.  The capacity-bounded path
still materialises — and its eviction order hangs on how that set
iterates — so one bounded run is pinned to the digests recorded at the
last commit with the materialised set.
"""

import random

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.directory import DirectoryConfig, DirState, WarmLines
from repro.cpu.sync import SyncManager
from repro.workloads import APPLICATIONS
from tests.cmp.test_network_vector_equivalence import fingerprint
from tests.coherence.test_directory import make_dir


def materialised_warm_set(system):
    """The warm DV set as the pre-range code built it."""
    app = system.config.app_signature
    lines = set()
    for core in system.cores:
        lines.update(core.workload.reuse_lines())
    lines.update(system.cores[0].workload.shared_lines())
    lines.add(SyncManager.barrier_line())
    lines.update(SyncManager.lock_line(i) for i in range(app.lock_count))
    hot = [
        line
        for core in system.cores
        for line in core.workload.reuse_lines()[: app.hot_lines]
    ]
    lines.difference_update(hot)
    return lines, hot


class TestRangeBackedSet:
    @pytest.mark.parametrize("num_nodes", (16, 64, 256))
    @pytest.mark.parametrize("app", sorted(APPLICATIONS))
    def test_membership_matches_materialised_set(self, app, num_nodes):
        system = CmpSystem(CmpConfig(num_nodes=num_nodes, app=app, network="l0"))
        warm = system.directories[0]._warm
        assert all(d._warm is warm for d in system.directories)
        reference, hot = materialised_warm_set(system)

        workload = system.cores[0].workload
        spans = [core.workload.reuse_lines() for core in system.cores]
        spans.append(workload.shared_lines())
        probes = set(hot)
        for span in spans:
            probes.update((span.start - 1, span.start, span.stop - 1, span.stop))
        sync = SyncManager.barrier_line()
        probes.update(range(sync - 1, sync + system.config.app_signature.lock_count + 3))
        rng = random.Random(num_nodes)
        lo, hi = spans[0].start - 64, spans[-2].stop + 64
        probes.update(rng.randrange(lo, hi) for _ in range(2000))
        probes.update(rng.choice(spans[rng.randrange(len(spans))]) for _ in range(2000))

        assert warm
        wrong = [line for line in probes if (line in warm) != (line in reference)]
        assert not wrong, [hex(line) for line in sorted(wrong)[:8]]

    def test_overlapping_and_empty_ranges(self):
        warm = WarmLines([range(10, 20), range(15, 30), range(5, 5), range(40, 41)])
        assert [line for line in range(0, 50) if line in warm] == [
            *range(10, 30), 40
        ]
        assert not WarmLines([])
        assert not WarmLines([range(3, 3)])

    def test_discard_is_permanent(self):
        warm = WarmLines([range(0, 8)], consumed=(2,))
        assert 2 not in warm and 3 in warm
        warm.discard(3)
        assert 3 not in warm
        assert warm  # truthiness gates the lookup; it is not a count


class TestDirectoryWarmLines:
    def make_dir(self, warm):
        directory, _ = make_dir()
        directory.preload_valid(warm)
        return directory

    def test_untouched_warm_line_reads_dv(self):
        directory = self.make_dir(WarmLines([range(0x100, 0x200)]))
        assert directory.state(0x180) is DirState.DV
        assert directory.state(0x200) is DirState.DI
        assert 0x180 not in directory._entries  # state() materialises nothing

    def test_consumed_line_is_never_warm_again(self):
        directory = self.make_dir(WarmLines([range(0x100, 0x200)]))
        assert directory.entry(0x180).state is DirState.DV
        directory.replace(0x180)  # eviction back to DI drops the entry
        assert 0x180 not in directory._entries
        assert directory.state(0x180) is DirState.DI
        assert directory.entry(0x180).state is DirState.DI  # not resurrected

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
        entry = system.directories[system.home_of(hot)]._entries[hot]
        assert entry.state is DirState.DM and entry.sharers == {5}


def test_bounded_run_pinned_to_materialised_set():
    # Recorded at 889c3ac (set-backed warm start) with this exact call.
    digests, _ = fingerprint(
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
