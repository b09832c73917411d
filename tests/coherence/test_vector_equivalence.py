"""The columnar coherence engine's equivalence contract.

``src/repro/coherence/vector.py`` batches directory/L1/MSHR message
dispatch through a per-cycle mailbox into fused per-``MsgType``
kernels.  The claim is *bit-exactness*: a vectorized run and a naive
per-message run of the same configuration produce byte-identical
``CmpResults`` and identical metrics-registry snapshots — message uids,
packet uids, counters, queue orders and all.  These tests pin that down
across networks, seeds, system sizes, the §5 optimization set, fault
plans and capacity bounds (both of which drop the kernels and drain the
mailbox through the reference handlers), plus the escape hatches and a
scale study that ends in a column audit.

The run-both-and-diff machinery is shared with the core- and
network-engine suites via ``tests/conftest.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.directory import DirectoryConfig
from repro.core.optimizations import OptimizationConfig
from tests.coherence.test_vector_primitives import requires_vector_default
from tests.conftest import EQUIVALENCE_FAULT_PLAN, compare_engine_pair


class TestEquivalence:
    @pytest.mark.parametrize(
        "network", ("fsoi", "mesh", "l0", "lr1", "lr2", "corona")
    )
    def test_all_networks(self, compare_engines, network):
        compare_engines(
            "vectorized", app="oc", network=network, num_nodes=16, seed=1
        )

    @pytest.mark.parametrize("seed", (0, 7))
    def test_seeds(self, compare_engines, seed):
        compare_engines(
            "vectorized", app="ba", network="fsoi", num_nodes=16, seed=seed
        )

    def test_64_nodes(self, compare_engines):
        compare_engines(
            "vectorized",
            app="em", network="fsoi", num_nodes=64, seed=2, cycles=900,
        )

    def test_full_optimization_set(self, compare_engines):
        # Confirmation-as-ack suppresses INV_ACKs via the packet's
        # on_confirmed hook, split writebacks route WB_ANNOUNCE on the
        # meta lane, and request spacing delays eligible requests — the
        # protocol variants the fused kernels special-case.
        compare_engines(
            "vectorized",
            app="oc", network="fsoi", num_nodes=16, seed=5,
            optimizations=OptimizationConfig.all(),
        )

    def test_faults_drop_to_reference_handlers(self, compare_engines):
        # A non-empty fault plan disables the fused kernels; the mailbox
        # must then drain through the per-message reference dispatch and
        # still match the naive run byte for byte.
        compare_engines(
            "vectorized",
            app="oc", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN,
        )

    def test_capacity_bound_drops_to_reference_handlers(self, compare_engines):
        # Bounded L2 slices turn capacity pressure into Repl recalls —
        # a path the kernels do not fuse, so the engine must fall back.
        compare_engines(
            "vectorized",
            app="oc", network="mesh", num_nodes=16, seed=3,
            directory=DirectoryConfig(capacity_lines=64),
        )

    @pytest.mark.parametrize("app", ("ro", "tsp", "fft"))
    def test_lock_and_butterfly_sync_patterns(self, compare_engines, app):
        # Lock-heavy, long-critical-section and butterfly sharing
        # patterns stress REQ_UPG reinterpretation, transient queueing
        # and the invalidation fan-out the kernels fuse.
        compare_engines(
            "vectorized", app=app, network="mesh", num_nodes=16, seed=5
        )

    @pytest.mark.parametrize("fast_forward", (True, False))
    def test_composes_with_fast_forward(self, compare_engines, fast_forward):
        # The engine pins the horizon to "now" whenever its mailbox is
        # non-empty (next_event); skips and batched drains must stack.
        loop = compare_engines(
            "vectorized",
            app="oc", network="l0", num_nodes=16, seed=1,
            fast_forward=fast_forward,
        )
        if fast_forward:
            assert loop["skipped_cycles"] > 0
        else:
            assert loop == {"executed_cycles": 1200, "skipped_cycles": 0}

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        app=st.sampled_from(["oc", "ba", "mp", "ws"]),
        network=st.sampled_from(["fsoi", "mesh", "lr2"]),
        seed=st.integers(min_value=0, max_value=50),
        cycles=st.integers(min_value=50, max_value=800),
        confirmation_ack=st.booleans(),
    )
    def test_property_equivalence(
        self, app, network, seed, cycles, confirmation_ack
    ):
        # The §5 optimizations need the FSOI confirmation channel.
        opts = OptimizationConfig(
            confirmation_ack=confirmation_ack and network == "fsoi"
        )
        compare_engine_pair(
            "vectorized",
            app=app, network=network, num_nodes=16, seed=seed,
            cycles=cycles, optimizations=opts,
        )


@requires_vector_default
class TestAudit:
    """Column integrity after real runs, fused and fallback paths both."""

    def _run_audited(self, cycles=1200, **config_kwargs):
        system = CmpSystem(CmpConfig(**config_kwargs))
        result = system.run(cycles)
        assert system._coherence is not None
        system._coherence.audit()
        return system, result

    @pytest.mark.parametrize("network", ("fsoi", "mesh"))
    def test_columns_survive_a_run(self, network):
        system, result = self._run_audited(
            app="oc", network=network, num_nodes=16, seed=1
        )
        assert system._coherence._kernels_ok
        assert result.packets_delivered > 0

    def test_columns_survive_the_reference_fallback(self):
        # With faults the ledger hooks (not the kernels) maintain the
        # mirrors; the audit proves both write-through paths agree.
        system, _ = self._run_audited(
            app="oc", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN,
        )
        assert not system._coherence._kernels_ok

    def test_drifted_mirror_is_caught(self):
        system, _ = self._run_audited(
            app="ba", network="fsoi", num_nodes=16, seed=2, cycles=400
        )
        system._coherence._l1_transients[3] += 1
        with pytest.raises(RuntimeError, match="l1_transients"):
            system._coherence.audit()

    def test_undrained_mailbox_is_caught(self):
        system, _ = self._run_audited(
            app="ba", network="fsoi", num_nodes=16, seed=2, cycles=400
        )
        system._coherence._mailbox.append(object())
        with pytest.raises(RuntimeError, match="mailbox"):
            system._coherence.audit()


class TestEscapeHatches:
    def test_config_flag_selects_reference_engine(self):
        system = CmpSystem(CmpConfig(
            app="oc", network="l0", num_nodes=16, seed=1, vectorized=False
        ))
        assert system._coherence is None

    def test_env_hatch_selects_reference_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_VECTOR", "1")
        system = CmpSystem(CmpConfig(app="oc", network="l0", num_nodes=16, seed=1))
        assert system._coherence is None

    def test_env_hatch_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_VECTOR", "0")
        system = CmpSystem(CmpConfig(app="oc", network="l0", num_nodes=16, seed=1))
        assert system._coherence is not None


@pytest.mark.slow
@requires_vector_default
class TestScale:
    """The batching claim at 256/512 nodes: fused drains stay exact.

    The core- and network-engine suites cover the same sizes from their
    sides; this study checks the coherence columns and the whole-run
    conservation laws with the mailbox in the loop.
    """

    @pytest.mark.parametrize("num_nodes, cycles", [(256, 400), (512, 300)])
    def test_scaling_smoke(self, num_nodes, cycles):
        system = CmpSystem(CmpConfig(
            app="oc", network="fsoi", num_nodes=num_nodes, seed=3
        ))
        result = system.run(cycles)
        assert system._coherence is not None
        assert system._coherence._kernels_ok
        assert result.cycles == cycles
        assert result.instructions > 0
        assert 0 < result.packets_delivered <= result.packets_sent
        system._coherence.audit()
