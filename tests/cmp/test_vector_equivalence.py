"""The columnar vectorized core engine's equivalence contract.

``src/repro/cpu/vector.py`` replaces the per-object core tick with
columnar ledgers, event-scheduled actives and a replayed RNG.  The
claim is *bit-exactness*: a vectorized run and a naive object-per-node
run of the same configuration produce byte-identical ``CmpResults``
(including the ``loop`` field — the engine must not change what the
simulation loop does) and identical metrics-registry snapshots.  These
tests pin that down across networks, seeds, system sizes, fault plans
and both fast-forward settings, plus the escape hatches
(``CmpConfig.vectorized`` and ``REPRO_NO_VECTOR``), and guard the
scaling claim with a 256/512/1024-node study.

The run-both-and-diff machinery is shared with the fast-forward suite
(``test_fastforward.py``) via ``tests/conftest.py``.
"""

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cmp import CmpConfig, CmpSystem
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

    def test_faults_on(self, compare_engines):
        compare_engines(
            "vectorized",
            app="oc", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN,
        )

    @pytest.mark.parametrize("app", ("ro", "tsp", "fft"))
    def test_lock_and_butterfly_sync_patterns(self, compare_engines, app):
        # Radiosity is lock-heavy, TSP holds long critical sections and
        # FFT's butterfly pattern exercises the stage counter — the
        # sync-state scheduling paths the columnar engine special-cases.
        compare_engines(
            "vectorized", app=app, network="mesh", num_nodes=16, seed=5
        )

    @pytest.mark.parametrize("fast_forward", (True, False))
    def test_composes_with_fast_forward(self, compare_engines, fast_forward):
        # The columnar engine feeds the fast-forward horizon through
        # next_core_event(); skips and vectorized ticks must stack.
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
        fast_forward=st.booleans(),
    )
    def test_property_equivalence(
        self, app, network, seed, cycles, fast_forward
    ):
        compare_engine_pair(
            "vectorized",
            app=app, network=network, num_nodes=16, seed=seed,
            cycles=cycles, fast_forward=fast_forward,
        )

    def test_run_until_instructions_stops_at_same_cycle(self):
        systems = [
            CmpSystem(CmpConfig(
                app="lu", network="l0", num_nodes=16, seed=1,
                vectorized=vectorized,
            ))
            for vectorized in (True, False)
        ]
        results = [s.run_until_instructions(20_000) for s in systems]
        assert results[0].cycles == results[1].cycles
        assert results[0].instructions == results[1].instructions


class TestEscapeHatches:
    def test_config_flag_selects_reference_engine(self):
        system = CmpSystem(CmpConfig(
            app="oc", network="l0", num_nodes=16, seed=1, vectorized=False
        ))
        assert system._vector is None

    def test_env_hatch_selects_reference_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_VECTOR", "1")
        system = CmpSystem(CmpConfig(app="oc", network="l0", num_nodes=16, seed=1))
        assert system._vector is None

    def test_env_hatch_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_VECTOR", "0")
        system = CmpSystem(CmpConfig(app="oc", network="l0", num_nodes=16, seed=1))
        assert system._vector is not None


@pytest.mark.slow
@pytest.mark.skipif(
    os.environ.get("REPRO_NO_VECTOR", "") not in ("", "0"),
    reason="the scale smoke test targets the vectorized engine, which "
    "REPRO_NO_VECTOR pins off for the whole process",
)
class TestScale:
    """The scaling claim the refactor exists for, at 256/512/1024 nodes.

    The network-engine suite
    (``test_network_vector_equivalence.py::TestScaling``) covers the
    same sizes from the channel side; this study drives the full system
    and checks the whole-run conservation laws.
    """

    @pytest.mark.parametrize(
        "num_nodes, cycles",
        [(256, 400), (512, 300), (1024, 200)],
    )
    def test_scaling_smoke(self, num_nodes, cycles):
        system = CmpSystem(CmpConfig(
            app="oc", network="fsoi", num_nodes=num_nodes, seed=3
        ))
        result = system.run(cycles)
        assert system._vector is not None
        # Conservation: per-core instruction counters sum to the total,
        # every node is accounted for in exactly one cycle bucket per
        # cycle, and the network cannot deliver more than was sent.
        assert result.cycles == cycles
        assert result.instructions > 0
        assert sum(result.instructions_per_core) == result.instructions
        assert len(result.instructions_per_core) == num_nodes
        assert sum(result.core_cycles.values()) == num_nodes * cycles
        assert 0 < result.packets_delivered <= result.packets_sent
        # The core ledger columns must still agree with the scalar
        # objects, and the network's scheduling index with its queues.
        system._vector.audit()
        system.network.audit()
