"""The coherence dispatch's bit-identity contract.

Table 2 used to exist twice — the ``L1Controller`` /
``DirectoryController`` handlers and a module of fused per-``MsgType``
kernels behind a per-cycle mailbox — and this suite diffed the two.
The kernels are gone; what both copies computed is not:

* :class:`TestPins` holds, in ``tests/data/network_engine_pins.json``,
  the sha256 of the canonical ``CmpResults`` (minus ``loop``), of the
  metrics snapshot and — for the traced runs — of the trace event
  stream, for the coherence cases the network pins do not reach
  (capacity recalls, a fault plan, the 64-node section-5 design, the
  lock / long-critical-section / butterfly sharing patterns).  They
  were **recorded at 7d494bc**, the last commit with both copies, once
  per copy, and the two writes were byte-identical::

      PYTHONPATH=src python -m pytest -k TestPins --update-golden \\
          tests/coherence/test_vector_equivalence.py
      REPRO_NO_VECTOR=1 PYTHONPATH=src python -m pytest -k TestPins \\
          --update-golden tests/coherence/test_vector_equivalence.py

* :func:`test_tracing_does_not_change_results` — tracing, fault plans
  and capacity bounds run the same handler functions as a clean run,
  so switching the tracer on moves no result and no counter.
* :class:`TestEquivalence` runs the coherence-heavy configurations
  twice more — once on the cores' fused issue loop, which inlines the
  L1 hit and upgrade paths, and once with every workload hidden behind
  ``tests.conftest.NextOpOnly``, which sends every access through
  ``L1Controller.access`` — and diffs results, loop accounting and
  metrics (``tests/cmp/test_vector_equivalence.py`` holds the same
  configurations to their pins).
* :class:`TestAudit` recounts the occupancy bookkeeping the handlers
  keep (directory "z"-queue totals, MSHRs against transient L1 lines,
  memory-channel arrivals) after clean, faulted and bounded runs.

(The file keeps its pre-pin name so the test ids the suite is tracked
under stay stable.)
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.directory import DirectoryConfig
from repro.core.optimizations import OptimizationConfig
from tests.cmp.test_network_vector_equivalence import (  # noqa: F401
    _sha,
    check_pin,
    fingerprint,
)
from tests.conftest import EQUIVALENCE_FAULT_PLAN, compare_issue_loops


class TestEquivalence:
    @pytest.mark.parametrize(
        "network", ("fsoi", "mesh", "l0", "lr1", "lr2", "corona")
    )
    def test_all_networks(self, network):
        compare_issue_loops(app="oc", network=network, num_nodes=16, seed=1)

    @pytest.mark.parametrize("seed", (0, 7))
    def test_seeds(self, seed):
        compare_issue_loops(app="ba", network="fsoi", num_nodes=16, seed=seed)

    def test_64_nodes(self):
        compare_issue_loops(
            app="em", network="fsoi", num_nodes=64, seed=2, cycles=900,
        )

    def test_full_optimization_set(self):
        # Confirmation-as-ack synthesizes INV_ACKs from the packet's
        # on_confirmed hook, split writebacks route WB_ANNOUNCE on the
        # meta lane, and request spacing delays eligible requests.
        compare_issue_loops(
            app="oc", network="fsoi", num_nodes=16, seed=5,
            optimizations=OptimizationConfig.all(),
        )

    def test_faults_drop_to_reference_handlers(self):
        compare_issue_loops(
            app="oc", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN,
        )

    def test_capacity_bound_drops_to_reference_handlers(self):
        # Bounded L2 slices turn capacity pressure into Repl recalls.
        compare_issue_loops(
            app="oc", network="mesh", num_nodes=16, seed=3,
            directory=DirectoryConfig(capacity_lines=64),
        )

    @pytest.mark.parametrize("app", ("ro", "tsp", "fft"))
    def test_lock_and_butterfly_sync_patterns(self, app):
        # Lock-heavy, long-critical-section and butterfly sharing
        # patterns stress REQ_UPG reinterpretation, transient queueing
        # and the invalidation fan-out.
        compare_issue_loops(app=app, network="mesh", num_nodes=16, seed=5)

    @pytest.mark.parametrize("fast_forward", (True, False))
    def test_composes_with_fast_forward(self, fast_forward):
        loop = compare_issue_loops(
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
        compare_issue_loops(
            app=app, network=network, num_nodes=16, seed=seed,
            cycles=cycles, optimizations=opts,
        )


class TestPins:
    """Digests recorded at 7d494bc from the kernels and, separately,
    from the reference handlers (module docstring)."""

    def test_capacity_bound_traced(self, check_pin):
        # Repl recalls interleaved with tsp's long critical sections,
        # every l1_event / dir_event of it in the stream.
        check_pin(
            "tsp-fsoi-16-seed3-cap64-traced",
            app="tsp", network="fsoi", num_nodes=16, seed=3,
            directory=DirectoryConfig(capacity_lines=64), trace=True,
            cycles=2500,
        )

    def test_fault_plan_traced(self, check_pin):
        check_pin(
            "fft-fsoi-16-seed4-faults-traced",
            app="fft", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN, trace=True, cycles=2500,
        )

    def test_64_nodes_full_optimization_set(self, check_pin):
        # §5.1 confirmation-synthesized InvAcks, §5.2 split writebacks
        # and the phase array at Figure 7's size; water-spatial's
        # contended lines also fill "z" queues until the directory
        # NACKs (29 RETRY round trips in this run).
        check_pin(
            "ws-fsoi-64-seed6-allopts",
            app="ws", network="fsoi", num_nodes=64, seed=6, cycles=3000,
            optimizations=OptimizationConfig.all(),
        )

    @pytest.mark.parametrize("network", ("fsoi", "mesh"))
    @pytest.mark.parametrize("app", ("ro", "tsp", "fft"))
    def test_lock_and_butterfly_sync_patterns(self, check_pin, app, network):
        # Long enough for upgrades to lose races: tsp reinterprets 13
        # (fsoi) / 5 (mesh) queued Req(Upg)s as Req(Ex).
        check_pin(
            f"{app}-{network}-16-seed5",
            app=app, network=network, num_nodes=16, seed=5, cycles=5000,
        )


TRACED_CONFIGS = {
    "fsoi": dict(app="ro", network="fsoi", seed=2),
    "mesh": dict(app="tsp", network="mesh", seed=2),
    "fault-plan": dict(
        app="fft", network="fsoi", seed=4, faults=EQUIVALENCE_FAULT_PLAN
    ),
    "capacity-bound": dict(
        app="tsp", network="fsoi", seed=3,
        directory=DirectoryConfig(capacity_lines=64),
    ),
}


@pytest.mark.parametrize("kind", sorted(TRACED_CONFIGS))
def test_tracing_does_not_change_results(kind):
    """Observation must not select code: ``CmpResults`` (minus
    ``loop``) and the metrics snapshot digest the same with the tracer
    on and off (``fingerprint`` snapshots the metrics after the tracer
    closes, so its ``trace.*`` gauges are in neither)."""
    config = dict(num_nodes=16, **TRACED_CONFIGS[kind])
    plain, _ = fingerprint(**config)
    traced, _ = fingerprint(trace=True, **config)
    assert traced.pop("trace") != _sha("")  # the tracer did record
    assert traced == plain


def recount_occupancy(system):
    """The handlers' running occupancy counters against a recount from
    the structures they summarise."""
    for directory in system.directories:
        assert directory._queued_total == sum(
            len(entry.queued) for entry in directory._entries.values()
        )
    for core, l1 in zip(system.cores, system.l1s):
        transient = {
            line for line, state in l1._states.items() if state.is_transient
        }
        assert core.mshr._lines == transient
        assert core.mshr.in_use == l1.outstanding()
    for controller in system.memory.values():
        arrivals = [arrival for _msg, arrival in controller._queue]
        assert arrivals == sorted(arrivals)
        assert all(arrival <= system.cycle for arrival in arrivals)


class TestAudit:
    """Occupancy bookkeeping after real runs, clean and not."""

    def _run_recounted(self, cycles=1200, **config_kwargs):
        system = CmpSystem(CmpConfig(**config_kwargs))
        result = system.run(cycles)
        recount_occupancy(system)
        return system, result

    @pytest.mark.parametrize("network", ("fsoi", "mesh"))
    def test_columns_survive_a_run(self, network):
        _, result = self._run_recounted(
            app="oc", network=network, num_nodes=16, seed=1
        )
        assert result.packets_delivered > 0

    def test_columns_survive_the_reference_fallback(self):
        # Faults (retransmissions, dropped confirmations) and capacity
        # recalls are where a hold or a queue slot would leak.
        self._run_recounted(
            app="oc", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN,
        )
        system, _ = self._run_recounted(
            app="tsp", network="fsoi", num_nodes=16, seed=3,
            directory=DirectoryConfig(capacity_lines=64),
        )
        evictions = sum(
            d._count["capacity_evictions"].value for d in system.directories
        )
        assert evictions > 0


@pytest.mark.slow
class TestScale:
    """Whole-run conservation and the occupancy recount at 256/512
    nodes; the core- and network-engine suites cover the same sizes
    from their sides."""

    @pytest.mark.parametrize("num_nodes, cycles", [(256, 400), (512, 300)])
    def test_scaling_smoke(self, num_nodes, cycles):
        system = CmpSystem(CmpConfig(
            app="oc", network="fsoi", num_nodes=num_nodes, seed=3
        ))
        result = system.run(cycles)
        assert result.cycles == cycles
        assert result.instructions > 0
        assert 0 < result.packets_delivered <= result.packets_sent
        recount_occupancy(system)
