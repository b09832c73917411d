"""The network engines' pinned-behaviour contract.

The mesh and FSOI networks each used to exist twice — an
object-per-entity reference tick and a worklist engine — and this
suite diffed the two.  The reference ticks are gone; what they computed
is not.  ``tests/data/network_engine_pins.json`` holds, for every
configuration the pair tests covered (network kinds, seeds, 16/64
nodes, mesh bandwidth scaling, the section-5 optimizations, packet
errors, a fault plan), the sha256 of the canonical ``CmpResults``
(minus ``loop``), of the metrics snapshot and — for one mesh and one
FSOI run — of the trace event stream, **recorded from the reference
engines** at the last commit that had them::

    REPRO_NO_VECTOR=1 PYTHONPATH=src python -m pytest \\
        tests/cmp/test_network_vector_equivalence.py --update-golden \\
        -k "TestEquivalence and not property and not audit"

(the same command without ``REPRO_NO_VECTOR`` wrote the same bytes).
The single engines must reproduce every pin — the fast-forward on and
off runs of a configuration share one; ``--update-golden`` re-records
them after an *intentional* behaviour change.  Beside the pins:
post-run ``audit()`` of the scheduling indexes, a hypothesis sweep of
conservation / audit / fast-forward-invariance (the tick-every-cycle
loop is the independent check on the O(1) horizons), and
Bernoulli-driven 256/512/1024-node runs banded against the Figure 3
closed form.

(The file keeps its pre-pin name so the test ids the suite is tracked
under stay stable.)
"""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cmp import CmpConfig, CmpSystem
from repro.core.analytical import collision_probability
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.mesh.network import MeshNetwork
from repro.net.packet import LaneKind, Packet
from repro.obs import tracing
from repro.sweep import canonical_json
from tests.conftest import (
    EQUIVALENCE_FAULT_PLAN,
    assert_engines_equivalent,
    check_pinned,
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint(cycles=1200, trace=False, **config_kwargs):
    """Run one configuration; return its ``(digests, loop)``."""
    system = CmpSystem(CmpConfig(**config_kwargs))
    if trace:
        with tracing(capacity=1 << 20) as tracer:
            result = system.run(cycles)
            assert tracer.dropped == 0
            # Fast-forward adds only its own cat="loop" skip markers.
            stream = "\n".join(
                json.dumps(event.to_chrome(), sort_keys=True)
                for event in tracer.events()
                if event.cat != "loop"
            )
    else:
        result = system.run(cycles)
    results = result.to_dict()
    loop = results.pop("loop")
    digests = {
        "results": _sha(canonical_json(results)),
        "metrics": _sha(canonical_json(system.metrics_registry().snapshot())),
    }
    if trace:
        digests["trace"] = _sha(stream)
    return digests, loop


@pytest.fixture
def check_pin(request):
    """``check_pin(key, **config)``: the run must reproduce pin ``key``
    (or, under ``--update-golden``, records it); returns the run's loop
    accounting, which ``pin_loop=True`` makes part of the pin.  Runs
    that share a key must agree, so if they do not, the next plain run
    fails one of them."""
    update = request.config.getoption("--update-golden")

    def check(key, pin_loop=False, **run_kwargs):
        digests, loop = fingerprint(**run_kwargs)
        if pin_loop:
            digests["loop"] = loop
        check_pinned(update, key, digests)
        return loop

    return check


class TestEquivalence:
    @pytest.mark.parametrize(
        "network", ("fsoi", "mesh", "l0", "lr1", "lr2", "corona")
    )
    def test_all_networks(self, check_pin, network):
        check_pin(
            f"mp-{network}-16-seed2",
            app="mp", network=network, num_nodes=16, seed=2,
        )

    @pytest.mark.parametrize("seed", (0, 7))
    def test_mesh_seeds(self, check_pin, seed):
        check_pin(
            f"em-mesh-16-seed{seed}",
            app="em", network="mesh", num_nodes=16, seed=seed,
        )

    def test_mesh_64_nodes(self, check_pin):
        check_pin(
            "ba-mesh-64-seed2",
            app="ba", network="mesh", num_nodes=64, seed=2, cycles=900,
        )

    def test_mesh_bandwidth_scale(self, check_pin):
        # Narrower links stretch packets into more flits — deeper VC
        # occupancy, more credit stalls, more arbitration conflicts.
        check_pin(
            "oc-mesh-16-seed6-halfwidth",
            app="oc", network="mesh", num_nodes=16, seed=6,
            mesh_bandwidth_scale=0.5,
        )

    def test_fsoi_64_nodes_phase_array(self, check_pin):
        # 64 nodes turns on the optical phase array, putting the
        # per-send ``opa.steer`` charge inside the due-node gather.
        check_pin(
            "ws-fsoi-64-seed2",
            app="ws", network="fsoi", num_nodes=64, seed=2, cycles=900,
        )

    def test_fsoi_optimizations(self, check_pin):
        # The full §5 design: resolution hints reschedule queued
        # packets in place — a readiness *change* without an enqueue or
        # dequeue, the subtlest index update.
        check_pin(
            "oc-fsoi-16-seed5-allopts",
            app="oc", network="fsoi", num_nodes=16, seed=5,
            optimizations=OptimizationConfig.all(),
        )

    def test_fsoi_packet_error_rate(self, check_pin):
        # Signaling errors corrupt lone transmissions, so the
        # single-send fast path must still draw the same RNG verdicts.
        check_pin(
            "ba-fsoi-16-seed8-per5",
            app="ba", network="fsoi", num_nodes=16, seed=8,
            fsoi_packet_error_rate=0.05,
        )

    def test_faults_on(self, check_pin):
        check_pin(
            "oc-fsoi-16-seed4-faults",
            app="oc", network="fsoi", num_nodes=16, seed=4,
            faults=EQUIVALENCE_FAULT_PLAN,
        )

    @pytest.mark.parametrize("network", ("fsoi", "mesh"))
    @pytest.mark.parametrize("fast_forward", (True, False))
    def test_composes_with_fast_forward(self, check_pin, network, fast_forward):
        # One pin for both loops: the networks' next_event() horizons
        # must not let a skip change a single result.
        loop = check_pin(
            f"oc-{network}-16-seed1",
            app="oc", network=network, num_nodes=16, seed=1,
            fast_forward=fast_forward,
        )
        if fast_forward:
            assert loop["skipped_cycles"] > 0
            assert loop["executed_cycles"] + loop["skipped_cycles"] == 1200
        else:
            assert loop == {"executed_cycles": 1200, "skipped_cycles": 0}

    @pytest.mark.parametrize("network", ("fsoi", "mesh"))
    @pytest.mark.parametrize("fast_forward", (True, False))
    def test_trace_stream(self, check_pin, network, fast_forward):
        # Every trace event, in order, with the same packet ids — the
        # stream tests/obs/test_trace_parity.py used to diff engine
        # against engine.
        check_pin(
            f"fft-{network}-16-seed3-traced",
            app="fft", network=network, num_nodes=16, seed=3,
            fast_forward=fast_forward, trace=True,
        )

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        app=st.sampled_from(["oc", "ba", "mp", "ws"]),
        network=st.sampled_from(["fsoi", "mesh"]),
        seed=st.integers(min_value=0, max_value=50),
        cycles=st.integers(min_value=50, max_value=800),
    )
    def test_property_equivalence(self, app, network, seed, cycles):
        runs = []
        for fast_forward in (True, False):
            system = CmpSystem(CmpConfig(
                app=app, network=network, num_nodes=16, seed=seed,
                fast_forward=fast_forward,
            ))
            result = system.run(cycles)
            assert sum(result.instructions_per_core) == result.instructions
            assert sum(result.core_cycles.values()) == 16 * cycles
            assert result.packets_delivered <= result.packets_sent
            system.network.audit()
            metrics = json.loads(
                canonical_json(system.metrics_registry().snapshot())
            )
            runs.append((result, metrics))
        fast_loop, naive_loop = assert_engines_equivalent(*runs)
        assert naive_loop == {"executed_cycles": cycles, "skipped_cycles": 0}
        assert fast_loop["executed_cycles"] + fast_loop["skipped_cycles"] == cycles

    @pytest.mark.parametrize("kind", ("fsoi", "mesh", "fsoi-faults"))
    def test_post_run_audit(self, kind):
        # The scheduling indexes must still agree with the queues and
        # buffers they summarise after a full run, including one whose
        # fault plan has a sender mark its lane down and heal.
        faults = EQUIVALENCE_FAULT_PLAN if kind == "fsoi-faults" else None
        system = CmpSystem(CmpConfig(
            app="oc", network=kind.split("-")[0], num_nodes=16, seed=3,
            faults=faults,
        ))
        if faults is not None:
            assert system.network.fault_injector is not None
        system.run(1200)
        system.network.audit()


def bernoulli_meta_run(num_nodes, p, seed, cycles):
    """Uniform Bernoulli meta traffic on a bare FSOI channel.

    Same driver as ``tests/core/test_analytical_crossval.py`` — every
    meta slot boundary each node offers a packet with probability ``p``
    to a uniform random peer — at sizes where a per-node slot gather
    would dominate the run.
    """
    net = FsoiNetwork(FsoiConfig(num_nodes=num_nodes, seed=seed))
    rng = np.random.default_rng(seed)
    slot = net.lanes.slot_cycles(LaneKind.META)
    for cycle in range(cycles):
        if cycle % slot == 0:
            offered = rng.random(num_nodes) < p
            targets = rng.integers(0, num_nodes - 1, num_nodes)
            for src in np.flatnonzero(offered):
                dst = int(targets[src])
                if dst >= src:
                    dst += 1
                net.try_send(
                    Packet(src=int(src), dst=dst, lane=LaneKind.META), cycle
                )
        net.tick(cycle)
    return net


@pytest.mark.slow
class TestScaling:
    """The 256/512/1024-node scaling study the worklists exist for.

    Uniform Bernoulli traffic keeps the Figure 3 closed form's
    assumptions honest at scale (app-driven coherence traffic is
    directory-concentrated, so its collision rate sits far above the
    memoryless model); the crossval suite's [1.0x, 2.0x] band applies
    unchanged, which is itself evidence the engine does not perturb the
    channel statistics as the system grows.
    """

    @pytest.mark.parametrize(
        "num_nodes, cycles",
        [(256, 6000), (512, 4000), (1024, 3000)],
    )
    def test_fsoi_collision_rate_matches_closed_form(self, num_nodes, cycles):
        net = bernoulli_meta_run(num_nodes, p=0.10, seed=21 + num_nodes,
                                 cycles=cycles)
        # Conservation: the driver offered real packets and the channel
        # delivered no more than it accepted.
        assert 0 < int(net.stats.delivered) <= int(net.stats.sent)
        measured_p = net.transmission_probability(LaneKind.META)
        assert measured_p >= 0.095  # offered 0.10 plus retransmissions
        simulated = net.collision_events_per_node_slot(LaneKind.META)
        predicted = collision_probability(
            measured_p, num_nodes, net.lanes.receivers(LaneKind.META)
        )
        assert simulated > 0.0, "operating point produced no collisions"
        assert predicted <= simulated <= 2.0 * predicted
        net.audit()

    @pytest.mark.parametrize(
        "num_nodes, cycles", [(256, 300), (1024, 200)]
    )
    def test_mesh_scaling_smoke(self, num_nodes, cycles):
        # Mesh sizes must be perfect squares, so the study jumps
        # 256 -> 1024 (16x16 -> 32x32 routers).
        system = CmpSystem(CmpConfig(
            app="oc", network="mesh", num_nodes=num_nodes, seed=3
        ))
        result = system.run(cycles)
        network = system.network
        assert type(network) is MeshNetwork
        assert result.cycles == cycles
        assert sum(result.instructions_per_core) == result.instructions
        assert 0 < result.packets_delivered <= result.packets_sent
        network.audit()
