"""The behaviour of whole CMP runs: one table, one row per configuration.

Each row of :data:`ROWS` names a configuration and the oracles it is
held to; ``test_behaviour[<row>-<oracle>]`` checks one oracle.  A row's
runs — fast-forward on or off, fused or generic issue loop, traced or
not — are each made once, the first time one of its oracles asks, and
shared by the rest:

* ``pin`` / ``pin-every-cycle`` — the digests
  (:func:`tests.conftest.fingerprint`) of the run with fast-forward on /
  off equal the row's pin in ``tests/data/network_engine_pins.json``;
* ``loop-pin`` / ``loop-pin-every-cycle`` / ``generic-loop-pin`` — the
  same, with the executed / skipped split of the window pinned too
  (``<row>-fast-forward`` / ``<row>-every-cycle``);
* ``fast-forward`` — with ``fast_forward=False`` the digests are the
  same and no cycle is skipped (the tick-every-cycle loop is the
  independent check on every subsystem's ``next_event`` horizon);
* ``generic`` / ``generic-every-cycle`` — with every workload behind
  ``NextOpOnly`` (the generic ``next_op`` issue loop, which sends every
  access through ``L1Controller.access``) the digests and the loop
  split equal the fused loop's;
* ``tracing-invisible`` — the run traced moves no result and no counter
  (observation selects no code), and the tracer did record;
* ``skips`` — fast-forward skips cycles;
* ``refuses`` — the network refused sends (a full injection queue
  backs up into the system's overflow queue);
* ``audit`` (every row) — the run conserves instructions, core cycles
  and packets, its system passes its transport's ``audit()`` and
  :func:`recount_occupancy`, and a capacity-bounded directory evicts.

Beside the table: a hypothesis sweep of the same oracles over random
configurations, the lazy core-cycle ledger, the work-target stop, and
the 256–1024-node scaling study.
"""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cmp import CmpConfig, CmpSystem
from repro.coherence.directory import DirectoryConfig
from repro.core.analytical import collision_probability
from repro.core.lanes import LaneConfig
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.cpu.sync import SYNC_LINE_BASE
from repro.net.packet import LaneKind, Packet
from repro.sweep import canonical_json
from tests.conftest import EQUIVALENCE_FAULT_PLAN, fingerprint, sha

PLAN = EQUIVALENCE_FAULT_PLAN
CAP64 = DirectoryConfig(capacity_lines=64)
ALL_OPTS = OptimizationConfig.all()


def row(key, oracles, cycles=1200, trace=False, **config):
    """``config`` (16 nodes unless it says otherwise) run for ``cycles``
    and held to the space-separated ``oracles`` and ``audit``; ``key``
    names its pin."""
    config.setdefault("num_nodes", 16)
    return key, (oracles.split() + ["audit"], cycles, trace, config)


ROWS = dict([
    # Every transport under ocean: fast-forward, both issue loops.
    row(
        "oc-fsoi-16-seed1", "pin pin-every-cycle fast-forward skips generic",
        app="oc", network="fsoi", seed=1,
    ),
    row(
        "oc-mesh-16-seed1", "pin pin-every-cycle fast-forward skips generic",
        app="oc", network="mesh", seed=1,
    ),
    row(
        "oc-l0-16-seed1",
        "pin loop-pin loop-pin-every-cycle fast-forward skips"
        " generic generic-every-cycle generic-loop-pin",
        app="oc", network="l0", seed=1,
    ),
    *(
        row(f"oc-{network}-16-seed1", "pin fast-forward generic", app="oc", network=network, seed=1)
        for network in ("lr1", "lr2", "corona")
    ),
    # ... under mp, and the ideal networks under barnes.
    *(
        row(f"mp-{network}-16-seed2", "pin", app="mp", network=network, seed=2)
        for network in ("fsoi", "mesh", "l0", "lr1", "lr2", "corona")
    ),
    *(
        row(f"ba-{network}-16-seed3", "fast-forward", cycles=1000, app="ba", network=network, seed=3)
        for network in ("l0", "lr1", "lr2")
    ),
    # FSOI: seeds, signaling errors, a fault plan, the §5 design, and
    # the phase array at 64 nodes (its per-send steering charge).
    row("ba-fsoi-16-seed0", "pin fast-forward generic", app="ba", network="fsoi", seed=0),
    row("ba-fsoi-16-seed7", "pin fast-forward generic", app="ba", network="fsoi", seed=7),
    row(
        "ba-fsoi-16-seed8-per5", "pin",
        app="ba", network="fsoi", seed=8, fsoi_packet_error_rate=0.05,
    ),
    # One-packet injection queues: refused sends wait in CmpSystem's
    # overflow queue, which drains and bounds the horizon.
    row(
        "oc-fsoi-16-seed1-q1",
        "pin pin-every-cycle fast-forward skips generic tracing-invisible refuses",
        app="oc", network="fsoi", seed=1, fsoi_lanes=LaneConfig(queue_capacity=1),
    ),
    row(
        "oc-fsoi-16-seed4-faults", "pin pin-every-cycle fast-forward generic",
        app="oc", network="fsoi", seed=4, faults=PLAN,
    ),
    # Resolution hints reschedule queued packets in place; confirmation
    # acks, split writebacks and request spacing reach coherence.
    row(
        "oc-fsoi-16-seed5-allopts", "pin generic",
        app="oc", network="fsoi", seed=5, optimizations=ALL_OPTS,
    ),
    row(
        "em-fsoi-64-seed2", "pin fast-forward generic", cycles=900,
        app="em", network="fsoi", num_nodes=64, seed=2,
    ),
    row("ws-fsoi-64-seed2", "pin", cycles=900, app="ws", network="fsoi", num_nodes=64, seed=2),
    # Figure 7's size with §5.1 / §5.2 on; water-spatial's contended
    # lines fill "z" queues until the directory NACKs.
    row(
        "ws-fsoi-64-seed6-allopts", "pin", cycles=3000,
        app="ws", network="fsoi", num_nodes=64, seed=6, optimizations=ALL_OPTS,
    ),
    # Mesh: seeds, 64 nodes, half-width links (more flits per packet,
    # deeper VC occupancy, more credit stalls).
    row("em-mesh-16-seed0", "pin", app="em", network="mesh", seed=0),
    row("em-mesh-16-seed7", "pin", app="em", network="mesh", seed=7),
    row("ba-mesh-64-seed2", "pin", cycles=900, app="ba", network="mesh", num_nodes=64, seed=2),
    row(
        "oc-mesh-16-seed6-halfwidth", "pin",
        app="oc", network="mesh", seed=6, mesh_bandwidth_scale=0.5,
    ),
    # Lock-heavy, long-critical-section and butterfly sharing: the
    # due-core schedule's hold-release and spin-poll deadlines, Req(Upg)
    # reinterpretation (tsp loses 13 upgrade races on fsoi, 5 on the
    # mesh), transient queueing and the invalidation fan-out.
    *(
        row(f"{app}-fsoi-16-seed5", "pin", cycles=5000, app=app, network="fsoi", seed=5)
        for app in ("ro", "tsp", "fft")
    ),
    *(
        row(
            f"{app}-mesh-16-seed5", "pin pin-every-cycle", cycles=5000,
            app=app, network="mesh", seed=5,
        )
        for app in ("ro", "tsp", "fft")
    ),
    *(
        row(f"{app}-mesh-16-seed5-c1200", "generic", app=app, network="mesh", seed=5)
        for app in ("ro", "tsp", "fft")
    ),
    # Bounded L2 slices turn capacity pressure into Repl recalls.
    row("oc-mesh-16-seed3-cap64", "generic", app="oc", network="mesh", seed=3, directory=CAP64),
    row(
        "tsp-fsoi-16-seed3-cap64", "tracing-invisible",
        app="tsp", network="fsoi", seed=3, directory=CAP64,
    ),
    row(
        "tsp-fsoi-16-seed3-cap64-traced", "pin", cycles=2500, trace=True,
        app="tsp", network="fsoi", seed=3, directory=CAP64,
    ),
    # Every trace event, in order, with the same packet ids, whichever
    # loop runs.
    row(
        "fft-fsoi-16-seed3-traced", "pin pin-every-cycle generic", trace=True,
        app="fft", network="fsoi", seed=3,
    ),
    row(
        "fft-mesh-16-seed3-traced", "pin pin-every-cycle generic", trace=True,
        app="fft", network="mesh", seed=3,
    ),
    row("fft-l0-16-seed3-traced", "pin generic", trace=True, app="fft", network="l0", seed=3),
    row(
        "fft-fsoi-16-seed4-faults", "tracing-invisible",
        app="fft", network="fsoi", seed=4, faults=PLAN,
    ),
    row(
        "fft-fsoi-16-seed4-faults-traced", "pin", cycles=2500, trace=True,
        app="fft", network="fsoi", seed=4, faults=PLAN,
    ),
    row("ro-fsoi-16-seed2", "tracing-invisible", app="ro", network="fsoi", seed=2),
    row("tsp-mesh-16-seed2", "tracing-invisible", app="tsp", network="mesh", seed=2),
    # The audit alone, including a sender that marks its lane down and
    # heals.
    row("oc-fsoi-16-seed3", "", app="oc", network="fsoi", seed=3),
    row("oc-mesh-16-seed3", "", app="oc", network="mesh", seed=3),
    row("oc-fsoi-16-seed3-faults", "", app="oc", network="fsoi", seed=3, faults=PLAN),
])

#: The runs an oracle can ask of a row, as :func:`fingerprint` arguments.
VARIANTS = {
    "base": {},
    "naive": {"fast_forward": False},
    "generic": {"generic_issue": True},
    "generic-naive": {"generic_issue": True, "fast_forward": False},
    "traced": {"trace": True},
}

#: oracle -> (the run it checks, what that run must equal): another run,
#: or the pin named by the row's key and the suffix after ``pin``.
ORACLES = {
    "pin": ("base", "pin"),
    "pin-every-cycle": ("naive", "pin"),
    "loop-pin": ("base", "pin-fast-forward"),
    "loop-pin-every-cycle": ("naive", "pin-every-cycle"),
    "generic-loop-pin": ("generic", "pin-fast-forward"),
    "fast-forward": ("naive", "base"),
    "generic": ("generic", "base"),
    "generic-every-cycle": ("generic-naive", "naive"),
    "tracing-invisible": ("traced", "base"),
}


class Runs:
    """A configuration's runs, each made the first time it is asked for."""

    def __init__(self, key, cycles, trace, config):
        self.key, self.cycles, self.trace, self.config = key, cycles, trace, config
        self._made = {}

    def __getitem__(self, variant):
        if variant not in self._made:
            run = fingerprint(
                self.cycles, **{"trace": self.trace, **self.config, **VARIANTS[variant]}
            )
            loop = run[1]["loop"]
            assert loop["executed_cycles"] + loop["skipped_cycles"] == self.cycles
            if "naive" in variant:
                assert loop["skipped_cycles"] == 0
            self._made[variant] = run
        return self._made[variant]


def recount_occupancy(system):
    """The handlers' running occupancy counters against a recount from
    the structures they summarise."""
    for directory in system.directories:
        assert directory._queued_total == sum(
            len(entry.queued) for entry in directory._entries.values()
        )
    for core, l1 in zip(system.cores, system.l1s):
        # Barrier and lock accesses hold no MSHR.
        transient = {
            line for line, state in l1._states.items()
            if state.is_transient and line < SYNC_LINE_BASE
        }
        assert core.mshr._lines == transient
    for controller in system.memory.values():
        arrivals = [arrival for _msg, arrival in controller._queue]
        assert arrivals == sorted(arrivals)
        assert all(arrival <= system.cycle for arrival in arrivals)


def check(runs, oracle, pinned=None):
    """Hold ``runs`` to one ``oracle`` (see the module docstring)."""
    if oracle == "skips":
        assert runs["base"][1]["loop"]["skipped_cycles"] > 0
    elif oracle == "refuses":
        system = runs["base"][2]
        assert system.metrics_registry().snapshot()["network"]["send_refused"] > 0
    elif oracle == "audit":
        _, results, system = runs["base"]
        assert sum(results["instructions_per_core"]) == results["instructions"]
        assert sum(results["core_cycles"].values()) == runs.config["num_nodes"] * runs.cycles
        assert 0 < results["packets_delivered"] <= results["packets_sent"]
        system.network.audit()
        recount_occupancy(system)
        if "directory" in runs.config:
            assert sum(d._count["capacity_evictions"].value for d in system.directories)
    else:
        variant, reference = ORACLES[oracle]
        digests, results, _ = runs[variant]
        loop = results["loop"]
        if reference.startswith("pin"):
            suffix = reference[len("pin"):]
            pinned(runs.key + suffix, {**digests, "loop": loop} if suffix else digests)
            return
        expected, expected_results, _ = runs[reference]
        if variant == "traced":
            digests = dict(digests)
            assert digests.pop("trace") != sha("")
        assert digests == expected
        if ("naive" in variant) == ("naive" in reference):
            assert loop == expected_results["loop"]


#: The latest row's runs.  The table lists a row's oracles together, so
#: each run is made once and one row's systems are alive at a time.
_LATEST = {}


@pytest.fixture
def runs(request):
    """The runs of the row keyed ``request.param``, shared by its oracles."""
    key = request.param
    if key not in _LATEST:
        _LATEST.clear()
        _, cycles, trace, config = ROWS[key]
        _LATEST[key] = Runs(key, cycles, trace, config)
    return _LATEST[key]


@pytest.mark.parametrize(
    "runs, oracle",
    [
        pytest.param(key, oracle, id=f"{key}-{oracle}")
        for key, (oracles, *_) in ROWS.items()
        for oracle in oracles
    ],
    indirect=["runs"],
)
def test_behaviour(pinned, runs, oracle):
    check(runs, oracle, pinned)


@pytest.mark.parametrize("oracle", ["fast-forward", "generic", "generic-every-cycle", "audit"])
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    app=st.sampled_from(["oc", "ba", "mp", "ws"]),
    network=st.sampled_from(["fsoi", "mesh", "lr2"]),
    seed=st.integers(min_value=0, max_value=50),
    cycles=st.integers(min_value=50, max_value=800),
    confirmation_ack=st.booleans(),
)
def test_random_configurations(oracle, app, network, seed, cycles, confirmation_ack):
    # The §5 optimizations need the FSOI confirmation channel.
    opts = OptimizationConfig(confirmation_ack=confirmation_ack and network == "fsoi")
    config = dict(app=app, network=network, num_nodes=16, seed=seed, optimizations=opts)
    check(Runs(None, cycles, False, config), oracle)


@pytest.mark.parametrize("fast_forward", [True, False], ids=["fast-forward", "every-cycle"])
def test_run_until_instructions_stops_at_pinned_cycle(pinned, fast_forward):
    result = CmpSystem(CmpConfig(
        app="lu", network="l0", num_nodes=16, seed=1, fast_forward=fast_forward,
    )).run_until_instructions(20_000)
    pinned(
        "lu-l0-16-seed1-until-20000-instructions",
        {"cycles": result.cycles, "instructions": result.instructions},
    )


def core_cycle_total(snapshot: dict) -> int:
    """busy + stall + sync over every core of a registry snapshot."""
    return sum(sum(core.values()) for core in snapshot["core"].values())


class TestLazyLedger:
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        app=st.sampled_from(["oc", "ba", "mp", "ro", "tsp"]),
        network=st.sampled_from(["fsoi", "mesh", "lr2"]),
        seed=st.integers(min_value=0, max_value=50),
        first=st.integers(min_value=1, max_value=600),
        second=st.integers(min_value=1, max_value=600),
        fast_forward=st.booleans(),
    )
    def test_lazy_ledger_is_invisible(
        self, app, network, seed, first, second, fast_forward
    ):
        config = CmpConfig(
            app=app, network=network, num_nodes=16, seed=seed,
            fast_forward=fast_forward,
        )

        def results(result):
            # Rendered at once: a CmpResults holds live stat objects.
            assert sum(result.core_cycles.values()) == 16 * result.cycles
            return canonical_json(result.to_dict())

        def metrics(registry):
            snapshot = json.loads(canonical_json(registry.snapshot()))
            assert core_cycle_total(snapshot) == 16 * snapshot["run"]["cycles"]
            return snapshot

        def fresh(cycles):
            system = CmpSystem(config)
            return results(system.run(cycles)), metrics(system.metrics_registry())

        # Every core is in exactly one bucket every cycle (checked at
        # each read), and reading settles the ledger without moving
        # anything: stopping to look is the same as not stopping.
        system = CmpSystem(config)
        registry = system.metrics_registry()
        midway = results(system.run(first)), metrics(registry)
        end = results(system.run(second)), metrics(registry)
        assert midway == fresh(first)
        assert end == fresh(first + second)


def bernoulli_meta_run(num_nodes, p, seed, cycles):
    """Uniform Bernoulli meta traffic on a bare FSOI channel: every meta
    slot boundary each node offers a packet with probability ``p`` to a
    uniform random peer, the traffic of
    ``tests/core/test_analytical_crossval.py``."""
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
class TestScale:
    """The scaling claim the due-core schedule and the due-router /
    due-node worklists exist for, at 256–1024 nodes (mesh sizes must be
    perfect squares, so the mesh jumps 256 -> 1024)."""

    @pytest.fixture(
        scope="class",
        params=[
            ("fsoi", 256, 400), ("fsoi", 512, 300), ("fsoi", 1024, 200),
            ("mesh", 256, 300), ("mesh", 1024, 200),
        ],
        ids=lambda param: "-".join(map(str, param)),
    )
    def scaled(self, request):
        """One ``oc`` run per size, shared by the two checks below."""
        network, num_nodes, cycles = request.param
        system = CmpSystem(CmpConfig(
            app="oc", network=network, num_nodes=num_nodes, seed=3
        ))
        return system, system.run(cycles), num_nodes, cycles

    def test_whole_run_conservation(self, scaled):
        system, result, num_nodes, cycles = scaled
        # Per-core instruction counters sum to the total, every node is
        # in exactly one cycle bucket per cycle, and the network cannot
        # deliver more than was sent.
        assert result.cycles == cycles
        assert result.instructions > 0
        assert sum(result.instructions_per_core) == result.instructions
        assert len(result.instructions_per_core) == num_nodes
        assert sum(result.core_cycles.values()) == num_nodes * cycles
        assert 0 < result.packets_delivered <= result.packets_sent
        system.network.audit()

    def test_occupancy_recount(self, scaled):
        recount_occupancy(scaled[0])

    @pytest.mark.parametrize(
        "num_nodes, cycles",
        [(256, 6000), (512, 4000), (1024, 3000)],
    )
    def test_fsoi_collision_rate_matches_closed_form(self, num_nodes, cycles):
        # Uniform Bernoulli traffic keeps the Figure 3 closed form's
        # assumptions honest at scale (app traffic is directory-
        # concentrated); the crossval suite's [1.0x, 2.0x] band applies
        # unchanged as the system grows.
        net = bernoulli_meta_run(num_nodes, p=0.10, seed=21 + num_nodes,
                                 cycles=cycles)
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
