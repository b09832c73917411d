"""Property tests for the scheduling rules of the network engines.

* :func:`repro.core.network.slot_horizon` — the FSOI fast-forward
  horizon — against a scalar re-derivation of its contract.
* The FSOI lane index (``_LaneIndex``): after any sequence of readiness
  writes its cached minimum, its ``pending`` set and the sorted due
  gather a slot boundary makes from it equal a brute-force scan of
  ``ready``; and a real :class:`FsoiNetwork` under random bursts passes
  ``audit()`` after every tick and conserves packets at the drain; and
  under random lane kills (heals, re-kills, permanent), jumping to its
  ``next_event`` horizon equals ticking every cycle.
* A real :class:`MeshNetwork` the same way, over random VC counts,
  buffer depths and link widths.
* The mesh router's round-robin switch arbitration, exercised on a real
  stand-alone :class:`repro.mesh.router.Router`: with ``k`` ready
  requesters on one output port and the arbiter pointer at ``start``,
  the flit forwarded is the one ``min((index - start) % 1000)`` names
  (``index = in_port * num_vcs + vc + 1``) — the first element of the
  ``sorted`` pick the router's original arbitration used — and the
  pointer advances just past it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import (
    NEVER, FsoiConfig, FsoiNetwork, _LaneIndex, slot_horizon,
)
from repro.core.optimizations import OptimizationConfig
from repro.faults import FaultPlan, LaneFault
from repro.mesh.network import MeshConfig, MeshNetwork
from repro.mesh.router import Router
from repro.mesh.routing import Port
from repro.net.packet import LaneKind, Packet
from tests.net.test_channel_pins import SMOKE_PLAN

#: Readiness values: simulated cycles plus the idle sentinel.
ready_values = st.one_of(
    st.integers(min_value=0, max_value=1_000_000), st.just(NEVER)
)


class TestSlotHorizon:
    @settings(deadline=None)
    @given(
        earliest_ready=ready_values,
        cycle=st.integers(min_value=0, max_value=1_000_000),
        slot_len=st.integers(min_value=1, max_value=64),
    )
    def test_matches_scalar_rederivation(self, earliest_ready, cycle, slot_len):
        horizon = slot_horizon(earliest_ready, cycle, slot_len)
        if earliest_ready >= NEVER:
            assert horizon is None
            return
        # First multiple of slot_len at or after the eligible cycle
        # (an overdue packet starts at the next boundary from "now").
        eligible = max(earliest_ready, cycle)
        assert horizon % slot_len == 0
        assert horizon >= eligible
        assert horizon - slot_len < eligible

    def test_no_overflow_near_sentinel(self):
        # Boundary arithmetic on values just below NEVER must stay
        # inside int64 (the sentinel is 1 << 62 precisely for this).
        horizon = slot_horizon(NEVER - 1, 0, 64)
        assert horizon is not None
        assert horizon % 64 == 0


class TestLaneIndex:
    NODES = 12

    @settings(deadline=None)
    @given(
        updates=st.lists(st.tuples(
            st.integers(0, NODES - 1),
            st.one_of(st.integers(0, 40), st.just(NEVER)),
            st.booleans(),
        ), max_size=60),
        cycle=st.integers(0, 40),
    )
    def test_matches_brute_force_scan(self, updates, cycle):
        index = _LaneIndex(self.NODES)
        model = [NEVER] * self.NODES
        for node, ready, read_minimum in updates:
            index.update(node, ready)
            model[node] = ready
            assert index.ready == model
            assert index.pending == {
                n for n, value in enumerate(model) if value != NEVER
            }
            # What _start_slot gathers == the every-node scan it replaced.
            assert sorted(
                n for n in index.pending if index.ready[n] <= cycle
            ) == [n for n, value in enumerate(model) if value <= cycle]
            if read_minimum:  # unread raises leave the cache stale
                assert index.minimum() == min(model)
        assert index.minimum() == min(model)


#: (cycle, fan, receiver seed, lane) bursts: ``fan`` senders offer one
#: packet each to one receiver in the same cycle.
bursts = st.lists(
    st.tuples(
        st.integers(0, 120), st.integers(1, 15), st.integers(0, 1 << 16),
        st.sampled_from(list(LaneKind)),
    ),
    min_size=1, max_size=12,
)


class TestAuditEveryTick:
    @settings(max_examples=30, deadline=None)
    @given(
        nodes=st.sampled_from((16, 64)), phase_array=st.booleans(),
        optimized=st.booleans(), faulted=st.booleans(), bursts=bursts,
        seed=st.integers(0, 1000),
    )
    def test_random_bursts_drain_and_conserve(
        self, nodes, phase_array, optimized, faulted, bursts, seed
    ):
        net = FsoiNetwork(FsoiConfig(
            num_nodes=nodes, phase_array=phase_array, seed=seed,
            optimizations=OptimizationConfig(
                resolution_hints=optimized, request_spacing=optimized
            ),
            faults=SMOKE_PLAN if faulted else None,
        ))
        arrived = []
        for node in range(nodes):
            net.set_delivery_callback(node, arrived.append)
        by_cycle = {}
        for cycle, fan, pick, lane in bursts:
            receiver = pick % nodes
            for rank in range(fan):
                src = (receiver + 1 + (pick + rank) % (nodes - 1)) % nodes
                by_cycle.setdefault(cycle, []).append(Packet(
                    src=src, dst=receiver, lane=lane,
                    expects_data_reply=lane is LaneKind.META and rank % 2 == 0,
                ))
        cycle = 0
        while cycle <= 120 or not net.quiescent():
            assert cycle < 20_000, "network did not drain"
            for packet in by_cycle.get(cycle, ()):
                net.try_send(packet, cycle)
            net.tick(cycle)
            net.audit()
            cycle += 1
        stats = net.stats.group.as_dict()
        lost = net.fault_summary().get("gave_up_lost", 0)
        assert len(arrived) == stats["packets_delivered"]
        assert stats["packets_sent"] == stats["packets_delivered"] + lost
        offered = sum(len(batch) for batch in by_cycle.values())
        assert stats["packets_sent"] + stats["send_refused"] == offered


def drive_faulted(plan, bursts, seed, jump):
    """Offer ``bursts`` to a bare 16-node FSOI network under ``plan`` and
    drain it, ticking every cycle or (``jump``) only the cycles its
    ``next_event`` horizon and the offers name, ``skip`` in between."""
    net = FsoiNetwork(FsoiConfig(num_nodes=16, faults=plan, seed=seed))
    arrived = []
    for node in range(16):
        net.set_delivery_callback(
            node, lambda p: arrived.append((p.uid, p.deliver_cycle, p.retries))
        )
    by_cycle, uids = {}, iter(range(1 << 20))
    for cycle, fan, pick, lane in bursts:
        receiver = pick % 16
        for rank in range(fan):
            src = (receiver + 1 + (pick + rank) % 15) % 16
            by_cycle.setdefault(cycle, []).append(
                Packet(src=src, dst=receiver, lane=lane, uid=next(uids))
            )
    cycle = 0
    while True:
        assert cycle < 20_000, "network did not drain"
        for packet in by_cycle.get(cycle, ()):
            net.try_send(packet, cycle)
        net.tick(cycle)
        if cycle >= 120 and net.quiescent():
            break
        following = cycle + 1
        if jump:
            stops = [c for c in by_cycle if c >= following]
            horizon = net.next_event(following)
            if horizon is not None:
                stops.append(horizon)
            if following <= 120:
                stops.append(120)
            target = min(stops)
            net.skip(following, target)
            following = target
        cycle = following
    return arrived, net.stats.group.as_dict(), net.fault_summary(), cycle


class TestFaultHorizon:
    """A fault plan adds nothing to the FSOI horizon: a bare network that
    jumps to ``next_event`` delivers, spares, gives up and counts slots
    exactly as one ticked every cycle, while lanes die, heal and die
    again with their senders idle."""

    @settings(max_examples=20, deadline=None)
    @given(
        kills=st.lists(st.tuples(
            st.integers(0, 15), st.sampled_from(list(LaneKind)),
            st.integers(0, 150), st.integers(1, 60), st.booleans(),
        ), min_size=1, max_size=4),
        threshold=st.integers(1, 3), bursts=bursts, seed=st.integers(0, 1000),
    )
    def test_jumping_to_next_event_matches_every_tick(
        self, kills, threshold, bursts, seed
    ):
        plan = FaultPlan(
            lane_faults=tuple(
                LaneFault(node, lane.value, start,
                          None if forever else start + length)
                for node, lane, start, length, forever in kills
            ),
            detect_threshold=threshold, giveup_retries=10, seed=seed,
        )
        assert drive_faulted(plan, bursts, seed, jump=True) == drive_faulted(
            plan, bursts, seed, jump=False
        )


class TestMeshAuditEveryTick:
    """The mesh twin of :class:`TestAuditEveryTick`: per-VC ownership,
    flit counts and injection state checked after every tick, over VC
    counts and buffer depths down to one slot (credit-blocked hops)."""

    @settings(max_examples=30, deadline=None)
    @given(
        nodes=st.sampled_from((16, 64)), num_vcs=st.integers(1, 4),
        buffer_flits=st.integers(1, 12), half_width=st.booleans(),
        bursts=bursts,
    )
    def test_random_bursts_drain_and_conserve(
        self, nodes, num_vcs, buffer_flits, half_width, bursts
    ):
        net = MeshNetwork(MeshConfig(
            num_nodes=nodes, num_vcs=num_vcs, buffer_flits=buffer_flits,
            bandwidth_scale=0.5 if half_width else 1.0, injection_queue=4,
        ))
        arrived = []
        for node in range(nodes):
            net.set_delivery_callback(node, arrived.append)
        by_cycle = {}
        for cycle, fan, pick, lane in bursts:
            receiver = pick % nodes
            for rank in range(fan):
                src = (receiver + 1 + (pick + rank) % (nodes - 1)) % nodes
                by_cycle.setdefault(cycle, []).append(
                    Packet(src=src, dst=receiver, lane=lane)
                )
        cycle = 0
        while cycle <= 120 or not net.quiescent():
            assert cycle < 20_000, "mesh did not drain"
            for packet in by_cycle.get(cycle, ()):
                net.try_send(packet, cycle)
            net.tick(cycle)
            net.audit()
            cycle += 1
        stats = net.stats.group.as_dict()
        assert len(arrived) == stats["packets_delivered"] == stats["packets_sent"]
        offered = sum(len(batch) for batch in by_cycle.values())
        assert stats["packets_sent"] + stats["send_refused"] == offered


NUM_VCS = 4
NODE = 5  # an interior node of the 4x4 mesh

#: Distinct (input port, vc) requesters; the ejection port is never
#: flow-control blocked, so every ready head is a candidate.
requester_keys = st.sets(
    st.tuples(st.sampled_from(list(Port)), st.integers(0, NUM_VCS - 1)),
    min_size=1, max_size=len(Port) * NUM_VCS,
)
pointers = st.integers(min_value=0, max_value=999)


def arbitration_index(key):
    in_port, vc = key
    return in_port * NUM_VCS + vc + 1


def ejecting_router(keys, start, flits=1, not_ready=()):
    """A stand-alone router with one packet for the local port waiting
    in each of ``keys`` and the ejection arbiter pointer at ``start``.

    Returns ``(router, delivered, packet_of)``; tail ejections append to
    ``delivered``.  Heads in ``not_ready`` become processable only at
    cycle 100.
    """
    delivered = []
    router = Router(
        node=NODE, side=4, num_vcs=NUM_VCS, buffer_flits=4,
        router_latency=4, link_latency=1,
        deliver=lambda packet, cycle: delivered.append(packet),
    )
    packet_of = {}
    for key in sorted(keys):
        packet = Packet(src=0, dst=NODE, lane=LaneKind.META)
        packet_of[key] = packet
        ready = 100 if key in not_ready else 0
        router.accept_flit(*key, ready, packet, flits)
        for _ in range(flits - 1):
            router.accept_flit(*key, ready)
    router._arbiter_state[Port.LOCAL] = start
    return router, delivered, packet_of


class TestRrPick:
    @settings(deadline=None)
    @given(keys=requester_keys, start=pointers)
    def test_matches_reference_sorted_pick(self, keys, start):
        router, delivered, packet_of = ejecting_router(keys, start)
        router.tick(0)
        # The original arbitration, verbatim: stable sort by cyclic
        # distance from the arbiter pointer, winner first.
        winner = sorted(
            keys, key=lambda key: (arbitration_index(key) - start) % 1000
        )[0]
        assert delivered == [packet_of[winner]]
        assert router._arbiter_state[Port.LOCAL] == arbitration_index(winner) + 1

    @settings(deadline=None)
    @given(data=st.data(), keys=requester_keys, start=pointers)
    def test_winner_minimizes_cyclic_distance(self, data, keys, start):
        # Only ready heads compete: the winner is cyclically nearest the
        # pointer among them, however near a future-ready head sits.
        not_ready = data.draw(st.sets(st.sampled_from(sorted(keys))))
        router, delivered, packet_of = ejecting_router(
            keys, start, not_ready=not_ready
        )
        router.tick(0)
        ready = keys - not_ready
        if not ready:
            assert delivered == []
            assert router._arbiter_state[Port.LOCAL] == start
            return
        (winner,) = [key for key in ready if packet_of[key] is delivered[0]]
        winner_distance = (arbitration_index(winner) - start) % 1000
        assert all(
            (arbitration_index(key) - start) % 1000 >= winner_distance
            for key in ready
        )

    def test_pointer_update_gives_lowest_priority_to_winner(self):
        # After a grant the arbiter pointer moves to winner + 1, so an
        # immediate re-request from the same input loses to anyone else
        # — the property that makes the scheme fair.  Two 2-flit packets
        # (arbitration indices 5 and 10) alternate on the ejection port.
        first, second = (Port.EAST, 0), (Port.WEST, 1)
        router, delivered, packet_of = ejecting_router(
            {first, second}, start=0, flits=2
        )
        granted = []
        for cycle in range(4):
            router.tick(cycle)
            granted.append(router._arbiter_state[Port.LOCAL] - 1)
        assert granted == [
            arbitration_index(first), arbitration_index(second),
            arbitration_index(first), arbitration_index(second),
        ]
        assert delivered == [packet_of[first], packet_of[second]]
