"""The mesh readiness calendar against a brute-force recount.

Every non-empty VC's front flit is in exactly one place: its router's
ready set for the owner's route port once its ready cycle has been
ticked, else filed once under that cycle.  After every tick of a bare
mesh, the ready sets, the filings, the live set, ``next_event`` and
``quiescent()`` must equal what a scan of every buffer, queue and
pending ejection gives — the scan the calendar replaced.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mesh.network import MeshConfig, MeshNetwork
from repro.mesh.routing import Port
from repro.net.packet import LaneKind, Packet

#: Default, one VC, 2-flit buffers, half-width links, and a one-cycle
#: hop (a forward and an injection file under the same next cycle).
VARIANTS = (
    {}, {"num_vcs": 1}, {"buffer_flits": 2}, {"bandwidth_scale": 0.5},
    {"router_latency": 1, "link_latency": 0},
)

#: One cycle's offers: (src, dst, data lane?).  Destinations crowd onto
#: four nodes, so VCs run out, credits block and outputs see several
#: ready requesters.
offers = st.lists(
    st.tuples(st.integers(0, 63), st.integers(0, 3), st.booleans()), max_size=6,
)


def brute_force(net: MeshNetwork, now: int):
    """Ready sets, filings and live routers after the tick of ``now``,
    and the horizon at ``now + 1``, from the buffers themselves."""
    ready = []
    filings = Counter()
    live = set()
    fronts = []
    for node, router in enumerate(net.routers):
        sets = [set() for _ in Port]
        for k, buffer in enumerate(router._bufs):
            if not buffer.flits:
                continue
            front = buffer.flits[0]
            fronts.append(front)
            if front <= now:
                sets[buffer.route_port].add(k)
                live.add(node)
            else:
                filings[front, node, k, buffer.route_port] += 1
        ready.append(sets)
    following = now + 1
    capacity = net.config.buffer_flits
    progress = False
    for node, queue in enumerate(net._inject_queues):
        local = net.routers[node].inputs[Port.LOCAL]
        state = net._inject_state[node]
        if state is not None:
            progress |= len(local[state[1]].flits) < capacity
        elif queue:
            progress |= any(buffer.owner is None for buffer in local)
    candidates = fronts + list(net._deliveries)
    if progress:
        horizon = following
    elif candidates:
        horizon = max(min(candidates), following)
    else:
        horizon = None
    quiet = not (fronts or net._deliveries or any(net._inject_queues)) and all(
        state is None for state in net._inject_state
    )
    return ready, filings, live, horizon, quiet


def filed(net: MeshNetwork) -> Counter:
    """The calendar's entries as (cycle, node, k, the port of the ready
    set they will join)."""
    out = Counter()
    for cycle, entries in net._filed.items():
        for ready, k, node in entries:
            (port,) = [p for p, s in enumerate(net.routers[node]._ready) if s is ready]
            out[cycle, node, k, port] += 1
    return out


class TestReadinessCalendar:
    @settings(max_examples=50, deadline=None)
    @given(
        nodes=st.sampled_from((16, 64)),
        variant=st.sampled_from(VARIANTS),
        schedule=st.lists(offers, max_size=40),
    )
    def test_matches_brute_force(self, nodes, variant, schedule):
        net = MeshNetwork(MeshConfig(num_nodes=nodes, **variant))
        cycle = 0
        while cycle < len(schedule) or not net.quiescent():
            assert cycle < len(schedule) + 5_000, "network did not drain"
            for src, dst, is_data in schedule[cycle] if cycle < len(schedule) else ():
                src %= nodes
                if src != dst:
                    lane = LaneKind.DATA if is_data else LaneKind.META
                    net.try_send(Packet(src=src, dst=dst, lane=lane), cycle)
            net.tick(cycle)
            ready, filings, live, horizon, quiet = brute_force(net, cycle)
            assert [router._ready for router in net.routers] == ready, cycle
            assert filed(net) == filings, cycle
            assert net._live == live, cycle
            assert net.next_event(cycle + 1) == horizon, cycle
            assert net.quiescent() == quiet, cycle
            cycle += 1
        net.audit()


def busy_mesh() -> MeshNetwork:
    """A 16-node mesh stopped mid-flight with a ready front and a filed
    one: four nodes each send data packets to the same corner."""
    net = MeshNetwork(MeshConfig(num_nodes=16, num_vcs=1, buffer_flits=2))
    for src in (1, 4, 5, 10):
        for _ in range(2):
            net.try_send(Packet(src=src, dst=0, lane=LaneKind.DATA), 0)
    cycle = 0
    while not (net._live and net._filed and cycle > 8):
        assert cycle < 200, "no mid-flight state"
        net.tick(cycle)
        cycle += 1
    net.audit()
    return net


def stale(net):
    net._filed.setdefault(net._now, []).append((net.routers[0]._ready[0], 0, 0))


def twice(net):
    entries = next(iter(net._filed.values()))
    entries.append(entries[0])


def unready(net):
    next(ready for router in net.routers for ready in router._ready if ready).pop()


def unlive(net):
    net._live.pop()


def stray(net):
    net.routers[0]._ready[0].add(10**6)


class TestAuditCatches:
    """``audit()`` reports a front out of its one place, by name."""

    @pytest.mark.parametrize("doctor, message", [
        (stale, "stale _filed entry"),
        (twice, "front filed twice in _filed"),
        (unready, "front not in _ready"),
        (unlive, "_live disagrees"),
        (stray, "stray k in _ready"),
    ])
    def test_doctored_state(self, doctor, message):
        net = busy_mesh()
        doctor(net)
        with pytest.raises(AssertionError, match=message):
            net.audit()
