"""The ``Interconnect`` contract, held the same way on every transport.

Paper §7 compares FSOI with the mesh, L0 / Lr1 / Lr2 and a Corona-style
crossbar, each driven through the one contract of
:class:`repro.net.Interconnect`.  This suite drives all six
``NETWORK_KINDS`` at 16 and 64 nodes under four traffic shapes —
uniform, hotspot, incast and §4.3.2's all-to-one burst (63 -> 1 at 64
nodes) — over hypothesis-drawn seeds, loads and transport variants
(FSOI: phase array, §5.2 hints with request spacing, signaling errors,
a fault plan of lane kills that heal or not, a thermal droop and
dropped confirmations; mesh: VC count, buffer depth, link width; small
injection queues everywhere), and asserts:

* ``audit()`` passes after every tick;
* jumping to ``next_event()`` with ``skip()`` over the gap delivers,
  refuses, gives up and counts exactly as ticking every cycle;
* ``quiescent()`` holds exactly when a recount finds nothing pending;
* sent + refused = offered, sent = delivered + gave_up_lost, and no
  packet arrives twice or without having been accepted;
* the five latency components' counts and sums, and
  ``traffic_matrix()``, equal a recount from the arrived packets' own
  cycle stamps;
* FSOI confirmations, heard or not (a drawn subset of packets carries
  an ``on_confirmed`` hook, the confirmation delay is drawn): a hook
  fires once, at its delivery's confirmation arrival, without a fault
  plan and at most once under one, and the network drains exactly at
  the last arrival (under a fault plan, not before it);
* per-(src, dst, lane) delivery follows acceptance on the transports
  that keep it: L0 / Lr1 / Lr2 (one FIFO channel per source) and Corona
  (one FIFO queue per sender and channel).  FSOI's back-off and the
  mesh's VC arbitration both let a later packet overtake; coherence
  does not depend on the order, the §4.4 per-line hold covers it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmp.system import NETWORK_KINDS
from repro.core.lanes import RX_OVERHEAD, LaneConfig
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.corona.network import CoronaConfig, CoronaNetwork
from repro.faults import ConfirmationDrop, FaultPlan, LaneFault, ThermalDroop
from repro.mesh.ideal import IdealConfig, IdealNetwork
from repro.mesh.network import MeshConfig, MeshNetwork
from repro.net.packet import LaneKind, Packet

#: Offers are made in cycles [0, WINDOW); the run then drains.
WINDOW = 80
DRAIN_CAP = 20_000
KEEPS_ORDER = {"l0", "lr1", "lr2", "corona"}


def offers(shape, nodes, seed, load):
    """``{cycle: [(src, dst, is_data), ...]}`` for one traffic shape;
    ``load`` in [0, 1] scales its intensity (for the burst: its cycle)."""
    rng = np.random.default_rng(seed)
    schedule = {}

    def offer(cycle, src, dst):
        schedule.setdefault(cycle, []).append((src, dst, bool(rng.random() < 0.5)))

    if shape in ("uniform", "hotspot"):
        hot = int(rng.integers(nodes))
        for cycle, src in zip(*np.nonzero(rng.random((WINDOW, nodes)) < 0.1 * load)):
            src = int(src)
            dst = (src + 1 + int(rng.integers(nodes - 1))) % nodes
            if shape == "hotspot" and src != hot and rng.random() < 0.5:
                dst = hot
            offer(int(cycle), src, dst)
    elif shape == "incast":
        fan = 1 + int(load * (nodes // 4 - 1))
        for cycle in range(0, WINDOW, 20):
            receiver = int(rng.integers(nodes))
            for src in rng.choice(nodes - 1, size=fan, replace=False):
                offer(cycle, (receiver + 1 + int(src)) % nodes, receiver)
    else:  # every other node to one receiver in one cycle
        receiver = int(rng.integers(nodes))
        for src in range(nodes):
            if src != receiver:
                offer(int(load * (WINDOW - 1)), src, receiver)
    return schedule


def transport_config(kind, nodes, seed, data):
    """The configuration of a bare ``kind`` transport, in a
    hypothesis-drawn variant."""
    if kind == "fsoi":
        hints = data.draw(st.booleans(), "hints")
        plan = None
        if data.draw(st.booleans(), "faulted"):
            kills = data.draw(st.lists(st.tuples(
                st.integers(0, nodes - 1), st.sampled_from(list(LaneKind)),
                st.integers(0, 150), st.integers(1, 60), st.booleans(),
            ), min_size=1, max_size=4), "kills")
            plan = FaultPlan(
                lane_faults=tuple(
                    LaneFault(node, lane.value, start, None if forever else start + length)
                    for node, lane, start, length, forever in kills
                ),
                droops=(ThermalDroop(3.0, start=data.draw(st.integers(0, 150), "droop")),),
                confirmation_drops=(ConfirmationDrop(0.05),),
                detect_threshold=data.draw(st.integers(1, 3), "threshold"),
                giveup_retries=10, seed=seed,
            )
        delay = data.draw(st.sampled_from((1, 2, 5)), "confirmation_delay")
        return FsoiConfig(
            num_nodes=nodes, seed=seed, faults=plan,
            lanes=LaneConfig(confirmation_delay=delay),
            phase_array=data.draw(st.booleans(), "phase_array"),
            packet_error_rate=data.draw(st.sampled_from((0.0, 0.05)), "errors"),
            optimizations=OptimizationConfig(resolution_hints=hints, request_spacing=hints),
        )
    queue = data.draw(st.sampled_from((2, 4, 16)), "injection_queue")
    if kind == "mesh":
        return MeshConfig(
            num_nodes=nodes, injection_queue=queue,
            num_vcs=data.draw(st.integers(1, 4), "num_vcs"),
            buffer_flits=data.draw(st.integers(1, 12), "buffer_flits"),
            bandwidth_scale=data.draw(st.sampled_from((0.5, 1.0)), "bandwidth_scale"),
        )
    if kind == "corona":
        return CoronaConfig(num_nodes=nodes, injection_queue=queue)
    hops = {"l0": None, "lr1": 1, "lr2": 2}[kind]
    return IdealConfig(num_nodes=nodes, router_cycles_per_hop=hops, injection_queue=queue)


NETWORK_OF = {
    FsoiConfig: FsoiNetwork, MeshConfig: MeshNetwork,
    CoronaConfig: CoronaNetwork, IdealConfig: IdealNetwork,
}


def holds_packets(net) -> bool:
    """A recount of what ``net`` still holds or owes, from the queues,
    buffers and calendars themselves (FSOI: and both confirmation-lane
    heaps, heard and unheard)."""
    if isinstance(net, FsoiNetwork):
        return bool(net._due or net._heard or net._unheard) or any(
            state.queue or state.retx for states in net._state.values() for state in states
        )
    if isinstance(net, MeshNetwork):
        return bool(net._deliveries) or any(net._inject_queues) or any(
            state is not None for state in net._inject_state
        ) or any(router.occupancy() for router in net.routers)
    if isinstance(net, IdealNetwork):
        return bool(net._deliveries) or any(net._queues)
    return bool(net._deliveries) or any(
        queue for channel in net._channels for queue in channel.queues
    )


def drive(net, schedule, jump, hook_every=0):
    """Offer ``schedule`` to ``net`` and run it until it drains.

    Ticking every cycle (``jump`` false), the contract is checked after
    each tick; jumping, only the offer cycles and the ``next_event``
    horizons are ticked, with ``skip`` over each gap.  A packet whose uid
    is a multiple of ``hook_every`` (when not 0) carries an
    ``on_confirmed`` hook.  Returns what the run observed: the uids
    accepted, every arrival with its cycle stamps, each hook's
    ``(uid, cycle)``, the stat tree, the five latency components'
    ``(count, total)``, the traffic matrix, the fault summary and the
    cycle the run drained at.
    """
    accepted, arrived, confirmed = [], [], []
    clock = [0]

    def arrive(p):
        arrived.append((
            p.uid, p.src, p.dst, p.lane, p.deliver_cycle, p.retries,
            p.enqueue_cycle, p.scheduled_cycle, p.first_tx_cycle, p.final_tx_cycle,
        ))

    for node in range(net.num_nodes):
        net.set_delivery_callback(node, arrive)
    packets, uid = {}, 0
    for cycle in sorted(schedule):
        for src, dst, is_data in schedule[cycle]:
            lane = LaneKind.DATA if is_data else LaneKind.META
            packet = Packet(
                src=src, dst=dst, lane=lane, uid=uid,
                expects_data_reply=lane is LaneKind.META and uid % 2 == 0,
            )
            if hook_every and uid % hook_every == 0:
                packet.on_confirmed = lambda uid=uid: confirmed.append((uid, clock[0]))
            packets.setdefault(cycle, []).append(packet)
            uid += 1
    stops = sorted(packets, reverse=True)
    last = stops[0] if stops else 0
    cycle = 0
    while True:
        assert cycle < last + DRAIN_CAP, "network did not drain"
        for packet in packets.get(cycle, ()):
            if net.try_send(packet, cycle):
                accepted.append(packet.uid)
        clock[0] = cycle
        net.tick(cycle)
        if not jump:
            net.audit()
            assert net.quiescent() == (not holds_packets(net)), cycle
        if cycle >= last and net.quiescent():
            break
        following = cycle + 1
        if jump:
            while stops and stops[-1] < following:
                stops.pop()
            horizon = net.next_event(following)
            target = min(c for c in (horizon, stops[-1] if stops else None) if c is not None)
            if target > following:
                net.skip(following, target)
            following = target
        cycle = following
    faults = net.fault_summary() if isinstance(net, FsoiNetwork) else {}
    components = {
        name: (stat.count, stat.total) for name, stat in (
            ("queuing", net.stats.queuing), ("scheduling", net.stats.scheduling),
            ("resolution", net.stats.resolution), ("network", net.stats.network),
            ("total", net.stats.total),
        )
    }
    return (accepted, arrived, confirmed, net.stats.group.as_dict(), components,
            net.traffic_matrix(), faults, cycle)


def recount_components(arrived):
    """``(count, total)`` of each latency component, from the stamps."""
    samples = {name: [] for name in ("queuing", "scheduling", "resolution", "network", "total")}
    for _uid, _src, _dst, _lane, deliver, _retries, enqueue, scheduled, first, final in arrived:
        samples["queuing"].append(first - scheduled)
        samples["scheduling"].append(scheduled - enqueue)
        samples["resolution"].append(final - first)
        samples["network"].append(deliver - final)
        samples["total"].append(deliver - enqueue)
    return {name: (len(values), float(sum(values))) for name, values in samples.items()}


def check_confirmations(config, arrived, confirmed, hook_every, drained):
    """FSOI: each hooked delivery's confirmation, and the drain cycle,
    against the arrival a delivery implies (reception + delay)."""
    delay = config.lanes.confirmation_delay
    arrival = {uid: deliver - RX_OVERHEAD + delay for uid, _s, _d, _l, deliver, *_ in arrived}
    fired = [uid for uid, _cycle in confirmed]
    assert len(fired) == len(set(fired)), "a hook fired twice"
    assert set(fired) <= set(arrival), "a hook fired for a packet never delivered"
    hooked = {uid for uid in arrival if hook_every and uid % hook_every == 0}
    if config.faults is None:
        assert sorted(confirmed) == sorted((uid, arrival[uid]) for uid in hooked)
        assert drained == max(arrival.values(), default=drained)
    else:
        assert all(cycle >= arrival[uid] for uid, cycle in confirmed)
        assert drained >= max(arrival.values(), default=drained)


@pytest.mark.parametrize("shape", ("uniform", "hotspot", "incast", "burst"))
@pytest.mark.parametrize("nodes", (16, 64))
@pytest.mark.parametrize("kind", NETWORK_KINDS)
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 1000), load=st.floats(0.0, 1.0), data=st.data())
def test_contract(kind, nodes, shape, seed, load, data):
    schedule = offers(shape, nodes, seed, load)
    config = transport_config(kind, nodes, seed, data)
    hook_every = data.draw(st.integers(0, 3), "hook_every") if kind == "fsoi" else 0
    ticked, jumped = (
        drive(NETWORK_OF[type(config)](config), schedule, jump, hook_every)
        for jump in (False, True)
    )
    assert jumped == ticked
    accepted, arrived, confirmed, stats, components, traffic, faults, drained = ticked
    offered = sum(len(batch) for batch in schedule.values())
    assert stats["packets_sent"] + stats["send_refused"] == offered
    assert stats["packets_sent"] == len(accepted)
    assert stats["packets_sent"] == stats["packets_delivered"] + faults.get("gave_up_lost", 0)
    uids = [uid for uid, *_ in arrived]
    assert len(uids) == len(set(uids)) == stats["packets_delivered"]
    assert set(uids) <= set(accepted)
    assert components == recount_components(arrived)
    matrix = [[0] * nodes for _ in range(nodes)]
    for _uid, src, dst, *_ in arrived:
        matrix[src][dst] += 1
    assert traffic == matrix
    if kind == "fsoi":
        check_confirmations(config, arrived, confirmed, hook_every, drained)
    if kind in KEEPS_ORDER:
        latest = {}
        for uid, src, dst, lane, *_ in arrived:
            assert uid > latest.get((src, dst, lane), -1), (src, dst, lane)
            latest[src, dst, lane] = uid
