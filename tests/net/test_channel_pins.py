"""Pinned behaviour of the paths the CMP-load pins barely reach.

``tests/cmp/test_behaviour_pins.py`` holds both networks to digests of
whole ``CmpSystem`` runs, but at CMP load a mesh output port
rarely has two ready requesters and a sender rarely has a lane marked
down.  These pins drive exactly those paths:

* a bare :class:`MeshNetwork` under seeded incast bursts (64 nodes) and
  uniform Bernoulli offers at p = 0.1 (256 nodes) — round-robin
  arbitration between contending inputs, VC exhaustion, credit stalls —
  pinning the ``(uid, dst, deliver_cycle)`` sequence, the stat tree and
  the switching activity, with ``audit()`` every 50 cycles — and the
  same under half-width links, one VC and 2-flit buffers, plus the
  ``vc_alloc`` / ``eject`` trace stream (:class:`TestMeshVariants`);
* the ``fault_*`` trace events of the CI faults-smoke plan (a data-lane
  kill that heals mid-run, a thermal droop, dropped confirmations,
  give-up), i.e. which node was suppressed, marked down and un-marked
  at which slot boundary;
* a bare :class:`FsoiNetwork` on the retransmission paths neither the
  CMP-load pins nor perfbench's channel legs (no §5 optimisation on)
  reach in bulk: the §4.3.2 63-to-1 burst on a 64-node phase array,
  resolution hints (binary and one-hot PID) with request spacing and
  data replies so ``_issue_hint`` takes its correct / wrong-winner /
  ignored branches, the pure-ALOHA ablation, and signaling errors —
  pinning the ``(uid, dst, deliver_cycle, retries)`` sequence, the stat
  tree and the drain cycle, with ``audit()`` at every slot boundary.

The digests live beside the CMP-load pins in
``tests/data/network_engine_pins.json`` under their own keys.  The mesh
and fault-gather pins were recorded before the flat-index router and
the due-or-marked-down fault gather landed, and the bare-FSOI pins at
370818b, before the pending set, the back-off heaps and the
one-entry-per-collision calendar.
"""

import hashlib

import numpy as np
import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.faults import ConfirmationDrop, FaultPlan, LaneFault, ThermalDroop
from repro.mesh.network import MeshConfig, MeshNetwork
from repro.net.packet import LaneKind, Packet
from repro.obs import tracing
from repro.sweep import canonical_json

DRAIN_CAP = 20_000


def _sha(value) -> str:
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def uniform_offers(rng, nodes, cycles, p):
    """Bernoulli(p) offers per node per cycle to a uniform random peer:
    ``[(cycle, src, dst, is_data), ...]`` in cycle order."""
    cycle, src = np.nonzero(rng.random((cycles, nodes)) < p)
    dst = rng.integers(0, nodes - 1, len(src))
    dst += dst >= src
    is_data = rng.random(len(src)) < 0.5
    return list(zip(cycle.tolist(), src.tolist(), dst.tolist(), is_data.tolist()))


def incast_offers(rng, nodes, cycles, period, fan):
    """Every ``period`` cycles ``fan`` distinct senders target one
    receiver, over a 2 % uniform background."""
    offers = uniform_offers(rng, nodes, cycles, 0.02)
    for cycle in range(period, cycles, period):
        receiver = int(rng.integers(nodes))
        senders = rng.choice(nodes - 1, size=fan, replace=False)
        senders += senders >= receiver
        is_data = rng.random(fan) < 0.5
        offers += [
            (cycle, int(src), receiver, bool(data))
            for src, data in zip(senders, is_data)
        ]
    offers.sort(key=lambda offer: offer[0])  # stable: background first
    return offers


def drive_mesh(config, cycles, offers):
    """Offer the schedule to a bare mesh, drain it, return its digests."""
    net = MeshNetwork(config)
    delivered = []
    for node in range(config.num_nodes):
        net.set_delivery_callback(
            node, lambda p: delivered.append((p.uid, p.dst, p.deliver_cycle))
        )
    by_cycle = {}
    for uid, (cycle, src, dst, is_data) in enumerate(offers):
        lane = LaneKind.DATA if is_data else LaneKind.META
        by_cycle.setdefault(cycle, []).append(
            Packet(src=src, dst=dst, lane=lane, uid=uid)
        )
    cycle = 0
    while cycle < cycles or not net.quiescent():
        assert cycle < cycles + DRAIN_CAP, "mesh did not drain"
        for packet in by_cycle.get(cycle, ()):
            net.try_send(packet, cycle)
        net.tick(cycle)
        if cycle % 50 == 0:
            net.audit()
        cycle += 1
    net.audit()
    stats = net.stats.group.as_dict()
    assert len(delivered) == stats["packets_delivered"] == stats["packets_sent"]
    assert stats["packets_sent"] + stats["send_refused"] == len(offers)
    return {
        "deliveries": _sha(delivered),
        "stats": _sha(stats),
        "activity": _sha(net.activity()),
    }, stats


def drive_fsoi(config, cycles, offers, requests=False):
    """Offer the schedule to a bare FSOI network, drain it, return its
    digests.  With ``requests`` every meta packet expects a data reply,
    which its destination sends (retrying while its queue is full)."""
    net = FsoiNetwork(config)
    delivered, replies = [], []
    uids = iter(range(len(offers), 1 << 30))

    def sink(packet):
        delivered.append(
            (packet.uid, packet.dst, packet.deliver_cycle, packet.retries)
        )
        if packet.expects_data_reply:
            replies.append(Packet(
                src=packet.dst, dst=packet.src, lane=LaneKind.DATA,
                is_reply_to_request=True, uid=next(uids),
            ))

    for node in range(config.num_nodes):
        net.set_delivery_callback(node, sink)
    by_cycle = {}
    for uid, (cycle, src, dst, is_data) in enumerate(offers):
        by_cycle.setdefault(cycle, []).append(Packet(
            src=src, dst=dst, lane=LaneKind.DATA if is_data else LaneKind.META,
            expects_data_reply=requests and not is_data, uid=uid,
        ))
    boundaries = {net.lanes.slot_cycles(lane) for lane in LaneKind}
    cycle = 0
    while cycle < cycles or replies or not net.quiescent():
        assert cycle < cycles + DRAIN_CAP, "FSOI network did not drain"
        replies[:] = [p for p in replies if not net.try_send(p, cycle)]
        for packet in by_cycle.get(cycle, ()):
            net.try_send(packet, cycle)
        net.tick(cycle)
        if any(cycle % slot_len == 0 for slot_len in boundaries):
            net.audit()
        cycle += 1
    net.audit()
    stats = net.stats.group.as_dict()
    assert len(delivered) == stats["packets_delivered"] == stats["packets_sent"]
    return {
        "deliveries": _sha(delivered),
        "stats": _sha(stats),
        "drain_cycle": cycle,
    }, net


class TestBareFsoi:
    def test_all_to_one_burst_64(self, pinned):
        rng = np.random.default_rng(2301)
        offers = incast_offers(rng, 64, 2400, period=400, fan=63)
        digests, net = drive_fsoi(
            FsoiConfig(num_nodes=64, phase_array=True, seed=2301), 2400, offers
        )
        stats = net.stats.group.as_dict()
        assert stats["packets_sent"] + stats["send_refused"] == len(offers)
        # The §4.3.2 burst: every packet of it collides, most repeatedly.
        assert stats["meta"]["collided_transmissions"] > 5 * 63
        assert net.phase_array_summary()["retargets"] > 0
        pinned("bare-fsoi-64-incast400x63", digests)

    @pytest.mark.parametrize("one_hot", (False, True))
    def test_hints_and_spacing_16(self, pinned, one_hot):
        rng = np.random.default_rng(2302)
        offers = incast_offers(rng, 16, 4000, period=100, fan=12)
        digests, net = drive_fsoi(
            FsoiConfig(
                num_nodes=16, one_hot_pid=one_hot, seed=2302,
                optimizations=OptimizationConfig(
                    resolution_hints=True, request_spacing=True
                ),
            ),
            4000, offers, requests=True,
        )
        hints = net.hint_summary()
        if one_hot:  # footnote 7: the bit vector names the colliders exactly
            assert hints["correct"] == hints["issued"] > 0
        else:
            assert hints["correct"] and hints["wrong_winner"] and hints["ignored"]
        assert net.stats.group.as_dict()["spacing_delay_inserted"]["max"] > 0
        pinned(f"bare-fsoi-16-hints-spacing{'-one-hot' if one_hot else ''}", digests)

    def test_unslotted_16(self, pinned):
        rng = np.random.default_rng(2303)
        offers = incast_offers(rng, 16, 3000, period=100, fan=8)
        digests, net = drive_fsoi(
            FsoiConfig(num_nodes=16, slotted=False, seed=2303), 3000, offers
        )
        assert net.collision_rate(LaneKind.DATA) > 0
        pinned("bare-fsoi-16-unslotted", digests)

    @pytest.mark.parametrize("slotted", [True, False], ids=["slotted", "unslotted"])
    def test_one_confirmation_per_delivery(self, slotted):
        # The unslotted pin's schedule: an overlap corrupts packets whose
        # confirmations are already filed; those are never sent, nor
        # traced as scheduled.
        rng = np.random.default_rng(2303)
        offers = incast_offers(rng, 16, 3000, period=100, fan=8)
        with tracing(capacity=1 << 20, categories=("fsoi", "confirmation")) as tracer:
            _, net = drive_fsoi(
                FsoiConfig(num_nodes=16, slotted=slotted, seed=2303), 3000, offers
            )
        delivered = net.stats.group.as_dict()["packets_delivered"]
        assert net.confirmations_sent == delivered > 0
        for name in ("confirm_scheduled", "confirmation", "deliver"):
            assert sum(1 for _ in tracer.events(name=name)) == delivered, name

    def test_packet_errors_16(self, pinned):
        rng = np.random.default_rng(2304)
        offers = incast_offers(rng, 16, 3000, period=100, fan=8)
        digests, net = drive_fsoi(
            FsoiConfig(num_nodes=16, packet_error_rate=0.05, seed=2304),
            3000, offers,
        )
        assert net.stats.group.as_dict()["meta"]["error_corrupted"] > 0
        pinned("bare-fsoi-16-error-rate-5pct", digests)


class TestContendedMesh:
    def test_incast_64(self, pinned):
        rng = np.random.default_rng(1501)
        offers = incast_offers(rng, 64, 2400, period=200, fan=16)
        digests, stats = drive_mesh(MeshConfig(num_nodes=64), 2400, offers)
        # 16-to-1 bursts queue behind one ejection port: far above the
        # uncontended ~25-cycle transit.
        assert stats["total_delay"]["max"] > 60
        pinned("bare-mesh-64-incast200x16", digests)

    def test_uniform_256(self, pinned):
        rng = np.random.default_rng(1502)
        offers = uniform_offers(rng, 256, 300, 0.10)
        digests, stats = drive_mesh(MeshConfig(num_nodes=256), 300, offers)
        assert stats["packets_delivered"] > 5000
        pinned("bare-mesh-256-uniform-p10", digests)


class TestMeshVariants:
    """Router layouts the Table 3 defaults never reach: half-width links
    (2-flit meta and 10-flit data packets), one VC per port, and 2-flit
    buffers that stall hops and injection on credits; plus the ``vc_alloc`` /
    ``eject`` trace stream of an incast leg.  Recorded at e044c15, the
    commit before VC buffers held ready cycles instead of flit objects.
    """

    @pytest.mark.parametrize("key, config", [
        ("bare-mesh-16-incast100x8-halfwidth",
         MeshConfig(num_nodes=16, bandwidth_scale=0.5)),
        ("bare-mesh-16-incast100x8-one-vc", MeshConfig(num_nodes=16, num_vcs=1)),
        ("bare-mesh-64-incast100x8-buffer2", MeshConfig(num_nodes=64, buffer_flits=2)),
    ])
    def test_incast(self, pinned, key, config):
        rng = np.random.default_rng(2801)
        offers = incast_offers(rng, config.num_nodes, 1500, period=100, fan=8)
        digests, stats = drive_mesh(config, 1500, offers)
        assert stats["total_delay"]["max"] > 60
        pinned(key, digests)

    def test_incast_trace(self, pinned):
        rng = np.random.default_rng(2802)
        offers = incast_offers(rng, 16, 1500, period=100, fan=8)
        with tracing(capacity=1 << 20, categories=("mesh",)) as tracer:
            digests, stats = drive_mesh(MeshConfig(num_nodes=16), 1500, offers)
            assert tracer.dropped == 0
            events = [event.to_chrome() for event in tracer.events()]
        ejected = [event for event in events if event["name"] == "eject"]
        assert len(ejected) == stats["packets_delivered"]
        assert len(events) > 3 * len(ejected)  # one vc_alloc per router visited
        pinned("bare-mesh-16-incast100x8-traced", {**digests, "trace": _sha(events)})


#: The plan of the CI ``faults-smoke`` job (``repro faults --kill
#: 3:data:0:1200 --droop 3.0:500:2500 --drop-confirmations 0.05
#: --giveup 12``): the killed lane heals at cycle 1200 of 4000.
SMOKE_PLAN = FaultPlan(
    label="cli",
    lane_faults=(LaneFault(node=3, lane="data", start=0, end=1200),),
    droops=(ThermalDroop(droop_db=3.0, start=500, end=2500),),
    confirmation_drops=(ConfirmationDrop(rate=0.05),),
    giveup_retries=12,
    seed=0,
)


class TestFaultGather:
    @pytest.mark.parametrize("fast_forward", (True, False))
    def test_fault_events_of_smoke_plan(self, pinned, fast_forward):
        system = CmpSystem(CmpConfig(
            app="oc", network="fsoi", num_nodes=16, faults=SMOKE_PLAN,
            fast_forward=fast_forward,
        ))
        with tracing(capacity=1 << 20, categories=("fault",)) as tracer:
            system.run(4000)
            assert tracer.dropped == 0
            events = [
                event.to_chrome() for event in tracer.events()
                if event.name.startswith("fault_")
            ]
        names = {event["name"] for event in events}
        assert {"fault_lane_down", "fault_suppressed"} <= names
        # The lane healed: node 3 transmitted data again afterwards, so
        # its sender no longer spares any lane.
        injector = system.network.fault_injector
        assert not injector._spared
        system.network.audit()
        pinned("oc-fsoi-16-smoke-plan-fault-events", {"trace": _sha(events)})
