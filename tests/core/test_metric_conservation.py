"""Conservation laws over the FSOI network's counters.

Every transmission has exactly one fate — delivered, collided, or
corrupted by a signaling error (under a fault plan also fault-lost,
injected-corrupt or a duplicate reception) — and every §5.2 resolution
hint has exactly one outcome.  Random traffic of any shape must
therefore satisfy, once the network drains:

* per lane, transmissions == fates: ``FsoiNetwork.audit()`` checks it
  (equality once quiescent);
* ``hints_issued == hints_correct + hints_wrong_winner +
  hints_ignored``

A counter added to one branch but not its siblings (or an event
double-counted) breaks the ledger immediately, so these tests guard
every future change to the collision/back-off/hint paths at once.
"""

import random

import pytest

from repro.core.network import FsoiConfig, FsoiNetwork
from repro.core.optimizations import OptimizationConfig
from repro.net.packet import LaneKind, Packet

NUM_NODES = 16
MAX_CYCLES = 60_000


def drive(net: FsoiNetwork, seed: int, packets: int = 300,
          inject_window: int = 400, reply_fraction: float = 0.4) -> None:
    """Inject seeded random traffic, then tick until the network drains."""
    rng = random.Random(seed)
    schedule: dict[int, list[Packet]] = {}
    for _ in range(packets):
        src = rng.randrange(NUM_NODES)
        dst = rng.randrange(NUM_NODES - 1)
        if dst >= src:
            dst += 1
        lane = LaneKind.META if rng.random() < 0.5 else LaneKind.DATA
        packet = Packet(
            src=src, dst=dst, lane=lane,
            expects_data_reply=(
                lane is LaneKind.META and rng.random() < reply_fraction
            ),
        )
        schedule.setdefault(rng.randrange(inject_window), []).append(packet)

    for cycle in range(MAX_CYCLES):
        for packet in schedule.pop(cycle, ()):
            net.try_send(packet, cycle)
        net.tick(cycle)
        if not schedule and net.quiescent():
            return
    raise AssertionError(f"network failed to drain in {MAX_CYCLES} cycles")


def lane_counters(net: FsoiNetwork, lane: LaneKind) -> dict[str, int]:
    return {key: c.value for key, c in net._lane_stats[lane].items()}


def assert_hint_ledger(net: FsoiNetwork) -> None:
    h = {key: c.value for key, c in net._hint_stats.items()}
    assert h["issued"] == h["correct"] + h["wrong_winner"] + h["ignored"], (
        f"hint ledger broken: {h}"
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_transmissions_conserved_baseline(seed):
    net = FsoiNetwork(FsoiConfig(num_nodes=NUM_NODES, seed=seed))
    drive(net, seed, packets=400, inject_window=150)
    net.audit()
    # The traffic must actually have exercised the collision machinery.
    collided = sum(
        lane_counters(net, lane)["collided_tx"]
        for lane in (LaneKind.META, LaneKind.DATA)
    )
    assert collided > 0


@pytest.mark.parametrize("seed", [0, 1])
def test_transmissions_conserved_with_signaling_errors(seed):
    net = FsoiNetwork(FsoiConfig(
        num_nodes=NUM_NODES, packet_error_rate=0.05, seed=seed
    ))
    drive(net, seed)
    net.audit()
    total_errors = sum(
        lane_counters(net, lane)["error_tx"]
        for lane in (LaneKind.META, LaneKind.DATA)
    )
    assert total_errors > 0  # the error branch fired


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hints_conserved_with_all_optimizations(seed):
    net = FsoiNetwork(FsoiConfig(
        num_nodes=NUM_NODES,
        optimizations=OptimizationConfig.all(),
        seed=seed,
    ))
    drive(net, seed, packets=500, inject_window=300, reply_fraction=0.8)
    net.audit()
    assert_hint_ledger(net)
    assert net._hint_stats["issued"].value > 0  # hints actually issued


def test_hints_conserved_with_one_hot_pid():
    """Footnote 7: one-hot PIDs make every issued hint correct."""
    net = FsoiNetwork(FsoiConfig(
        num_nodes=NUM_NODES,
        optimizations=OptimizationConfig.all(),
        one_hot_pid=True,
        seed=3,
    ))
    drive(net, 3, packets=500, inject_window=300, reply_fraction=0.8)
    assert_hint_ledger(net)
    h = {key: c.value for key, c in net._hint_stats.items()}
    assert h["issued"] > 0
    assert h["wrong_winner"] == 0


@pytest.mark.parametrize("seed", [0, 1])
def test_transmissions_conserved_unslotted(seed):
    """The pure-ALOHA ablation keeps the same ledger."""
    net = FsoiNetwork(FsoiConfig(
        num_nodes=NUM_NODES, slotted=False, seed=seed
    ))
    drive(net, seed)
    net.audit()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_no_silent_loss_under_faults(seed):
    """Graceful degradation's conservation law: kill one VCSEL lane and
    drop 5% of confirmations, and every packet handed to the network is
    still either delivered or *explicitly* given up — nothing vanishes
    into the fault paths silently.
    """
    from repro.faults import ConfirmationDrop, FaultPlan, LaneFault

    plan = FaultPlan(
        label="conservation",
        lane_faults=(LaneFault(3, "data"),),       # permanent VCSEL death
        confirmation_drops=(ConfirmationDrop(0.05),),
        giveup_retries=12,
        seed=seed,
    )
    net = FsoiNetwork(FsoiConfig(num_nodes=NUM_NODES, faults=plan, seed=seed))
    drive(net, seed, packets=400, inject_window=300)
    net.audit()

    summary = net.fault_summary()
    sent = int(net.stats.sent)
    delivered = int(net.stats.delivered)
    gave_up = summary["gave_up_lost"] + summary["gave_up_delivered"]
    assert sent == delivered + summary["gave_up_lost"], (
        f"silent loss: sent {sent}, delivered {delivered}, "
        f"gave up {gave_up}, summary {summary}"
    )
    # The plan must actually have bitten: node 3's dead data lane forces
    # give-ups, and the confirmation channel lost pulses.
    assert summary["gave_up_lost"] > 0
    assert summary["confirm_dropped"] > 0
    assert summary["lane_down_events"] == 1
