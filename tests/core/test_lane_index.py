"""The FSOI scheduling primitives against brute-force re-derivations.

* :func:`repro.core.network.slot_horizon` — the fast-forward horizon —
  against a scalar re-derivation of its contract.
* The lane index of a real :class:`~repro.core.network.FsoiNetwork`:
  after every tick under random offers, each lane's pending set is the
  nodes whose queue or back-off heap holds a packet, and
  ``next_event`` equals a horizon re-derived from every node's two
  heads (pending or not) and the two calendars.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import NEVER, FsoiConfig, FsoiNetwork, slot_horizon
from repro.core.optimizations import OptimizationConfig
from repro.net.packet import LaneKind, Packet

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


def brute_force_horizon(net: FsoiNetwork, now: int) -> int | None:
    """The earliest cycle at or after ``now`` at which ``net`` can change
    state, from every calendar entry, every heard and unheard
    confirmation-lane arrival and the two heads of every node on both lanes."""
    candidates = [entry[0] for entry in net._calendar._heap]
    candidates += [entry[0] for entry in net._heard]
    candidates += net._unheard
    for lane in (LaneKind.META, LaneKind.DATA):
        slot_len = net.lanes.slot_cycles(lane)
        for state in net._state[lane]:
            heads = [state.retx[0][0]] if state.retx else []
            if state.queue:
                heads.append(state.queue[0].scheduled_cycle)
            for head in heads:
                eligible = max(head, now)
                candidates.append(-(-eligible // slot_len) * slot_len)
    return max(min(candidates), now) if candidates else None


#: One cycle's offers: (src, dst, data lane?, expects a data reply?).
#: Destinations crowd onto four nodes, so collisions and back-offs occur.
offers = st.lists(
    st.tuples(
        st.integers(0, 63), st.integers(0, 3), st.booleans(), st.booleans()
    ),
    max_size=6,
)


class TestLaneIndex:
    @settings(max_examples=40, deadline=None)
    @given(
        nodes=st.sampled_from((16, 64)),
        optimized=st.booleans(),
        seed=st.integers(0, 2**16),
        schedule=st.lists(offers, max_size=60),
    )
    def test_pending_and_horizon_match_brute_force(
        self, nodes, optimized, seed, schedule
    ):
        opts = (
            OptimizationConfig(request_spacing=True, resolution_hints=True)
            if optimized else OptimizationConfig()
        )
        net = FsoiNetwork(FsoiConfig(num_nodes=nodes, optimizations=opts, seed=seed))
        cycle = 0
        while cycle < len(schedule) or not net.quiescent():
            assert cycle < len(schedule) + 20_000, "network did not drain"
            for src, dst, is_data, expects in (
                schedule[cycle] if cycle < len(schedule) else ()
            ):
                src %= nodes
                if src != dst:
                    lane = LaneKind.DATA if is_data else LaneKind.META
                    net.try_send(
                        Packet(src=src, dst=dst, lane=lane,
                               expects_data_reply=expects),
                        cycle,
                    )
            net.tick(cycle)
            for lane, states in net._state.items():
                holding = {
                    node for node, state in enumerate(states)
                    if state.queue or state.retx
                }
                assert net._pending[lane] == holding, (lane, cycle)
            cycle += 1
            assert net.next_event(cycle) == brute_force_horizon(net, cycle), cycle
