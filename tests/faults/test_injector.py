"""FaultInjector unit behaviour: windows, detection, sparing, physics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    ConfirmationDrop,
    ErrorBurst,
    FaultInjector,
    FaultPlan,
    LaneFault,
    ReceiverFault,
    ThermalDroop,
)
from repro.net.packet import LaneKind
from repro.util.rng import RngHub

RECEIVERS = {LaneKind.META: 2, LaneKind.DATA: 2}


def make(plan: FaultPlan, num_nodes: int = 16) -> FaultInjector:
    return FaultInjector(plan, num_nodes, RECEIVERS, RngHub(0).child("faults"))


class TestConstruction:
    def test_empty_plan_refused(self):
        with pytest.raises(ValueError, match="empty plan"):
            make(FaultPlan())

    def test_plan_validated_against_topology(self):
        plan = FaultPlan(lane_faults=(LaneFault(20, "meta"),))
        with pytest.raises(ValueError, match="node 20"):
            make(plan, num_nodes=16)


class TestActivityWindows:
    def test_window_half_open(self):
        inj = make(FaultPlan(lane_faults=(LaneFault(3, "data", 100, 200),)))
        assert not inj.tx_lane_dead(3, LaneKind.DATA, 99)
        assert inj.tx_lane_dead(3, LaneKind.DATA, 100)
        assert inj.tx_lane_dead(3, LaneKind.DATA, 199)
        assert not inj.tx_lane_dead(3, LaneKind.DATA, 200)

    def test_permanent_fault_never_ends(self):
        inj = make(FaultPlan(lane_faults=(LaneFault(3, "data"),)))
        assert inj.tx_lane_dead(3, LaneKind.DATA, 10**9)

    def test_other_node_and_lane_unaffected(self):
        inj = make(FaultPlan(lane_faults=(LaneFault(3, "data"),)))
        assert not inj.tx_lane_dead(3, LaneKind.META, 0)
        assert not inj.tx_lane_dead(4, LaneKind.DATA, 0)


class TestLaneDownDetection:
    def test_threshold_crossing_reported_once(self):
        inj = make(FaultPlan(lane_faults=(LaneFault(1, "meta"),),
                             detect_threshold=3))
        assert not inj.note_dark_send(1, LaneKind.META, 0, 2)
        assert not inj.note_dark_send(1, LaneKind.META, 2, 2)
        assert inj.note_dark_send(1, LaneKind.META, 4, 2)   # third strike
        assert not inj.note_dark_send(1, LaneKind.META, 6, 2)  # only once
        assert inj.lane_suppressed(1, LaneKind.META, 8)

    def test_successful_send_breaks_streak(self):
        inj = make(FaultPlan(lane_faults=(LaneFault(1, "meta"),),
                             detect_threshold=2))
        inj.note_dark_send(1, LaneKind.META, 0, 2)
        inj.note_successful_send(1, LaneKind.META)
        assert not inj.note_dark_send(1, LaneKind.META, 2, 2)  # streak restarted
        assert inj.note_dark_send(1, LaneKind.META, 4, 2)

    def test_suppression_clears_when_schedule_heals(self):
        inj = make(FaultPlan(lane_faults=(LaneFault(1, "meta", 0, 100),),
                             detect_threshold=1))
        assert inj.note_dark_send(1, LaneKind.META, 0, 2)
        assert inj.lane_suppressed(1, LaneKind.META, 50)
        # Past the window the lane works again: the probe clears state.
        assert not inj.lane_suppressed(1, LaneKind.META, 100)
        assert not inj.lane_suppressed(1, LaneKind.META, 50)  # stays clear

    @settings(deadline=None)
    @given(
        windows=st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 40), st.booleans()),
            min_size=1, max_size=4,
        ),
        slot_len=st.sampled_from((2, 5)),
        threshold=st.integers(1, 3),
        sends=st.lists(st.booleans(), min_size=1, max_size=80),
    )
    def test_probe_on_demand_matches_every_boundary(
        self, windows, slot_len, threshold, sends
    ):
        """Asked only at the boundaries where the node sends, the
        injector answers as a sender that probes its marked lane at
        every boundary — across heals and re-kills in between."""
        faults = tuple(
            LaneFault(1, "data", start, None if forever else start + length)
            for start, length, forever in windows
        )
        inj = make(FaultPlan(lane_faults=faults, detect_threshold=threshold))

        def dead(cycle):
            return any(
                f.start <= cycle and (f.end is None or cycle < f.end)
                for f in faults
            )

        marked, streak = False, 0
        for step, sending in enumerate(sends):
            boundary = step * slot_len
            if marked and not dead(boundary):  # the every-boundary probe
                marked, streak = False, 0
            if not sending:
                continue
            if marked:
                expected = "spared"
            elif dead(boundary):
                streak += 1
                marked = streak >= threshold
                expected = "marked" if marked else "dark"
            else:
                streak = 0
                expected = "lit"
            if inj.lane_suppressed(1, LaneKind.DATA, boundary):
                got = "spared"
            elif inj.tx_lane_dead(1, LaneKind.DATA, boundary):
                newly = inj.note_dark_send(1, LaneKind.DATA, boundary, slot_len)
                got = "marked" if newly else "dark"
            else:
                inj.note_successful_send(1, LaneKind.DATA)
                got = "lit"
            assert got == expected, (step, boundary)


class TestReceiverHealth:
    def test_none_when_no_faults_apply(self):
        inj = make(FaultPlan(receiver_faults=(ReceiverFault(4, "data", 0,
                                                            100, 200),)))
        assert inj.receiver_health(4, LaneKind.DATA, 50) is None
        assert inj.receiver_health(5, LaneKind.DATA, 150) is None
        assert inj.receiver_health(4, LaneKind.META, 150) is None

    def test_health_vector_marks_dead_receiver(self):
        inj = make(FaultPlan(receiver_faults=(ReceiverFault(4, "data", 0),)))
        assert inj.receiver_health(4, LaneKind.DATA, 0) == (False, True)

    def test_all_dead(self):
        inj = make(FaultPlan(receiver_faults=(
            ReceiverFault(4, "data", 0), ReceiverFault(4, "data", 1))))
        assert inj.receiver_health(4, LaneKind.DATA, 0) == (False, False)


class TestDroopPhysics:
    def test_droop_ber_monotone_in_droop(self):
        inj = make(FaultPlan(droops=(ThermalDroop(1.0),)))
        bers = [inj.droop_ber(db) for db in (0.5, 1.5, 3.0, 5.0)]
        assert bers == sorted(bers)
        assert all(0.0 <= b < 0.5 for b in bers)

    def test_droop_ber_comes_from_link_chain(self):
        """The injector's number must equal a by-hand walk of the
        OpticalLink chain — proving it is physics, not a lookup table."""
        from repro.core.link import OpticalLink
        from repro.util.units import db_to_linear

        inj = make(FaultPlan(droops=(ThermalDroop(3.0),)))
        link = OpticalLink()
        scale = 1.0 / db_to_linear(3.0)
        p1, p0 = link.received_powers()
        expected = link.noise.ber(
            link.detector.photocurrent(p1 * scale),
            link.detector.photocurrent(p0 * scale),
        )
        assert inj.droop_ber(3.0) == pytest.approx(expected, rel=1e-12)

    def test_corruption_probability_scales_with_bits(self):
        inj = make(FaultPlan(droops=(ThermalDroop(3.0),)))
        short = inj.corruption_probability(0, LaneKind.META, 0, 64)
        long = inj.corruption_probability(0, LaneKind.DATA, 0, 512)
        assert 0.0 < short < long < 1.0

    def test_windows_and_scopes_respected(self):
        inj = make(FaultPlan(
            droops=(ThermalDroop(3.0, node=2, start=100, end=200),),
            bursts=(ErrorBurst(0.25, lane="meta", start=100, end=200),),
        ))
        # Outside the window: nothing.
        assert inj.corruption_probability(2, LaneKind.META, 99, 64) == 0.0
        # Wrong node for the droop, but the burst is node-global.
        p_meta = inj.corruption_probability(3, LaneKind.META, 150, 64)
        assert p_meta == pytest.approx(0.25)
        # The burst is meta-only; node 3's data lane sees nothing.
        assert inj.corruption_probability(3, LaneKind.DATA, 150, 512) == 0.0
        # Droop and burst compose as independent survival probabilities.
        combined = inj.corruption_probability(2, LaneKind.META, 150, 64)
        ber = inj.droop_ber(3.0)
        expected = 1.0 - (1.0 - 0.25) * (1.0 - ber) ** 64
        assert combined == pytest.approx(expected, rel=1e-12)


class TestRandomDraws:
    def test_zero_probability_consumes_no_randomness(self):
        """The short-circuit is the passivity guarantee for windows in
        which no fault is active: the stream must not advance."""
        inj = make(FaultPlan(bursts=(ErrorBurst(0.5, start=100, end=200),),
                             confirmation_drops=(ConfirmationDrop(0.0),)))
        def cursor(stream):
            return (list(stream._buffer), stream._pos, stream._has32, stream._stash32)

        before_c = cursor(inj._corrupt_rng)
        before_f = cursor(inj._confirm_rng)
        assert not inj.draw_corruption(0.0)
        assert not inj.drop_confirmation(0, 50)   # outside window -> p=0
        assert not inj.drop_confirmation(0, 150)  # rate 0 -> p=0
        assert cursor(inj._corrupt_rng) == before_c
        assert cursor(inj._confirm_rng) == before_f

    def test_plan_seed_offsets_streams(self):
        plan_a = FaultPlan(confirmation_drops=(ConfirmationDrop(0.5),), seed=1)
        plan_b = FaultPlan(confirmation_drops=(ConfirmationDrop(0.5),), seed=2)
        draws_a = [make(plan_a).drop_confirmation(0, c) for c in range(64)]
        # Same seed, fresh injector: identical decisions.
        assert draws_a == [make(plan_a).drop_confirmation(0, c)
                           for c in range(64)]
        assert draws_a != [make(plan_b).drop_confirmation(0, c)
                           for c in range(64)]

    def test_certain_drop_always_drops(self):
        inj = make(FaultPlan(confirmation_drops=(ConfirmationDrop(1.0),)))
        assert all(inj.drop_confirmation(n, 0) for n in range(16))
