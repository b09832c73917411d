"""The FSOI scheduling primitives against brute-force re-derivations.

* :func:`repro.core.network.slot_horizon` — the fast-forward horizon —
  against a scalar re-derivation of its contract.
* The lane index (``_LaneIndex``): after any sequence of readiness
  writes its cached minimum, its ``pending`` set and the sorted due
  gather a slot boundary makes from it equal a brute-force scan of
  ``ready``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.network import NEVER, _LaneIndex, slot_horizon

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
