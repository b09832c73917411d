"""Property tests for the cores' RNG and scheduling primitives.

``tests/cmp/test_behaviour_pins.py`` checks the composed system; these
tests check each primitive against a scalar re-derivation, so a
regression points at the broken piece instead of a diverged end-to-end
run:

* :class:`ReplayRng` against a real ``numpy.random.Generator`` over
  interleaved float and bounded-integer draws of spans up to ``2**32``
  (including refills and PCG64's cross-call 32-bit stash), its refusal
  of the ranges it cannot replay, and :func:`word_threshold` — the
  raw-word compare the cores make instead of ``random() < fraction`` —
  against the float it replaces;
* :func:`hold_release_cycle` / :func:`spin_poll_cycle`, the two
  deadline rules of the due-core schedule, against tick-by-tick
  countdown / poll-gate simulations.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.core import hold_release_cycle, spin_poll_cycle
from repro.util.rng import ReplayRng, word_threshold

_DRAW = st.one_of(
    st.just(None),  # a float draw
    st.tuples(  # an integers(low, low + span) draw
        st.integers(min_value=-1000, max_value=1000),
        st.integers(min_value=1, max_value=2**32),
    ),
)


class TestReplayRng:
    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ops=st.lists(_DRAW, min_size=1, max_size=200),
    )
    def test_matches_generator_interleaved(self, seed, ops):
        replay = ReplayRng(seed)
        reference = np.random.Generator(np.random.PCG64(seed))
        for op in ops:
            if op is None:
                assert replay.random() == reference.random()
            else:
                low, span = op
                got = replay.integers(low, low + span)
                assert got == int(reference.integers(low, low + span))

    def test_survives_block_refills(self):
        # The buffer holds 1024 raw words; 6000 interleaved draws cross
        # several refill boundaries in both the float and the 32-bit
        # (stash-carrying) paths.
        replay = ReplayRng(12345)
        reference = np.random.Generator(np.random.PCG64(12345))
        for i in range(6000):
            if i % 3 == 0:
                assert replay.random() == reference.random()
            else:
                high = (i % 97) + 2
                assert replay.integers(0, high) == int(
                    reference.integers(0, high)
                )

    @settings(max_examples=300, deadline=None)
    @given(
        fraction=st.floats(min_value=0.0, max_value=1.0),
        word=st.integers(min_value=0, max_value=2**64 - 1),
        near=st.integers(min_value=-(2**12), max_value=2**12),
    )
    def test_word_threshold_decides_random_below(self, fraction, word, near):
        # Any word, and the words around the threshold itself.
        threshold = word_threshold(fraction)
        for w in (word, min(max(threshold + near, 0), 2**64 - 1)):
            assert ((w >> 11) * 2**-53 < fraction) == (w < threshold)

    def test_range_of_one_consumes_nothing(self):
        replay = ReplayRng(7)
        reference = np.random.Generator(np.random.PCG64(7))
        assert replay.integers(5, 6) == 5
        assert int(reference.integers(5, 6)) == 5
        # The streams stay aligned afterwards.
        for _ in range(32):
            assert replay.random() == reference.random()

    def test_full_32_bit_span_matches_generator(self):
        # high - low == 2**32: numpy's last 32-bit range, one raw half
        # per draw with nothing rejected.
        replay = ReplayRng(99)
        reference = np.random.Generator(np.random.PCG64(99))
        for low in (0, -(2**31), 5):
            for _ in range(64):
                got = replay.integers(low, low + 2**32)
                assert got == int(reference.integers(low, low + 2**32))

    @pytest.mark.parametrize("low, high", [(5, 5), (5, 4), (0, -1)])
    def test_refuses_an_empty_range(self, low, high):
        with pytest.raises(ValueError, match=f"integers\\({low}, {high}\\)"):
            ReplayRng(1).integers(low, high)

    @pytest.mark.parametrize("low", [0, -7])
    def test_refuses_a_range_wider_than_32_bits(self, low):
        # numpy switches to a 64-bit draw there, which is not replayed.
        high = low + 2**32 + 1
        with pytest.raises(ValueError, match=f"integers\\({low}, {high}\\)"):
            ReplayRng(1).integers(low, high)


class TestDeadlineRules:
    @settings(max_examples=100, deadline=None)
    @given(
        anchor=st.integers(min_value=0, max_value=10_000),
        hold=st.integers(min_value=0, max_value=500),
    )
    def test_hold_release_matches_naive_countdown(self, anchor, hold):
        # Naive: one decrement per tick starting at ``anchor``; the
        # release happens on the tick that exhausts the countdown, and a
        # degenerate hold still burns its one release tick.
        cycle, left = anchor, hold
        while True:
            left -= 1
            if left <= 0:
                break
            cycle += 1
        assert hold_release_cycle(anchor, hold) == cycle

    @settings(max_examples=100, deadline=None)
    @given(
        anchor=st.integers(min_value=0, max_value=10_000),
        next_spin=st.integers(min_value=0, max_value=12_000),
    )
    def test_spin_poll_matches_naive_gate(self, anchor, next_spin):
        # Naive: every tick checks ``cycle >= next_spin``; the first
        # poll lands on the first passing cycle at or after the anchor.
        cycle = anchor
        while cycle < next_spin:
            cycle += 1
        assert spin_poll_cycle(anchor, next_spin) == cycle
