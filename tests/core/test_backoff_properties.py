"""Property-based invariants of the §4.3.2 back-off policy.

The paper's schedule: retry ``r`` draws from a window of
``W * B^(r-1)`` slots (clamped at ``max_window``).  Whatever W/B/r a
caller picks, the window must follow that law, never shrink below one
slot, and every delay the FSOI network draws must land inside it, at
the release an independent re-derivation computes.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.backoff import BackoffPolicy
from repro.core.network import FsoiConfig, FsoiNetwork
from repro.net.packet import LaneKind, Packet
from repro.obs import tracing
from repro.util.rng import derive_seed
from tests.core.backoff_draws import network_draws, oracle_release

windows = st.floats(min_value=1.0, max_value=64.0, allow_nan=False,
                    allow_infinity=False)
bases = st.floats(min_value=1.0, max_value=3.0, allow_nan=False,
                  allow_infinity=False)
retries = st.integers(min_value=1, max_value=40)


@given(start=windows, base=bases, retry=retries)
@settings(max_examples=100, deadline=None)
def test_window_follows_exponential_law(start, base, retry):
    policy = BackoffPolicy(start_window=start, base=base)
    expected = min(start * base ** (retry - 1), policy.max_window)
    assert math.isclose(policy.window(retry), expected, rel_tol=1e-12)


@given(start=windows, base=bases, retry=retries)
@settings(max_examples=100, deadline=None)
def test_window_never_below_one_slot(start, base, retry):
    assert BackoffPolicy(start_window=start, base=base).window(retry) >= 1.0


@given(start=windows, base=bases, retry=st.integers(min_value=1, max_value=39))
@settings(max_examples=100, deadline=None)
def test_windows_never_shrink_with_retry_count(start, base, retry):
    policy = BackoffPolicy(start_window=start, base=base)
    assert policy.window(retry + 1) >= policy.window(retry)


@given(start=windows, base=bases, retry=retries,
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_drawn_delay_lands_inside_the_window(start, base, retry, seed):
    policy = BackoffPolicy(start_window=start, base=base)
    (delay,) = network_draws(policy, retry, 1, seed)
    assert isinstance(delay, int)
    assert 1 <= delay <= math.ceil(policy.window(retry))


@given(start=windows, base=bases, retry=retries)
@settings(max_examples=50, deadline=None)
def test_expected_delay_is_mean_of_uniform_draw(start, base, retry):
    policy = BackoffPolicy(start_window=start, base=base)
    span = max(1, math.ceil(policy.window(retry)))
    assert policy.expected_delay_slots(retry) == (1 + span) / 2.0


@given(start=windows, retry=retries)
@settings(max_examples=50, deadline=None)
def test_degenerate_base_gives_fixed_window(start, retry):
    policy = BackoffPolicy(start_window=start, base=1.0)
    assert policy.window(retry) == policy.window(1)


@given(start=windows, base=bases, retry=retries)
@settings(max_examples=100, deadline=None)
def test_span_is_ceiling_of_window(start, base, retry):
    policy = BackoffPolicy(start_window=start, base=base)
    assert policy.span(retry) == max(1, math.ceil(policy.window(retry)))
    assert isinstance(policy.span(retry), int)
    assert policy.span(retry) >= 1


@given(start=windows, base=bases, retry=retries,
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_drawn_delay_lands_inside_the_span(start, base, retry, seed):
    policy = BackoffPolicy(start_window=start, base=base)
    (delay,) = network_draws(policy, retry, 1, seed)
    assert 1 <= delay <= policy.span(retry)


@given(start=windows, base=bases, retry=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=2**16 - 1))
@settings(max_examples=25, deadline=None)
def test_empirical_mean_converges_to_expected_delay(start, base, retry, seed):
    """Under a fixed seed, the mean of many network draws must converge to
    ``expected_delay_slots`` — the quantity the Figure 4 analytical
    model and the give-up accounting both lean on.

    A uniform draw over {1..span} has variance < span^2/12, so with
    20_000 draws the standard error is below span/165; a 5-sigma band
    (~3% of span) makes the test deterministic-in-practice per seed.
    """
    policy = BackoffPolicy(start_window=start, base=base)
    draws = 20_000
    mean = sum(network_draws(policy, retry, draws, seed)) / draws
    span = policy.span(retry)
    tolerance = 5.0 * span / math.sqrt(12.0 * draws)
    assert abs(mean - policy.expected_delay_slots(retry)) <= tolerance + 1e-9


@given(start=windows, base=bases, retry=retries,
       colliders=st.integers(min_value=2, max_value=5),
       lane=st.sampled_from((LaneKind.META, LaneKind.DATA)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_collision_releases_match_an_independent_oracle(
    start, base, retry, colliders, lane, seed
):
    """A scripted collision at slot 0: senders 0, 2, 4, ... share
    destination 15's receiver 0 and collide at ``retry``.  The losers
    notice together ``slot + confirmation_delay`` cycles in, and back off
    in transmission order (ascending sender) from one numpy stream on
    the network's back-off seed."""
    policy = BackoffPolicy(start_window=start, base=base)
    net = FsoiNetwork(FsoiConfig(num_nodes=16, backoff=policy, seed=seed))
    packets = [
        Packet(src=src, dst=15, lane=lane, retries=retry - 1)
        for src in range(0, 2 * colliders, 2)
    ]
    for packet in packets:
        assert net.try_send(packet, 0)
    slot = net.lanes.slot_cycles(lane)
    detect = slot + net.lanes.confirmation_delay
    with tracing(categories=("fsoi", "backoff")) as tracer:
        for cycle in range(detect + 1):
            net.tick(cycle)
        filed = [
            (event.packet, event.cycle, event.args["retries"], event.args["release"])
            for event in tracer.events(name="backoff")
        ]
        slots = [event.args["slots"] for event in tracer.events(name="backoff_draw")]
    generator = np.random.default_rng(derive_seed(seed, "fsoi.backoff"))
    oracle = [oracle_release(generator, policy, retry, detect, slot) for _ in packets]
    assert filed == [
        (packet.uid, detect, retry, release)
        for packet, (_slots, release) in zip(packets, oracle)
    ]
    assert slots == [draw for draw, _release in oracle]
