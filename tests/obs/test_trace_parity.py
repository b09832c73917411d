"""Trace parity: the event stream is part of the behaviour.

The results pins check the *measured* quantities; the trace event
stream — every event, in order, with the same packet ids — is pinned
too, by the traced rows of ``tests/cmp/test_behaviour_pins.py``.  This
suite holds what those pins cannot: fast-forward adds only its own
skip markers to a stream, and the stream does not depend on what ran
earlier in the process.

Packet ids make this sharp: they used to come from a process-global
counter, so two otherwise identical runs traced different ids
depending on what had run earlier in the process.  ``CmpSystem`` now
allocates uids per instance, which these tests lock in.
"""

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.obs import tracing

NETWORKS = ["fsoi", "mesh", "l0"]
CYCLES = 1200


def traced_events(network, **config_kwargs):
    config = CmpConfig(
        app="fft", network=network, num_nodes=16, seed=3, **config_kwargs
    )
    with tracing(capacity=1 << 20) as tracer:
        CmpSystem(config).run(CYCLES)
        assert tracer.dropped == 0
        return list(tracer.events())


def test_streams_nonempty_and_cover_network_events():
    events = traced_events("fsoi")
    assert any(e.name == "tx" for e in events)
    assert any(e.name == "deliver" for e in events)


class TestFastForwardParity:
    """fast_forward only adds its own ``cat="loop"`` skip markers."""

    @pytest.mark.parametrize("network", NETWORKS)
    def test_identical_modulo_loop_events(self, network):
        fast = traced_events(network, fast_forward=True)
        naive = traced_events(network, fast_forward=False)
        assert [e for e in fast if e.cat != "loop"] == [
            e for e in naive if e.cat != "loop"
        ]

    def test_naive_loop_never_fast_forwards(self):
        naive = traced_events("fsoi", fast_forward=False)
        assert not any(e.name == "fast_forward" for e in naive)


class TestPacketIdDeterminism:
    """Packet uids are per-system, not process-history dependent."""

    def test_repeat_runs_trace_identical_ids(self):
        first = traced_events("fsoi")
        second = traced_events("fsoi")
        assert first == second

    def test_packet_ids_start_at_zero(self):
        events = traced_events("fsoi")
        uids = {e.packet for e in events if e.packet is not None}
        assert min(uids) == 0
