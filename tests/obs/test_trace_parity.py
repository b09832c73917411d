"""Trace parity: the event stream is part of the behaviour.

The results-equivalence suites check the *measured* quantities; this
suite pins the stronger claim that the **event streams** are identical
too — every trace event, in order, with the same packet ids.  The
cores, like the networks and the coherence dispatch, have one engine;
:class:`TestVectorizedParity` (named for the retired engine toggle, so
its test ids stay stable) holds the stream to the sha256 both cores
engines produced at 135c206, in ``tests/data/network_engine_pins.json``
(the recording command is in ``tests/cmp/test_vector_equivalence.py``;
the fsoi and mesh keys are shared with
``tests/cmp/test_network_vector_equivalence.py``).

Packet ids make this sharp: they used to come from a process-global
counter, so two otherwise identical runs traced different ids
depending on what had run earlier in the process.  ``CmpSystem`` now
allocates uids per instance, which these tests lock in.
"""

import pytest

from repro.cmp import CmpConfig, CmpSystem
from repro.obs import tracing
from tests.cmp.test_network_vector_equivalence import check_pin  # noqa: F401

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


class TestVectorizedParity:
    """The one cores engine traces the stream both retired engines did."""

    @pytest.mark.parametrize("network", NETWORKS)
    def test_event_streams_identical(self, check_pin, network):
        check_pin(
            f"fft-{network}-16-seed3-traced",
            app="fft", network=network, num_nodes=16, seed=3,
            cycles=CYCLES, trace=True,
        )

    def test_streams_nonempty_and_cover_network_events(self):
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
