"""Tests for the named, seeded RNG streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import RngHub, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "a") == derive_seed(42, "a")

    def test_name_sensitive(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")

    def test_root_sensitive(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_63_bits(self):
        assert 0 <= derive_seed(123, "stream") < 2**63

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=40))
    def test_always_in_range(self, root, name):
        assert 0 <= derive_seed(root, name) < 2**63

    @given(st.integers(min_value=0, max_value=1000))
    def test_distinct_names_rarely_collide(self, root):
        seeds = {derive_seed(root, f"n{i}") for i in range(50)}
        assert len(seeds) == 50


def draws(stream, count):
    return [stream.random() for _ in range(count)]


class TestRngHub:
    def test_stream_cached(self):
        hub = RngHub(7)
        assert hub.stream("x") is hub.stream("x")

    def test_streams_independent(self):
        hub = RngHub(7)
        a = draws(hub.stream("a"), 100)
        b = draws(hub.stream("b"), 100)
        assert not np.allclose(a, b)

    def test_reproducible_across_hubs(self):
        first = draws(RngHub(11).stream("traffic"), 10)
        second = draws(RngHub(11).stream("traffic"), 10)
        assert first == second

    def test_different_seeds_differ(self):
        first = draws(RngHub(11).stream("traffic"), 10)
        second = draws(RngHub(12).stream("traffic"), 10)
        assert not np.allclose(first, second)

    def test_construction_order_irrelevant(self):
        hub1 = RngHub(3)
        hub1.stream("a")
        ones = draws(hub1.stream("b"), 5)
        hub2 = RngHub(3)
        twos = draws(hub2.stream("b"), 5)  # "a" never created here
        assert ones == twos

    def test_child_namespaced(self):
        hub = RngHub(5)
        child = hub.child("fsoi")
        assert child.root_seed != hub.root_seed
        a = draws(child.stream("x"), 5)
        b = draws(hub.stream("x"), 5)
        assert not np.allclose(a, b)

    def test_child_deterministic(self):
        a = draws(RngHub(5).child("net").stream("s"), 4)
        b = draws(RngHub(5).child("net").stream("s"), 4)
        assert a == b

    def test_repr_mentions_seed(self):
        assert "root_seed=9" in repr(RngHub(9))

    @settings(max_examples=50, deadline=None)
    @given(
        root=st.integers(min_value=0, max_value=2**32),
        name=st.text(max_size=20),
        ops=st.lists(
            st.one_of(
                st.just(None),  # a random() draw
                st.tuples(  # an integers(low, low + span) draw
                    st.integers(min_value=-1000, max_value=1000),
                    st.integers(min_value=1, max_value=2**32),
                ),
            ),
            min_size=1,
            max_size=300,
        ),
    )
    def test_stream_is_the_named_generator(self, root, name, ops):
        """A hub stream replays ``default_rng(derive_seed(root, name))``
        sample for sample, whatever the mix of calls."""
        stream = RngHub(root).stream(name)
        reference = np.random.default_rng(derive_seed(root, name))
        for op in ops:
            if op is None:
                assert stream.random() == reference.random()
            else:
                low, span = op
                assert stream.integers(low, low + span) == int(
                    reference.integers(low, low + span)
                )
