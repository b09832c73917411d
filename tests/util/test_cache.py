"""Tests for the set-associative cache array."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.cache import CacheArray


class TestGeometry:
    def test_from_geometry_table3_l1(self):
        array = CacheArray.from_geometry(8192, 32, 2)
        assert array.num_sets == 128
        assert array.ways == 2

    def test_from_geometry_rejects_ragged(self):
        with pytest.raises(ValueError):
            CacheArray.from_geometry(128, 32, 3)  # 4 lines / 3 ways

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            CacheArray(0, 2)
        with pytest.raises(ValueError):
            CacheArray(4, 0)


class TestResidency:
    def test_insert_then_contains(self):
        array = CacheArray(4, 2)
        array.insert(3)
        assert array.contains(3)
        assert not array.contains(7)

    def test_touch_hit_miss_counters(self):
        array = CacheArray(4, 2)
        array.insert(1)
        assert array.touch(1)
        assert not array.touch(2)

    def test_reinsert_is_noop(self):
        array = CacheArray(4, 2)
        array.insert(1)
        assert array.insert(1) is None
        assert array.resident_lines().count(1) == 1

    def test_remove(self):
        array = CacheArray(4, 2)
        array.insert(1)
        assert array.remove(1)
        assert not array.remove(1)
        assert not array.contains(1)


class TestEviction:
    def test_lru_victim(self):
        array = CacheArray(1, 2)
        array.insert(10)
        array.insert(20)
        array.touch(10)          # 20 becomes LRU
        assert array.insert(30) == 20

    def test_eviction_counted(self):
        array = CacheArray(1, 1)
        array.insert(1)
        assert array.insert(2) == 1
        assert array.resident_lines() == [2]

    def test_same_set_only(self):
        array = CacheArray(2, 1)
        array.insert(0)   # set 0
        array.insert(1)   # set 1
        assert array.insert(2) == 0  # set 0 again: evicts 0, not 1
        assert array.contains(1)

    def test_unevictable_lines_skipped(self):
        pinned = {10}
        array = CacheArray(1, 2, is_evictable=lambda line: line not in pinned)
        array.insert(10)
        array.insert(20)
        assert array.insert(30) == 20  # 10 is pinned despite being LRU

    def test_all_pinned_raises(self):
        array = CacheArray(1, 1, is_evictable=lambda line: False)
        array.insert(1)
        with pytest.raises(RuntimeError):
            array.insert(2)

    @given(st.lists(st.integers(min_value=0, max_value=300), max_size=120))
    def test_never_exceeds_capacity(self, lines):
        array = CacheArray(8, 2)
        for line in lines:
            array.insert(line)
        residents = array.resident_lines()
        assert len(residents) <= 16
        assert len(set(residents)) == len(residents)  # no duplicates

    @given(st.lists(st.integers(min_value=0, max_value=64), max_size=80))
    def test_insert_makes_resident(self, lines):
        array = CacheArray(4, 2)
        for line in lines:
            array.insert(line)
            assert array.contains(line)


class TestLazySets:
    """An untouched set is the shared empty tuple; every read treats it
    as empty, and the first insert gives it a list."""

    def test_untouched_sets_are_one_shared_empty_tuple(self):
        array = CacheArray(8, 2)
        assert all(ways == () and ways is array._sets[0] for ways in array._sets)

    def test_reads_treat_an_untouched_set_as_empty(self):
        array = CacheArray(8, 2)
        assert not array.contains(5)
        assert not array.touch(5)
        assert not array.remove(5)
        assert array.resident_lines() == []
        assert array._sets[5] == ()  # no read allocates

    def test_first_insert_gives_only_its_set_a_list(self):
        array = CacheArray(8, 2)
        assert array.insert(5) is None
        assert type(array._sets[5]) is list
        assert all(array._sets[i] == () for i in range(8) if i != 5)
        assert array.contains(5) and array.touch(5)
        assert array.insert(13) is None  # same set, second way
        assert array.insert(21) == 5  # LRU victim: 5 was touched before 13 went in
        assert sorted(array.resident_lines()) == [13, 21]
        assert array.remove(13) and array.remove(21)
        assert array.resident_lines() == [] and array.insert(29) is None
