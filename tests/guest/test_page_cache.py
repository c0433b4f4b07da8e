"""Unit and property tests for the guest page cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GuestError
from repro.guest import PageCache
from repro.units import mib


class TestBasics:
    def test_empty_cache(self):
        cache = PageCache(mib(100))
        assert cache.used_bytes == 0
        assert cache.cached_bytes("/f") == 0

    def test_zero_capacity_rejected(self):
        with pytest.raises(GuestError):
            PageCache(0)

    def test_insert_and_query(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(10))
        assert cache.cached_bytes("/f") == mib(10)
        assert cache.used_bytes == mib(10)

    def test_insert_accumulates(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(10))
        cache.insert("/f", mib(5))
        assert cache.cached_bytes("/f") == mib(15)

    def test_negative_sizes_rejected(self):
        cache = PageCache(100)
        with pytest.raises(GuestError):
            cache.insert("/f", -1)
        with pytest.raises(GuestError):
            cache.split_read("/f", -1)


class TestSplitRead:
    def test_cold_read_is_all_uncached(self):
        cache = PageCache(mib(100))
        cached, uncached = cache.split_read("/f", mib(10))
        assert (cached, uncached) == (0, mib(10))

    def test_warm_read_is_all_cached(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(10))
        cached, uncached = cache.split_read("/f", mib(10))
        assert (cached, uncached) == (mib(10), 0)

    def test_partial_hit(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(4))
        cached, uncached = cache.split_read("/f", mib(10))
        assert (cached, uncached) == (mib(4), mib(6))

    def test_hit_miss_stats(self):
        cache = PageCache(mib(100))
        cache.insert("/f", mib(10))
        cache.split_read("/f", mib(10))
        cache.split_read("/g", mib(3))
        assert cache.hits_bytes == mib(10)
        assert cache.misses_bytes == mib(3)


class TestEviction:
    def test_lru_eviction(self):
        cache = PageCache(mib(10))
        cache.insert("/a", mib(6))
        cache.insert("/b", mib(6))  # /a must be evicted
        assert cache.cached_bytes("/a") == 0
        assert cache.cached_bytes("/b") == mib(6)

    def test_touch_protects_from_eviction(self):
        cache = PageCache(mib(10))
        cache.insert("/a", mib(4))
        cache.insert("/b", mib(4))
        cache.touch("/a")  # now /b is LRU
        cache.insert("/c", mib(4))
        assert cache.cached_bytes("/a") == mib(4)
        assert cache.cached_bytes("/b") == 0

    def test_single_file_larger_than_capacity_trimmed(self):
        """An oversized insert keeps exactly ``capacity_bytes`` of the new
        file and evicts every other file."""
        cache = PageCache(mib(10))
        for path in ("/a", "/b", "/c"):
            cache.insert(path, mib(3))
        assert cache.insert("/huge", mib(50)) == mib(10)
        assert cache.resident_files() == ["/huge"]
        assert cache.cached_bytes("/huge") == mib(10)
        assert cache.used_bytes == mib(10)

    def test_invalidate(self):
        cache = PageCache(mib(10))
        cache.insert("/a", mib(2))
        cache.invalidate("/a")
        assert cache.cached_bytes("/a") == 0
        cache.invalidate("/missing")  # no error

    def test_clear_models_image_loss(self):
        cache = PageCache(mib(10))
        cache.insert("/a", mib(2))
        cache.insert("/b", mib(2))
        cache.clear()
        assert cache.used_bytes == 0
        assert cache.resident_files() == []

    def test_eviction_order_and_clamp_keep_running_total(self):
        """LRU victims leave oldest first, a file growing past capacity
        evicts the rest and is clamped to capacity, and the running total
        always equals a re-sum of the resident bytes."""
        cache = PageCache(mib(10))

        def resum():
            return sum(cache.cached_bytes(p) for p in cache.resident_files())

        for path in ("/a", "/b", "/c"):
            cache.insert(path, mib(3))
        assert cache.used_bytes == resum() == mib(9)
        cache.touch("/a")  # LRU order now /b, /c, /a
        cache.insert("/d", mib(5))  # needs 4 MiB back: /b, then /c
        assert cache.resident_files() == ["/a", "/d"]
        assert cache.used_bytes == resum() == mib(8)
        cache.insert("/a", mib(1))  # grows in place, moves to MRU
        assert cache.resident_files() == ["/d", "/a"]
        assert cache.used_bytes == resum() == mib(9)
        cache.insert("/a", mib(20))  # past capacity: evict /d, clamp /a
        assert cache.resident_files() == ["/a"]
        assert cache.cached_bytes("/a") == mib(10)
        assert cache.used_bytes == resum() == mib(10)
        cache.invalidate("/a")
        assert cache.used_bytes == resum() == 0
        assert cache.free_bytes == mib(10)

    def test_changed_fires_only_when_residency_changes(self):
        cache = PageCache(mib(10))
        fired = []
        cache.changed.watch(lambda: fired.append(True))
        cache.insert("/a", mib(2))
        assert len(fired) == 1
        cache.touch("/a")
        cache.insert("/a", 0)
        cache.split_read("/a", mib(1))
        cache.invalidate("/missing")
        assert len(fired) == 1  # LRU order and stats are not residency
        cache.insert("/b", mib(9))  # evicts /a: one change
        cache.invalidate("/b")
        cache.clear()  # already empty
        assert len(fired) == 3


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "read", "invalidate", "touch"]),
            st.integers(min_value=0, max_value=9),
            st.integers(min_value=0, max_value=2 * 1024 * 1024),
        ),
        max_size=50,
    )
)
def test_cache_never_exceeds_capacity(ops):
    """Property: whatever the operation sequence, used_bytes stays within
    capacity and per-file residency is non-negative."""
    capacity = 4 * 1024 * 1024
    cache = PageCache(capacity)
    for op, file_index, nbytes in ops:
        path = f"/f{file_index}"
        if op == "insert":
            cache.insert(path, nbytes)
        elif op == "read":
            cached, uncached = cache.split_read(path, nbytes)
            assert cached + uncached == nbytes
            assert cached >= 0 and uncached >= 0
        elif op == "invalidate":
            cache.invalidate(path)
        else:
            cache.touch(path)
        assert 0 <= cache.used_bytes <= capacity
        assert cache.used_bytes == sum(
            cache.cached_bytes(p) for p in cache.resident_files()
        )
        assert all(cache.cached_bytes(p) > 0 for p in cache.resident_files())
