"""The guest file cache (page cache) — the performance state a cold
reboot destroys.

§2: "The primary cause [of post-reboot degradation] is to lose the file
cache."  The model is byte-granular per file with LRU eviction: enough to
reproduce first-access-vs-second-access behaviour (Figure 8) without
tracking three million page frames.

The cache object lives inside the guest kernel image, so its fate follows
the memory image's fate automatically: preserved by on-memory
suspend/resume, round-tripped by disk save/restore, and gone when a cold
boot constructs a fresh kernel.
"""

from __future__ import annotations

import collections

from repro.errors import GuestError
from repro.simkernel.signals import ChangeSignal


class PageCache:
    """Byte-accounted LRU cache over file contents.

    ``changed`` fires whenever some file's cached byte count changes
    (insert, eviction, invalidation, clear), never on a pure LRU touch.
    """

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise GuestError(f"cache capacity must be > 0, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self._cached: collections.OrderedDict[str, int] = collections.OrderedDict()
        # Running sum of ``_cached.values()``; exact, since sizes are ints.
        self._used = 0
        self.hits_bytes = 0
        self.misses_bytes = 0
        self.changed = ChangeSignal()

    @property
    def used_bytes(self) -> int:
        return self._used

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def cached_bytes(self, path: str) -> int:
        """How many bytes of ``path`` are currently cached."""
        return self._cached.get(path, 0)

    def split_read(self, path: str, nbytes: int) -> tuple[int, int]:
        """Partition a read into (cached, uncached) bytes and count stats."""
        if nbytes < 0:
            raise GuestError(f"negative read size {nbytes}")
        cached = min(self.cached_bytes(path), nbytes)
        uncached = nbytes - cached
        self.hits_bytes += cached
        self.misses_bytes += uncached
        return cached, uncached

    def insert(self, path: str, nbytes: int) -> int:
        """Cache ``nbytes`` of ``path`` (cumulative), evicting LRU files as
        needed.  Returns the bytes actually resident afterwards."""
        if nbytes < 0:
            raise GuestError(f"negative insert size {nbytes}")
        before = self.cached_bytes(path)
        target = min(before + nbytes, self.capacity_bytes)
        if target == 0:
            return 0
        self._cached[path] = target
        self._cached.move_to_end(path)
        if target != before:
            self._used += target - before
            self._evict_to_fit()
            self.changed.fire()
        return self._cached.get(path, 0)

    def touch(self, path: str) -> None:
        """Mark a file recently used (cache hit path)."""
        if path in self._cached:
            self._cached.move_to_end(path)

    def invalidate(self, path: str) -> None:
        """Drop one file's cached bytes (no-op if not resident)."""
        dropped = self._cached.pop(path, 0)
        if dropped:
            self._used -= dropped
            self.changed.fire()

    def clear(self) -> None:
        """What losing the memory image does to the cache."""
        if self._cached:
            self._cached.clear()
            self._used = 0
            self.changed.fire()

    def _evict_to_fit(self) -> None:
        """Drop LRU files until the cache fits.  The file just inserted
        sits at the MRU end, clamped to capacity, so it fits on its own
        and is never a victim."""
        cached = self._cached
        while self._used > self.capacity_bytes:
            self._used -= cached.pop(next(iter(cached)))

    def resident_files(self) -> list[str]:
        """Paths with any cached bytes, LRU-first."""
        return list(self._cached)
