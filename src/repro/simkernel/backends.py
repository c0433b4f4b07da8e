"""The simulation kernel's pending-entry store.

The :class:`~repro.simkernel.kernel.Simulator` owns the clock and the
dispatch semantics; *where pending entries live and how the next one is
found* is hidden behind :class:`ReferenceBackend`: one binary heap, lazy
deletion of cancelled timers, and a whole-heap compaction once cancelled
entries dominate.

Ordering contract
-----------------
Entries are ordered strictly by ``(time, priority, sequence)`` with the
sequence number assigned in :meth:`ReferenceBackend.schedule` call order,
so same-instant entries at equal priority run in insertion order and a
simulation with fixed seeds is exactly repeatable.  The kernel's fast run
loop and its sanitizer loop pop this one store;
``tests/simkernel/test_backends.py`` fuzzes that both execute the same
schedule and the golden experiment rows pin it end to end.

Entries are ``(time, priority, sequence, item)`` tuples, where ``item``
is an :class:`~repro.simkernel.events.Event` (or subclass) or a
:class:`~repro.simkernel.kernel.TimerHandle`.  The sequence field makes
keys unique, so tuple comparison never reaches the item.
"""

from __future__ import annotations

import heapq
import typing

from repro.simkernel.events import PRIORITY_NORMAL

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simkernel.kernel import TimerHandle

_INF = float("inf")

#: Cancelled entries trigger an automatic compaction only past this count
#: *and* once they outnumber live entries — small queues never pay.
COMPACT_MIN = 64

#: The store's name, as run labels record it (fleet shard plans, the
#: benchmark's environment line).
DEFAULT_BACKEND = "reference"


def _is_dead(item: typing.Any) -> bool:
    """True for a lazily-deleted (cancelled timer) entry payload."""
    return getattr(item, "_cancelled", False) is True


class ReferenceBackend:
    """The binary-heap entry store behind every :class:`Simulator`.

    One ``heapq``-managed list, lazy deletion of cancelled timers, and a
    whole-heap compaction once cancelled entries dominate.  The kernel's
    fast run loop inlines :meth:`pop_next` over ``_heap``; the list is
    only ever mutated in place, so that local reference stays valid
    across compactions.
    """

    __slots__ = ("_cancelled", "_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._seq = 0
        self._cancelled = 0

    def schedule(self, time: float, priority: int, item: typing.Any) -> None:
        """Enqueue ``item`` at ``(time, priority)``, assigning a sequence."""
        self._seq += 1
        heapq.heappush(self._heap, (time, priority, self._seq, item))

    def schedule_timer(self, handle: "TimerHandle") -> None:
        """Enqueue a timer handle at ``handle.time``, normal priority."""
        self._seq += 1
        heapq.heappush(
            self._heap, (handle.time, PRIORITY_NORMAL, self._seq, handle)
        )

    def pop_next(self, deadline: float = _INF) -> tuple | None:
        """Remove and return the earliest live entry, or ``None``.

        Entries after ``deadline`` are left queued; lazily-cancelled
        timers encountered on the way are discarded and accounted.
        """
        heap = self._heap
        while heap:
            if heap[0][0] > deadline:
                return None
            entry = heapq.heappop(heap)
            if _is_dead(entry[3]):
                self._cancelled -= 1
                continue
            return entry
        return None

    def peek(self) -> float:
        """Time of the earliest live entry, or ``inf`` when empty."""
        heap = self._heap
        while heap:
            if _is_dead(heap[0][3]):
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            return heap[0][0]
        return _INF

    def note_cancel(self, handle: "TimerHandle") -> None:
        """Account one lazily-cancelled handle still queued here."""
        self._cancelled += 1
        if self._cancelled > COMPACT_MIN and self._cancelled * 2 > len(self._heap):
            self.compact()

    def compact(self) -> None:
        """Physically remove every lazily-cancelled entry."""
        # In-place: the kernel's run loop holds a local reference to the list.
        self._heap[:] = [e for e in self._heap if not _is_dead(e[3])]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def pending(self) -> int:
        """Number of live (non-cancelled) queued entries."""
        return len(self._heap) - self._cancelled

    def storage_size(self) -> int:
        """Entries physically retained, including lazily-cancelled ones."""
        return len(self._heap)
