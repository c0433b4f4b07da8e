"""Change notifications that model objects raise about themselves.

A :class:`ChangeSignal` lets a consumer cache something it read off a
live model object and learn when that value may have gone stale.  The
object that changes raises its own signal — a page cache when its
contents change, a link when it goes up or down — never the caller that
asked it to change, so a mutation made by any process, by a test, or
between two :meth:`~repro.simkernel.Simulator.run` calls reaches every
watcher alike.

Watchers are zero-argument callables kept in insertion order, so
notification order is deterministic.  A watcher must not watch or
unwatch while it is being notified; the fluid coordinator's watchers
only mark a client dirty.
"""

from __future__ import annotations

import typing


class ChangeSignal:
    """The watchers of one object's model-visible state."""

    __slots__ = ("_watchers",)

    def __init__(self) -> None:
        self._watchers: dict[typing.Callable[[], None], None] = {}

    def watch(self, watcher: typing.Callable[[], None]) -> None:
        """Call ``watcher`` on every later :meth:`fire` (idempotent)."""
        self._watchers[watcher] = None

    def unwatch(self, watcher: typing.Callable[[], None]) -> None:
        """Stop notifying ``watcher``; a no-op if it is not watching."""
        self._watchers.pop(watcher, None)

    def fire(self) -> None:
        """Tell every watcher the owning object changed."""
        for watcher in self._watchers:
            watcher()
