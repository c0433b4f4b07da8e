"""The discrete-event simulator core.

:class:`Simulator` owns the virtual clock and the dispatch semantics, and
is the factory for all kernel primitives (events, timeouts, processes).
Where pending entries live — the heap, lazy deletion, compaction — is
hidden behind :class:`~repro.simkernel.backends.ReferenceBackend`; the
API deliberately mirrors well-known DES libraries so the higher layers
read naturally::

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(3.0)
        return "done"

    proc = sim.spawn(worker(sim))
    sim.run()
    assert proc.value == "done" and sim.now == 3.0

Determinism: at equal timestamps events are processed in (priority,
insertion) order, so a simulation with fixed seeds is exactly repeatable —
a property the test suite and the paper-reproduction experiments rely on.
:meth:`Simulator.run` has two loops over the one store — a fast loop and
the sanitizer loop — and both pop the global ``(time, priority,
sequence)`` minimum (see :mod:`repro.simkernel.backends` for the contract
and the fuzzed proof).
"""

from __future__ import annotations

import heapq
import os
import typing

from repro.errors import SimulationError
from repro.simkernel.backends import ReferenceBackend
from repro.simkernel.events import (
    AllOf,
    AnyOf,
    Event,
    PRIORITY_URGENT,
    PROCESSED,
    Timeout,
)
from repro.simkernel.process import Process, ProcessGenerator

_observers: list[typing.Callable[["Simulator"], None]] = []
"""Callbacks invoked with each newly constructed :class:`Simulator`.

Normally empty; :func:`repro.obs.instrumented` registers one so CLI
trace export can reach simulators built deep inside experiment
runners.  Construction-time only — observers never see run
events and cannot perturb anything.
"""


class TimerHandle:
    """A cancellable scheduled callback (see :meth:`Simulator.call_at`).

    Timer handles sit directly in the scheduler heap — no Event or
    closure is allocated per timer, which matters because fluid-sharing
    pools reschedule (cancel + re-arm) a timer on every membership
    change.  A cancelled handle is dropped by the event loop without any
    callback bookkeeping when its deadline is reached, and the heap is
    compacted if cancelled handles ever dominate it.
    """

    # _san_origin is set only by the determinism sanitizer and stays unset
    # otherwise — readers must use getattr(handle, "_san_origin", None).
    __slots__ = ("_cancelled", "_popped", "_san_origin", "_sim", "callback", "time")

    def __init__(
        self,
        time: float,
        callback: typing.Callable[[], None] | None = None,
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.callback = callback
        self._sim = sim
        self._cancelled = False
        self._popped = False

    def cancel(self) -> None:
        """Prevent the callback from running (safe after it ran)."""
        if self._cancelled:
            return
        self._cancelled = True
        self.callback = None  # release closure references promptly
        # Only a handle still sitting in the heap needs accounting; a
        # cancel after the loop already popped it (fired, or discarded by
        # an earlier cancel pass) must not inflate the lazy-delete
        # counters — phantom counts trigger pointless whole-structure
        # compaction scans.
        if self._sim is not None and not self._popped:
            self._sim._backend.note_cancel(self)

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial clock value in seconds (default 0).
    trace:
        Optional :class:`~repro.simkernel.tracing.Tracer`; if omitted a fresh
        one is created so instrumentation is always available.
    sanitize:
        ``True`` attaches a
        :class:`~repro.simkernel.sanitizer.DeterminismSanitizer` (exposed as
        ``sim.sanitizer``) that observes the run for determinism hazards
        without perturbing it, and turns on runtime trace-schema
        validation (:meth:`~repro.simkernel.tracing.Tracer
        .enable_schema_validation`).  ``None`` (the default) consults the
        ``REPRO_SANITIZE`` environment variable.
    metrics:
        ``True`` enables the :class:`~repro.simkernel.metrics
        .MetricsRegistry` exposed as ``sim.metrics`` (instruments
        accumulate and keep sample series).  ``False`` keeps it in
        no-op mode.  ``None`` (the default) consults ``REPRO_METRICS``.
        Enabled or not, metrics never perturb the simulation.
    """

    def __init__(
        self,
        start_time: float = 0.0,
        trace: typing.Any = None,
        sanitize: bool | None = None,
        metrics: bool | None = None,
    ) -> None:
        from repro.simkernel.metrics import MetricsRegistry
        from repro.simkernel.spans import SpanTracker
        from repro.simkernel.tracing import Tracer  # local import: cycle guard

        self._now = float(start_time)
        self._backend = ReferenceBackend()
        self._schedule = self._backend.schedule
        self._active_process: Process | None = None
        # Columnar: record() appends to typed column buffers and allocates
        # no per-record object unless a live subscription matches, so
        # always-on tracing stays off the event hot path's flamegraph.
        self.trace = trace if trace is not None else Tracer(self)
        self.spans = SpanTracker(self)
        if metrics is None:
            metrics = os.environ.get("REPRO_METRICS", "") not in ("", "0")
        self.metrics = MetricsRegistry(self, enabled=bool(metrics))
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")
        if sanitize:
            from repro.simkernel.sanitizer import DeterminismSanitizer

            self.sanitizer: typing.Any = DeterminismSanitizer(self)
            # caller-supplied trace objects may predate schema validation
            enable = getattr(self.trace, "enable_schema_validation", None)
            if enable is not None:
                enable()
        else:
            self.sanitizer = None
        if _observers:
            for observer in _observers:
                observer(self)

    # -- clock -------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently being resumed, if any."""
        return self._active_process

    @property
    def backend(self) -> ReferenceBackend:
        """The pending-entry store (``pending()``, ``storage_size()``, ...)."""
        return self._backend

    # -- primitive factories -------------------------------------------------

    def event(self, name: str | None = None) -> Event:
        """Create an untriggered event."""
        return Event(self, name=name)

    def timeout(
        self, delay: float, value: typing.Any = None, name: str | None = None
    ) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value=value, name=name)

    def spawn(
        self, generator: ProcessGenerator, name: str | None = None
    ) -> Process:
        """Start a new process from a generator and return it."""
        return Process(self, generator, name=name)

    def all_of(self, events: typing.Iterable[Event]) -> AllOf:
        """Event that fires when every given event has fired."""
        return AllOf(self, events)

    def any_of(self, events: typing.Iterable[Event]) -> AnyOf:
        """Event that fires when any given event has fired."""
        return AnyOf(self, events)

    def call_at(
        self, time: float, callback: typing.Callable[[], None]
    ) -> TimerHandle:
        """Run ``callback()`` at absolute simulated ``time``; cancellable.

        Used by fluid-sharing resources that must reschedule their next
        completion whenever membership changes.
        """
        if time < self._now:
            raise SimulationError(f"call_at({time}) is in the past (now={self._now})")
        handle = TimerHandle(time, callback, self)
        if self.sanitizer is not None:
            self.sanitizer.note_timer(handle)
        self._backend.schedule_timer(handle)
        return handle

    def call_in(
        self, delay: float, callback: typing.Callable[[], None]
    ) -> TimerHandle:
        """Run ``callback()`` after ``delay`` seconds; cancellable."""
        return self.call_at(self._now + delay, callback)

    def rearm_timer(
        self,
        handle: TimerHandle | None,
        time: float,
        callback: typing.Callable[[], None],
    ) -> TimerHandle:
        """Cancel ``handle`` (if any) and arm a fresh timer at ``time``.

        Semantically identical to ``handle.cancel()`` followed by
        :meth:`call_at` — the replacement takes a *new* scheduling
        sequence number, so same-instant ordering is exactly what the
        two separate calls would produce.  One entry point lets the
        cancel/re-arm churn of fluid-sharing pools flow through the
        heap's lazy-delete accounting in a single call.
        """
        if handle is not None:
            handle.cancel()
        return self.call_at(time, callback)

    def _call_soon_urgent(self, callback: typing.Callable[[], None]) -> None:
        """Schedule ``callback()`` at the current instant, urgently.

        Used by :class:`~repro.simkernel.process.Process` start-up; cheaper
        than a full Event because nothing ever waits on it.
        """
        self._schedule(
            self._now, PRIORITY_URGENT, TimerHandle(self._now, callback, self)
        )

    # -- scheduling internals -------------------------------------------------

    def _enqueue(self, event: Event, priority: int) -> None:
        # "Now" can never be in the past: skip _enqueue_at's guard.
        self._schedule(self._now, priority, event)

    def _enqueue_at(self, time: float, event: Event, priority: int) -> None:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self._now}"
            )
        self._schedule(time, priority, event)

    # -- event loop ------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._backend.peek()

    def step(self) -> None:
        """Process the next scheduled event, advancing the clock.

        Cancelled timers encountered on the way are discarded without any
        callback bookkeeping (they count as no event at all).
        """
        entry = self._backend.pop_next()
        if entry is None:
            raise SimulationError("step() with an empty event queue")
        time, priority, _, item = entry
        san = self.sanitizer
        if san is not None:
            san.on_execute(time, priority, item)
        self._now = time
        if type(item) is TimerHandle:
            item._popped = True
            item.callback()
        else:
            item._process()

    def run(self, until: float | Event | None = None) -> typing.Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time (the clock is
          advanced to exactly ``until`` even if no event fires then);
        * an :class:`Event` — run until that event has been processed, and
          return its value (re-raising its exception on failure).
        """
        # The fast loop inlines the heap pop — one dynamic dispatch per
        # event is measurable at millions of events per experiment.
        # Sanitized runs take the sanitizer loop so the fast loop carries
        # no per-event hook branch.
        if self.sanitizer is not None:
            return self._run_sanitized(until)
        return self._run_reference(until)

    def _run_reference(self, until: float | Event | None) -> typing.Any:
        """The :meth:`run` semantics inlined over the reference heap."""
        backend = self._backend
        heap = backend._heap
        heappop = heapq.heappop

        if isinstance(until, Event):
            stop = until
            while stop._state != PROCESSED:
                if not heap:
                    raise SimulationError(
                        f"event queue exhausted before {stop!r} fired"
                    )
                time, _, _, item = heappop(heap)
                if type(item) is TimerHandle:
                    if item._cancelled:
                        backend._cancelled -= 1
                        continue
                    item._popped = True
                    self._now = time
                    item.callback()
                else:
                    self._now = time
                    item._process()
            if not stop._ok:
                stop.defuse()
                raise stop.value
            return stop._value

        if until is None:
            while heap:
                time, _, _, item = heappop(heap)
                if type(item) is TimerHandle:
                    if item._cancelled:
                        backend._cancelled -= 1
                        continue
                    item._popped = True
                    self._now = time
                    item.callback()
                else:
                    self._now = time
                    item._process()
            return None

        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(f"run(until={deadline}) is in the past")
        while heap and heap[0][0] <= deadline:
            time, _, _, item = heappop(heap)
            if type(item) is TimerHandle:
                if item._cancelled:
                    backend._cancelled -= 1
                    continue
                item._popped = True
                self._now = time
                item.callback()
            else:
                self._now = time
                item._process()
        self._now = deadline
        return None

    def _run_sanitized(self, until: float | Event | None) -> typing.Any:
        """The :meth:`run` semantics through :meth:`ReferenceBackend.pop_next`.

        Used for sanitized runs; the observable simulation — pop order,
        clock advances, callback execution — is identical to the fast
        loop.  Sanitizer hooks fire just before each entry executes.
        """
        pop_next = self._backend.pop_next
        san = self.sanitizer

        until_event: Event | None = None
        deadline = float("inf")
        if isinstance(until, Event):
            until_event = until
        elif until is not None:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(f"run(until={deadline}) is in the past")

        try:
            while True:
                if until_event is not None and until_event._state == PROCESSED:
                    break
                entry = pop_next(deadline)
                if entry is None:
                    break
                time, priority, _, item = entry
                san.on_execute(time, priority, item)
                self._now = time
                if type(item) is TimerHandle:
                    item._popped = True
                    item.callback()
                else:
                    item._process()

            if until_event is not None:
                if until_event._state != PROCESSED:
                    raise SimulationError(
                        f"event queue exhausted before {until_event!r} fired"
                    )
                if not until_event._ok:
                    until_event.defuse()
                    raise until_event.value
                return until_event._value
            if until is None:
                san.on_queue_exhausted()
            else:
                self._now = deadline
            return None
        finally:
            san.on_run_exit()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Simulator t={self._now:.6g} "
            f"pending={self._backend.pending()}>"
        )
