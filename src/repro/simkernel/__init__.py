"""A deterministic discrete-event simulation kernel.

This subpackage is self-contained (no dependencies on the rest of
``repro`` beyond the error types) and provides:

* :class:`~repro.simkernel.kernel.Simulator` — clock, run loop, primitive
  factories;
* :class:`~repro.simkernel.backends.ReferenceBackend` — the pending-event
  heap with lazy deletion (``sim.backend``);
* :class:`~repro.simkernel.events.Event`, timeouts, all-of/any-of conditions;
* :class:`~repro.simkernel.process.Process` — generator-based activities
  with interrupts;
* :class:`~repro.simkernel.resources.Resource` / ``Store`` — queued
  contention points;
* :class:`~repro.simkernel.sharing.SharedPool` — fluid processor sharing;
* :class:`~repro.simkernel.tracing.Tracer` — typed trace records;
* :class:`~repro.simkernel.rng.RandomStreams` — named seeded RNG streams;
* :class:`~repro.simkernel.sanitizer.DeterminismSanitizer` — opt-in runtime
  determinism checks (``Simulator(sanitize=True)`` / ``REPRO_SANITIZE=1``);
* :class:`~repro.simkernel.spans.SpanTracker` — nestable causal spans over
  the tracer (``sim.spans``), the substrate for the Perfetto exporter and
  the downtime critical-path analyzer;
* :class:`~repro.simkernel.signals.ChangeSignal` — change notifications a
  model object raises about itself, for consumers that cache what they
  read off it;
* :class:`~repro.simkernel.metrics.MetricsRegistry` — counters, gauges and
  histograms (``sim.metrics``; opt-in via ``Simulator(metrics=True)`` /
  ``REPRO_METRICS=1``, no-op otherwise).
"""

from repro.simkernel.backends import ReferenceBackend
from repro.simkernel.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.simkernel.kernel import Simulator, TimerHandle
from repro.simkernel.metrics import (
    METRIC_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.simkernel.process import Process
from repro.simkernel.resources import Request, Resource, Store
from repro.simkernel.rng import RandomStreams
from repro.simkernel.sanitizer import (
    DeterminismSanitizer,
    DeterminismWarning,
    SanitizerReport,
)
from repro.simkernel.sharing import SharedPool
from repro.simkernel.signals import ChangeSignal
from repro.simkernel.spans import SPAN_NAMES, Span, SpanTracker
from repro.simkernel.tracing import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "ChangeSignal",
    "Counter",
    "DeterminismSanitizer",
    "DeterminismWarning",
    "Event",
    "Gauge",
    "Histogram",
    "Interrupt",
    "METRIC_SCHEMA",
    "MetricsRegistry",
    "Process",
    "RandomStreams",
    "ReferenceBackend",
    "Request",
    "Resource",
    "SPAN_NAMES",
    "SanitizerReport",
    "SharedPool",
    "Simulator",
    "Span",
    "SpanTracker",
    "Store",
    "TimerHandle",
    "TraceRecord",
    "Tracer",
    "Timeout",
]
