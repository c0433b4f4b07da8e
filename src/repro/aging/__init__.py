"""Software aging and rejuvenation: faults, detectors, policies, availability.

§2 motivates rejuvenation with concrete Xen defects; this package injects
them (:class:`AgingFaults`), watches their effect (:class:`AgingMonitor`),
schedules rejuvenation (time- and threshold-based policies, §3.2), and
computes service availability from measured downtimes (§5.3).

:class:`AgingFaults` is defined in :mod:`repro.config` (the VMM, below
this package, consults it) and re-exported here.  The policy/detector
classes depend on :mod:`repro.core` (they drive a host), so those
heavier exports are loaded lazily to keep the import graph acyclic.
"""

from repro.aging.availability import (
    RejuvenationPlan,
    format_availability,
    paper_plans,
)
from repro.config import AgingFaults

__all__ = [
    "AgingFaults",
    "AgingMonitor",
    "CrashWatchdog",
    "HeapExhaustionCrasher",
    "RejuvenationPlan",
    "ResourceSample",
    "ScheduledEvent",
    "ThresholdRejuvenator",
    "TimeBasedRejuvenator",
    "format_availability",
    "paper_plans",
]

_LAZY = {
    "AgingMonitor": ("repro.aging.detectors", "AgingMonitor"),
    "CrashWatchdog": ("repro.aging.watchdog", "CrashWatchdog"),
    "HeapExhaustionCrasher": ("repro.aging.watchdog", "HeapExhaustionCrasher"),
    "ResourceSample": ("repro.aging.detectors", "ResourceSample"),
    "ScheduledEvent": ("repro.aging.policy", "ScheduledEvent"),
    "ThresholdRejuvenator": ("repro.aging.policy", "ThresholdRejuvenator"),
    "TimeBasedRejuvenator": ("repro.aging.policy", "TimeBasedRejuvenator"),
}


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        module_name, attribute = _LAZY[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError(f"module 'repro.aging' has no attribute {name!r}")
