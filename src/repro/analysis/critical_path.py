"""The downtime critical path: a reboot's span tree as Figure 7 phases.

:func:`reboot_critical_path` walks a ``reboot`` span's ``reboot.phase``
children back into the per-phase breakdown of Figure 7, and
:func:`reconcile` asserts that the span view and the strategy's
:class:`~repro.core.strategies.RebootReport` agree — the two are
recorded by the same ``_PhaseClock`` instants, so any drift means an
instrumentation bug.  Both read the resolved span intervals of
:func:`repro.simkernel.spans.resolve_spans`, the same join the telemetry
bundle stores.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.errors import AnalysisError
from repro.simkernel.spans import resolve_spans

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.strategies import RebootReport
    from repro.simkernel.tracing import Tracer


@dataclasses.dataclass(frozen=True)
class CriticalPathEntry:
    """One ``reboot.phase`` child span on a reboot's critical path."""

    phase: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Seconds the phase took."""
        return self.end - self.start


@dataclasses.dataclass
class CriticalPath:
    """A reboot span resolved into its ordered phase intervals.

    The strategies run their phases back-to-back in one process, so the
    phase chain *is* the critical path of the rejuvenation: ``total``
    should equal ``phase_sum`` up to float association error, and any
    larger ``gap`` is time the instrumentation failed to attribute.
    """

    strategy: str
    """The reboot strategy (the root span's detail)."""
    start: float
    end: float
    entries: list[CriticalPathEntry]

    @property
    def total(self) -> float:
        """End-to-end reboot duration measured by the root span."""
        return self.end - self.start

    @property
    def phase_sum(self) -> float:
        """Sum of the phase durations (the Figure 7 breakdown total)."""
        return sum(entry.duration for entry in self.entries)

    @property
    def gap(self) -> float:
        """Reboot time not attributed to any phase."""
        return self.total - self.phase_sum

    def entry(self, phase: str) -> CriticalPathEntry:
        """The named phase; raises :class:`AnalysisError` if absent."""
        for candidate in self.entries:
            if candidate.phase == phase:
                return candidate
        raise AnalysisError(f"critical path has no phase {phase!r}")


def reboot_critical_path(
    trace: "Tracer",
    host: str | None = None,
    occurrence: int = 0,
) -> CriticalPath:
    """The ``occurrence``-th completed reboot's phase breakdown, from spans.

    ``host`` filters by the rebooting host's actor name when several hosts
    reboot in one simulation (cluster scenarios).
    """
    spans = resolve_spans(trace)
    reboots = [
        span
        for span in spans
        if span["name"] == "reboot"
        and span["end"] is not None
        and (host is None or span["actor"] == host)
    ]
    if occurrence >= len(reboots):
        raise AnalysisError(
            f"trace holds {len(reboots)} completed reboot span(s)"
            + (f" for host {host!r}" if host else "")
            + f"; occurrence {occurrence} requested"
        )
    reboot = reboots[occurrence]
    entries = [
        CriticalPathEntry(span["detail"], span["start"], span["end"])
        for span in spans
        if span["parent"] == reboot["span"]
        and span["name"] == "reboot.phase"
        and span["end"] is not None
    ]
    return CriticalPath(reboot["detail"], reboot["start"], reboot["end"], entries)


def reconcile(
    path: CriticalPath, report: "RebootReport", tolerance: float = 1e-6
) -> float:
    """Check a span critical path against the strategy's own report.

    Both are stamped by the same ``_PhaseClock`` instants, so phase names
    must match in order and every boundary must agree to ``tolerance``
    (sums of float intervals do not telescope exactly).  Returns the
    maximum absolute deviation found; raises :class:`AnalysisError` on a
    structural mismatch or a deviation beyond ``tolerance``.
    """
    if path.strategy != report.strategy.value:
        raise AnalysisError(
            f"span strategy {path.strategy!r} != report "
            f"{report.strategy.value!r}"
        )
    span_phases = [entry.phase for entry in path.entries]
    report_phases = [phase.name for phase in report.phases]
    if span_phases != report_phases:
        raise AnalysisError(
            f"phase mismatch: spans {span_phases} vs report {report_phases}"
        )
    deviations = [
        abs(path.start - report.started),
        abs(path.end - report.finished),  # type: ignore[operator]
        abs(path.total - report.total),
        abs(path.phase_sum - sum(p.duration for p in report.phases)),
        abs(path.gap),
    ]
    for entry, phase in zip(path.entries, report.phases):
        deviations.append(abs(entry.start - phase.start))
        deviations.append(abs(entry.end - phase.end))
        deviations.append(abs(entry.duration - phase.duration))
    worst = max(deviations)
    if worst > tolerance:
        raise AnalysisError(
            f"span tree and reboot report disagree by {worst:.3g} s "
            f"(tolerance {tolerance:.3g} s)"
        )
    return worst
