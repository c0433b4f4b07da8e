"""Observability: the telemetry bundle, SLOs, decision timelines.

The simulator and the scenario/fleet tiers *collect* telemetry (metric
series, causal spans, control audits); this package is where it becomes
*legible*, for one run or a whole fleet:

* :mod:`repro.obs.bundle` — per-shard telemetry blobs (captured in fleet
  workers, or from in-process simulators via :func:`instrumented`)
  merged into one :class:`TelemetryBundle` with host→shard provenance,
  the only exporter: one Perfetto document and one Prometheus page per
  run;
* :mod:`repro.obs.slo` — declarative service-level objectives (the
  ``[slo]`` TOML table) evaluated into burn-rate series and pass/fail
  reports;
* :mod:`repro.obs.timeline` — every control-plane decision reconciled
  with its surrounding telemetry into a causal chain: detector trigger →
  plan → action spans → downtime consequence;
* ``python -m repro.obs`` — the CLI over all three (``explain`` a bundle,
  ``check`` the whole pipeline end-to-end, single run and fleet).
"""

from repro.obs.bundle import (
    ShardTelemetry,
    TelemetryBundle,
    capture_shard,
    instrumented,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.slo import (
    SLOSpec,
    burn_rate_series,
    evaluate_slo,
    histogram_quantile,
    merge_latency_histogram,
    outage_intervals,
    render_slo,
)
from repro.obs.timeline import (
    DecisionTimeline,
    decision_timelines,
    render_timelines,
)

__all__ = [
    "DecisionTimeline",
    "SLOSpec",
    "ShardTelemetry",
    "TelemetryBundle",
    "burn_rate_series",
    "capture_shard",
    "decision_timelines",
    "evaluate_slo",
    "histogram_quantile",
    "instrumented",
    "merge_latency_histogram",
    "outage_intervals",
    "parse_prometheus",
    "render_prometheus",
    "render_slo",
    "render_timelines",
]
