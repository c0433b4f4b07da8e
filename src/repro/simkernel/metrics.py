"""Metrics registry: counters, gauges and histograms for simulations.

Trace records capture *events*; metrics capture *levels and totals* —
disk queue depth, hypercall counts by type, request-latency
distributions.  Every :class:`~repro.simkernel.kernel.Simulator` carries
a :class:`MetricsRegistry` as ``sim.metrics``; components create their
instruments once (or look them up per label set — lookups are a dict
get) and bump them on the paths they already execute.

Two properties are load-bearing:

* **Zero-overhead when disabled.**  Metrics are off by default (enable
  with ``Simulator(metrics=True)`` or ``REPRO_METRICS=1``).  A disabled
  registry hands out the shared :data:`NULL` instrument whose methods
  are empty — no name validation, no label hashing, no allocation — so
  the hot paths the perf harness guards pay a single no-op call at most.
* **Zero perturbation when enabled.**  Instruments only accumulate
  Python numbers; they never schedule events, draw randomness, or touch
  component state, so experiment rows are bit-identical with metrics on
  or off (the determinism contract; pinned by the golden-rows tests).

When enabled, every counter/gauge update also appends an
``(time, value)`` sample pair, which is what the telemetry bundle's
Perfetto exporter (:mod:`repro.obs.bundle`) turns into counter tracks.  Histograms keep
bucket counts only — their Prometheus exposition does not need a time
series.

Metric names form a closed registry (:data:`METRIC_SCHEMA`), mirroring
``TRACE_SCHEMA`` for trace kinds: creation validates the name and
instrument kind, and simlint rule SL008 enforces the same statically.
"""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator


class MetricSpec(typing.NamedTuple):
    """Declared shape of one metric (see :data:`METRIC_SCHEMA`)."""

    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    unit: str = ""
    buckets: tuple[float, ...] = ()


LATENCY_BUCKETS_S = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)
"""Request-latency histogram bounds: sub-ms page-cache hits up to
multi-second outage-straddling requests (plus the implicit +Inf)."""


METRIC_SCHEMA: dict[str, MetricSpec] = {
    # hardware layer
    "disk.queue_depth": MetricSpec(
        "gauge", "In-flight transfer count per disk", "requests"
    ),
    "disk.busy_seconds": MetricSpec(
        "counter", "Cumulative disk service time", "seconds"
    ),
    "nic.tx_bytes": MetricSpec("counter", "Bytes sent on a link", "bytes"),
    "cpu.runnable": MetricSpec(
        "gauge", "Jobs sharing a CPU pool", "jobs"
    ),
    # hypervisor layer
    "vmm.hypercalls": MetricSpec(
        "counter", "Hypercalls served, labelled by type", "calls"
    ),
    "vmm.event_channel_sends": MetricSpec(
        "counter", "Event-channel notifications sent", "notifications"
    ),
    "vmm.xenstore_used_bytes": MetricSpec(
        "gauge", "Xenstore daemon heap in use (live + leaked)", "bytes"
    ),
    "vmm.xenstore_leaked_bytes": MetricSpec(
        "gauge", "Xenstore heap lost to the aging leak", "bytes"
    ),
    "vmm.heap_used_bytes": MetricSpec(
        "gauge", "VMM heap in use (live + leaked)", "bytes"
    ),
    "vmm.heap_leaked_bytes": MetricSpec(
        "gauge", "VMM heap lost to the aging leak", "bytes"
    ),
    # guest layer
    "guest.page_cache_hit_bytes": MetricSpec(
        "counter", "File-read bytes served from the page cache", "bytes"
    ),
    "guest.page_cache_miss_bytes": MetricSpec(
        "counter", "File-read bytes that went to disk", "bytes"
    ),
    "guest.tcp_retransmits": MetricSpec(
        "counter", "TCP probe retransmissions while a peer was down", "probes"
    ),
    # workload layer
    "httperf.request_latency": MetricSpec(
        "histogram",
        "End-to-end HTTP request latency",
        "seconds",
        LATENCY_BUCKETS_S,
    ),
    "httperf.errors": MetricSpec(
        "counter", "HTTP requests that exhausted their retries", "requests"
    ),
    "fluid.completed_requests": MetricSpec(
        "counter", "Fluid-model request completions (fractional)", "requests"
    ),
    "fluid.failed_requests": MetricSpec(
        "counter", "Fluid-model failed requests while unreachable", "requests"
    ),
    # fleet tier: measured per-row SLIs published by run_fleet_shard so a
    # merged telemetry bundle carries exactly the values a FleetReport
    # reports (the zero-deviation agreement obs-check asserts)
    "fleet.downtime_seconds": MetricSpec(
        "gauge", "Measured workload downtime over the observation window",
        "seconds",
    ),
    "fleet.availability": MetricSpec(
        "gauge", "Measured workload availability over the observation window",
        "ratio",
    ),
}
"""The registered metric names — the only ones an enabled registry will
instantiate.  SL008 rejects unregistered literal names statically."""


class _NullInstrument:
    """Shared do-nothing instrument handed out by disabled registries."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL = _NullInstrument()
"""The disabled-path singleton; all no-op, safe to share everywhere."""


class Counter:
    """Monotonic accumulator with an update-time sample series."""

    __slots__ = ("name", "labels", "value", "_sim", "series_times", "series_values")

    def __init__(self, sim: "Simulator", name: str, labels: dict[str, str]) -> None:
        self._sim = sim
        self.name = name
        self.labels = labels
        self.value: float = 0
        self.series_times: list[float] = []
        self.series_values: list[float] = []

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (>= 0) and record an ``(now, total)`` sample."""
        if amount < 0:
            raise SimulationError(f"counter {self.name} decremented by {amount}")
        self.value += amount
        self.series_times.append(self._sim._now)
        self.series_values.append(self.value)


class Gauge:
    """Last-write-wins level with an update-time sample series."""

    __slots__ = ("name", "labels", "value", "_sim", "series_times", "series_values")

    def __init__(self, sim: "Simulator", name: str, labels: dict[str, str]) -> None:
        self._sim = sim
        self.name = name
        self.labels = labels
        self.value: float = 0
        self.series_times: list[float] = []
        self.series_values: list[float] = []

    def set(self, value: float) -> None:
        """Overwrite the level and record an ``(now, value)`` sample."""
        self.value = value
        self.series_times.append(self._sim._now)
        self.series_values.append(value)


class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics: ``le`` bounds)."""

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "count", "sum")

    def __init__(
        self,
        sim: "Simulator",
        name: str,
        labels: dict[str, str],
        bounds: tuple[float, ...],
    ) -> None:
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)  # non-cumulative per bound
        self.count = 0
        self.sum: float = 0.0

    def observe(self, value: float) -> None:
        """Record one observation into its (non-cumulative) bucket."""
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break
        # beyond the last bound: lands only in the implicit +Inf bucket

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, +Inf last (== ``count``)."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out


Instrument = typing.Union[Counter, Gauge, Histogram, _NullInstrument]


class MetricsRegistry:
    """Per-simulator instrument registry; see the module docstring.

    Instruments are keyed by ``(name, sorted labels)`` so repeated
    factory calls (e.g. ``vmm.hypercalls`` looked up per hypercall type)
    return the same object.
    """

    __slots__ = ("_sim", "enabled", "_instruments")

    def __init__(self, sim: "Simulator", enabled: bool) -> None:
        self._sim = sim
        self.enabled = enabled
        self._instruments: dict[
            tuple[str, tuple[tuple[str, str], ...]], Instrument
        ] = {}

    # -- instrument factories ----------------------------------------------------

    def counter(self, name: str, **labels: str) -> "Counter | _NullInstrument":
        """The counter for ``(name, labels)`` (:data:`NULL` when disabled)."""
        if not self.enabled:
            return NULL
        return self._get(name, "counter", labels)

    def gauge(self, name: str, **labels: str) -> "Gauge | _NullInstrument":
        """The gauge for ``(name, labels)`` (:data:`NULL` when disabled)."""
        if not self.enabled:
            return NULL
        return self._get(name, "gauge", labels)

    def histogram(self, name: str, **labels: str) -> "Histogram | _NullInstrument":
        """The histogram for ``(name, labels)`` (:data:`NULL` when disabled)."""
        if not self.enabled:
            return NULL
        return self._get(name, "histogram", labels)

    def _get(self, name: str, kind: str, labels: dict[str, str]) -> Instrument:
        key = (name, tuple(sorted(labels.items())))
        instrument = self._instruments.get(key)
        if instrument is not None:
            return instrument
        spec = METRIC_SCHEMA.get(name)
        if spec is None:
            raise SimulationError(
                f"metric {name!r} is not registered in METRIC_SCHEMA"
            )
        if spec.kind != kind:
            raise SimulationError(
                f"metric {name!r} is declared a {spec.kind}, requested as {kind}"
            )
        if kind == "counter":
            instrument = Counter(self._sim, name, dict(labels))
        elif kind == "gauge":
            instrument = Gauge(self._sim, name, dict(labels))
        else:
            instrument = Histogram(self._sim, name, dict(labels), spec.buckets)
        self._instruments[key] = instrument
        return instrument

    # -- inspection ---------------------------------------------------------------

    def instruments(self) -> list[Instrument]:
        """All live instruments, ordered by (name, labels) for determinism."""
        return [self._instruments[key] for key in sorted(self._instruments)]

    def snapshot(self) -> dict[str, list[dict[str, typing.Any]]]:
        """Plain-data dump: name -> per-label-set sample dicts.

        JSON-friendly and picklable, so it can travel through the
        parallel sweep engine's content-addressed cache inside a
        :class:`~repro.scenario.runner.ScenarioReport`.
        """
        out: dict[str, list[dict[str, typing.Any]]] = {}
        for instrument in self.instruments():
            entry: dict[str, typing.Any] = {"labels": dict(instrument.labels)}
            if isinstance(instrument, Histogram):
                entry["count"] = instrument.count
                entry["sum"] = instrument.sum
                # the +Inf bound travels as the Prometheus string "+Inf"
                # so snapshots stay strict-JSON (json's Infinity is not)
                entry["buckets"] = [
                    ["+Inf" if le == float("inf") else le, n]
                    for le, n in instrument.cumulative_buckets()
                ]
            else:
                entry["value"] = instrument.value
            out.setdefault(instrument.name, []).append(entry)
        return out

    def series_snapshot(self) -> dict[str, list[dict[str, typing.Any]]]:
        """Like :meth:`snapshot` but with full sample series.

        Counter/gauge entries additionally carry their ``(time, value)``
        sample series as parallel ``times``/``values`` lists; histogram
        entries are identical to :meth:`snapshot`'s (they keep no series).
        This is the per-shard telemetry blob format: plain data, strict
        JSON, deterministic order — what :mod:`repro.obs` merges across
        shards into fleet-wide Perfetto/Prometheus documents.
        """
        out: dict[str, list[dict[str, typing.Any]]] = {}
        for instrument in self.instruments():
            entry: dict[str, typing.Any] = {"labels": dict(instrument.labels)}
            if isinstance(instrument, Histogram):
                entry["count"] = instrument.count
                entry["sum"] = instrument.sum
                entry["buckets"] = [
                    ["+Inf" if le == float("inf") else le, n]
                    for le, n in instrument.cumulative_buckets()
                ]
            else:
                entry["value"] = instrument.value
                entry["times"] = list(instrument.series_times)
                entry["values"] = list(instrument.series_values)
            out.setdefault(instrument.name, []).append(entry)
        return out
