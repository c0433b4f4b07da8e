"""Per-run telemetry blobs, the merged bundle, and its exporters.

Every exported run is a :class:`TelemetryBundle`.  A fleet run executes
its shards in worker processes; the simulators die with the workers, so
anything observability needs must travel home as plain data through the
cell protocol.  :func:`capture_shard` snapshots one simulator into a
:class:`ShardTelemetry` blob — resolved span intervals, the
decision/availability trace records, full metric sample series, and the
control plane's audit + trigger log — and :meth:`TelemetryBundle.merge`
folds the ordered blobs into one bundle with host→shard provenance.  A
single in-process run (a scenario, an experiment sweep, the self-check's
warm reboot) is the same thing with one shard per simulator:
:func:`instrumented` collects the simulators a block builds and
:meth:`TelemetryBundle.from_simulators` captures them.

The bundle is the *single source* for every export:

* :meth:`TelemetryBundle.to_perfetto` — one merged Chrome trace-event
  document, one process group per shard (span thread tracks + counter
  tracks), loadable directly in https://ui.perfetto.dev;
* :meth:`TelemetryBundle.to_prometheus` — one text exposition page whose
  samples carry a ``shard`` label on top of the instrument labels
  (:func:`render_prometheus`, with :func:`parse_prometheus` as its
  dependency-free inverse);
* :func:`repro.obs.timeline.decision_timelines` — causal chains per
  control-plane decision, reconstructed from the bundle alone.

Everything is strict-JSON plain data and built in deterministic order,
so serial, sharded-parallel and cache-replayed fleet runs produce
bit-identical bundles (the same discipline the fleet report itself is
pinned to).
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
import typing

from repro.errors import AnalysisError
from repro.simkernel import kernel as _kernel
from repro.simkernel.metrics import METRIC_SCHEMA
from repro.simkernel.spans import resolve_spans

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.simkernel.kernel import Simulator

_US = 1e6
"""Chrome trace-event timestamps are microseconds; the clock is seconds."""

RECORD_PREFIXES = ("service.", "control.decision")
"""Trace-record kinds a shard blob carries: the availability signal
(service up/down transitions) and the control plane's decisions."""


@dataclasses.dataclass
class ShardTelemetry:
    """One shard's observability state, as plain data.

    ``spans`` are resolved intervals (begin/end records joined):
    ``{"span", "parent", "name", "actor", "detail", "start", "end"}``
    with ``end: None`` for a span still open at capture.  ``records``
    are flattened trace records ``{"time", "kind", **fields}`` for the
    :data:`RECORD_PREFIXES` kinds.  ``metrics`` is a
    :meth:`~repro.simkernel.metrics.MetricsRegistry.series_snapshot`.
    ``audit``/``triggers`` are the shard control loop's decision audit
    and trigger log (empty without a policy).
    """

    shard: int
    hosts: list[str]
    spans: list[dict]
    records: list[dict]
    metrics: dict[str, list[dict]]
    audit: list[dict]
    triggers: list[dict]

    def to_dict(self) -> dict:
        """The blob as plain data (the cell-payload form).

        A dict over the blob's own containers, not a copy: the data was
        copied out of the simulator once, by :func:`capture_shard`, and
        every holder after that treats it as read-only.
        """
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardTelemetry":
        """Rebuild a blob from :meth:`to_dict` output; a missing or
        unknown field raises :class:`AnalysisError`."""
        try:
            return cls(**data)
        except TypeError as exc:
            raise AnalysisError(f"malformed shard telemetry: {exc}") from None


def capture_shard(
    sim: "Simulator",
    shard: int,
    hosts: typing.Sequence[str],
    audit: typing.Sequence[dict] = (),
    triggers: typing.Sequence[dict] = (),
) -> ShardTelemetry:
    """Snapshot one shard simulator into a plain-data telemetry blob.

    This is the one place telemetry is copied out of live state: the
    blob shares no container with the simulator or the control loop, so
    everything downstream (cell payload, merge, bundle, fleet report)
    hands it over by reference.
    """
    flat: list[tuple[int, dict]] = []
    for prefix in RECORD_PREFIXES:
        for record in sim.trace.select(prefix):
            flat.append(
                (
                    record.sequence,
                    {"time": record.time, "kind": record.kind, **record.fields},
                )
            )
    flat.sort(key=lambda item: item[0])
    return ShardTelemetry(
        shard=shard,
        hosts=list(hosts),
        spans=resolve_spans(sim.trace),
        records=[record for _, record in flat],
        metrics=sim.metrics.series_snapshot() if sim.metrics.enabled else {},
        audit=[dict(entry) for entry in audit],
        triggers=[dict(entry) for entry in triggers],
    )


@contextlib.contextmanager
def instrumented() -> typing.Iterator[list["Simulator"]]:
    """Collect every :class:`Simulator` constructed inside the block, with
    metrics collection forced on.

    Runners build their simulators deep inside builders and testbed
    helpers; ``--trace-out`` needs a handle on them afterwards.  The
    kernel calls construction-time observers, so the yielded list fills
    in construction order.  ``REPRO_METRICS`` (which a simulator reads
    when it is built) is ``1`` inside the block and restored on exit,
    also when the block raises.
    """
    captured: list["Simulator"] = []
    observer = captured.append
    previous = os.environ.get("REPRO_METRICS")
    os.environ["REPRO_METRICS"] = "1"
    _kernel._observers.append(observer)
    try:
        yield captured
    finally:
        _kernel._observers.remove(observer)
        if previous is None:
            del os.environ["REPRO_METRICS"]
        else:
            os.environ["REPRO_METRICS"] = previous


@dataclasses.dataclass
class TelemetryBundle:
    """The merge of every shard's telemetry blob: a fleet run's shards, or
    the simulators of an in-process run (:meth:`from_simulators`)."""

    fleet: str
    shards: list[ShardTelemetry]

    @classmethod
    def merge(
        cls, fleet: str, blobs: typing.Sequence[dict]
    ) -> "TelemetryBundle":
        """Fold ordered per-shard blob dicts (the cell payload form) into
        one bundle.  Order must be shard order — the fleet runner passes
        payloads already ordered, which keeps merged documents (and the
        bit-identity gate over them) deterministic."""
        shards = [ShardTelemetry.from_dict(blob) for blob in blobs]
        for position, shard in enumerate(shards):
            if shard.shard != position:
                raise AnalysisError(
                    f"telemetry blobs out of order: position {position} "
                    f"holds shard {shard.shard}"
                )
        return cls(fleet=fleet, shards=shards)

    @classmethod
    def from_simulators(
        cls, name: str, sims: typing.Sequence["Simulator"]
    ) -> "TelemetryBundle":
        """The bundle of an in-process run: simulator *i* becomes shard
        *i* (no host provenance), captured and merged like fleet shards."""
        return cls.merge(
            name,
            [
                capture_shard(sim, shard, hosts=()).to_dict()
                for shard, sim in enumerate(sims)
            ],
        )

    # -- provenance ---------------------------------------------------------------

    def host_shard(self) -> dict[str, int]:
        """Host name -> owning shard index (the provenance map)."""
        out: dict[str, int] = {}
        for shard in self.shards:
            for host in shard.hosts:
                if host in out:
                    raise AnalysisError(
                        f"host {host!r} appears in shards {out[host]} "
                        f"and {shard.shard}"
                    )
                out[host] = shard.shard
        return out

    # -- (de)serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        """The bundle as plain data: fleet name, host→shard map, blobs.

        The shard dicts are views over the blobs' own containers (see
        :meth:`ShardTelemetry.to_dict`); nothing is copied.
        """
        return {
            "fleet": self.fleet,
            "hosts": self.host_shard(),
            "shards": [shard.to_dict() for shard in self.shards],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryBundle":
        """Rebuild a bundle from :meth:`to_dict` output (the form a fleet
        report carries); malformed input raises :class:`AnalysisError`."""
        try:
            fleet = data["fleet"]
            blobs = data["shards"]
        except (TypeError, KeyError) as exc:
            raise AnalysisError(
                f"malformed telemetry bundle: missing {exc}"
            ) from None
        return cls.merge(fleet, blobs)

    def write(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Serialize the bundle to strict JSON at ``path``."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, allow_nan=False)
        return path

    @classmethod
    def load(cls, path: "str | pathlib.Path") -> "TelemetryBundle":
        """Load a bundle previously serialized with :meth:`write`."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            raise AnalysisError(f"{path}: no such telemetry bundle") from None
        except json.JSONDecodeError as exc:
            raise AnalysisError(f"{path}: invalid JSON: {exc}") from None
        return cls.from_dict(data)

    # -- merged Perfetto document -------------------------------------------------

    def to_perfetto(self) -> dict:
        """One merged Chrome trace-event document for the whole fleet.

        Each shard contributes two process groups: ``shardN spans``
        (pid ``2N+1``; one thread track per span actor) and ``shardN
        metrics`` (pid ``2N+2``; one counter track per instrument label
        set).  Track names already carry host labels, so the per-shard
        process split is pure provenance — sorting by pid in the Perfetto
        UI groups every host's activity under its owning shard.
        """
        events: list[dict] = []
        for shard in self.shards:
            span_pid = 2 * shard.shard + 1
            metric_pid = 2 * shard.shard + 2
            events.append(
                {
                    "ph": "M", "pid": span_pid, "name": "process_name",
                    "args": {"name": f"shard{shard.shard} spans"},
                }
            )
            actors = sorted({span["actor"] for span in shard.spans})
            tids = {actor: tid for tid, actor in enumerate(actors, start=1)}
            for actor, tid in tids.items():
                events.append(
                    {
                        "ph": "M", "pid": span_pid, "tid": tid,
                        "name": "thread_name", "args": {"name": actor},
                    }
                )
            horizon = max(
                (
                    span["end"] if span["end"] is not None else span["start"]
                    for span in shard.spans
                ),
                default=0.0,
            )
            for span in shard.spans:
                end = span["end"] if span["end"] is not None else horizon
                args: dict[str, typing.Any] = {
                    "span": span["span"],
                    "parent": span["parent"],
                    "detail": span["detail"],
                    "shard": shard.shard,
                }
                if span["end"] is None:
                    args["open"] = True
                name = (
                    f"{span['name']}:{span['detail']}"
                    if span["detail"]
                    else span["name"]
                )
                events.append(
                    {
                        "ph": "X",
                        "pid": span_pid,
                        "tid": tids[span["actor"]],
                        "ts": span["start"] * _US,
                        "dur": (end - span["start"]) * _US,
                        "name": name,
                        "args": args,
                    }
                )
            if not shard.metrics:
                continue
            events.append(
                {
                    "ph": "M", "pid": metric_pid, "name": "process_name",
                    "args": {"name": f"shard{shard.shard} metrics"},
                }
            )
            for metric_name in sorted(shard.metrics):
                for entry in shard.metrics[metric_name]:
                    if "times" not in entry:
                        continue  # histograms keep no series
                    label_text = ",".join(
                        f"{k}={v}" for k, v in sorted(entry["labels"].items())
                    )
                    track = (
                        f"{metric_name}{{{label_text}}}"
                        if label_text
                        else metric_name
                    )
                    for t, v in zip(entry["times"], entry["values"]):
                        events.append(
                            {
                                "ph": "C", "pid": metric_pid, "ts": t * _US,
                                "name": track, "args": {"value": v},
                            }
                        )
        return {"displayTimeUnit": "ms", "traceEvents": events}

    def write_perfetto(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Serialize :meth:`to_perfetto` to ``path`` (strict JSON)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            json.dump(self.to_perfetto(), handle, allow_nan=False)
        return path

    # -- merged Prometheus page ---------------------------------------------------

    def merged_snapshot(self) -> dict[str, list[dict]]:
        """A fleet-wide value snapshot: every shard's instruments with a
        ``shard`` provenance label merged into their label sets.

        The shape matches :meth:`MetricsRegistry.snapshot`, so
        :func:`render_prometheus` renders it unchanged — one page for the
        whole fleet.
        """
        out: dict[str, list[dict]] = {}
        for shard in self.shards:
            for metric_name in shard.metrics:
                for entry in shard.metrics[metric_name]:
                    merged: dict[str, typing.Any] = {
                        "labels": {
                            **entry["labels"],
                            "shard": str(shard.shard),
                        }
                    }
                    for key in ("value", "count", "sum", "buckets"):
                        if key in entry:
                            merged[key] = entry[key]
                    out.setdefault(metric_name, []).append(merged)
        return out

    def to_prometheus(self) -> str:
        """The merged fleet Prometheus text exposition."""
        return render_prometheus(self.merged_snapshot())

    def write_prometheus(self, path: "str | pathlib.Path") -> pathlib.Path:
        """Write :meth:`to_prometheus` to ``path``."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_prometheus(), encoding="utf-8")
        return path

    # -- SLO inputs ---------------------------------------------------------------

    def sli_rows(self) -> list[dict]:
        """Per-workload SLI rows recovered from the ``fleet.*`` gauges.

        ``run_fleet_shard`` publishes each measured row's downtime and
        availability as gauges labelled ``(host, vm, kind)``; reading
        them back here is what lets the SLO engine (and the obs-check
        zero-deviation gate) run from the merged telemetry alone.
        """
        rows: dict[tuple, dict] = {}
        for shard in self.shards:
            for metric_name, field in (
                ("fleet.downtime_seconds", "downtime_s"),
                ("fleet.availability", "availability"),
            ):
                for entry in shard.metrics.get(metric_name, ()):
                    key = tuple(sorted(entry["labels"].items()))
                    row = rows.setdefault(
                        key, {**entry["labels"], "shard": shard.shard}
                    )
                    row[field] = entry["value"]
        return [rows[key] for key in sorted(rows)]

    def all_records(self) -> list[dict]:
        """Every shard's trace records with shard provenance attached."""
        out: list[dict] = []
        for shard in self.shards:
            for record in shard.records:
                out.append({**record, "shard": shard.shard})
        return out


# -- Prometheus text exposition ---------------------------------------------------


def _prom_name(name: str) -> str:
    """``disk.queue_depth`` -> ``repro_disk_queue_depth``."""
    return "repro_" + name.replace(".", "_")


def _prom_labels(labels: typing.Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '{}="{}"'.format(
            k, str(v).replace("\\", r"\\").replace('"', r"\"")
        )
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(
    snapshot: typing.Mapping[str, list[dict[str, typing.Any]]]
) -> str:
    """Prometheus text exposition of a registry snapshot.

    ``snapshot`` has the :meth:`~repro.simkernel.metrics.MetricsRegistry.snapshot`
    shape (:meth:`TelemetryBundle.merged_snapshot` is one).  Counters get
    the conventional ``_total`` suffix; histograms expand to
    ``_bucket{le=...}`` / ``_sum`` / ``_count`` with cumulative buckets.
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        spec = METRIC_SCHEMA.get(name)
        if spec is None:
            raise AnalysisError(f"snapshot holds unregistered metric {name!r}")
        base = _prom_name(name)
        sample_name = base + ("_total" if spec.kind == "counter" else "")
        lines.append(f"# HELP {base} {spec.help}")
        lines.append(f"# TYPE {base} {spec.kind}")
        for entry in snapshot[name]:
            labels = entry["labels"]
            if spec.kind == "histogram":
                for le, count in entry["buckets"]:
                    le_text = le if le == "+Inf" else repr(float(le))
                    lines.append(
                        f"{base}_bucket"
                        f"{_prom_labels({**labels, 'le': le_text})}"
                        f" {count}"
                    )
                lines.append(f"{base}_sum{_prom_labels(labels)} {entry['sum']!r}")
                lines.append(f"{base}_count{_prom_labels(labels)} {entry['count']}")
            else:
                lines.append(
                    f"{sample_name}{_prom_labels(labels)} {entry['value']!r}"
                )
    return "\n".join(lines) + "\n"


def parse_prometheus(
    text: str,
) -> dict[tuple[str, tuple[tuple[str, str], ...]], float]:
    """Parse a text exposition back into ``(name, labels) -> value``.

    Supports exactly what :func:`render_prometheus` emits (one sample per
    line, ``#`` comments); round-trip checks diff this against the
    snapshot the text came from.
    """
    out: dict[tuple[str, tuple[tuple[str, str], ...]], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if not name_part:
            raise AnalysisError(f"malformed sample on line {lineno}: {line!r}")
        labels: list[tuple[str, str]] = []
        if name_part.endswith("}"):
            name, _, label_text = name_part.partition("{")
            for item in label_text[:-1].split(","):
                key, _, raw = item.partition("=")
                if not raw.startswith('"') or not raw.endswith('"'):
                    raise AnalysisError(
                        f"malformed label on line {lineno}: {item!r}"
                    )
                labels.append(
                    (key, raw[1:-1].replace(r"\"", '"').replace(r"\\", "\\"))
                )
        else:
            name = name_part
        out[(name, tuple(labels))] = float(value_part)
    return out
