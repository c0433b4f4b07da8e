"""Telemetry blobs and the merged bundle: capture, merge, exports.

The golden-document tests pin the exact merged Perfetto shape and the
Prometheus round trip, because both are consumed outside this codebase
(the Perfetto UI, Prometheus scrapers) where "close enough" drifts are
invisible until someone loads a broken file.
"""

import json

import pytest

from repro.errors import AnalysisError
from repro.obs import (
    ShardTelemetry,
    TelemetryBundle,
    capture_shard,
    parse_prometheus,
)
from repro.simkernel import Simulator

_US = 1e6


def _blob(shard=0, hosts=("host0",)):
    """A hand-built shard blob in exactly the cell-payload shape."""
    return {
        "shard": shard,
        "hosts": list(hosts),
        "spans": [
            {"span": 1, "parent": 0, "name": "reboot", "actor": hosts[0],
             "detail": "warm", "start": 60.0, "end": 100.0},
            {"span": 2, "parent": 0, "name": "fleet.host",
             "actor": hosts[0], "detail": "", "start": 0.0, "end": None},
        ],
        "records": [
            {"time": 60.0, "kind": "service.down", "service": "apache0",
             "service_kind": "apache", "domain": "vm0"},
            {"time": 90.0, "kind": "service.up", "service": "apache0",
             "service_kind": "apache", "domain": "vm0"},
        ],
        "metrics": {
            "fleet.availability": [
                {"labels": {"host": hosts[0], "vm": "vm0",
                            "kind": "httperf"},
                 "value": 0.875, "times": [240.0], "values": [0.875]},
            ],
            "fleet.downtime_seconds": [
                {"labels": {"host": hosts[0], "vm": "vm0",
                            "kind": "httperf"},
                 "value": 30.0, "times": [240.0], "values": [30.0]},
            ],
        },
        "audit": [],
        "triggers": [],
    }


class TestCaptureShard:
    def test_snapshots_spans_records_and_metrics(self):
        sim = Simulator(metrics=True)

        def activity():
            with sim.spans.span("reboot", actor="host0", detail="warm"):
                sim.trace.record(
                    "service.down", service="apache0",
                    service_kind="apache", domain="vm0",
                )
                yield sim.timeout(40.0)
                sim.trace.record(
                    "service.up", service="apache0",
                    service_kind="apache", domain="vm0",
                )
            sim.metrics.counter("nic.tx_bytes", nic="host0.nic").inc(512.0)

        sim.run(sim.spawn(activity()))
        audit = [{"time": 40.0, "cycle": 0, "action": "no-op",
                  "target": "", "outcome": "noop", "span": 1}]
        blob = capture_shard(sim, 3, ["host0"], audit=audit)
        assert blob.shard == 3 and blob.hosts == ["host0"]
        (span,) = blob.spans
        assert span["name"] == "reboot" and span["actor"] == "host0"
        assert span["start"] == 0.0 and span["end"] == 40.0
        assert [r["kind"] for r in blob.records] == [
            "service.down", "service.up",
        ]
        assert blob.metrics["nic.tx_bytes"][0]["values"] == [512.0]
        assert blob.audit == audit
        # The blob is plain data: it survives its own dict round trip.
        assert ShardTelemetry.from_dict(blob.to_dict()) == blob

    def test_blob_shares_nothing_with_live_state(self):
        """Capture is the one copy out of the simulator: running on and
        mutating the registry, the trace and the control loop's audit
        and trigger entries afterwards leaves the blob unchanged."""
        sim = Simulator(metrics=True)
        counter = sim.metrics.counter("nic.tx_bytes", nic="host0.nic")

        def activity():
            with sim.spans.span("reboot", actor="host0", detail="warm"):
                sim.trace.record(
                    "service.down", service="apache0",
                    service_kind="apache", domain="vm0",
                )
                counter.inc(512.0)
                yield sim.timeout(40.0)
                # Past the capture: ends the open span, extends the
                # series and the trace.
                counter.inc(1024.0)
                sim.trace.record(
                    "service.up", service="apache0",
                    service_kind="apache", domain="vm0",
                )

        sim.spawn(activity())
        sim.run(until=20.0)
        audit = [{"time": 10.0, "cycle": 0, "action": "no-op",
                  "target": "", "outcome": "noop", "span": 1}]
        triggers = [{"time": 5.0, "detector": "aging", "host": "host0",
                     "value": 0.5}]
        blob = capture_shard(
            sim, 0, ["host0"], audit=audit, triggers=triggers
        )
        before = json.dumps(blob.to_dict())
        assert blob.spans[0]["end"] is None

        sim.run()
        sim.metrics.counter("nic.tx_bytes", nic="host1.nic").inc(1.0)
        audit[0]["outcome"] = "failed"
        audit.append(dict(audit[0]))
        triggers[0]["value"] = 9.0
        assert json.dumps(blob.to_dict()) == before

    def test_metrics_disabled_captures_empty_series(self, sim):
        blob = capture_shard(sim, 0, ["host0"])
        assert blob.metrics == {}

    def test_span_ended_twice_is_rejected(self, sim):
        # A corrupt trace must not be exported with its second end time
        # silently overwriting the first.
        with sim.spans.span("reboot", actor="host0") as span:
            pass
        sim.trace.record("span.end", span=span.id)
        with pytest.raises(AnalysisError, match="ended twice"):
            capture_shard(sim, 0, ["host0"])

    def test_malformed_blob_dict_is_rejected(self):
        with pytest.raises(AnalysisError, match="malformed"):
            ShardTelemetry.from_dict({"shard": 0})


class TestMerge:
    def test_merge_keeps_shard_order(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host1",))]
        )
        assert [s.shard for s in bundle.shards] == [0, 1]
        assert bundle.host_shard() == {"host0": 0, "host1": 1}

    def test_out_of_order_blobs_are_rejected(self):
        with pytest.raises(AnalysisError, match="out of order"):
            TelemetryBundle.merge(
                "fleet", [_blob(1, ("host1",)), _blob(0, ("host0",))]
            )

    def test_duplicate_host_provenance_is_rejected(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host0",))]
        )
        with pytest.raises(AnalysisError, match="appears in shards"):
            bundle.host_shard()

    def test_from_dict_requires_the_bundle_keys(self):
        with pytest.raises(AnalysisError, match="malformed"):
            TelemetryBundle.from_dict({"fleet": "x"})

    def test_write_load_roundtrip_is_bit_identical(self, tmp_path):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host1",))]
        )
        path = bundle.write(tmp_path / "bundle.json")
        loaded = TelemetryBundle.load(path)
        assert json.dumps(loaded.to_dict()) == json.dumps(bundle.to_dict())

    def test_load_missing_file_is_an_analysis_error(self, tmp_path):
        with pytest.raises(AnalysisError, match="no such"):
            TelemetryBundle.load(tmp_path / "absent.json")


class TestMergedPerfetto:
    def test_golden_document(self):
        """The exact merged Chrome trace-event document for a two-shard
        fleet — process split, track metadata, span args, counter
        samples.  Loadable as-is at ui.perfetto.dev."""
        blob1 = _blob(1, ("host1",))
        blob1["metrics"] = {}  # a shard without metrics skips its group
        bundle = TelemetryBundle.merge("fleet", [_blob(0), blob1])
        assert bundle.to_perfetto() == {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"ph": "M", "pid": 1, "name": "process_name",
                 "args": {"name": "shard0 spans"}},
                {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
                 "args": {"name": "host0"}},
                {"ph": "X", "pid": 1, "tid": 1, "ts": 60.0 * _US,
                 "dur": 40.0 * _US, "name": "reboot:warm",
                 "args": {"span": 1, "parent": 0, "detail": "warm",
                          "shard": 0}},
                {"ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
                 "dur": 100.0 * _US, "name": "fleet.host",
                 "args": {"span": 2, "parent": 0, "detail": "",
                          "shard": 0, "open": True}},
                {"ph": "M", "pid": 2, "name": "process_name",
                 "args": {"name": "shard0 metrics"}},
                {"ph": "C", "pid": 2, "ts": 240.0 * _US,
                 "name": "fleet.availability"
                         "{host=host0,kind=httperf,vm=vm0}",
                 "args": {"value": 0.875}},
                {"ph": "C", "pid": 2, "ts": 240.0 * _US,
                 "name": "fleet.downtime_seconds"
                         "{host=host0,kind=httperf,vm=vm0}",
                 "args": {"value": 30.0}},
                {"ph": "M", "pid": 3, "name": "process_name",
                 "args": {"name": "shard1 spans"}},
                {"ph": "M", "pid": 3, "tid": 1, "name": "thread_name",
                 "args": {"name": "host1"}},
                {"ph": "X", "pid": 3, "tid": 1, "ts": 60.0 * _US,
                 "dur": 40.0 * _US, "name": "reboot:warm",
                 "args": {"span": 1, "parent": 0, "detail": "warm",
                          "shard": 1}},
                {"ph": "X", "pid": 3, "tid": 1, "ts": 0.0,
                 "dur": 100.0 * _US, "name": "fleet.host",
                 "args": {"span": 2, "parent": 0, "detail": "",
                          "shard": 1, "open": True}},
            ],
        }

    def test_document_is_strict_json(self, tmp_path):
        bundle = TelemetryBundle.merge("fleet", [_blob(0)])
        path = bundle.write_perfetto(tmp_path / "fleet.perfetto.json")
        assert json.loads(path.read_text())["traceEvents"]


class TestMergedPrometheus:
    def test_round_trip_with_shard_labels(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host1",))]
        )
        parsed = parse_prometheus(bundle.to_prometheus())
        availability = {
            dict(labels)["host"]: (value, dict(labels)["shard"])
            for (name, labels), value in parsed.items()
            if name == "repro_fleet_availability"
        }
        # Values survive the text format exactly, with shard provenance.
        assert availability == {"host0": (0.875, "0"),
                               "host1": (0.875, "1")}

    def test_sli_rows_recover_the_report_rows(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host1",))]
        )
        rows = bundle.sli_rows()
        assert [(r["host"], r["shard"]) for r in rows] == [
            ("host0", 0), ("host1", 1),
        ]
        for row in rows:
            assert row["availability"] == 0.875
            assert row["downtime_s"] == 30.0

    def test_all_records_attach_shard_provenance(self):
        bundle = TelemetryBundle.merge(
            "fleet", [_blob(0, ("host0",)), _blob(1, ("host1",))]
        )
        records = bundle.all_records()
        assert len(records) == 4
        assert {r["shard"] for r in records} == {0, 1}
