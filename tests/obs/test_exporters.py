"""Single-run exports through the telemetry bundle: the golden Perfetto
document, open-span truncation, Prometheus round trips, and the
:func:`~repro.obs.instrumented` capture helper.

A single in-process run exports as a one-shard bundle, so these pin the
same exporter the fleet uses, from a hand-driven simulator."""

import json
import os

import pytest

from repro.errors import AnalysisError
from repro.obs import (
    TelemetryBundle,
    instrumented,
    parse_prometheus,
    render_prometheus,
)
from repro.simkernel import Simulator


@pytest.fixture()
def sim():
    return Simulator(metrics=True)


def _bundle(*sims):
    return TelemetryBundle.from_simulators("run", sims)


def _small_scenario(sim):
    """A hand-driven deterministic scenario: two spans, one counter."""
    counter = sim.metrics.counter("nic.tx_bytes", nic="eth0")
    sim.run(until=1.0)
    outer = sim.spans.span("reboot", actor="h0", detail="warm")
    outer.__enter__()
    sim.run(until=2.0)
    counter.inc(100)
    with sim.spans.span("reboot.phase", actor="h0", detail="suspend"):
        sim.run(until=3.0)
    sim.run(until=3.5)
    counter.inc(50)
    sim.run(until=4.0)
    outer.__exit__(None, None, None)


class TestPerfettoExport:
    def test_small_scenario_matches_golden_document(self, sim):
        """The exact trace-event JSON for a hand-driven scenario."""
        _small_scenario(sim)
        assert _bundle(sim).to_perfetto() == {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {"ph": "M", "pid": 1, "name": "process_name",
                 "args": {"name": "shard0 spans"}},
                {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
                 "args": {"name": "h0"}},
                {"ph": "X", "pid": 1, "tid": 1,
                 "ts": 1_000_000.0, "dur": 3_000_000.0,
                 "name": "reboot:warm",
                 "args": {"span": 1, "parent": 0, "detail": "warm",
                          "shard": 0}},
                {"ph": "X", "pid": 1, "tid": 1,
                 "ts": 2_000_000.0, "dur": 1_000_000.0,
                 "name": "reboot.phase:suspend",
                 "args": {"span": 2, "parent": 1, "detail": "suspend",
                          "shard": 0}},
                {"ph": "M", "pid": 2, "name": "process_name",
                 "args": {"name": "shard0 metrics"}},
                {"ph": "C", "pid": 2, "ts": 2_000_000.0,
                 "name": "nic.tx_bytes{nic=eth0}", "args": {"value": 100}},
                {"ph": "C", "pid": 2, "ts": 3_500_000.0,
                 "name": "nic.tx_bytes{nic=eth0}", "args": {"value": 150}},
            ],
        }

    def test_open_span_is_truncated_and_flagged(self):
        sim = Simulator()
        sim.run(until=1.0)
        sim.spans.span("reboot", actor="h0").__enter__()
        sim.run(until=2.0)
        with sim.spans.span("reboot.phase", actor="h0"):
            sim.run(until=5.0)
        events = _bundle(sim).to_perfetto()["traceEvents"]
        (open_event,) = [e for e in events if e.get("args", {}).get("open")]
        assert open_event["name"] == "reboot"
        assert open_event["dur"] == (5.0 - 1.0) * 1e6  # truncated at horizon

    def test_without_metrics_no_counter_process_appears(self):
        sim = Simulator()
        _small_scenario(sim)
        events = _bundle(sim).to_perfetto()["traceEvents"]
        assert not [e for e in events if e["pid"] == 2]

    def test_write_perfetto_creates_parents_and_strict_json(self, sim, tmp_path):
        _small_scenario(sim)
        path = _bundle(sim).write_perfetto(tmp_path / "deep" / "trace.json")
        assert path.exists()
        document = json.loads(path.read_text(encoding="utf-8"))
        assert document["displayTimeUnit"] == "ms"
        assert [e["ph"] for e in document["traceEvents"]].count("X") == 2

    def test_each_simulator_gets_its_own_process_pair(self, sim):
        _small_scenario(sim)
        other = Simulator(metrics=True)
        _small_scenario(other)
        events = _bundle(sim, other).to_perfetto()["traceEvents"]
        names = [e["args"]["name"] for e in events if e["name"] == "process_name"]
        assert names == [
            "shard0 spans", "shard0 metrics", "shard1 spans", "shard1 metrics",
        ]


class TestPrometheusRoundTrip:
    def test_counter_and_gauge_values_parse_back_exactly(self, sim):
        sim.metrics.counter("nic.tx_bytes", nic="eth0").inc(1536.5)
        sim.metrics.gauge("disk.queue_depth", disk="sda").set(7)
        parsed = parse_prometheus(_bundle(sim).to_prometheus())
        assert parsed[
            ("repro_nic_tx_bytes_total", (("nic", "eth0"), ("shard", "0")))
        ] == 1536.5
        assert parsed[
            ("repro_disk_queue_depth", (("disk", "sda"), ("shard", "0")))
        ] == 7

    def test_histogram_expands_to_cumulative_buckets(self, sim):
        histogram = sim.metrics.histogram("httperf.request_latency", client="c0")
        histogram.observe(0.002)
        histogram.observe(0.02)
        histogram.observe(45.0)  # beyond the last bound
        text = _bundle(sim).to_prometheus()
        assert "# TYPE repro_httperf_request_latency histogram" in text
        parsed = parse_prometheus(text)

        def bucket(le):
            return parsed[
                ("repro_httperf_request_latency_bucket",
                 (("client", "c0"), ("le", le), ("shard", "0")))
            ]

        assert bucket("0.001") == 0
        assert bucket("0.0025") == 1
        assert bucket("0.025") == 2
        assert bucket("30.0") == 2
        assert bucket("+Inf") == 3
        assert parsed[
            ("repro_httperf_request_latency_count",
             (("client", "c0"), ("shard", "0")))
        ] == 3

    def test_label_escaping_round_trips(self):
        text = render_prometheus(
            {"nic.tx_bytes": [
                {"labels": {"nic": 'weird"name\\x'}, "value": 1.0}
            ]}
        )
        parsed = parse_prometheus(text)
        assert parsed[
            ("repro_nic_tx_bytes_total", (("nic", 'weird"name\\x'),))
        ] == 1.0

    def test_unregistered_snapshot_name_is_rejected(self):
        with pytest.raises(AnalysisError, match="unregistered"):
            render_prometheus({"no.such.metric": []})

    def test_malformed_sample_line_is_rejected(self):
        with pytest.raises(AnalysisError, match="malformed"):
            parse_prometheus("just_a_name_no_value\n")


class TestInstrumented:
    def test_capture_sees_construction_and_unhooks_after(self):
        with instrumented() as captured:
            first = Simulator()
            second = Simulator()
        after = Simulator()
        assert captured == [first, second]
        assert after not in captured

    def test_metrics_forced_on_inside_only(self, monkeypatch):
        monkeypatch.setenv("REPRO_METRICS", "0")
        with instrumented() as captured:
            inside = Simulator()
        assert inside.metrics.enabled and captured == [inside]
        assert os.environ["REPRO_METRICS"] == "0"
        assert not Simulator().metrics.enabled

    def test_unset_metrics_flag_is_restored_when_the_block_raises(
        self, monkeypatch
    ):
        monkeypatch.delenv("REPRO_METRICS", raising=False)
        with pytest.raises(RuntimeError, match="boom"):
            with instrumented() as captured:
                Simulator()
                raise RuntimeError("boom")
        assert "REPRO_METRICS" not in os.environ
        assert len(captured) == 1
        assert Simulator() not in captured
