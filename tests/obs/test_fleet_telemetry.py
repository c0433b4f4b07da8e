"""Fleet-tier telemetry: the bit-identity gate and the SLO attachment.

The tentpole contract extends the fleet tier's determinism pin to the
telemetry bundle itself: the merged bundle (and therefore every export
derived from it) is *bit-identical* whether the shards ran serially,
fanned out across worker processes, or were replayed from the
content-addressed cache.
"""

import copy
import dataclasses
import json

import pytest

from repro.experiments.parallel import SweepStats
from repro.fleet import FleetSpec, fleet_cells, merge_shards, run_fleet
from repro.jobs import run_cells
from repro.obs import TelemetryBundle

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


@pytest.fixture()
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cells"))
    return tmp_path / "cells"


def _fleet(**overrides) -> FleetSpec:
    """Two hosts over two shards with an SLO attached (which implies
    telemetry capture, like ``[policy]`` implies metrics)."""
    data = {
        "name": "obsfleet",
        "shards": 2,
        "hosts": [{"count": 2, "vms": [{"count": 1, "services": ["apache"]}]}],
        "workloads": [
            {
                "kind": "httperf",
                "service": "apache",
                "mode": "fluid",
                "sessions": 4,
                "files": 4,
                "file_kib": 512.0,
            }
        ],
        "strategy": "warm",
        "hosts_per_epoch": 2,
        "epoch_s": 60.0,
        "warmup_s": 60.0,
        "observe_s": 120.0,
        "slo": {"availability": 0.1, "downtime_budget_s": 500.0},
    }
    data.update(overrides)
    return FleetSpec.from_dict(data)


class TestTelemetryIdentity:
    @pytest.fixture(scope="class")
    def serial(self):
        return run_fleet(_fleet(), jobs=1, use_cache=False)

    def test_serial_equals_sharded(self, serial):
        sharded = run_fleet(_fleet(), jobs=2, use_cache=False)
        assert json.dumps(serial.telemetry) == json.dumps(sharded.telemetry)
        assert serial.slo == sharded.slo

    def test_serial_equals_cached_replay(self, serial, cache_dir):
        stats = SweepStats()
        first = run_fleet(_fleet(), jobs=2, use_cache=True, stats=stats)
        assert stats.cache_hits == 0 and stats.executed == 2
        replay_stats = SweepStats()
        replay = run_fleet(_fleet(), jobs=2, use_cache=True,
                           stats=replay_stats)
        assert replay_stats.executed == 0 and replay_stats.cache_hits == 2
        assert (
            json.dumps(serial.telemetry)
            == json.dumps(first.telemetry)
            == json.dumps(replay.telemetry)
        )

    def test_exports_derive_identically(self, serial):
        """Same bundle in, same documents out — the exports add no
        nondeterminism on top of the bundle identity."""
        bundle = TelemetryBundle.from_dict(serial.telemetry)
        again = TelemetryBundle.from_dict(serial.telemetry)
        assert json.dumps(bundle.to_perfetto()) == json.dumps(
            again.to_perfetto()
        )
        assert bundle.to_prometheus() == again.to_prometheus()

    def test_bundle_carries_fleet_provenance(self, serial):
        bundle = TelemetryBundle.from_dict(serial.telemetry)
        assert bundle.fleet == "obsfleet"
        assert bundle.host_shard() == {"host0": 0, "host1": 1}
        # The published SLI gauges reproduce the report rows exactly.
        rows = {row["host"]: row for row in bundle.sli_rows()}
        for report_row in serial.rows:
            row = rows[report_row["host"]]
            assert row["availability"] == report_row["availability"]
            assert row["downtime_s"] == report_row["downtime_s"]

    def test_slo_report_travels_in_the_fleet_report(self, serial):
        assert serial.slo["passed"] is True
        kinds = [o["kind"] for o in serial.slo["objectives"]]
        assert kinds == ["availability", "downtime"]
        assert serial.slo["burn"]  # the burn series accompanies verdicts
        assert "slo PASS" in serial.render()


class TestTelemetrySwitch:
    def test_no_slo_no_telemetry_key_means_no_bundle(self):
        spec = _fleet(slo=None)
        assert spec.telemetry_enabled is False
        report = run_fleet(spec, jobs=1, use_cache=False)
        assert report.telemetry == {} and report.slo == {}

    def test_telemetry_flag_without_slo_still_bundles(self):
        spec = _fleet(slo=None, telemetry=True)
        assert spec.telemetry_enabled is True
        report = run_fleet(spec, jobs=1, use_cache=False)
        bundle = TelemetryBundle.from_dict(report.telemetry)
        assert len(bundle.shards) == 2
        assert report.slo == {}  # no spec, no verdict


def _asdict_bundle(bundle: TelemetryBundle) -> dict:
    """The bundle's plain-data form built the copying way, with
    ``dataclasses.asdict`` — the reference the copy-free
    :meth:`TelemetryBundle.to_dict` must match byte for byte."""
    return {
        "fleet": bundle.fleet,
        "hosts": bundle.host_shard(),
        "shards": [dataclasses.asdict(shard) for shard in bundle.shards],
    }


class TestCopyFreeHandOff:
    """``capture_shard`` is the only copy of telemetry out of the
    simulator; the cell payload, the merge, the bundle and the fleet
    report hand the blobs over by reference.

    Deep copies are counted rather than timed, so the gate is exact on
    any machine: a recursive copy of the bundle anywhere on the path
    costs hundreds of thousands of ``copy.deepcopy`` calls.
    """

    MAX_DEEPCOPIES = 100

    @pytest.fixture(scope="class")
    def handoff(self):
        spec = _fleet(
            workloads=[
                {
                    "kind": "httperf",
                    "service": "apache",
                    "mode": "exact",
                    "concurrency": 4,
                    "files": 4,
                    "file_kib": 512.0,
                }
            ],
            policy={
                "strategy": "fleet-order",
                "interval_s": 30.0,
                "aging_threshold": 0.0001,
                "aging_rearm": 0.0,
                "cooldown_s": 60.0,
                "min_hosts_up": 0,
            },
        )
        calls = 0
        deepcopy = copy.deepcopy

        def counting_deepcopy(*args, **kwargs):
            nonlocal calls
            calls += 1
            return deepcopy(*args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(copy, "deepcopy", counting_deepcopy)
            plan = fleet_cells(spec)
            results = run_cells(plan, jobs=1, use_cache=False)
            payloads = [results[(cell.experiment_id, cell.key)] for cell in plan]
            report = merge_shards(spec, payloads)
            encoded = json.dumps(report.to_dict(), allow_nan=False)
        return payloads, report, encoded, calls

    def test_deepcopy_calls_stay_constant(self, handoff):
        _, report, _, calls = handoff
        assert report.telemetry and report.slo
        assert calls <= self.MAX_DEEPCOPIES

    def test_report_holds_the_payload_blobs(self, handoff):
        payloads, report, _, _ = handoff
        shards = report.telemetry["shards"]
        assert len(shards) == len(payloads) == 2
        for shard, payload in zip(shards, payloads):
            blob = payload["telemetry"]
            for field in ("metrics", "spans", "records", "audit", "triggers"):
                assert shard[field] is blob[field]
            # ...but capture copied the control loop's entries, so the
            # policy summary and the blob share none of them.
            policy = payload["policy"]
            assert policy["trigger_log"]
            for ours, theirs in (
                (blob["audit"], policy["audit"]),
                (blob["triggers"], policy["trigger_log"]),
            ):
                assert ours == theirs
                assert all(a is not b for a, b in zip(ours, theirs))

    def test_bytes_match_the_copying_path(self, handoff):
        _, report, encoded, _ = handoff
        assert encoded == json.dumps(dataclasses.asdict(report), allow_nan=False)
        bundle = TelemetryBundle.from_dict(report.telemetry)
        assert json.dumps(bundle.to_dict()) == json.dumps(_asdict_bundle(bundle))
