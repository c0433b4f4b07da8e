"""Unit tests for the perf gate's tolerance override (no measurement)."""

import pytest

from benchmarks.perf_report import REGRESSION_SLACK, check, default_tolerance


class TestDefaultTolerance:
    def test_defaults_to_the_committed_slack(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF_TOLERANCE", raising=False)
        assert default_tolerance() == REGRESSION_SLACK

    def test_env_override_is_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_TOLERANCE", "1.6")
        assert default_tolerance() == 1.6

    def test_garbage_env_value_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_TOLERANCE", "lots")
        with pytest.raises(ValueError, match="not a number"):
            default_tolerance()

    def test_sub_unity_ratio_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF_TOLERANCE", "0.3")
        with pytest.raises(ValueError, match="below 1.0"):
            default_tolerance()


class TestCheckTolerance:
    BASELINE = {
        "kernel": {"events_per_s": 1000.0},
        "experiments_s": {"FIG4": 1.0},
    }

    def test_within_default_tolerance_passes(self, capsys):
        fresh = {"kernel": {"events_per_s": 800.0}, "experiments_s": {"FIG4": 1.2}}
        assert check(fresh, self.BASELINE) == 0

    def test_beyond_default_tolerance_fails_both_directions(self, capsys):
        fresh = {"kernel": {"events_per_s": 500.0}, "experiments_s": {"FIG4": 2.0}}
        assert check(fresh, self.BASELINE) == 2

    def test_wider_tolerance_waves_the_same_numbers_through(self, capsys):
        fresh = {"kernel": {"events_per_s": 500.0}, "experiments_s": {"FIG4": 2.0}}
        assert check(fresh, self.BASELINE, tolerance=2.5) == 0

    def test_unmeasured_baseline_entries_are_skipped(self, capsys):
        fresh = {"kernel": {}, "experiments_s": {}}
        assert check(fresh, self.BASELINE, tolerance=1.01) == 0


class TestKernelCellGate:
    """Schema-6 kernel section: one cell per throughput, baseline-relative."""

    BASELINE = {
        "kernel": {
            "events_per_sec": 1000.0,
            "timer_churn_ops_per_sec": 500.0,
            "telemetry": {"overhead_ratio": 1.2},
        },
        "experiments_s": {},
    }

    @staticmethod
    def _fresh(events, churn):
        return {
            "kernel": {
                "events_per_sec": events,
                "timer_churn_ops_per_sec": churn,
                "telemetry": {"overhead_ratio": 1.2},
            },
            "experiments_s": {},
        }

    def test_healthy_cells_pass(self, capsys):
        assert check(self._fresh(900.0, 450.0), self.BASELINE) == 0

    def test_regressed_cell_fails_beyond_tolerance(self, capsys):
        # events/sec lost 40%, beyond the default 30% slack; the churn
        # cell is healthy, so exactly one failure.
        assert check(self._fresh(600.0, 500.0), self.BASELINE) == 1
        assert "[FAIL] kernel events_per_sec" in capsys.readouterr().out


class TestTelemetryOverheadGate:
    """Schema-5 kernel section: disabled-telemetry tax, same-run gate."""

    @staticmethod
    def _fresh(ratio):
        return {
            "kernel": {"telemetry": {"overhead_ratio": ratio}},
            "experiments_s": {},
        }

    def test_within_ceiling_passes(self, capsys):
        assert check(self._fresh(1.3), {}) == 0

    def test_beyond_ceiling_fails_regardless_of_tolerance(self, capsys):
        # The overhead ratio compares two cells from the same fresh run,
        # so the hardware tolerance must not widen it.
        assert check(self._fresh(1.9), {}, tolerance=10.0) == 1

    def test_absent_measurement_is_skipped(self, capsys):
        # Pre-schema-5 reports have no telemetry section.
        assert check({"kernel": {}, "experiments_s": {}}, {}) == 0

    def test_telemetry_is_not_compared_against_baseline(self, capsys):
        # A baseline with a recorded ratio adds no extra gate: only the
        # fresh run's own ratio is judged.
        baseline = {"kernel": {"telemetry": {"overhead_ratio": 1.05}},
                    "experiments_s": {}}
        assert check(self._fresh(1.4), baseline) == 0
