"""Critical-path reconciliation: the span view of a reboot against the
strategy's own report (:mod:`repro.analysis.critical_path`).

The exporters these once shared a file with live on the telemetry bundle
and are tested in ``tests/obs/test_exporters.py``."""

import pytest

from repro.analysis import reboot_critical_path, reconcile
from repro.errors import AnalysisError
from repro.experiments.common import build_testbed


class TestCriticalPath:
    @pytest.mark.parametrize("strategy", ["warm", "saved", "cold", "dom0-only"])
    def test_span_phases_reconcile_with_the_reboot_report(self, strategy):
        """The FIG7 contract: the span tree's phase breakdown and the
        strategy's own RebootReport are two views of the same instants."""
        controller = build_testbed(2)
        report = controller.rejuvenate(strategy)
        path = reboot_critical_path(controller.sim.trace)
        worst = reconcile(path, report)
        assert worst <= 1e-6
        assert path.strategy == strategy
        assert [e.phase for e in path.entries] == [p.name for p in report.phases]
        assert path.phase_sum == pytest.approx(report.total, abs=1e-6)

    def test_occurrence_selects_successive_reboots(self):
        controller = build_testbed(2)
        controller.rejuvenate("warm")
        controller.rejuvenate("warm")
        first = reboot_critical_path(controller.sim.trace, occurrence=0)
        second = reboot_critical_path(controller.sim.trace, occurrence=1)
        assert second.start >= first.end  # back-to-back runs touch
        with pytest.raises(AnalysisError, match="occurrence 2"):
            reboot_critical_path(controller.sim.trace, occurrence=2)

    def test_strategy_mismatch_is_detected(self):
        warm = build_testbed(2)
        warm_report = warm.rejuvenate("warm")
        cold = build_testbed(2)
        cold.rejuvenate("cold")
        path = reboot_critical_path(cold.sim.trace)
        with pytest.raises(AnalysisError, match="strategy"):
            reconcile(path, warm_report)
