"""Tests of the benchmark's own logic (no workload is run).

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import time

import pytest

import fold
import run
import workloads

SRC = "/checkout/src/repro"


def _func(path: str, name: str, line: int = 1) -> tuple[str, int, str]:
    return (path, line, name)


def _stats(entries: dict) -> dict:
    """pstats-shaped stats from {func: (tt, ct, {caller: (edge_tt, edge_ct)})}."""
    return {
        func: (1, 1, tt, ct, {
            caller: (1, 1, edge_tt, edge_ct)
            for caller, (edge_tt, edge_ct) in callers.items()
        })
        for func, (tt, ct, callers) in entries.items()
    }


class TestLayerOf:
    def test_packages_and_simkernel_split(self):
        assert fold.layer_of(f"{SRC}/vmm/hypervisor.py") == "vmm"
        assert fold.layer_of(f"{SRC}/simkernel/sharing.py") == "simkernel.sharing"
        assert fold.layer_of(f"{SRC}/simkernel/metrics.py") == "simkernel.telemetry"
        assert fold.layer_of(f"{SRC}/simkernel/kernel.py") == "simkernel.dispatch"
        assert fold.layer_of(f"{SRC}/jobs.py") == "jobs"
        assert fold.layer_of(f"{SRC}/units.py") == "foundation"

    def test_foreign_and_unmapped(self):
        assert fold.layer_of("/usr/lib/python3.11/copy.py") is None
        assert fold.layer_of("~") is None
        assert fold.layer_of(f"{SRC}/newpkg/mod.py") == fold.UNATTRIBUTED


class TestFold:
    def test_foreign_time_goes_to_the_innermost_repro_caller(self):
        obs = _func(f"{SRC}/obs/bundle.py", "to_dict")
        guest = _func(f"{SRC}/guest/kernel.py", "step")
        deepcopy = _func("/lib/copy.py", "deepcopy")
        copy_dict = _func("/lib/copy.py", "_deepcopy_dict")
        builtin = _func("~", "<built-in method builtins.id>", 0)
        root = _func("/bench/child.py", "main")
        stats = _stats({
            root: (0.5, 10.0, {}),
            obs: (1.0, 7.0, {root: (1.0, 7.0)}),
            guest: (2.0, 2.5, {root: (2.0, 2.5)}),
            # deepcopy is entered from obs only, and recurses through
            # _deepcopy_dict; every second of the cycle belongs to obs.
            deepcopy: (3.0, 6.0, {obs: (1.0, 6.0), copy_dict: (2.0, 4.0)}),
            copy_dict: (1.5, 5.0, {deepcopy: (1.5, 5.0)}),
            # A builtin called from both a foreign and a repro frame is
            # split by the self time each edge carried.
            builtin: (1.0, 1.0, {deepcopy: (0.5, 0.5), guest: (0.5, 0.5)}),
        })
        totals = fold.fold(stats)
        assert totals["obs"] == pytest.approx(1.0 + 3.0 + 1.5 + 0.5)
        assert totals["guest"] == pytest.approx(2.0 + 0.5)
        assert totals[fold.UNATTRIBUTED] == pytest.approx(0.5)
        profiled = sum(value[2] for value in stats.values())
        assert sum(totals.values()) == pytest.approx(profiled, rel=1e-12)

    def test_two_repro_callers_share_by_edge_weight(self):
        a = _func(f"{SRC}/vmm/a.py", "a")
        b = _func(f"{SRC}/cluster/b.py", "b")
        helper = _func("/lib/dataclasses.py", "asdict")
        leaf = _func("~", "<method 'append' of 'list' objects>", 0)
        stats = _stats({
            a: (0.0, 3.0, {}),
            b: (0.0, 1.0, {}),
            helper: (0.0, 4.0, {a: (0.0, 3.0), b: (0.0, 1.0)}),
            leaf: (4.0, 4.0, {helper: (4.0, 4.0)}),
        })
        totals = fold.fold(stats)
        assert totals["vmm"] == pytest.approx(3.0)
        assert totals["cluster"] == pytest.approx(1.0)

    def test_counts(self):
        kernel = f"{SRC}/simkernel/kernel.py"
        services = _func(f"{SRC}/cluster/cluster.py", "services")
        domus = _func(f"{SRC}/vmm/hypervisor.py", "domus")
        other = _func(f"{SRC}/scenario/builder.py", "probe")
        stats = {
            _func(kernel, "timeout"): (7, 7, 0.0, 0.0, {}),
            services: (2, 2, 0.0, 0.0, {}),
            domus: (9, 9, 0.0, 0.0, {services: (6, 6, 0.0, 0.0), other: (3, 3, 0.0, 0.0)}),
        }
        assert fold.count_calls(stats, "simkernel/kernel.py", "timeout") == 7
        assert fold.count_calls(stats, "vmm/hypervisor.py", "domus") == 9
        assert fold.count_edge(
            stats, ("vmm/hypervisor.py", "domus"), ("cluster/cluster.py", "services")
        ) == 6


class TestDigest:
    def test_floats_are_exact_and_objects_refused(self):
        @dataclasses.dataclass
        class Row:
            label: str
            value: float

        one = workloads.canonical([Row("a", 0.1 + 0.2), (1, math.inf)])
        assert json.loads(json.dumps(one))[0]["value"] == 0.1 + 0.2
        assert one[1] == [1, "inf"]
        with pytest.raises(TypeError):
            workloads.canonical(object())


def test_benchmark_json_lists_what_the_benchmark_prints():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        name: run.layer_unit(name) for name in run.layer_metric_names()
    }


class TestFailureCounting:
    """A wrong or missing result is counted as a failed run, never a crash."""

    def _runner(self, reports: list[dict]) -> run.Runner:
        runner = run.Runner("fig9", 0, time.monotonic() + 60)
        canned = iter(reports)
        runner._communicate = lambda mode, cache: next(canned)
        return runner

    def test_planted_digest_mismatch_is_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "SCRATCH", tmp_path)
        good = workloads.PINS["fig9"]
        timed = {"setup_s": 0.5, "wall_s": 10.0, "cpu_s": 10.0, "peak_rss_mb": 80.0}
        probes = [{"setup_s": 0.4 + i / 100} for i in range(run.SETUP_PROBES + 1)]
        runner = self._runner(probes + [
            {**timed, "digest": good},
            {**timed, "wall_s": 11.0, "digest": "0" * 64},  # the planted mismatch
        ])
        runner.loop = lambda mode, seconds: [runner.spawn(mode), runner.spawn(mode)]
        values, counts = run.measure_end_to_end(runner, seconds=0)

        assert runner.attempted == run.SETUP_PROBES + 3
        assert runner.failed == 1
        assert "differs from the pin" in runner.failures[0]
        # The mismatched run ran, so its timing is still a sample.
        assert counts["wall_s"] == 2 and values["wall_s"] == 10.5
        line = json.loads(run.result_line(runner, values, run.END_TO_END))
        assert line["correct"] is False
        assert (line["attempted"], line["failed"]) == (runner.attempted, 1)

    def test_crashed_and_failed_check_runs_are_counted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "SCRATCH", tmp_path)
        runner = self._runner([
            {"error": "Traceback ...\nValueError: boom"},
            {"wall_s": 2.0, "digest": workloads.PINS["fig9"],
             "problems": ["replay hit ratio 1/2, not 1.0"]},
        ])
        runner.spawn("timed")
        runner.spawn("timed")
        assert (runner.attempted, runner.failed) == (2, 2)
        assert "boom" in runner.failures[0]
        assert "hit ratio" in runner.failures[1]

    def test_children_get_a_scrubbed_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "batched")
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", "/ambient/cache")
        monkeypatch.setenv("PYTHONPATH", "/elsewhere")
        env = run.Runner("fig9", 0, 0.0).environment(tmp_path)
        assert env["REPRO_CACHE_DIR"] == str(tmp_path)
        assert env["PYTHONPATH"] == str(run.ROOT / "src")
        assert not {"REPRO_KERNEL_BACKEND", "REPRO_SANITIZE"} & env.keys()

    def test_no_program_source_refuses_to_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "ROOT", tmp_path)
        with pytest.raises(run.BenchmarkError):
            run.check_checkout()
