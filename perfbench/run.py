"""The repository benchmark: time three workloads from outside the program.

    python3 perfbench/run.py --workload fig9 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # the summary table

Every measurement runs in a fresh interpreter (``child.py``) with
``PYTHONPATH`` set to this checkout's ``src``, a fresh empty
``REPRO_CACHE_DIR`` under ``.perfbench_tmp/`` and every other ``REPRO_*``
variable scrubbed, so an ambient result cache or kernel backend can
never change what is measured.

``--trace 0`` runs set-up probes, then the workload's run call in a loop
for ``--seconds`` seconds (at least once), and prints the end-to-end
medians, scaled to a reference CPU speed (``child.SpeedSampler``).
``--trace 1`` runs an untraced base, then one run under cProfile, and
prints the per-layer metrics (see README.md).
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A run fails if its
child raises, if its output digest differs from the pin in
``workloads.py``, or if one of the workload's own checks fails; the
command exits 1 after printing when any run failed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import typing
import uuid

import fold
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench_tmp"

DEADLINE_S = 170.0
"""Wall-clock budget of one invocation; children are killed past it."""

SETUP_PROBES = 5
"""Set-up-only interpreters per ``--trace 0`` run, after one warm-up."""

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}
"""The end-to-end metrics every workload reports (BENCHMARK.json)."""

EXTRA = {"replay_s": "s", "paper_err_pct": "%"}
"""End-to-end metrics that exist on one workload only."""

HOST = {"host.setup_s": "s", "host.wall_s": "s", "host.cpu_s": "s", "host.replay_s": "s"}
"""The unscaled host seconds behind the speed-scaled timings (``#`` lines)."""


class BenchmarkError(Exception):
    """The benchmark cannot run here at all (no result is printed)."""


FROM_BASE = (
    "obs.to_dict_s",
    "obs.merge_s",
    "obs.bundle_bytes",
    "jobs.cells",
    "jobs.cache_hits",
    "jobs.hit_ratio",
    "jobs.run_cells_s",
    "jobs.worker_cpu_s",
    "jobs.wait_s",
)
"""Per-layer metrics read from the untraced instrumented run."""

FROM_PROFILE = (
    "simkernel.dispatch.scheduled",
    "simkernel.sharing.execute_calls",
    "vmm.domus_calls",
    "cluster.services_calls",
    "cluster.hosts_scanned",
    "control.cycles",
    "control.actions",
    "control.deferred",
    "workloads.requests",
    "workloads.failed_requests",
    "trace.wall_s",
)
"""Per-layer metrics read from the profiled run, besides self times."""


def layer_metric_names() -> list[str]:
    """Every per-layer metric, in report order (mirrors BENCHMARK.json)."""
    self_times = [f"{layer}.self_s" for layer in fold.LAYERS + (fold.UNATTRIBUTED,)]
    return self_times + list(FROM_BASE + FROM_PROFILE) + [
        "trace.untraced_wall_s", "trace.overhead_ratio"
    ]


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_bytes", "B"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def check_checkout() -> None:
    """Refuse to run without the program's source next to the benchmark."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no src/repro package under {ROOT}; nothing to measure")


class Runner:
    """Spawns child measurements and keeps the tally of attempts."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []
        self.info: dict[str, typing.Any] = {}

    def environment(self, cache: pathlib.Path) -> dict[str, str]:
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_") and key != "PYTHONPATH"}
        env["PYTHONPATH"] = str(ROOT / "src")
        env["REPRO_CACHE_DIR"] = str(cache)
        return env

    def spawn(self, mode: str) -> dict:
        """One child measurement, judged (see :meth:`judge`)."""
        self.attempted += 1
        cache = SCRATCH / uuid.uuid4().hex
        cache.mkdir(parents=True)
        try:
            report = self._communicate(mode, cache)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return self.judge(mode, report)

    def _communicate(self, mode: str, cache: pathlib.Path) -> dict:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return {"error": "out of time before the run started"}
        t0 = time.monotonic()
        child = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, self.workload,
             str(self.seed), repr(t0)],
            cwd=ROOT, env=self.environment(cache), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            stdout, stderr = child.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            return {"error": f"{mode} run killed after {remaining:.0f}s"}
        finally:
            if child.poll() is None:  # interrupted: take the workers with it
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
        lines = stdout.strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return {"error": f"{mode} run exited {child.returncode} without a "
                             f"report: {stderr.strip()[-2000:]}"}
        if not isinstance(report, dict):
            return {"error": f"{mode} run printed {lines[-1][:200]!r}"}
        return report

    def judge(self, mode: str, report: dict) -> dict:
        """Count a report's failure, if any, and pass it on.

        A run whose outputs are wrong still ran: its timings stay in the
        samples and the run counts as failed.  A run that raised or died
        has no timings to keep.
        """
        problems = list(report.get("problems", ()))
        if "error" in report:
            problems.append(str(report["error"]))
        elif "digest" in report and report["digest"] != workloads.PINS[self.workload]:
            problems.append(
                f"output digest {report['digest']} differs from the pin "
                f"{workloads.PINS[self.workload]}"
            )
        if problems:
            self.failures.append(f"{mode}: " + "; ".join(problems))
        for key in ("backend", "code_version"):
            if key in report:
                self.info[key] = report[key]
        return report

    @property
    def failed(self) -> int:
        return len(self.failures)

    def loop(self, mode: str, seconds: float) -> list[dict]:
        """Run ``mode`` repeatedly for about ``seconds`` (at least once)."""
        reports = []
        started = time.monotonic()
        while True:
            began = time.monotonic()
            reports.append(self.spawn(mode))
            now = time.monotonic()
            if now - started + (now - began) > seconds:
                return reports


def median_of(reports: list[dict], key: str) -> tuple[float | None, int]:
    values = [r[key] for r in reports if key in r]
    return (statistics.median(values) if values else None), len(values)


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Medians of the end-to-end metrics, and their sample counts."""
    runner.spawn("probe")  # warm-up: byte-compile and page in, not counted
    probes = [runner.spawn("probe") for _ in range(SETUP_PROBES)]
    runs = runner.loop("timed", seconds)
    values, counts = {}, {}
    for key in list(END_TO_END) + list(EXTRA) + list(HOST):
        pool = probes + runs if key.endswith("setup_s") else runs
        value, count = median_of(pool, key)
        if value is not None:
            values[key], counts[key] = value, count
    return values, counts


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """The traced run: untraced base, one profiled run, merged metrics."""
    runner.spawn("probe")  # warm-up, as in the untraced run
    if runner.workload == "fleet-exact-obs":
        # jobs.* and obs.* come from the parallel run; the trace's base
        # is the same serial in-process call the profiler sees.
        base = [runner.spawn("instrumented")]
        serial = [runner.spawn("serial")]
    else:
        base = serial = runner.loop("instrumented", seconds)
    profile = runner.spawn("profile")
    values: dict[str, float] = {}
    counts: dict[str, int] = {}
    for key in layer_metric_names():
        if key in FROM_BASE:
            value, count = median_of(base, key)
        elif key == "trace.untraced_wall_s":
            value, count = median_of(serial, "wall_s")
        elif key == "trace.overhead_ratio":
            continue
        else:
            value, count = median_of([profile], key)
        if value is not None:
            values[key], counts[key] = value, count
    if "trace.wall_s" in values and values.get("trace.untraced_wall_s"):
        values["trace.overhead_ratio"] = values["trace.wall_s"] / values["trace.untraced_wall_s"]
        counts["trace.overhead_ratio"] = 1
    return values, counts


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> tuple[Runner, dict, dict]:
    runner = Runner(name, seed, deadline)
    measure = measure_layers if trace else measure_end_to_end
    values, counts = measure(runner, seconds)
    return runner, values, counts


def environment_line(runner: Runner) -> str:
    return "# env " + json.dumps({
        "workload": runner.workload,
        "backend": runner.info.get("backend"),
        "code_version": runner.info.get("code_version"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    })


def result_line(runner: Runner, values: dict, units: dict[str, str]) -> str:
    return json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units.items()},
    })


def shares_line(values: dict) -> str:
    """The largest layers' shares of folded self time."""
    self_times = {key[:-len(".self_s")]: value for key, value in values.items()
                  if key.endswith(".self_s")}
    total = sum(self_times.values()) or 1.0
    top = sorted(self_times.items(), key=lambda item: -item[1])[:4]
    return "# top self-time shares: " + ", ".join(
        f"{layer} {100 * value / total:.1f}%" for layer, value in top
    )


def single(args: argparse.Namespace) -> int:
    deadline = time.monotonic() + DEADLINE_S
    runner, values, counts = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), deadline
    )
    if args.trace:
        units = {name: layer_unit(name) for name in layer_metric_names()}
    else:
        units = dict(END_TO_END)
    print(environment_line(runner))
    for failure in runner.failures:
        print(f"# FAILED {failure}")
    for key, value in values.items():
        unit = units.get(key) or EXTRA.get(key) or HOST.get(key, "")
        print(f"# {key} = {value:.6g} {unit} (n={counts[key]})")
    if args.trace:
        print(shares_line(values))
    missing = [key for key in units if key not in values]
    if missing:
        print(f"benchmark: no samples for {', '.join(missing)}", file=sys.stderr)
        for failure in runner.failures:
            print(failure, file=sys.stderr)
        return 1
    print(result_line(runner, values, units))
    return 1 if runner.failed else 0


def summary(args: argparse.Namespace) -> int:
    """Every end-to-end metric of every workload, as one table."""
    rows = []
    any_failed = False
    for name in workloads.NAMES:
        deadline = time.monotonic() + DEADLINE_S
        runner, values, counts = run_workload(name, args.seed, args.seconds, False, deadline)
        print(environment_line(runner))
        for failure in runner.failures:
            print(f"# FAILED {name} {failure}")
        any_failed |= runner.failed > 0
        values["failed_ratio"] = runner.failed / runner.attempted
        counts["failed_ratio"] = runner.attempted
        for key, unit in {**END_TO_END, **EXTRA, "failed_ratio": "ratio"}.items():
            if key in values:
                rows.append((name, key, f"{values[key]:.4f}", unit, str(counts[key])))
        if name != "fig9":
            rows.append((name, "paper_err_pct", "unvalidated", "%", "-"))
    widths = [max(len(row[i]) for row in rows + [("workload", "metric", "median",
                                                   "unit", "n")]) for i in range(5)]
    for row in [("workload", "metric", "median", "unit", "n")] + rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return 1 if any_failed else 0


def main(argv: typing.Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        SCRATCH.mkdir(exist_ok=True)
        return summary(args) if args.workload == "all" else single(args)
    except BenchmarkError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
