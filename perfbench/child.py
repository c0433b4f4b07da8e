"""One measurement in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py MODE WORKLOAD SEED T0

``T0`` is the parent's ``time.monotonic()`` just before it started this
interpreter, so ``setup_s`` covers interpreter start, imports, spec
validation and shard planning, up to the first call into the workload
entry.  Modes:

``probe``
    set-up only;
``timed``
    the workload's run call with only the speed sampler attached
    (``fleet-exact-obs`` also replays it from the result cache just
    written);
``instrumented``
    ``timed`` plus wrappers on the few driver-side calls into ``jobs``
    and ``obs`` that the per-layer ``jobs.*`` and ``obs.*`` metrics time;
``serial``
    the run call with ``jobs=1`` and no cache: the untraced twin of
    ``profile``;
``profile``
    ``serial`` under cProfile, folded into layers (see ``fold.py``).

Every mode that runs the workload digests its simulated outputs; the
parent compares the digest with the pin.  Errors become a ``"error"``
field rather than a traceback-only exit, so the parent can count them.
"""

from __future__ import annotations

import json
import resource
import signal
import statistics
import sys
import time
import traceback
import typing

import fold
import workloads

MODES = ("probe", "timed", "instrumented", "serial", "profile")


def _rusage() -> tuple[float, float, float]:
    """(own CPU s, reaped children's CPU s, peak RSS MiB of either)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        own.ru_utime + own.ru_stime,
        kids.ru_utime + kids.ru_stime,
        max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
    )


def _spin() -> None:
    table: dict[int, int] = {}
    for i in range(2000):
        table[i & 127] = table.get(i & 127, 0) + i


class SpeedSampler:
    """How fast this CPU runs Python right now, sampled during a run.

    A host's speed drifts: on a shared 2-vCPU virtual machine the same
    run takes anywhere from 1.0x to 1.4x its best time, in phases of
    tens of seconds.  Every ``PERIOD_S`` a SIGALRM handler times a fixed
    loop of dict operations (:func:`_spin`) in the measured process
    itself, so the samples see the same slow-downs as the workload.
    :meth:`scale` turns the samples taken over an interval into the
    factor that converts host seconds of that interval to seconds at
    reference speed: ``REFERENCE_SPIN_S`` is the loop's time on an
    uncontended 2.1 GHz x86-64 vCPU under CPython 3.11.  Sampling costs
    about 1.3% of the run.
    """

    PERIOD_S = 0.02
    REFERENCE_SPIN_S = 0.00025

    def __init__(self) -> None:
        self.spins: list[float] = []

    def _sample(self, signum: int, frame: typing.Any) -> None:
        # Thread CPU time, so that waiting for a CPU busy with the run's
        # own workers does not read as a slow CPU.
        started = time.thread_time()
        _spin()
        self.spins.append(time.thread_time() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def mark(self) -> int:
        return len(self.spins)

    def burst(self, count: int = 100) -> float:
        """The scale factor right now, from ``count`` back-to-back samples."""
        since = self.mark()
        for _ in range(count):
            self._sample(0, None)
        return self.scale(since, self.mark())

    def scale(self, since: int, until: int) -> float:
        """Reference seconds per host second over samples [since, until)."""
        spins = self.spins[since:until]
        if not spins:
            raise RuntimeError("the speed sampler took no samples")
        return self.REFERENCE_SPIN_S / statistics.fmean(spins)


def _timed_call(call: typing.Callable[[], typing.Any]) -> tuple[typing.Any, dict]:
    own0, kids0, _ = _rusage()
    started = time.perf_counter()
    result = call()
    wall = time.perf_counter() - started
    own1, kids1, peak = _rusage()
    return result, {
        "wall_s": wall,
        "cpu_s": (own1 - own0) + (kids1 - kids0),
        "peak_rss_mb": peak,
    }


class _Instruments:
    """Timers on the driver-side entry points of ``jobs`` and ``obs``."""

    def __init__(self) -> None:
        self.run_cells_s = 0.0
        self.worker_cpu_s = 0.0
        self.wait_s = 0.0
        self.merge_s = 0.0
        self.to_dict_s = 0.0

    def install(self) -> None:
        import repro.fleet.runner as runner
        from repro.obs.bundle import TelemetryBundle

        run_cells = runner.run_cells
        merge = TelemetryBundle.merge.__func__
        to_dict = TelemetryBundle.to_dict

        def timed_run_cells(*args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            own0, kids0, _ = _rusage()
            started = time.perf_counter()
            try:
                return run_cells(*args, **kwargs)
            finally:
                wall = time.perf_counter() - started
                own1, kids1, _ = _rusage()
                self.run_cells_s += wall
                self.worker_cpu_s += kids1 - kids0
                self.wait_s += max(0.0, wall - (own1 - own0))

        def timed_merge(cls: type, *args: typing.Any, **kwargs: typing.Any) -> typing.Any:
            started = time.perf_counter()
            try:
                return merge(cls, *args, **kwargs)
            finally:
                self.merge_s += time.perf_counter() - started

        def timed_to_dict(bundle: typing.Any) -> dict:
            started = time.perf_counter()
            try:
                return to_dict(bundle)
            finally:
                self.to_dict_s += time.perf_counter() - started

        runner.run_cells = timed_run_cells
        TelemetryBundle.merge = classmethod(timed_merge)
        TelemetryBundle.to_dict = timed_to_dict

    def metrics(self) -> dict:
        return {
            "jobs.run_cells_s": self.run_cells_s,
            "jobs.worker_cpu_s": self.worker_cpu_s,
            "jobs.wait_s": self.wait_s,
            "obs.merge_s": self.merge_s,
            "obs.to_dict_s": self.to_dict_s,
        }


def _fleet_checks(cold: typing.Any, replay: typing.Any, cold_stats: typing.Any,
                  replay_stats: typing.Any) -> list[str]:
    """Why a cold run and its cache replay disagree (empty when they agree)."""
    problems = []
    if cold_stats.cache_hits:
        problems.append(f"cold run hit the cache {cold_stats.cache_hits} time(s)")
    if not replay_stats.total_cells or replay_stats.cache_hits != replay_stats.total_cells:
        problems.append(
            f"replay hit ratio {replay_stats.cache_hits}/{replay_stats.total_cells}, not 1.0"
        )
    if workloads.digest("fleet-exact-obs", replay) != workloads.digest("fleet-exact-obs", cold):
        problems.append("replay outputs differ from the cold run")
    if replay.telemetry != cold.telemetry:
        problems.append("replay telemetry bundle differs from the cold run")
    if replay.slo.get("passed") != cold.slo.get("passed"):
        problems.append("replay SLO verdict differs from the cold run")
    return problems


def _simulated(name: str, result: typing.Any, clients: list) -> dict:
    """Simulated-output counts for the per-layer report."""
    policy = getattr(result, "policy", None) or {}
    if name == "fig9":
        requests = sum(len(client.completion_times) for client in clients)
        failures = sum(client.failures for client in clients)
    else:
        requests, failures = result.requests, result.failures
    return {
        "control.cycles": policy.get("cycles", 0),
        "control.actions": len(policy.get("audit", ())),
        "control.deferred": policy.get("deferred", 0),
        "workloads.requests": float(requests),
        "workloads.failed_requests": float(failures),
    }


def _profile(name: str, prepared: workloads.Prepared, out: dict) -> typing.Any:
    import cProfile
    import pstats

    from repro.workloads.httperf import Httperf

    clients: list = []
    init = Httperf.__init__

    def recording_init(client: typing.Any, *args: typing.Any, **kwargs: typing.Any) -> None:
        init(client, *args, **kwargs)
        clients.append(client)

    Httperf.__init__ = recording_init
    profiler = cProfile.Profile()
    started = time.perf_counter()
    profiler.enable()
    result = prepared.serial()
    profiler.disable()
    out["trace.wall_s"] = time.perf_counter() - started

    stats = pstats.Stats(profiler).stats
    layers = fold.fold(stats)
    total = sum(value[2] for value in stats.values())
    folded = sum(layers.values())
    if abs(folded - total) > 1e-6 * max(total, 1.0):
        out.setdefault("problems", []).append(
            f"layer fold lost time: {folded!r} s folded of {total!r} s profiled"
        )
    for layer, seconds in layers.items():
        out[f"{layer}.self_s"] = seconds
    out["simkernel.dispatch.scheduled"] = (
        fold.count_calls(stats, "simkernel/kernel.py", "timeout")
        + fold.count_calls(stats, "simkernel/kernel.py", "call_at")
    )
    out["simkernel.sharing.execute_calls"] = fold.count_calls(
        stats, "simkernel/sharing.py", "execute"
    )
    out["vmm.domus_calls"] = fold.count_calls(stats, "vmm/hypervisor.py", "domus")
    out["cluster.services_calls"] = fold.count_calls(
        stats, "cluster/cluster.py", "services"
    )
    out["cluster.hosts_scanned"] = fold.count_edge(
        stats, ("vmm/hypervisor.py", "domus"), ("cluster/cluster.py", "services")
    )
    out.update(_simulated(name, result, clients))
    return result


def _scaled(out: dict, keys: tuple[str, ...], factor: float) -> None:
    """Scale host timings to reference speed, keeping the host values."""
    for key in keys:
        out[f"host.{key}"] = out[key]
        out[key] = out[key] * factor


def measure(mode: str, name: str, seed: int, t0: float) -> dict:
    """Run one measurement; the returned dict is the child's report."""
    prepared = workloads.prepare(name, seed)
    out: dict[str, typing.Any] = {
        "setup_s": time.monotonic() - t0,
        "backend": prepared.backend,
    }
    # Only the untraced end-to-end runs are speed-scaled; the traced run
    # and its base compare host seconds with host seconds.
    sampler = SpeedSampler() if mode in ("probe", "timed") else None
    if sampler is not None:
        _scaled(out, ("setup_s",), sampler.burst())
    if mode == "probe":
        return out

    from repro.jobs import SweepStats, code_version

    if sampler is not None:
        sampler.start()
    instruments = None
    if mode == "instrumented":
        instruments = _Instruments()
        instruments.install()

    if mode == "profile":
        result = _profile(name, prepared, out)
    else:
        stats = SweepStats()
        began = sampler.mark() if sampler else 0
        if mode == "serial":
            result, timings = _timed_call(prepared.serial)
        else:
            result, timings = _timed_call(lambda: prepared.run(stats))
        out.update(timings)
        if sampler is not None:
            _scaled(out, ("wall_s", "cpu_s"), sampler.scale(began, sampler.mark()))
        cells, hits = stats.total_cells, stats.cache_hits
        if name == "fleet-exact-obs" and mode != "serial":
            replay_stats = SweepStats()
            began = sampler.mark() if sampler else 0
            started = time.perf_counter()
            replay = prepared.run(replay_stats)
            out["replay_s"] = time.perf_counter() - started
            if sampler is not None:
                _scaled(out, ("replay_s",), sampler.scale(began, sampler.mark()))
            out.setdefault("problems", []).extend(
                _fleet_checks(result, replay, stats, replay_stats)
            )
            cells += replay_stats.total_cells
            hits += replay_stats.cache_hits
        out["jobs.cells"] = cells
        out["jobs.cache_hits"] = hits
        out["jobs.hit_ratio"] = hits / cells if cells else 0.0

    if sampler is not None:
        sampler.stop()
    if instruments is not None:
        out.update(instruments.metrics())
        out["obs.bundle_bytes"] = (
            len(json.dumps(result.telemetry)) if getattr(result, "telemetry", None) else 0
        )
    if name == "fig9":
        out["paper_err_pct"] = workloads.paper_err_pct(result)
    out["digest"] = workloads.digest(name, result)
    out["code_version"] = code_version()
    return out


def main(argv: typing.Sequence[str]) -> int:
    mode, name, seed, t0 = argv
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}; known: {', '.join(MODES)}")
    try:
        report = measure(mode, name, int(seed), float(t0))
    except Exception:  # reported to the parent, which counts the failure
        report = {"error": traceback.format_exc()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
