"""Fleet-tier benchmarks: the hosts × workload-mode wall-clock matrix.

Standalone (prints JSON)::

    PYTHONPATH=src python benchmarks/bench_fleet.py          # quick cells
    PYTHONPATH=src python benchmarks/bench_fleet.py --full   # + 1000 hosts

Four sizes exercise the tier's reason to exist:

* **4 hosts, exact + fluid** — the largest size both modes run, so the
  two walls come from one machine seconds apart and their ratio
  (``fluid_speedup``) is hardware-independent.  The perf gate requires
  it ≥ ``FLUID_MIN_SPEEDUP`` (see ``perf_report.py``) — the fluid
  model must actually buy the orders of magnitude it claims.  The exact
  cell also runs with ``telemetry = true``; that wall over the plain
  one (``telemetry_overhead``) is the same-run price of capturing,
  merging and reporting the telemetry bundle, gated ≤
  ``FLEET_TELEMETRY_MAX_OVERHEAD``.
* **100 and 400 hosts, fluid** — single-shard in-process runs with the
  same epoch count (a tenth of the hosts per epoch); guard the per-tick
  vectorized accounting path against regressions, and their wall ratio
  (``fluid_scaling``) is the same-run linearity gate: per-shard cost
  must grow with hosts, not hosts squared (≤ ``FLUID_MAX_SCALING``).
* **1000 hosts, fluid, 8 shards (``--full`` only)** — the acceptance
  cell: one million concurrent fluid sessions rolling through warm
  rejuvenation, the paper's consolidation story at datacenter scale.

Every cell reports simulated-seconds-per-wall-second context via the
spec horizon, but only wall clocks are guarded (lower is better,
hardware-relative tolerance) plus the same-run speedup and scaling
ratios.
"""

from __future__ import annotations

import json
import time
import typing

#: Host count of the cell measured in both modes; its exact/fluid wall
#: ratio is the same-run ``fluid_speedup`` the perf gate enforces.
OVERLAP_HOSTS = 4

#: Host counts of the two single-shard fluid cells whose wall ratio is
#: the same-run ``fluid_scaling`` the perf gate enforces.
SCALING_HOSTS = (100, 400)
SCALING_ROUNDS = 2

#: Interleaved rounds of the exact overlap cell without and with
#: telemetry; each wall is the best of its rounds.
TELEMETRY_ROUNDS = 2


def _fleet_spec(
    hosts: int,
    mode: str,
    shards: int,
    sessions: int,
    hosts_per_epoch: int,
    warmup_s: float,
    observe_s: float,
    tick_s: float = 1.0,
    telemetry: bool = False,
) -> typing.Any:
    from repro.fleet import FleetSpec

    workload: dict[str, typing.Any] = {
        "kind": "httperf",
        "service": "apache",
        "mode": mode,
        "files": 4,
        "file_kib": 512.0,
    }
    if mode == "fluid":
        workload["sessions"] = sessions
        workload["tick_s"] = tick_s
    else:
        workload["concurrency"] = sessions
    return FleetSpec.from_dict(
        {
            "name": f"bench-fleet-{hosts}-{mode}",
            "shards": shards,
            "hosts": [
                {"count": hosts, "vms": [{"count": 1, "services": ["apache"]}]}
            ],
            "workloads": [workload],
            "strategy": "warm",
            "hosts_per_epoch": hosts_per_epoch,
            "epoch_s": 60.0,
            "warmup_s": warmup_s,
            "observe_s": observe_s,
            "telemetry": telemetry,
        }
    )


def _run(spec: typing.Any, jobs: int) -> float:
    from repro.fleet import run_fleet

    started = time.perf_counter()
    run_fleet(spec, jobs=jobs)
    return time.perf_counter() - started


def measure(full: bool = False, jobs: int = 8) -> dict[str, typing.Any]:
    """The fleet matrix: wall clock per (hosts, mode) cell.

    Quick cells run shards serially in-process (``jobs=1``) so the
    walls measure simulation, not pool spin-up; the full 1000-host cell
    is the real sharded deployment shape and uses ``jobs`` workers.
    """
    overlap = dict(
        hosts=OVERLAP_HOSTS, shards=1, sessions=8, hosts_per_epoch=2,
        warmup_s=60.0, observe_s=120.0,
    )
    exact_specs = [
        _fleet_spec(mode="exact", telemetry=telemetry, **overlap)
        for telemetry in (False, True)
    ]
    exact_rounds = [
        [_run(spec, jobs=1) for spec in exact_specs]
        for _ in range(TELEMETRY_ROUNDS)
    ]
    exact_s, telemetry_s = (min(cell) for cell in zip(*exact_rounds))
    fluid_s = _run(_fleet_spec(mode="fluid", **overlap), jobs=1)
    matrix: dict[str, dict[str, float]] = {
        str(OVERLAP_HOSTS): {
            "exact_s": round(exact_s, 3),
            "exact_telemetry_s": round(telemetry_s, 3),
            "fluid_s": round(fluid_s, 3),
        },
    }
    # Best of SCALING_ROUNDS interleaved rounds per cell: the gate is a
    # ratio of two walls, so a noisy slow phase must not land on one cell.
    scaling_specs = [
        _fleet_spec(
            hosts=hosts, mode="fluid", shards=1, sessions=100,
            hosts_per_epoch=hosts // 10, warmup_s=120.0, observe_s=600.0,
        )
        for hosts in SCALING_HOSTS
    ]
    rounds = [
        [_run(spec, jobs=1) for spec in scaling_specs]
        for _ in range(SCALING_ROUNDS)
    ]
    walls = [min(cell) for cell in zip(*rounds)]
    for hosts, wall in zip(SCALING_HOSTS, walls):
        matrix[str(hosts)] = {"fluid_s": round(wall, 3)}
    report: dict[str, typing.Any] = {
        "matrix": matrix,
        "fluid_speedup": round(exact_s / fluid_s, 1),
        "fluid_scaling": round(walls[1] / walls[0], 2),
        "telemetry_overhead": round(telemetry_s / exact_s, 2),
    }
    if full:
        # The acceptance cell: 1000 hosts x 1000 sessions = 1M fluid
        # sessions, 8 shards in worker processes (examples/
        # fleet_rolling.toml is this same configuration).
        matrix["1000"] = {
            "fluid_s": round(
                _run(
                    _fleet_spec(
                        hosts=1000, mode="fluid", shards=8, sessions=1000,
                        hosts_per_epoch=50, warmup_s=120.0, observe_s=1200.0,
                        tick_s=2.0,
                    ),
                    jobs=jobs,
                ),
                2,
            ),
            "sessions": 1_000_000,
        }
    return report


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="also run the 1000-host / 1M-session cell")
    parser.add_argument("--jobs", type=int, default=8,
                        help="worker processes for the 1000-host cell")
    args = parser.parse_args()
    print(json.dumps(measure(full=args.full, jobs=args.jobs), indent=2))
