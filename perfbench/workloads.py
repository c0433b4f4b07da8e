"""The benchmark's workloads: inputs, entry calls and output digests.

Each workload is built from public entry points only
(``repro.experiments.run_experiment``, ``repro.fleet.FleetSpec.from_dict``
and ``run_fleet``).  ``prepare(name, seed)`` does the set-up a user pays
before the run call (imports, spec validation, shard planning);
``Prepared.run`` is the timed call; ``digest`` hashes the simulated
outputs the benchmark pins.  ``repro`` is imported lazily so that the
parent process (``run.py``) never loads the program it measures.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import typing

NAMES = ("fig9", "fleet-fluid-400", "fleet-exact-obs")

PINS = {
    "fig9": "0162962dfe9a98786ec3afbd5d68dbbc7a14be9f3fd90bae4b0be2d18d4c753c",
    "fleet-fluid-400": "8077a25daf965901147145a06f46137a7e2d57b02010be97c4a3698a93820b53",
    "fleet-exact-obs": "151ea27378fd3201268d3aea9ef4c852d73606d9d83aa04d9206f0b718ba6604",
}
"""SHA-256 of each workload's simulated outputs (see :func:`digest`).

The simulated outputs do not depend on the seed: fig9 is the paper's
fixed configuration, and the fleet seed only names RNG streams that
these deterministic workloads never draw from.  A run whose digest
differs from its pin is a failed run."""

FLUID_FLEET = {
    "name": "fleet-fluid-400",
    "shards": 1,
    "hosts": [
        {"count": 400, "vms": [{"count": 1, "memory_gib": 1.0, "services": ["apache"]}]}
    ],
    "workloads": [
        {
            "kind": "httperf",
            "service": "apache",
            "mode": "fluid",
            "sessions": 100,
            "tick_s": 1.0,
            "files": 4,
            "file_kib": 512.0,
        }
    ],
    "strategy": "warm",
    "hosts_per_epoch": 40,
    "epoch_s": 60.0,
    "warmup_s": 120.0,
    "observe_s": 600.0,
}

EXACT_FLEET = {
    "name": "fleet-exact-obs",
    "shards": 2,
    "hosts": [{"count": 8, "vms": [{"count": 1, "services": ["apache"]}]}],
    "workloads": [
        {
            "kind": "httperf",
            "service": "apache",
            "mode": "exact",
            "concurrency": 8,
            "files": 4,
            "file_kib": 512.0,
        }
    ],
    "strategy": "warm",
    "hosts_per_epoch": 2,
    "epoch_s": 60.0,
    "warmup_s": 60.0,
    "observe_s": 240.0,
    "telemetry": True,
    # The policy and [slo] tables of `python -m repro.obs check`.
    "policy": {
        "strategy": "fleet-order",
        "interval_s": 30.0,
        "aging_threshold": 0.0001,
        "aging_rearm": 0.0,
        "cooldown_s": 60.0,
        "min_hosts_up": 0,
    },
    "slo": {"availability": 0.3, "downtime_budget_s": 500.0, "window_s": 60.0},
}

EXACT_JOBS = 2
"""Worker processes for the timed ``fleet-exact-obs`` run."""


@dataclasses.dataclass
class Prepared:
    """A workload ready to run."""

    backend: str
    """The scheduler backend its simulations run on."""
    run: typing.Callable[[typing.Any], typing.Any]
    """The timed call; takes a ``repro.jobs.SweepStats`` to fill."""
    serial: typing.Callable[[], typing.Any]
    """The same simulation in this process with no cache, for the profiler."""


def prepare(name: str, seed: int) -> Prepared:
    """Import, validate and plan one workload (the set-up phase)."""
    if name == "fig9":
        from repro.experiments import run_experiment, runner_module
        from repro.simkernel.backends import DEFAULT_BACKEND

        runner_module("FIG9")
        backend = os.environ.get("REPRO_KERNEL_BACKEND") or DEFAULT_BACKEND
        return Prepared(
            backend, lambda stats: run_experiment("FIG9"), lambda: run_experiment("FIG9")
        )
    if name in ("fleet-fluid-400", "fleet-exact-obs"):
        from repro.fleet import FleetSpec, run_fleet

        data = FLUID_FLEET if name == "fleet-fluid-400" else EXACT_FLEET
        spec = FleetSpec.from_dict({**data, "seed": seed})
        backend = spec.shard_plans()[0]["backend"]
        if name == "fleet-fluid-400":
            jobs, cache = 1, False
        else:
            jobs, cache = EXACT_JOBS, True
        return Prepared(
            backend,
            lambda stats: run_fleet(spec, jobs=jobs, use_cache=cache, stats=stats),
            lambda: run_fleet(spec, jobs=1, use_cache=False),
        )
    raise ValueError(f"unknown workload {name!r}; known: {', '.join(NAMES)}")


# -- output digests ----------------------------------------------------------------


def canonical(value: typing.Any) -> typing.Any:
    """A JSON-ready copy of simulated outputs, exact to the last bit.

    Floats keep their shortest round-trip repr through ``json``; tuples
    become lists; dataclasses keep their type name.  Any other object is
    an error, so that a digest never silently hashes an address.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, dict):
        return {str(key): canonical(item) for key, item in value.items()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__type__": type(value).__name__}
        for field in dataclasses.fields(value):
            out[field.name] = canonical(getattr(value, field.name))
        return out
    raise TypeError(f"cannot digest a {type(value).__name__}")


def outputs(name: str, result: typing.Any) -> dict:
    """The simulated outputs a workload's digest covers."""
    if name == "fig9":
        return {"rows": result.rows, "data": result.data}
    keys = (
        "name", "hosts", "vms", "shards", "sessions", "requests", "failures",
        "downtime_s", "availability", "overruns", "rows", "policy", "slo",
    )
    return {key: getattr(result, key) for key in keys}


def digest(name: str, result: typing.Any) -> str:
    """SHA-256 over the canonical JSON of a run's simulated outputs."""
    text = json.dumps(
        canonical(outputs(name, result)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def paper_err_pct(result: typing.Any) -> float:
    """Mean |measured/paper - 1| x 100 over rows with a nonzero paper value."""
    errors = [
        abs(row.measured / row.paper - 1.0) * 100.0
        for row in result.rows
        if row.paper != 0
    ]
    return sum(errors) / len(errors)
