"""Command line for the fleet tier.

Exposed as ``python -m repro.fleet ...``::

    fleet validate SPEC...        # schema-check fleet TOML files
    fleet run SPEC [--jobs N]     # run every shard, print the report

``fleet run --obs-out PATH`` writes the *merged* telemetry bundle (all
shards, with host→shard provenance) as one JSON document — the input
``python -m repro.obs explain`` reconstructs decision timelines from.
``fleet run --trace-out PATH`` writes the same bundle as one Perfetto
document with a process pair per shard, so control-plane decisions
(``control.cycle`` / ``control.action`` spans) are inspectable next to
the metric tracks.  Both force telemetry collection on even when the
spec states no ``[slo]`` table and no ``telemetry = true``, and both
honour ``--jobs`` and ``--cache``: the bundle travels home in the shard
payloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import typing

from repro.errors import FleetError, ScenarioError
from repro.fleet.runner import run_fleet
from repro.fleet.spec import load_fleet_toml
from repro.scenario.spec import PolicySpec


def _cmd_validate(args: argparse.Namespace) -> int:
    for path in args.specs:
        spec = load_fleet_toml(path)
        print(
            f"{path}: ok ({spec.name}: {spec.host_count} host(s), "
            f"{spec.sessions} fluid session(s), {len(spec.shard_plans())} "
            f"shard(s), {spec.epochs} epoch(s))"
        )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = load_fleet_toml(args.spec)
    if args.policy:
        policy = (
            dataclasses.replace(spec.policy, strategy=args.policy)
            if spec.policy is not None
            else PolicySpec(strategy=args.policy)
        )
        spec = dataclasses.replace(spec, policy=policy)
    exporting = args.obs_out or args.trace_out
    if exporting and not spec.telemetry_enabled:
        spec = dataclasses.replace(spec, telemetry=True)
    report = run_fleet(spec, jobs=args.jobs, use_cache=args.cache)
    if exporting:
        from repro.obs.bundle import TelemetryBundle

        bundle = TelemetryBundle.from_dict(report.telemetry)
        if args.obs_out:
            print(f"wrote {bundle.write(args.obs_out)}")
        if args.trace_out:
            print(f"wrote {bundle.write_perfetto(args.trace_out)}")
    print(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Sharded fleet runs: validate and run fleet specs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="schema-check fleet TOML files")
    validate.add_argument("specs", nargs="+", metavar="SPEC.toml")
    validate.set_defaults(fn=_cmd_validate)

    run = sub.add_parser("run", help="run one fleet end-to-end")
    run.add_argument("spec", metavar="SPEC.toml")
    run.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the shard fan-out (default: cpu count); "
        "1 runs shards serially in-process",
    )
    run.add_argument(
        "--cache", action="store_true",
        help="content-address shard payloads in the experiments cache",
    )
    run.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="write the merged fleet telemetry as one Perfetto trace, "
        "one process pair per shard (implies telemetry collection)",
    )
    run.add_argument(
        "--obs-out",
        metavar="PATH",
        default=None,
        help="write the merged fleet telemetry bundle as one JSON "
        "document (implies telemetry collection); explain it with "
        "`python -m repro.obs explain PATH`",
    )
    run.add_argument(
        "--policy",
        metavar="STRATEGY",
        default=None,
        help="enable (or override) the autonomic control loop with this "
        "placement strategy on every shard",
    )
    run.set_defaults(fn=_cmd_run)
    return parser


def main(argv: typing.Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FleetError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
