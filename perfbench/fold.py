"""Fold a cProfile profile into this repository's layers.

Layers are the packages of simlint's layer map
(``repro.devtools.simlint.layers``), with ``simkernel`` split three ways:
``simkernel.sharing`` (``sharing.py``), ``simkernel.telemetry``
(``metrics.py``, ``tracing.py``, ``spans.py``) and ``simkernel.dispatch``
(the rest of the kernel).  Root modules other than ``jobs.py``
(``config``, ``units``, ``errors``, ...) form ``foundation``.

Self time of a frame outside ``repro`` (stdlib, builtins, numpy) is
charged to the layer of the innermost ``repro`` frame that called it.
cProfile keeps only caller edges, not stacks, so the walk is by edge
weight: a foreign function's self time is split over its direct callers
by the self time each edge carried, and whatever lands on a foreign
caller is passed further up in proportion to that caller's cumulative
time per edge, until it reaches a ``repro`` frame.  Time that never
does (the benchmark's own frames, or a ``repro`` package missing from
the map) is ``unattributed``.  Every second of profiled self time lands
in exactly one bucket.
"""

from __future__ import annotations

import typing

LAYERS = (
    "simkernel.dispatch",
    "simkernel.sharing",
    "simkernel.telemetry",
    "foundation",
    "memory",
    "hardware",
    "vmm",
    "guest",
    "core",
    "workloads",
    "aging",
    "control",
    "cluster",
    "scenario",
    "fleet",
    "jobs",
    "obs",
    "analysis",
    "experiments",
)
UNATTRIBUTED = "unattributed"

_TELEMETRY = frozenset({"metrics.py", "tracing.py", "spans.py"})

ROUNDS = 200
"""Cap on fixed-point rounds; recursion cycles converge geometrically."""

Func = tuple[str, int, str]
"""A pstats function key: (filename, first line, name)."""
Stats = typing.Mapping[Func, tuple]
"""pstats ``Stats.stats``: func -> (cc, nc, tt, ct, callers), where
callers maps each calling func to its edge's (cc, nc, tt, ct)."""


def layer_of(filename: str) -> str | None:
    """The layer of a source file, or None when it is not ``repro`` code."""
    parts = filename.split("/")
    try:
        at = len(parts) - 1 - parts[::-1].index("repro")
    except ValueError:
        return None
    rest = parts[at + 1:]
    if not rest:
        return None
    if len(rest) == 1:
        return "jobs" if rest[0] == "jobs.py" else "foundation"
    package = rest[0]
    if package == "simkernel":
        if rest[1] == "sharing.py":
            return "simkernel.sharing"
        if rest[1] in _TELEMETRY:
            return "simkernel.telemetry"
        return "simkernel.dispatch"
    return package if package in LAYERS else UNATTRIBUTED


def _blend(parts: typing.Iterable[tuple[float, dict[str, float]]]) -> dict[str, float]:
    """Weighted mix of layer distributions (weights need not sum to 1)."""
    parts = [(w, d) for w, d in parts if w > 0]
    total = sum(w for w, _ in parts)
    if total <= 0:
        return {UNATTRIBUTED: 1.0}
    out: dict[str, float] = {}
    for weight, dist in parts:
        for layer, share in dist.items():
            out[layer] = out.get(layer, 0.0) + share * weight / total
    return out


def fold(stats: Stats) -> dict[str, float]:
    """Self seconds per layer, plus ``unattributed``; sums to the total."""
    layer = {func: layer_of(func[0]) for func in stats}
    dist: dict[Func, dict[str, float]] = {}

    def point(func: Func) -> dict[str, float]:
        if layer.get(func) is not None:
            return {layer[func]: 1.0}
        return dist.get(func, {UNATTRIBUTED: 1.0})

    # Where a foreign function's time goes: a fixed point over its
    # callers, weighted by cumulative time per edge.  Self edges of a
    # recursive function carry no information and are skipped.
    foreign = [func for func in stats if layer[func] is None]
    for _ in range(ROUNDS):
        change = 0.0
        for func in foreign:
            new = _blend(
                (edge[3], point(caller))
                for caller, edge in stats[func][4].items()
                if caller != func
            )
            old = dist.get(func, {})
            for key in new.keys() | old.keys():
                change = max(change, abs(new.get(key, 0.0) - old.get(key, 0.0)))
            dist[func] = new
        if change < 1e-12:
            break

    totals = dict.fromkeys(LAYERS + (UNATTRIBUTED,), 0.0)
    for func, (_, _, tt, _, callers) in stats.items():
        if layer[func] is not None:
            totals[layer[func]] += tt
            continue
        # Split by the self time each call edge carried.
        split = _blend((edge[2], point(caller)) for caller, edge in callers.items())
        for name, share in split.items():
            totals[name] += tt * share
    return totals


def count_calls(stats: Stats, path: str, name: str) -> int:
    """Calls of function ``name`` defined in a file ending with ``path``."""
    return sum(
        value[1]
        for func, value in stats.items()
        if func[2] == name and func[0].endswith(path)
    )


def count_edge(stats: Stats, callee: tuple[str, str], caller: tuple[str, str]) -> int:
    """Calls of one (path, name) function made directly from another."""
    total = 0
    for func, value in stats.items():
        if func[2] != callee[1] or not func[0].endswith(callee[0]):
            continue
        for source, edge in value[4].items():
            if source[2] == caller[1] and source[0].endswith(caller[0]):
                total += edge[1]
    return total
