"""Parallel experiment sweeps over independent measurement cells.

The evaluation sweep is embarrassingly parallel at the *cell* level: one
cell is one deterministically-seeded testbed plus one simulation (e.g.
"FIG5, 7 VMs, xen-save"), so its payload depends only on its parameters
and the code — never on which process runs it or in what order.  The
generic machinery — :class:`~repro.jobs.Cell`, the process pool, the
content-addressed payload cache — lives in :mod:`repro.jobs` at the
foundation layer (the fleet tier rides on it too); this module is the
experiment-facing tier on top: it decomposes experiment and scenario
runs into cell plans and assembles payloads back into results.

Experiments that are not cell-decomposed (they expose no ``cells``/
``assemble`` pair) degrade gracefully to a single whole-run cell, which
still parallelises across experiments and still caches.

Equivalence with the serial path is by construction: the serial runner
(:func:`repro.experiments.common.run_decomposed`) executes the *same*
cell functions and the *same* ``assemble``; the tests in
``tests/experiments/test_parallel.py`` assert bit-identical rows across
serial, parallel and cached runs.
"""

from __future__ import annotations

import typing

from repro.errors import ReproError
from repro.experiments import experiment_ids, runner_module
from repro.experiments.common import ExperimentResult
from repro.jobs import (  # noqa: F401 - re-exported for back-compat
    Cell,
    SweepStats,
    _run_cells,
    cache_dir,
    clear_cache,
    code_version,
    run_cells,
)

_WHOLE = "__whole_run__"
"""Cell key marking a non-decomposed experiment run as a single unit."""


# -- the cell plan -----------------------------------------------------------------


def cells_for(experiment_id: str, full: bool = False) -> list[Cell]:
    """The cell plan for one experiment.

    Decomposed runner modules expose ``cells(full)``; anything else
    becomes a single whole-run cell executing :func:`_run_whole`.
    """
    key = experiment_id.upper()
    module = runner_module(key)
    if hasattr(module, "cells") and hasattr(module, "assemble"):
        return [
            Cell(key, tuple(cell_key), f"{module.__name__}:{fn_name}", dict(params))
            for cell_key, fn_name, params in module.cells(full)
        ]
    return [
        Cell(
            key,
            (_WHOLE,),
            f"{__name__}:_run_whole",
            {"experiment_id": key, "full": full},
        )
    ]


def _run_whole(experiment_id: str, full: bool) -> ExperimentResult:
    """Whole-run fallback cell for non-decomposed experiments."""
    return runner_module(experiment_id).run(full=full)


def _assemble(
    experiment_id: str, full: bool, payloads: dict[tuple, typing.Any]
) -> ExperimentResult:
    module = runner_module(experiment_id)
    if hasattr(module, "cells") and hasattr(module, "assemble"):
        return module.assemble(full, payloads)
    return payloads[(_WHOLE,)]


# -- the runners -------------------------------------------------------------------


def run_experiment_parallel(
    experiment_id: str,
    full: bool = False,
    jobs: int | None = None,
    use_cache: bool = True,
    stats: SweepStats | None = None,
) -> ExperimentResult:
    """Run one experiment by fanning its cells across worker processes."""
    key = experiment_id.upper()
    plan = cells_for(key, full)
    payloads = _run_cells(plan, full, jobs, use_cache, stats)
    return _assemble(key, full, {c.key: payloads[(key, c.key)] for c in plan})


def scenario_cells(specs: typing.Sequence[typing.Any]) -> list[Cell]:
    """The uniform spec-cell plan for a set of scenario specs.

    A scenario cell is the same unit as an experiment cell — one function,
    plain parameters, deterministic payload — so it pools, fans out and
    caches through the exact same machinery.  The spec travels in its
    canonical dict form (:meth:`~repro.scenario.spec.ScenarioSpec.to_dict`
    is field-ordered, so the digest's ``repr`` material is stable).
    """
    seen: set[str] = set()
    cells: list[Cell] = []
    for spec in specs:
        if spec.name in seen:
            raise ReproError(
                f"duplicate scenario name {spec.name!r} in one sweep; "
                "cells are keyed by name"
            )
        seen.add(spec.name)
        cells.append(
            Cell(
                "SCENARIO",
                (spec.name,),
                "repro.scenario.runner:run_scenario_cell",
                {"spec_data": spec.to_dict()},
            )
        )
    return cells


def run_scenarios_parallel(
    specs: typing.Sequence[typing.Any],
    jobs: int | None = None,
    use_cache: bool = True,
    stats: SweepStats | None = None,
) -> dict[str, dict]:
    """Fan a set of :class:`~repro.scenario.spec.ScenarioSpec` runs across
    worker processes; returns each scenario's report dict keyed by name."""
    plan = scenario_cells(specs)
    payloads = _run_cells(plan, False, jobs, use_cache, stats)
    return {
        cell.key[0]: payloads[(cell.experiment_id, cell.key)] for cell in plan
    }


def run_all_parallel(
    full: bool = False,
    jobs: int | None = None,
    use_cache: bool = True,
    experiments: typing.Sequence[str] | None = None,
    stats: SweepStats | None = None,
) -> dict[str, ExperimentResult]:
    """Run a set of experiments (default: all) over one shared pool.

    Cells from every experiment are pooled before fan-out, so the one
    long whole-run cell of a non-decomposed experiment overlaps the many
    short cells of the decomposed ones.
    """
    keys = (
        experiment_ids()
        if experiments is None
        else [e.upper() for e in experiments]
    )
    plan: list[Cell] = []
    for key in keys:
        plan.extend(cells_for(key, full))
    payloads = _run_cells(plan, full, jobs, use_cache, stats)
    results: dict[str, ExperimentResult] = {}
    for key in keys:
        per_key = {
            cell_key: payload
            for (exp, cell_key), payload in payloads.items()
            if exp == key
        }
        results[key] = _assemble(key, full, per_key)
    return results
