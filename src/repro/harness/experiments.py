"""Experiment entry points E1-E12 — thin wrappers over the scenario layer.

The experiment definitions themselves live in
:mod:`repro.scenarios.paper` as registered
:class:`~repro.scenarios.spec.ScenarioSpec` objects compiled by
:mod:`repro.scenarios.compile`; what remains here is the legacy calling
surface (``experiment_eN`` functions, the ``EXPERIMENTS`` registry and
:func:`run_experiment` with its result cache) that tests, benchmarks
and the CLI's ``run`` command rely on.

All experiments take a ``trials`` knob (statistical confidence vs
runtime), a master ``seed``, and a ``jobs`` knob selecting the execution
strategy for their Monte Carlo trials (see
:mod:`repro.harness.executor`: ``None``/1 serial, ``>= 2`` process
workers, ``"batch"`` vectorized where the trial is homogeneous), and
return an :class:`~repro.harness.runner.ExperimentTable`. Strategy never
changes rows — per-trial seeds are derived up front, so serial, parallel
and batched runs of the same master seed are bit-identical.
:func:`run_experiment` additionally offers a deterministic result cache
(see :mod:`repro.harness.cache`).
"""

from __future__ import annotations

import warnings
from typing import Callable, Dict, List, Optional

from repro.harness.cache import load_table, store_table
from repro.harness.executor import Executor
from repro.harness.runner import ExperimentTable
from repro.model.errors import HarnessError

__all__ = ["EXPERIMENTS", "run_experiment", "experiment_ids"]

Jobs = int | str | Executor | None

_EXPERIMENT_IDS = [f"E{i}" for i in range(1, 13)]


def _scenario_table(
    experiment_id: str, trials: Optional[int], seed: int, jobs: Jobs
) -> ExperimentTable:
    # Deferred import: repro.scenarios builds on the harness's runner /
    # executor / cache modules, and this module is imported by the
    # repro.harness package init — a top-level import here would close
    # that cycle while both packages are half-initialized. The import
    # runs once per experiment call (not per trial), so it costs
    # nothing measurable.
    from repro.scenarios import paper_spec, run_scenario_spec

    return run_scenario_spec(
        paper_spec(experiment_id), trials=trials, seed=seed, jobs=jobs
    )


def _make_experiment(experiment_id: str) -> Callable[..., ExperimentTable]:
    def experiment(
        trials: Optional[int] = None, seed: int = 0, jobs: Jobs = None
    ) -> ExperimentTable:
        return _scenario_table(experiment_id, trials, seed, jobs)

    experiment.__name__ = f"experiment_{experiment_id.lower()}"
    experiment.__qualname__ = experiment.__name__
    experiment.__doc__ = (
        f"Regenerate {experiment_id}'s table through the scenario layer "
        f"(see repro.scenarios.paper); ``trials=None`` uses the "
        "experiment's default."
    )
    return experiment


EXPERIMENTS: Dict[str, Callable[..., ExperimentTable]] = {
    experiment_id: _make_experiment(experiment_id)
    for experiment_id in _EXPERIMENT_IDS
}

# Named aliases for the historical import surface
# (``from repro.harness.experiments import experiment_e2``).
experiment_e1 = EXPERIMENTS["E1"]
experiment_e2 = EXPERIMENTS["E2"]
experiment_e3 = EXPERIMENTS["E3"]
experiment_e4 = EXPERIMENTS["E4"]
experiment_e5 = EXPERIMENTS["E5"]
experiment_e6 = EXPERIMENTS["E6"]
experiment_e7 = EXPERIMENTS["E7"]
experiment_e8 = EXPERIMENTS["E8"]
experiment_e9 = EXPERIMENTS["E9"]
experiment_e10 = EXPERIMENTS["E10"]
experiment_e11 = EXPERIMENTS["E11"]
experiment_e12 = EXPERIMENTS["E12"]


def experiment_ids() -> List[str]:
    """All experiment ids, E1-E12 in :mod:`repro.scenarios.paper` order."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    trials: int | None = None,
    seed: int = 0,
    jobs: Jobs = None,
    cache: bool = False,
    cache_dir: str | None = None,
) -> ExperimentTable:
    """Run one experiment by id.

    Args:
        experiment_id: Experiment id registered in
            :mod:`repro.scenarios.paper` (case-insensitive).
        trials: Trials per configuration (None = experiment default).
        seed: Master seed.
        jobs: Execution strategy for the Monte Carlo trials (see
            :func:`repro.harness.executor.get_executor`); never changes
            the produced rows, only wall-clock.
        cache: When True, look the table up in (and store it into) the
            deterministic result cache — keyed on experiment id, trials,
            seed and code version, *not* on ``jobs``.
        cache_dir: Cache location override (default ``.repro_cache/``).

    Raises:
        HarnessError: for unknown ids.
    """
    key = experiment_id.upper()
    if key not in EXPERIMENTS:
        raise HarnessError(
            f"unknown experiment {experiment_id!r}; valid: "
            f"{', '.join(EXPERIMENTS)}"
        )
    if cache:
        cached = load_table(key, trials, seed, cache_dir=cache_dir)
        if cached is not None:
            return cached
    table = EXPERIMENTS[key](trials=trials, seed=seed, jobs=jobs)
    if cache:
        try:
            store_table(table, trials, seed, cache_dir=cache_dir)
        except OSError as exc:
            # The cache is an optimization; never lose a computed table
            # to an unwritable cache location.
            warnings.warn(
                f"could not store {key} in the result cache: {exc}",
                stacklevel=2,
            )
    return table
