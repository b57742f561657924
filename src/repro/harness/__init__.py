"""Experiment harness: runners, executors, tables and the result cache.

Layering: :mod:`~repro.harness.runner` owns seeded repetition
(:func:`run_trials`), :mod:`~repro.harness.executor` owns execution
strategy (serial / process-parallel / vectorized-batch, all
bit-identical for a given master seed), and :mod:`~repro.harness.cache`
owns the deterministic result cache. The experiments E1-E12 are
scenario specs (:mod:`repro.scenarios.paper`), run through
:func:`repro.scenarios.run_scenario`.
"""

from repro.harness.cache import (
    DEFAULT_CACHE_DIR,
    cache_key,
    code_version,
    load_table,
    store_table,
)
from repro.harness.executor import (
    BatchedExecutor,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    StreamingExecutor,
    get_executor,
)
from repro.harness.runner import ExperimentTable, run_trials, stream_trials
from repro.harness.tables import render_markdown, write_csv

__all__ = [
    "BatchedExecutor",
    "DEFAULT_CACHE_DIR",
    "Executor",
    "ExperimentTable",
    "ParallelExecutor",
    "SerialExecutor",
    "StreamingExecutor",
    "cache_key",
    "code_version",
    "get_executor",
    "load_table",
    "render_markdown",
    "run_trials",
    "store_table",
    "stream_trials",
    "write_csv",
]
