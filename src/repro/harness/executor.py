"""Pluggable trial executors — the harness's throughput layer.

Every experiment reduces to "run this pure function of a seed N times"
(:func:`repro.harness.runner.run_trials`). The per-trial seeds are
derived *up front* from the master seed via
:meth:`repro.sim.rng.RngHub.spawn_seeds`, so execution strategy is a
pure throughput decision: the same master seed must produce bit-identical
results whether trials run serially, across worker processes, or as one
vectorized batch. The strategies:

:class:`SerialExecutor`
    The reference strategy: an in-process loop, one trial at a time.
:class:`ParallelExecutor`
    Fans trial chunks out to a fork-based process pool. Fork start is
    required because experiment trials are closures over network objects;
    forked workers inherit them without pickling, and only seeds and
    results cross process boundaries. Falls back to serial where fork is
    unavailable (non-POSIX platforms).
:class:`BatchedExecutor`
    Runs the whole trial axis as one vectorized call when the trial
    callable advertises one (a ``run_batch`` attribute taking the seed
    list — see :func:`repro.sim.engine.resolve_step_batch` and
    :func:`repro.core.count.run_count_step_batch` for the sim-layer
    primitives this rides on); falls back to serial otherwise.
:class:`XBatchExecutor`
    The cross-point strategy (``jobs="xbatch"``): per run it behaves
    exactly like :class:`BatchedExecutor`, but the scenario sweep
    driver (:mod:`repro.scenarios.compile`, behind both the
    fixed-trials and the streaming path) recognizes it and batches
    *across* sweep points — every point whose trial advertises a
    matching ``xbatch`` compatibility signature joins one lockstep
    execution (:func:`repro.core.xbatch.run_group`).
:class:`StreamingExecutor`
    Memory-capped chunked execution: splits the trial axis into
    fixed-size chunks and delegates each to an inner strategy (the
    vectorized batch by default), so resident state is bounded by the
    chunk size rather than the trial count. Beyond the plain ``run``
    contract it exposes :meth:`StreamingExecutor.iter_chunks`, which
    pulls seeds lazily from a :class:`repro.sim.rng.SeedStream` and
    yields one result chunk at a time — the entry point
    :func:`repro.harness.runner.stream_trials` rides on (results never
    materialize as one list). Its chunk schedule
    (:meth:`StreamingExecutor.chunk_sizes`) also sizes the rounds of
    the scenario driver's CI-targeted streaming.

All strategies validate trial results eagerly: a raising trial surfaces
as a :class:`~repro.model.errors.HarnessError` naming the trial seed
that failed, so a failure deep inside a sweep is reproducible in
isolation. A pool worker that dies outright surfaces the same way,
naming the seeds of every chunk lost with it.

:func:`get_executor` maps the user-facing ``jobs`` knob (CLI ``--jobs``,
the ``jobs`` parameter on every experiment function) to a strategy.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
import traceback
from typing import (
    TYPE_CHECKING,
    Callable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    TypeVar,
    runtime_checkable,
)

from repro import obs
from repro.model.errors import HarnessError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard (rng is sim-side)
    from repro.sim.rng import SeedStream

__all__ = [
    "BatchedExecutor",
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "StreamingExecutor",
    "XBatchExecutor",
    "get_executor",
]

T = TypeVar("T")


def call_trial(trial: Callable[[int], T], seed: int) -> T:
    """Run one trial, wrapping any failure with its seed context."""
    try:
        return trial(seed)
    except HarnessError as exc:
        raise HarnessError(f"trial failed (seed={seed}): {exc}") from exc
    except Exception as exc:  # noqa: BLE001 — seed context must survive
        raise HarnessError(f"trial failed (seed={seed}): {exc!r}") from exc


@runtime_checkable
class Executor(Protocol):
    """Strategy for running one trial function over many seeds.

    Implementations must preserve seed order in the returned list and
    must not perturb results relative to :class:`SerialExecutor` — the
    determinism contract every equivalence test in ``tests/test_harness``
    pins down.
    """

    def run(
        self, trial: Callable[[int], T], seeds: Sequence[int]
    ) -> List[T]:
        """Return ``[trial(s) for s in seeds]``, by whatever means."""
        ...


class SerialExecutor:
    """The reference in-process strategy (``jobs=1``)."""

    def run(
        self, trial: Callable[[int], T], seeds: Sequence[int]
    ) -> List[T]:
        obs.count("executor.trials", len(seeds))
        return [call_trial(trial, s) for s in seeds]


# ----------------------------------------------------------------------
# Process-parallel execution
# ----------------------------------------------------------------------
# Worker-side state: the trial closure, inherited through fork at pool
# creation (closures over network objects are not picklable, so it can
# not travel through the task queue).
_worker_trial: Callable[[int], object] | None = None


def _worker_init(trial: Callable[[int], object]) -> None:
    global _worker_trial
    _worker_trial = trial


def _worker_chunk(
    seeds: List[int],
) -> Tuple[List[tuple], Optional[dict]]:
    """Run a chunk of seeds in a pool worker.

    Returns per-seed ``(ok, payload)`` pairs plus the chunk's telemetry
    snapshot (None while telemetry is off). Workers inherit the
    enabled-state through fork; each chunk records under a fresh
    recorder, and the parent merges the shipped snapshots — integer
    aggregates, so pool completion order cannot change the totals.
    """
    tel = obs.start() if obs.enabled() else None
    start_ns = time.perf_counter_ns()
    results = []
    for seed in seeds:
        try:
            results.append((True, _worker_trial(seed)))
        except Exception as exc:  # noqa: BLE001 — re-raised parent-side
            results.append(
                (False, (seed, f"{exc!r}\n{traceback.format_exc()}"))
            )
    snapshot = None
    if tel is not None:
        tel.count("worker.chunks")
        tel.count("worker.wall_ns", time.perf_counter_ns() - start_ns)
        rss = obs.peak_rss_kb()
        if rss is not None:
            tel.gauge_max("worker.peak_rss_kb", rss)
        snapshot = obs.stop()
    return results, snapshot


class ParallelExecutor:
    """Chunked fan-out over a fork-based process pool (``jobs>=2``).

    Args:
        jobs: Worker process count; ``0`` means one per CPU.
        chunk_size: Seeds per submitted task; default sizes chunks so
            each worker sees ~4 tasks (amortizing IPC while keeping the
            pool load-balanced across uneven trial durations).
    """

    def __init__(self, jobs: int = 0, chunk_size: int | None = None) -> None:
        if jobs < 0:
            raise HarnessError(f"jobs must be >= 0, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise HarnessError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        self.jobs = jobs or (os.cpu_count() or 1)
        self.chunk_size = chunk_size

    def run(
        self, trial: Callable[[int], T], seeds: Sequence[int]
    ) -> List[T]:
        seeds = list(seeds)
        if len(seeds) <= 1 or self.jobs <= 1:
            return SerialExecutor().run(trial, seeds)
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-POSIX fallback
            return SerialExecutor().run(trial, seeds)
        # Imported here so runs that never fan out skip loading the
        # pool machinery.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        jobs = min(self.jobs, len(seeds))
        chunk = self.chunk_size or max(
            1, math.ceil(len(seeds) / (jobs * 4))
        )
        chunks = [
            seeds[i : i + chunk] for i in range(0, len(seeds), chunk)
        ]
        obs.count("executor.trials", len(seeds))
        collector = obs.active()
        results: List[T] = []
        pool = ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=ctx,
            initializer=_worker_init,
            initargs=(trial,),
        )
        try:
            futures = [pool.submit(_worker_chunk, c) for c in chunks]
            # Consuming in submission order keeps chunk order and
            # surfaces a failed chunk as soon as its predecessors are
            # in.
            for i, future in enumerate(futures):
                try:
                    part, snapshot = future.result()
                except BrokenProcessPool as exc:
                    # A worker died outright (OOM kill, segfault): the
                    # pool cannot say which task it held, so name every
                    # chunk that never came back.
                    lost = [
                        s
                        for c, f in zip(chunks[i:], futures[i:])
                        if isinstance(f.exception(), BrokenProcessPool)
                        for s in c
                    ]
                    raise HarnessError(
                        f"a pool worker died; trials lost (seeds={lost})"
                    ) from exc
                if collector is not None:
                    collector.merge_snapshot(snapshot)
                for ok, payload in part:
                    if not ok:
                        seed, detail = payload
                        raise HarnessError(
                            f"trial failed (seed={seed}): {detail}"
                        )
                    results.append(payload)
        except BaseException:
            # Fail fast: kill the workers so chunks in flight stop at
            # once, drop the unstarted chunks and wait for the pool's
            # manager thread to reap every worker. Only that thread may
            # join them: a second join races it for the exit status,
            # and the loser returns while active_children() lists one.
            for worker in list(pool._processes.values()):
                worker.terminate()
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown()
        return results


class BatchedExecutor:
    """Vectorized trial-axis execution (``jobs='batch'``).

    A trial callable opts in by carrying a ``run_batch`` attribute —
    ``run_batch(seeds) -> list of per-seed results``. The protocol
    trial factories (:mod:`repro.scenarios.trials`) set it to their
    cross-point descriptor's one-member group
    (:meth:`repro.core.xbatch.XBatchable.run`), which carries whole
    COUNT, CSEEK/CKSEEK and CGCAST executions through the batch. Trials
    without one fall back to the serial reference strategy, so a
    batched executor is always safe to pass to heterogeneous
    experiments.

    Args:
        batch_size: Maximum seeds per ``run_batch`` call; ``None`` runs
            the whole trial axis in one batch. Batched engine state is
            ``O(B * T * n)``, so a bound keeps huge sweeps
            memory-resident (``jobs="batch:64"`` on the CLI). Per-trial
            results are unaffected — seeds derive up front, so chunking
            is invisible to the determinism contract.
    """

    def __init__(self, batch_size: int | None = None) -> None:
        if batch_size is not None and batch_size < 1:
            raise HarnessError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        self.batch_size = batch_size

    def run(
        self, trial: Callable[[int], T], seeds: Sequence[int]
    ) -> List[T]:
        seeds = list(seeds)
        run_batch = getattr(trial, "run_batch", None)
        if run_batch is None:
            return SerialExecutor().run(trial, seeds)
        obs.count("executor.trials", len(seeds))
        size = self.batch_size or max(1, len(seeds))
        results: List[T] = []
        for i in range(0, len(seeds), size):
            chunk = seeds[i : i + size]
            obs.count("executor.batches")
            try:
                part = list(run_batch(chunk))
            except HarnessError:
                raise
            except Exception as exc:  # noqa: BLE001 — seed context
                raise HarnessError(
                    f"batched trial failed (seeds={chunk}): {exc!r}"
                ) from exc
            if len(part) != len(chunk):
                raise HarnessError(
                    f"batched trial returned {len(part)} results for "
                    f"{len(chunk)} seeds"
                )
            results.extend(part)
        return results


class XBatchExecutor(BatchedExecutor):
    """Cross-point vectorized execution (``jobs='xbatch'``).

    For a single ``run`` call this *is* the batched strategy (same
    contract, same results). Its extra meaning lives one layer up:
    the scenario sweep driver (:mod:`repro.scenarios.compile`, shared
    by the fixed-trials and streaming paths) groups the sweep's
    points by their trials' ``xbatch`` compatibility signatures and
    runs each group as one lockstep execution spanning every member
    point, so a whole sweep resolves in a handful of giant engine
    calls instead of one batch per point. Points that cannot group
    (no ``xbatch`` descriptor, or a unique signature) degrade to
    per-point batching — never an error.

    ``batch_size`` (``jobs="xbatch:N"``) caps trials per lockstep
    execution in both roles, bounding the ``O(B * T * n)`` (and, for
    mixed-network groups, ``O(B * n^2)``) engine state.
    """


#: Default trials resident per streaming chunk. Large enough that the
#: per-chunk batch setup amortizes, small enough that batched engine
#: state (``O(chunk * slots * nodes)``) stays in tens of megabytes for
#: the stock scenarios.
DEFAULT_STREAM_CHUNK = 4096


class StreamingExecutor:
    """Memory-capped chunked execution (``jobs='stream'``).

    Splits the trial axis into chunks of at most ``chunk_size`` seeds
    and delegates each chunk to an inner strategy — the vectorized
    batch by default, so protocol trials still ride
    :class:`repro.core.cseek_batch.CSeekBatch` /
    :func:`repro.core.count.run_count_step_batch` within a chunk.
    Resident simulation state is bounded by the chunk, not the trial
    count, which is what lets a million-trial axis run under a fixed
    memory cap.

    ``run`` satisfies the :class:`Executor` protocol (and is
    bit-identical to the inner strategy, since seeds derive up front);
    :meth:`iter_chunks` is the genuinely streaming entry — seeds are
    drawn lazily and results are yielded chunk by chunk, so a consumer
    folding them into online accumulators (and possibly stopping
    early) never holds more than one chunk.

    Args:
        chunk_size: Trials resident per chunk (default
            ``DEFAULT_STREAM_CHUNK``). Always the *cap* — adaptive
            growth never exceeds it.
        inner: Strategy for each chunk — any ``jobs`` value
            :func:`get_executor` accepts (default: vectorized batch).
        initial_chunk: When set (``0 < initial_chunk < chunk_size``),
            :meth:`iter_chunks` grows the chunk geometrically — the
            first chunk has ``initial_chunk`` trials, each subsequent
            chunk doubles, capped at ``chunk_size``. Easy points (a
            CI-targeted consumer that stops after a few hundred
            trials) then never pay for a full-size chunk, while hard
            points quickly reach the cap and amortize per-chunk
            overhead. The schedule is deterministic, and seeds are
            prefix-stable under any chunking, so per-trial results
            never depend on it. ``0`` (default) keeps fixed-size
            chunks. ``run`` ignores it — the trial count is already
            known there, so there is nothing to probe.
    """

    def __init__(
        self,
        chunk_size: int = 0,
        inner: "int | str | Executor | None" = None,
        initial_chunk: int = 0,
    ) -> None:
        if chunk_size < 0:
            raise HarnessError(
                f"chunk_size must be >= 1, got {chunk_size}"
            )
        if initial_chunk < 0:
            raise HarnessError(
                f"initial_chunk must be >= 0, got {initial_chunk}"
            )
        self.chunk_size = chunk_size or DEFAULT_STREAM_CHUNK
        self.initial_chunk = min(initial_chunk, self.chunk_size)
        self.inner: Executor = (
            BatchedExecutor() if inner is None else get_executor(inner)
        )
        if isinstance(self.inner, StreamingExecutor):
            raise HarnessError(
                "a StreamingExecutor cannot nest another one"
            )

    def run(
        self, trial: Callable[[int], T], seeds: Sequence[int]
    ) -> List[T]:
        seeds = list(seeds)
        results: List[T] = []
        for i in range(0, len(seeds), self.chunk_size):
            obs.count("stream.chunks")
            with obs.span("chunk"):
                results.extend(
                    self.inner.run(trial, seeds[i : i + self.chunk_size])
                )
        return results

    def iter_chunks(
        self,
        trial: Callable[[int], T],
        stream: "SeedStream",
        max_trials: int,
    ) -> Iterator[List[T]]:
        """Yield result chunks, drawing seeds lazily from ``stream``.

        Stops after ``max_trials`` total trials; a consumer that breaks
        out earlier leaves the stream positioned after the last chunk
        it received, so the seeds consumed are always a prefix of the
        one-shot derivation. With ``initial_chunk`` set, chunk sizes
        grow geometrically (doubling) from it up to ``chunk_size``.

        Raises:
            HarnessError: if ``max_trials < 1``.
        """
        if max_trials < 1:
            raise HarnessError(
                f"max_trials must be >= 1, got {max_trials}"
            )
        done = 0
        for chunk in self.chunk_sizes():
            if done >= max_trials:
                return
            count = min(chunk, max_trials - done)
            obs.count("stream.chunks")
            with obs.span("chunk"):
                part = self.inner.run(trial, stream.take(count))
            yield part
            done += count

    def chunk_sizes(self) -> Iterator[int]:
        """The endless chunk schedule of :meth:`iter_chunks`.

        ``initial_chunk`` doubling per chunk up to ``chunk_size``, or
        ``chunk_size`` throughout when ``initial_chunk`` is 0. The
        scenario streaming driver sizes its rounds from it too.
        """
        chunk = self.initial_chunk or self.chunk_size
        while True:
            yield chunk
            chunk = min(chunk * 2, self.chunk_size)


def get_executor(jobs: "int | str | Executor | None" = None) -> Executor:
    """Map a ``jobs`` knob value to an executor.

    Accepts ``None``/``1``/``"serial"`` (serial), an int ``>= 2``
    (process pool of that size), ``0`` (one worker per CPU),
    ``"batch"``/``"batched"`` (vectorized trial axis, one batch),
    ``"batch:N"`` (vectorized in chunks of at most ``N`` trials),
    ``"xbatch"``/``"xbatch:N"`` (vectorized *across* sweep points with
    compatible shapes; per-run it equals ``"batch"``),
    ``"stream"``/``"stream:N"`` (memory-capped chunks of at most ``N``
    trials, each chunk vectorized), or an existing :class:`Executor`
    instance (returned as-is, so experiment functions can thread one
    executor through every ``run_trials`` call).
    """
    if jobs is None:
        return SerialExecutor()
    if isinstance(jobs, str):
        name = jobs.strip().lower()
        if name == "serial":
            return SerialExecutor()
        if name in ("batch", "batched"):
            return BatchedExecutor()
        if name == "xbatch":
            return XBatchExecutor()
        if name in ("stream", "streaming"):
            return StreamingExecutor()
        for prefix, make in (
            ("batch:", BatchedExecutor),
            ("batched:", BatchedExecutor),
            ("xbatch:", XBatchExecutor),
            ("stream:", StreamingExecutor),
            ("streaming:", StreamingExecutor),
        ):
            if name.startswith(prefix):
                size = name[len(prefix):]
                if not size.isdigit() or int(size) < 1:
                    raise HarnessError(
                        f"bad chunk size in jobs value {jobs!r}; "
                        f"expected '{prefix}<positive int>'"
                    )
                return make(int(size))
        if name.isdigit():
            return get_executor(int(name))
        raise HarnessError(
            f"unknown jobs value {jobs!r}; expected an int, 'serial', "
            "'batch', 'batch:N', 'xbatch', 'xbatch:N', 'stream', or "
            "'stream:N'"
        )
    if isinstance(jobs, int) and not isinstance(jobs, bool):
        if jobs < 0:
            raise HarnessError(f"jobs must be >= 0, got {jobs}")
        if jobs == 1:
            return SerialExecutor()
        return ParallelExecutor(jobs=jobs)
    if isinstance(jobs, Executor):
        return jobs
    raise HarnessError(f"unknown jobs value {jobs!r}")
