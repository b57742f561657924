"""Unit tests for the pluggable trial executors."""

import multiprocessing
import os
import signal
import time

import pytest

from repro.harness import (
    BatchedExecutor,
    ParallelExecutor,
    SerialExecutor,
    get_executor,
    run_trials,
)
from repro.model import HarnessError


def square(s):
    return s * s


class TestGetExecutor:
    def test_default_is_serial(self):
        assert isinstance(get_executor(None), SerialExecutor)
        assert isinstance(get_executor(1), SerialExecutor)
        assert isinstance(get_executor("serial"), SerialExecutor)

    def test_ints_map_to_process_pool(self):
        ex = get_executor(3)
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 3

    def test_zero_means_cpu_count(self):
        assert get_executor(0).jobs >= 1

    def test_batch_names(self):
        assert isinstance(get_executor("batch"), BatchedExecutor)
        assert isinstance(get_executor("batched"), BatchedExecutor)

    def test_numeric_string(self):
        ex = get_executor("4")
        assert isinstance(ex, ParallelExecutor)
        assert ex.jobs == 4

    def test_executor_instances_pass_through(self):
        ex = ParallelExecutor(jobs=2)
        assert get_executor(ex) is ex

    def test_rejects_garbage(self):
        with pytest.raises(HarnessError):
            get_executor("warp-speed")
        with pytest.raises(HarnessError):
            get_executor(-1)
        with pytest.raises(HarnessError):
            get_executor(3.5)


class TestSerialExecutor:
    def test_preserves_order(self):
        assert SerialExecutor().run(square, [3, 1, 2]) == [9, 1, 4]

    def test_wraps_failure_with_seed(self):
        def bad(s):
            raise ValueError("boom")

        with pytest.raises(HarnessError, match="seed=17"):
            SerialExecutor().run(bad, [17])


class TestParallelExecutor:
    def test_matches_serial(self):
        seeds = list(range(20))
        assert ParallelExecutor(jobs=2).run(square, seeds) == [
            s * s for s in seeds
        ]

    def test_closures_cross_the_fork(self):
        # Experiment trials are closures over numpy-heavy network
        # objects; the fork-based pool must run them unpickled.
        offset = 1000

        def trial(s):
            return s + offset

        assert ParallelExecutor(jobs=2).run(trial, [1, 2, 3, 4]) == [
            1001,
            1002,
            1003,
            1004,
        ]

    def test_single_seed_falls_back_to_serial(self):
        assert ParallelExecutor(jobs=4).run(square, [5]) == [25]

    def test_failure_names_the_seed(self):
        def bad(s):
            if s == 3:
                raise RuntimeError("worker boom")
            return s

        with pytest.raises(HarnessError, match="seed=3"):
            ParallelExecutor(jobs=2).run(bad, [1, 2, 3, 4])

    def test_killed_worker_names_its_seed(self):
        def trial(s):
            if s == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return s

        def hung(signum, frame):
            raise TimeoutError("pool never reported the dead worker")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(30)
        start = time.monotonic()
        try:
            with pytest.raises(
                HarnessError, match=r"seeds=\[[^\]]*\b3\b"
            ):
                ParallelExecutor(jobs=2).run(trial, range(8))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert time.monotonic() - start < 5

    def test_failure_kills_in_flight_workers(self):
        def trial(s):
            if s == 0:
                raise RuntimeError("first chunk fails")
            time.sleep(30)
            return s

        start = time.monotonic()
        with pytest.raises(HarnessError, match="seed=0"):
            ParallelExecutor(jobs=2, chunk_size=1).run(trial, range(4))
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 5

    def test_chunk_size_validation(self):
        with pytest.raises(HarnessError):
            ParallelExecutor(jobs=2, chunk_size=0)

    def test_explicit_chunking_preserves_order(self):
        seeds = list(range(13))
        out = ParallelExecutor(jobs=2, chunk_size=3).run(square, seeds)
        assert out == [s * s for s in seeds]


class TestBatchedExecutor:
    def test_uses_run_batch_when_offered(self):
        calls = []

        def trial(s):
            raise AssertionError("serial path must not run")

        def run_batch(seeds):
            calls.append(list(seeds))
            return [s * 10 for s in seeds]

        trial.run_batch = run_batch
        assert BatchedExecutor().run(trial, [1, 2]) == [10, 20]
        assert calls == [[1, 2]]

    def test_falls_back_to_serial_without_run_batch(self):
        assert BatchedExecutor().run(square, [2, 3]) == [4, 9]

    def test_rejects_wrong_result_count(self):
        def trial(s):
            return s

        def short_batch(seeds):
            return [0]

        trial.run_batch = short_batch
        with pytest.raises(HarnessError, match="1 results for 2 seeds"):
            BatchedExecutor().run(trial, [1, 2])

    def test_wraps_batch_failure(self):
        def trial(s):
            return s

        def run_batch(seeds):
            raise ValueError("vector boom")

        trial.run_batch = run_batch
        with pytest.raises(HarnessError, match="vector boom"):
            BatchedExecutor().run(trial, [1, 2])


class TestRunTrialsExecutors:
    def test_all_strategies_agree(self):
        serial = run_trials(square, 8, seed=4)
        parallel = run_trials(square, 8, seed=4, executor=2)
        batched = run_trials(square, 8, seed=4, executor="batch")
        assert serial == parallel == batched

    def test_failure_surfaces_failing_seed(self):
        def bad(s):
            raise ValueError("mid-sweep boom")

        with pytest.raises(HarnessError, match=r"seed=\d+"):
            run_trials(bad, 3, seed=0)
