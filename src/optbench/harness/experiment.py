"""Experiment execution over (suite x algorithms x seeds).

Every cell derives its own RNG stream from the master seed and the cell
labels, runs independently, and snapshots the recommendation's simple
regret on a geometric evaluation grid.  Cells are therefore reproducible
and order-independent, so running them in several processes changes only
wall time.

``run_experiment(..., jobs=N)`` runs the cells in N processes: N - 1
workers and the calling process itself.  Each takes the next cell index
from one shared counter, so cells are dealt one at a time in manifest
order.  A worker sends ``(index, record)`` back over its own pipe; the
parent reads the ready pipes between its own cells and places every record
by its index.  A worker that dies in a cell fails only that cell, with the
record ``WorkerDied: process exited with code C`` (or ``killed by signal
S``), and the other cells still run.  A worker killed while it holds the
counter's lock is not covered: the lock is never released and the run
hangs.  An exception that ends the parent's own cell loop, such as
KeyboardInterrupt, terminates and joins the workers before it propagates.
Each process of a pool sets numpy's bundled OpenBLAS to one thread unless
a thread variable is set, and the parent restores its own count when the
pool ends.
"""

from __future__ import annotations

import ctypes
import glob
import math
import multiprocessing
import os
import signal
import time
from multiprocessing.connection import wait
from typing import Sequence

import numpy as np

from ..algospec import canonical_text
from ..bench.suites import BenchmarkSuite, SuiteProblem
from ..bench.transforms import make_function
from ..core import RunContext, run_loop
from ..errors import EvaluationError, error_text
from ..seeds import derive_seed
from ..wizard import validate_spec
from .records import ExperimentRecord


def checkpoint_grid(budget: int) -> list[int]:
    """Geometric grid ``ceil(budget * 2^-k)`` joined with the budget itself."""
    grid = {budget}
    k = 1
    while True:
        value = (budget + (1 << k) - 1) // (1 << k)  # ceil(budget / 2^k)
        grid.add(value)
        if value == 1:
            break
        k += 1
    return sorted(grid)


def run_cell(
    suite_name: str,
    problem: SuiteProblem,
    budget: int,
    num_workers: int,
    algorithm_text: str,
    algorithm_spec,
    seed: int,
    master_seed: int,
) -> ExperimentRecord:
    """Run one cell; any exception is captured in a failed record, not raised."""
    labels = _labels(suite_name, problem, budget, num_workers, algorithm_text, algorithm_spec, seed,
                     master_seed)
    cell_seed = derive_seed(
        master_seed, [suite_name, problem.problem_id, budget, num_workers, algorithm_text, seed]
    )
    start = time.perf_counter()
    try:
        function = make_function(problem.spec, noise_seed=derive_seed(cell_seed, ["noise"]))
        context = RunContext(
            domain=function.domain,
            budget=budget,
            num_workers=num_workers,
            noisy=problem.spec.transform.noise_std > 0,
            master_seed=cell_seed,
        )
        upcoming = checkpoint_grid(budget)[::-1]  # the next checkpoint last
        known_min = function.known_minimum
        checkpoints: list[tuple[int, float]] = []

        def snapshot(done: int, handle) -> None:
            if upcoming and done >= upcoming[-1]:
                while upcoming and upcoming[-1] <= done:
                    upcoming.pop()
                regret = function.noise_free(handle.recommend().point)
                if known_min is not None:
                    regret -= known_min
                if not math.isfinite(regret):
                    raise EvaluationError(f"non-finite regret at evaluation {done}")
                checkpoints.append((done, regret))

        run_loop(algorithm_spec, function, context, checkpoint_callback=snapshot)
        wall = (time.perf_counter() - start) * 1000.0
        return ExperimentRecord(**labels, checkpoints=tuple(checkpoints), wall_time_ms=wall)
    except Exception as exc:  # a fault in one cell fails that cell, not the experiment
        wall = (time.perf_counter() - start) * 1000.0
        return ExperimentRecord(**labels, wall_time_ms=wall, failed=True, error=error_text(exc))


def _labels(suite_name, problem, budget, num_workers, algorithm_text, _spec, seed, _master_seed):
    """The label fields of a cell's record, from ``run_cell``'s arguments."""
    return dict(suite=suite_name, problem=problem.problem_id, algorithm=algorithm_text, seed=seed,
                budget=budget, num_workers=num_workers)


#: a thread count set by the caller's environment, which a pool leaves alone
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: numpy's bundled OpenBLAS, whose thread count a pool sets
_OPENBLAS = f"{os.path.dirname(np.__file__)}.libs/libscipy_openblas64_*"


def _blas_threads(count: int | None) -> int | None:
    """Set OpenBLAS to ``count`` threads unless it is None or a thread variable
    is set; the count it had, or None when it set nothing."""
    if count is None or any(v in os.environ for v in _THREAD_VARS):
        return None
    try:
        lib = ctypes.CDLL(glob.glob(_OPENBLAS)[0])
        previous = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(count)
    except (IndexError, OSError, AttributeError):  # no such library, or another build of it
        return None
    return previous


def _take(counter, taken) -> int:
    """The next cell index; ``taken`` (a worker's own slot, or None) records it
    under the counter's lock."""
    with counter.get_lock():
        index = counter.value
        counter.value = index + 1
        if taken is not None:
            taken.value = index
    return index


def _work(cells, counter, taken, conn) -> None:
    """A worker process: run the cells the counter deals it, sending each
    ``(index, record)`` to the parent."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on Ctrl-C the parent stops the workers
    _blas_threads(1)
    while (index := _take(counter, taken)) < len(cells):
        conn.send((index, run_cell(*cells[index])))
    conn.close()


def _worker_died(cell, exitcode: int) -> ExperimentRecord:
    """The failed record of a cell whose worker died in it."""
    how = f"killed by signal {-exitcode}" if exitcode < 0 else f"process exited with code {exitcode}"
    return ExperimentRecord(**_labels(*cell), failed=True, error=f"WorkerDied: {how}")


def _run_shared(cells: list, jobs: int) -> list[ExperimentRecord]:
    """Run ``cells`` in ``jobs - 1`` worker processes and this one, dealt by a shared counter."""
    counter = multiprocessing.Value("q", 0)
    records: list[ExperimentRecord | None] = [None] * len(cells)
    workers, pipes = [], []

    def receive(timeout) -> None:
        # each write end lives only in its worker, so a pipe reads EOF once its
        # worker has exited, by returning or by dying
        for conn in wait(pipes, timeout):
            try:
                while conn.poll():
                    index, record = conn.recv()
                    records[index] = record
            except EOFError:
                pipes.remove(conn)
                conn.close()

    previous = _blas_threads(1)
    try:
        for _ in range(jobs - 1):
            taken = multiprocessing.RawValue("q", -1)
            conn, send = multiprocessing.Pipe(duplex=False)
            pipes.append(conn)
            worker = multiprocessing.Process(target=_work, args=(cells, counter, taken, send))
            worker.start()
            send.close()
            workers.append((worker, taken))
        while (index := _take(counter, None)) < len(cells):
            records[index] = run_cell(*cells[index])
            receive(0)
        while pipes:
            receive(None)
    except BaseException:
        for worker, _taken in workers:
            worker.terminate()
        raise
    finally:
        for conn in pipes:
            conn.close()
        for worker, _taken in workers:
            worker.join()
        _blas_threads(previous)
    for worker, taken in workers:
        if 0 <= taken.value < len(cells) and records[taken.value] is None:
            records[taken.value] = _worker_died(cells[taken.value], worker.exitcode)
    return records


def run_experiment(
    suite: BenchmarkSuite,
    algorithms: Sequence,
    seeds: Sequence[int],
    master_seed: int = 0,
    jobs: int = 1,
) -> list[ExperimentRecord]:
    """One record per (problem, budget, num_workers, algorithm, seed) cell.

    All algorithm ids are validated before any cell executes.  Records come
    back in canonical cell order regardless of ``jobs``.
    """
    parsed = [(canonical_text(spec), spec) for spec in map(validate_spec, algorithms)]
    cells = []
    for problem in suite.problems:
        for budget in problem.budgets:
            for workers in problem.num_workers:
                for text, spec in parsed:
                    for seed in seeds:
                        cells.append(
                            (suite.name, problem, budget, workers, text, spec, seed, master_seed)
                        )
    jobs = min(jobs, len(cells))
    if jobs > 1:
        return _run_shared(cells, jobs)
    return [run_cell(*cell) for cell in cells]
