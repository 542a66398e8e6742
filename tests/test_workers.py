"""Cells in several processes: the parent and its workers take cells from one
shared counter, and the records come back in cell order with the same bytes.

The tests that patch ``run_cell`` need the workers forked from the test
process, where the patch is in force.
"""

import ctypes
import glob
import json
import multiprocessing
import os
import signal
import time

import pytest

from optbench.bench import FunctionSpec, TransformSpec
from optbench.bench.suites import BenchmarkSuite, SuiteProblem
from optbench.cli import main
from optbench.harness import experiment, run_experiment
from optbench.harness.records import record_to_line

FORKED = pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="workers are not forked")

SUITE = BenchmarkSuite(
    "workers",
    (
        SuiteProblem("onemax-d8", FunctionSpec("onemax", 8), budgets=(30,)),
        # its first loss overflows to inf, so every cell of it fails
        SuiteProblem(
            "overflow",
            FunctionSpec("sphere", 3, TransformSpec(translation_std=1e200, transform_seed=1)),
            budgets=(30,),
        ),
    ),
)
ALGS = ["tbpsa", "one-plus-one-es"]
CELLS = 8  # 2 problems x 2 algorithms x 2 seeds
LABELS = ("suite", "problem", "algorithm", "seed", "budget", "num_workers")

pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered")


def lines(jobs, algorithms=ALGS, seeds=(0, 1)) -> list[str]:
    return [record_to_line(r) for r in run_experiment(SUITE, algorithms, list(seeds), master_seed=4, jobs=jobs)]


@pytest.fixture(scope="module")
def serial() -> list[str]:
    return lines(1)


def patch_run_cell(monkeypatch, worker=None, parent=None) -> None:
    """``run_cell`` becomes ``worker(cell, run_cell)`` in a worker process and
    ``parent(cell, run_cell)`` in this one; None keeps it."""
    pid = os.getpid()
    original = experiment.run_cell

    def run_cell(*cell):
        hook = parent if os.getpid() == pid else worker
        return original(*cell) if hook is None else hook(cell, original)

    monkeypatch.setattr(experiment, "run_cell", run_cell)


def started(monkeypatch) -> list:
    """The processes started from now on."""
    processes = []
    start = multiprocessing.Process.start

    def counted(self):
        processes.append(self)
        start(self)

    monkeypatch.setattr(multiprocessing.Process, "start", counted)
    return processes


@FORKED
@pytest.mark.parametrize("jobs", [2, 3])
def test_every_cell_runs_once_and_the_records_are_the_same_bytes(monkeypatch, serial, jobs):
    # a lost update of the shared counter would run a cell twice
    runs = multiprocessing.Value("i", 0)

    def count(cell, run):
        with runs.get_lock():
            runs.value += 1
        return run(*cell)

    patch_run_cell(monkeypatch, worker=count, parent=count)
    processes = started(monkeypatch)
    assert lines(jobs) == serial
    assert runs.value == CELLS
    assert len(processes) == jobs - 1
    assert multiprocessing.active_children() == []


def test_more_jobs_than_cells_start_a_worker_per_cell_but_one(monkeypatch):
    want = lines(1, algorithms=["tbpsa"], seeds=[0])
    processes = started(monkeypatch)
    assert lines(5, algorithms=["tbpsa"], seeds=[0]) == want
    assert len(want) == 2 and len(processes) == 1


def test_no_cells_start_no_process(monkeypatch):
    processes = started(monkeypatch)
    assert run_experiment(SUITE, ALGS, [], jobs=2) == []
    assert processes == []


@FORKED
def test_a_cell_that_raises_in_a_worker_is_the_same_failed_record(monkeypatch, serial):
    failed_in_worker = multiprocessing.Event()

    def worker(cell, run):
        record = run(*cell)
        if record.failed:
            failed_in_worker.set()
        return record

    def parent(cell, run):
        failed_in_worker.wait(30)  # the parent's first cell waits for a failed cell in the worker
        return run(*cell)

    patch_run_cell(monkeypatch, worker=worker, parent=parent)
    assert lines(2) == serial
    assert failed_in_worker.is_set()
    assert sum('"failed":true' in line for line in serial) == 4


@FORKED
@pytest.mark.parametrize("die, error", [
    (lambda: os._exit(3), "WorkerDied: process exited with code 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "WorkerDied: killed by signal 9"),
], ids=["exit-code", "signal"])
def test_a_worker_that_dies_fails_only_its_own_cell(monkeypatch, tmp_path, capsys, die, error):
    argv = ["run", "--suite", "noisy_lite", "--algs", "one-plus-one-es", "--seeds", "1", "--master-seed", "3"]
    assert main([*argv, "--workers", "1", "--out", str(tmp_path / "serial")]) == 0
    serial = (tmp_path / "serial" / "records.jsonl").read_text().splitlines()
    taken = multiprocessing.Event()

    def worker(cell, run):
        taken.set()
        die()

    def parent(cell, run):
        taken.wait(30)  # the parent's first cell waits until the worker has taken one
        return run(*cell)

    patch_run_cell(monkeypatch, worker=worker, parent=parent)
    capsys.readouterr()
    assert main([*argv, "--workers", "2", "--out", str(tmp_path / "pooled")]) == 1
    assert capsys.readouterr().err.splitlines()[0] == "1 cells failed:"
    pooled = (tmp_path / "pooled" / "records.jsonl").read_text().splitlines()
    differ = [i for i, (got, want) in enumerate(zip(pooled, serial)) if got != want]
    assert len(pooled) == len(serial) and len(differ) == 1
    got, want = json.loads(pooled[differ[0]]), json.loads(serial[differ[0]])
    assert {k: got[k] for k in LABELS} == {k: want[k] for k in LABELS}
    assert got["failed"] and got["error"] == error and got["checkpoints"] == []
    assert multiprocessing.active_children() == []


@FORKED
def test_an_interrupt_in_the_parent_leaves_no_worker_behind(monkeypatch):
    parent_cells = []

    def worker(cell, run):
        time.sleep(5.0)  # busy in a cell when the parent is interrupted
        return run(*cell)

    def parent(cell, run):
        parent_cells.append(cell)
        if len(parent_cells) == 2:
            raise KeyboardInterrupt
        return run(*cell)

    patch_run_cell(monkeypatch, worker=worker, parent=parent)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(SUITE, ALGS, [0, 1], master_seed=4, jobs=3)
    assert multiprocessing.active_children() == []
    assert time.monotonic() - start < 4.0  # the workers were stopped, not waited for


#: the OpenBLAS thread count before a run: above the one thread a pool sets,
#: and above the two CPUs a small machine has
START_THREADS = 3


@pytest.fixture
def blas_threads(monkeypatch):
    """The getter of numpy's OpenBLAS thread count, with no thread variable set
    and the count at ``START_THREADS``, restored afterwards."""
    libs = glob.glob(experiment._OPENBLAS)
    if not libs:
        pytest.skip("numpy has no bundled OpenBLAS")
    for name in experiment._THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    set_threads = lib.scipy_openblas_set_num_threads64_
    before = get_threads()
    set_threads(START_THREADS)
    yield get_threads
    set_threads(before)


def assert_threads_in_every_cell(monkeypatch, get_threads, want, jobs, serial) -> None:
    def check(cell, run):
        assert get_threads() == want  # a worker that fails this dies, and its record differs
        return run(*cell)

    patch_run_cell(monkeypatch, worker=check, parent=check)
    assert lines(jobs) == serial


@FORKED
@pytest.mark.parametrize("jobs", [2, 3])
def test_each_pool_process_gets_one_blas_thread(monkeypatch, serial, blas_threads, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)  # a host whose affinity mask holds fewer
    assert_threads_in_every_cell(monkeypatch, blas_threads, 1, jobs, serial)
    assert blas_threads() == START_THREADS  # the parent's own count is back


@FORKED
@pytest.mark.parametrize("why", ["variable", "no-library", "no-symbol"])
def test_a_thread_variable_or_no_openblas_leaves_the_blas_threads_alone(monkeypatch, serial,
                                                                       blas_threads, why):
    if why == "variable":
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
    elif why == "no-library":
        monkeypatch.setattr(experiment, "_OPENBLAS", "no-such-library-*")
    else:  # a library without the thread-count functions: numpy's bundled libgfortran
        other = experiment._OPENBLAS.replace("libscipy_openblas64_", "libgfortran")
        monkeypatch.setattr(experiment, "_OPENBLAS", other)
    assert_threads_in_every_cell(monkeypatch, blas_threads, START_THREADS, 3, serial)
    assert blas_threads() == START_THREADS


def test_a_serial_run_leaves_the_blas_threads_alone(monkeypatch, serial, blas_threads):
    assert_threads_in_every_cell(monkeypatch, blas_threads, START_THREADS, 1, serial)
