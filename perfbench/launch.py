"""Fresh-process launches of ``optbench``: wall time, peak memory, set-up and speed probes.

Every child gets ``PYTHONPATH=<checkout>/src`` and one BLAS/OpenMP thread:
numpy links a multithreaded OpenBLAS, so two pool workers on two cores would
otherwise run up to four BLAS threads.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RSS_SAMPLE_S = 0.01
MAX_CPUS = 2  # no workload keeps more than two processes busy


def pin_threads(env) -> None:
    for name in THREAD_VARS:
        env[name] = "1"


def child_env() -> dict:
    env = dict(os.environ)
    pin_threads(env)
    env["PYTHONPATH"] = str(SRC)
    return env


def bench_cpus() -> list[int]:
    """The CPUs the benchmark and everything it launches run on."""
    return sorted(os.sched_getaffinity(0))[:MAX_CPUS]


@dataclass
class Launch:
    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _tree(pid: int) -> list[int]:
    pids, todo = [], [pid]
    while todo:
        current = todo.pop()
        pids.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{current}/task/{tid}/children") as fh:
                    todo.extend(int(p) for p in fh.read().split())
            except OSError:
                pass
    return pids


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _PeakRss(threading.Thread):
    """Samples the high-water RSS of every process in the child's tree.

    The result is the sum over processes of each one's own peak, so pool
    workers and external evaluators count while they are alive.
    """

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks: dict[int, int] = {}
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.is_set():
            for pid in _tree(self.pid):
                kb = _hwm_kb(pid)
                if kb > self.peaks.get(pid, 0):
                    self.peaks[pid] = kb
            self.done.wait(RSS_SAMPLE_S)

    def stop(self) -> float:
        self.done.set()
        self.join()
        return sum(self.peaks.values()) / 1024.0


def run_optbench(argv, log_dir: Path, timeout: float = 170.0) -> Launch:
    """Run ``optbench <argv>`` in a fresh interpreter from the checkout root."""
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / "stdout.txt", log_dir / "stderr.txt"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "optbench.cli", *argv],
            cwd=ROOT, env=child_env(), stdout=out, stderr=err,
        )
        sampler = _PeakRss(proc.pid)
        sampler.start()
        try:
            returncode = proc.wait(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            wall = time.perf_counter() - start
            peak = sampler.stop()
    return Launch(wall, peak, returncode, out_path.read_text(), err_path.read_text())


def setup_seconds(argv, timeout: float = 60.0) -> float:
    """Launch-to-first-cell time of ``optbench <argv>``, measured by probe.py.

    The probe does what the CLI does before its first cell or evaluation
    and prints ``time.monotonic()`` at that point; CLOCK_MONOTONIC is
    system-wide, so the two clocks compare.
    """
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - start


class SpeedProbes:
    """One speed.py per benchmark CPU while the block runs.

    ``chunk_times()`` lists every chunk time the probes sampled; they grow
    when the machine, shared with other tenants, runs slower.
    """

    def __init__(self, work: Path):
        self.files = {cpu: work / f"speed-cpu{cpu}.txt" for cpu in bench_cpus()}
        self.procs: list[subprocess.Popen] = []

    def __enter__(self) -> "SpeedProbes":
        try:
            for cpu, path in self.files.items():
                self.procs.append(
                    subprocess.Popen([sys.executable, str(HERE / "speed.py"), str(cpu), str(path)],
                                     cwd=ROOT, env=child_env())
                )
            while not all(path.is_file() and path.stat().st_size for path in self.files.values()):
                if any(proc.poll() is not None for proc in self.procs):
                    raise RuntimeError("a speed probe exited")
                time.sleep(0.01)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *_exc) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()

    def chunk_times(self) -> list[float]:
        times = []
        for path in self.files.values():
            for line in path.read_text().splitlines():
                fields = line.split()  # a killed probe may leave half a line
                if len(fields) == 2:
                    times.append(float(fields[1]))
        return times
