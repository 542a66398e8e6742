"""Speed probe: how fast one CPU runs right now.

    python3 perfbench/speed.py <cpu> <samples-file>

Pinned to ``<cpu>`` at the lowest priority, it times a fixed chunk of
work in its own CPU time every SAMPLE_EVERY_S seconds and appends
``<monotonic> <chunk CPU seconds>`` lines to the file until it is killed.
At nice 19 it runs in the gaps of the measured processes on the same CPU,
so its chunk time follows the speed they get there, at a cost of a few
percent of one CPU.
"""

import os
import sys
import time

import numpy as np

SAMPLE_EVERY_S = 0.02


def chunk(rng) -> float:
    """A small (1+1)-ES step loop: Python objects plus small numpy arrays,
    the mix optbench spends its time on."""
    x, fx, sigma = np.zeros(10), 10.0, 1.0
    archive = {}
    for i in range(150):
        y = x + sigma * rng.standard_normal(10)
        fy = float(((y - 0.5) ** 2).sum())
        archive[i] = (y, fy)
        if fy < fx:
            x, fx, sigma = y, fy, sigma * 1.5
        else:
            sigma *= 0.9
    return fx


def main(cpu: int, path: str) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    rng = np.random.default_rng(0)
    with open(path, "w") as fh:
        while True:
            start = time.thread_time()
            chunk(rng)
            fh.write(f"{time.monotonic()} {time.thread_time() - start}\n")
            fh.flush()
            time.sleep(SAMPLE_EVERY_S)


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2])
