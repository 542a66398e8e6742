"""Experiment execution over (suite x algorithms x seeds).

Every cell derives its own RNG stream from the master seed and the cell
labels, runs independently, and snapshots the recommendation's simple
regret on a geometric evaluation grid.  Cells are therefore reproducible
and order-independent; an optional process pool only changes wall time.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

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
    labels = dict(
        suite=suite_name,
        problem=problem.problem_id,
        algorithm=algorithm_text,
        seed=seed,
        budget=budget,
        num_workers=num_workers,
    )
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


def _run_cell_args(args) -> ExperimentRecord:
    return run_cell(*args)


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
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_cell_args, cells, chunksize=4))
    return [run_cell(*cell) for cell in cells]
