"""Time the cells of one suite on two optbench checkouts, alternately, in one process.

    python3 tools/ab_cells.py <checkout-a> <checkout-b> <suite-or-manifest> <alg> [<alg> ...] \
        [--seeds 2] [--master-seed 0] [--repeats 3] [--match parallel-]

Each checkout's ``src/optbench`` is imported under its own package name
(``optbench_a``, ``optbench_b``), so both run in this one process on the same
CPU, one BLAS thread.  Every cell of the grid (problem x budget x workers x
algorithm x seed, as ``optbench run`` builds it; ``--match`` keeps the
problems whose id contains the text) runs ``--repeats`` times on each side,
the sides alternating and the first side alternating too, and keeps each
side's fastest run.  It prints the summed fastest times and the speedup a/b
per (algorithm, budget) and in total.  Each cell whose ``records.jsonl`` line
is not the same bytes on both sides is named at the end, after the whole
grid has run, and the script exits 1.  Whole-launch timings of a shared host
drift too much to compare two checkouts; the minimum of interleaved runs of
the same cell drifts much less.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_checkout(checkout: Path, name: str):
    """The modules ``ab_cells`` needs from ``checkout/src/optbench``, imported as package ``name``."""
    init = checkout / "src" / "optbench" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} does not exist")
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {
        module: importlib.import_module(f"{name}.{module}")
        for module in ("algospec", "wizard", "bench.suites", "harness.experiment", "harness.records")
    }


def cells(side, suite_arg: str, algorithms, seeds, master_seed: int, match: str):
    """The cells of ``optbench run`` for one checkout, as ``run_cell`` arguments."""
    suite = side["bench.suites"].load_suite(suite_arg)
    parsed = [
        (side["algospec"].canonical_text(spec), spec)
        for spec in map(side["wizard"].validate_spec, algorithms)
    ]
    return [
        (suite.name, problem, budget, workers, text, spec, seed, master_seed)
        for problem in suite.problems
        if match in problem.problem_id
        for budget in problem.budgets
        for workers in problem.num_workers
        for text, spec in parsed
        for seed in seeds
    ]


def timed_line(side, cell) -> tuple[float, str, str]:
    start = time.perf_counter()
    record = side["harness.experiment"].run_cell(*cell)
    elapsed = time.perf_counter() - start
    return elapsed, side["harness.records"].record_to_line(record), record.cell_id


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path)
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("suite", help="shipped suite name or manifest path")
    parser.add_argument("algs", nargs="+")
    parser.add_argument("--seeds", type=int, default=1, help="seeds 0..n-1 per cell")
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--match", default="", help="keep problems whose id contains this text")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.seeds < 1:
        parser.error("--repeats and --seeds must be at least 1")

    for name in THREAD_VARS:  # before either checkout imports numpy
        os.environ.setdefault(name, "1")
    sides = [load_checkout(args.checkout_a, "optbench_a"), load_checkout(args.checkout_b, "optbench_b")]
    grids = [cells(side, args.suite, args.algs, range(args.seeds), args.master_seed, args.match) for side in sides]
    if not grids[0]:
        raise SystemExit("error: no cell matches")
    sums: dict[tuple[str, int], list[float]] = defaultdict(lambda: [0.0, 0.0])
    failed = 0
    differing = []
    for index, (cell_a, cell_b) in enumerate(zip(*grids)):
        best = [float("inf"), float("inf")]
        lines = [None, None]
        for repeat in range(args.repeats):
            order = (0, 1) if (index + repeat) % 2 == 0 else (1, 0)
            for i in order:
                elapsed, line, cell_id = timed_line(sides[i], (cell_a, cell_b)[i])
                best[i] = min(best[i], elapsed)
                if lines[i] is not None and line != lines[i]:
                    raise SystemExit(f"error: checkout {'ab'[i]} wrote two records for cell {index}")
                lines[i] = line
        if lines[0] != lines[1]:
            differing.append(cell_id)
        failed += '"failed":true' in lines[0]
        key = (cell_a[4], cell_a[2])
        sums[key][0] += best[0]
        sums[key][1] += best[1]

    total = len(grids[0])
    same = f"records differ on {len(differing)}" if differing else "records identical"
    print(f"{total} cells, {same}, {failed} failed; fastest of {args.repeats} runs per side")
    print(f"{'algorithm':<28} {'budget':>7} {'a s':>9} {'b s':>9} {'a/b':>6}")
    for (text, budget), (a, b) in sorted(sums.items()):
        print(f"{text:<28} {budget:>7} {a:9.3f} {b:9.3f} {a / b:6.2f}")
    total_a = sum(a for a, _b in sums.values())
    total_b = sum(b for _a, b in sums.values())
    print(f"{'total':<28} {'':>7} {total_a:9.3f} {total_b:9.3f} {total_a / total_b:6.2f}")
    if differing:
        print(f"error: the checkouts differ on {len(differing)} of {total} cells:", *differing,
              sep="\n", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
