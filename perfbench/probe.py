"""Set-up probe: run an ``optbench`` line up to its first cell, then stop.

    python3 perfbench/probe.py run --suite <manifest> --algs <specs> ...
    python3 perfbench/probe.py eval-server --cmd <child> ...

Prints ``time.monotonic()`` at the moment the real command would start its
first cell (``run``: suite loaded, algorithms validated) or its first
evaluation (``eval-server``: child spawned, handshake done).
"""

import sys
import time

from optbench.algospec import split_top_level
from optbench.bench.suites import load_suite
from optbench.cli import build_parser
from optbench.harness.evalserver import external_evaluator_session
from optbench.harness.experiment import run_experiment


def main(argv) -> None:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        suite = load_suite(args.suite)
        algorithms = [a.strip() for a in split_top_level(args.algs) if a.strip()]
        run_experiment(suite, algorithms, [], master_seed=args.master_seed, jobs=args.workers)
        print(time.monotonic())
    else:
        with external_evaluator_session(args.cmd, timeout=args.timeout):
            print(time.monotonic())


if __name__ == "__main__":
    main(sys.argv[1:])
