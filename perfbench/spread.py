"""Run-to-run spread of the end-to-end metrics over several workload seeds.

    python3 perfbench/spread.py --seeds 1..10 [--workloads yabbob_serial,...] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload with BENCHMARK.json's
``run_seconds``, then prints for each metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, next to a third
of the metric's bound.  ``--out`` keeps every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="a..b or a comma list")
    parser.add_argument("--workloads", help="comma list; default: every workload of BENCHMARK.json")
    parser.add_argument("--out", help="write every run's result here as JSON")
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in declared["workloads"]]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    steady = True
    for workload in workloads:
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(declared["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.setdefault(workload, []).append(result)
            if not result["correct"] or result["failed"]:
                steady = False
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            median = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < bound / 3
            steady &= ok
            print(f"{workload:<22} {name:<26} median {median:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f} bound/3 {bound / 3:.4f} {'ok' if ok else 'WIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
