"""optbench benchmark: fixed ``optbench`` lines, measured from outside.

    python3 perfbench/run.py --workload yabbob_serial --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` launches the workload's command line in fresh processes for
``--seconds`` and reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced launches with passes over the same cells
in-process under the traced runner (traced.py); it reports per-layer metrics.
``--workload all`` runs every workload both ways.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name each metric with its unit and sample
count.  Inputs, outputs and spans go under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys

import launch

ROOT = launch.ROOT
WORK = ROOT / ".perfbench_work"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def _environment(args) -> dict:
    import numpy  # only after main() has pinned the BLAS threads

    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            commit = ref_path.read_text().strip() if ref_path.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": ",".join(f"{name}=1" for name in launch.THREAD_VARS),
        "commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def _measure(workload, trace, args, declared):
    import measure
    from workloads import prepare

    work = WORK / f"{workload}-s{args.seed}-t{trace}"
    shutil.rmtree(work, ignore_errors=True)
    unit = prepare(workload, args.seed, work.relative_to(ROOT))
    result = (measure.per_layer if trace else measure.end_to_end)(unit, args.seconds, work)
    names = declared["per_layer" if trace else "end_to_end"]
    for spec in names:
        result.metrics.setdefault(spec["name"], 0.0)
        result.samples.setdefault(spec["name"], "layer did not run")
    (work / "result.json").write_text(
        json.dumps({"workload": workload, "trace": trace, "environment": _environment(args),
                    "correct": result.correct, "problems": result.problems,
                    "attempted": result.attempted, "failed": result.failed,
                    "metrics": result.metrics, "samples": result.samples, "raw": result.raw},
                   indent=1) + "\n"
    )
    return result


def _report(workload, result, names) -> dict:
    out = {}
    for spec in names:
        name = spec["name"]
        value = result.metrics[name]
        out[name] = {"value": value, "unit": spec["unit"]}
        print(f"{workload:<22} {name:<36} {value:<22.10g} {spec['unit']:<6} {result.samples[name]}")
    failed_frac = result.failed / result.attempted if result.attempted else 0.0
    print(f"{workload:<22} failed_frac = {result.failed}/{result.attempted} = {failed_frac:g}")
    for problem in result.problems:
        print(f"{workload:<22} CHECK FAILED: {problem}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (launch.SRC / "optbench" / "__init__.py").is_file() or not BENCHMARK_JSON.is_file():
        print(f"error: {launch.SRC / 'optbench'} or {BENCHMARK_JSON} is missing; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    launch.pin_threads(os.environ)  # the traced runner runs numpy in this process
    os.sched_setaffinity(0, launch.bench_cpus())  # launched processes inherit it
    sys.path.insert(0, str(launch.SRC))
    os.chdir(ROOT)
    from workloads import WORKLOADS

    if args.workload not in (*WORKLOADS, "all"):
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK_JSON.read_text())
    env = _environment(args)
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    every = args.workload == "all"
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS if every else (args.workload,):
        for trace in (0, 1) if every else (args.trace,):
            result = _measure(workload, trace, args, declared)
            names = declared["per_layer" if trace else "end_to_end"]
            for name, value in _report(workload, result, names).items():
                summary["metrics"][f"{workload}/{name}" if every else name] = value
            summary["correct"] &= result.correct
            summary["attempted"] += result.attempted
            summary["failed"] += result.failed
    print(json.dumps(summary))
    return 0 if summary["correct"] and not summary["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
