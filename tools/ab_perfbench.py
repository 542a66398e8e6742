"""Alternating perfbench pairs of two optbench checkouts, written to one BENCH file.

    python3 tools/ab_perfbench.py <checkout-a> <checkout-b> --workload W --seed S --pairs N \
        --out BENCH_<n>.json

Each pair runs each checkout's own, unmodified ``perfbench/run.py --workload W
--seed S --seconds T --trace 0`` once, in a fresh process with the checkout
as working directory: pair 0 runs a first, pair 1 runs b first, and so on.
T is the ``run_seconds`` of a's ``BENCHMARK.json``; checkout a is the
baseline.  For every end-to-end metric of a's
``BENCHMARK.json`` the file gets each side's runs, median and quartiles (as
``statistics.quantiles(runs, n=4)`` gives them), the pairs that b wins and
the pairs that tie, whether the medians differ by more than a's quartile
distance, and ``gain_resolved``: b wins at least 9 in 10 of the pairs (a
tie is a win for neither) and its median moved in the metric's better
direction by more than a's quartile distance.  The commits come from
``git -C <checkout> rev-parse HEAD``.  An existing ``--out`` file of the
same two commits keeps its other workloads, so several invocations fill
one file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("a", "b")


def commit_of(checkout: Path) -> str | None:
    """HEAD of ``checkout``, or None when it is not a git checkout."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` launch: its summary line plus the environment line it printed first."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, timeout=10 * seconds + 300)
    lines = proc.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"error: {checkout}: run.py exited {proc.returncode} without a summary line\n"
                         f"{proc.stderr[-2000:]}") from None
    environment = {}
    if lines[0].startswith("environment "):
        environment = dict(item.partition("=")[::2] for item in lines[0].split()[1:])
    summary["environment"] = environment
    return summary


def quartiles(runs: list[float]) -> dict:
    median = statistics.median(runs)
    q1, _q2, q3 = statistics.quantiles(runs, n=4) if len(runs) > 1 else (median, median, median)
    return {"q1": q1, "median": median, "q3": q3, "runs": runs}


def compare(metric: dict, runs: dict[str, list[float]]) -> dict:
    """Per-side statistics of one metric and how b fared against a pair by pair."""
    a, b = (quartiles(runs[side]) for side in SIDES)
    sign = 1.0 if metric["better"] == "higher" else -1.0
    pairs = list(zip(runs["a"], runs["b"]))
    distance = a["q3"] - a["q1"]
    b_wins = sum(sign * (vb - va) > 0 for va, vb in pairs)
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "a": a,
        "b": b,
        "b_wins": b_wins,
        "ties": sum(va == vb for va, vb in pairs),
        "median_change": (b["median"] - a["median"]) / a["median"] if a["median"] else None,
        "a_quartile_distance": distance,
        "medians_differ_by_more_than_a_quartile_distance": abs(b["median"] - a["median"]) > distance,
        "gain_resolved": 10 * b_wins >= 9 * len(pairs) and sign * (b["median"] - a["median"]) > distance,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout_a", type=Path, help="the baseline checkout")
    parser.add_argument("checkout_b", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json file to write")
    args = parser.parse_args(argv)
    checkouts = {"a": args.checkout_a.resolve(), "b": args.checkout_b.resolve()}
    for checkout in checkouts.values():
        if not (checkout / "perfbench" / "run.py").is_file() or not (checkout / "BENCHMARK.json").is_file():
            parser.error(f"{checkout} has no perfbench/run.py or BENCHMARK.json")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = json.loads((checkouts["a"] / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    commits = {side: commit_of(checkout) for side, checkout in checkouts.items()}

    bench = {
        "what": "perfbench end-to-end metrics of checkouts a (the baseline) and b in alternating pairs: "
                "even-numbered pairs run a first, odd-numbered pairs b first",
        "command": "python3 perfbench/run.py --workload <workload> --seed <seed> --seconds <seconds> --trace 0",
        "sides": {side: {"commit": commits[side]} for side in SIDES},
        "workloads": {},
    }
    if args.out.is_file():
        bench = json.loads(args.out.read_text())
        old_commits = {side: bench.get("sides", {}).get(side, {}).get("commit") for side in SIDES}
        if old_commits != commits:
            parser.error(f"{args.out} holds the commits {old_commits}, not {commits}")

    results: dict[str, list[dict]] = {"a": [], "b": []}
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            result = run_once(checkouts[side], args.workload, args.seed, seconds)
            results[side].append(result)
            value = result["metrics"].get("evals_per_ref_s", {}).get("value")
            print(f"pair {pair} {side}: correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} evals_per_ref_s={value}", flush=True)

    metrics = {}
    for metric in declared["end_to_end"]:
        name = metric["name"]
        metrics[name] = compare(metric, {side: [r["metrics"][name]["value"] for r in results[side]]
                                         for side in SIDES})
    bench["workloads"][f"{args.workload}/seed{args.seed}"] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "environment": {side: results[side][0]["environment"] for side in SIDES},
        "correct": {side: [r["correct"] for r in results[side]] for side in SIDES},
        "failed_over_attempted": {side: [[r["failed"], r["attempted"]] for r in results[side]] for side in SIDES},
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    for name, stats in metrics.items():
        print(f"{name:<26} a {stats['a']['median']:<14.6g} b {stats['b']['median']:<14.6g} "
              f"b wins {stats['b_wins']}/{args.pairs}, ties {stats['ties']}, gain resolved {stats['gain_resolved']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
