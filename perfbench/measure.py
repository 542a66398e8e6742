"""End-to-end and traced measurement of one prepared workload unit."""

from __future__ import annotations

import json
import math
import statistics
import time
from pathlib import Path

import launch
from optbench import canonical_text, parse_algorithm
from optbench.bench.suites import load_suite
from optbench.bench.transforms import make_function
from optbench.harness.records import load_records
from optbench.solvers import REGISTRY
from traced import TracedRunner
from workloads import child_objective

# Set-up time drifts with the shared host within seconds, so probes are
# spread over the run: a few before every launch, at least SETUP_PROBES.
SETUP_PROBES = 12
PROBES_PER_LAUNCH = 2
TRACE_SETUP_LAUNCHES = 2
REGRET_FLOOR = 1e-12
# Times are scaled to a machine on which speed.py's chunk takes 1 ms: the
# shared host's speed changes up to 2x within minutes, and the chunk times
# sampled during the run follow it.  Their lower quartile keeps the samples
# least slowed by the measured processes themselves.
REFERENCE_CHUNK_S = 1e-3


class Result:
    def __init__(self):
        self.correct = True
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.samples: dict[str, str] = {}
        self.raw: dict[str, object] = {}  # unscaled and per-launch figures, kept in result.json

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.correct = False
            self.problems.append(message)

    def put(self, name: str, value: float, samples: str) -> None:
        self.metrics[name] = value
        self.samples[name] = samples


def _percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _regret_decades(regrets) -> float:
    """Mean of log10(max(regret, 1e-12) / 1e-12): decades above the floor."""
    return statistics.fmean(math.log10(max(r, REGRET_FLOOR) / REGRET_FLOOR) for r in regrets)


def _launches(unit, seconds, work):
    """Launches of the unit, each after PROBES_PER_LAUNCH set-up probes,
    while they fit in ``seconds`` (at least two, and every command line the
    unit cycles through with one of them repeated); set-up is then probed up
    to SETUP_PROBES times.  Interleaving makes both see the same machine
    conditions.
    """
    start = time.monotonic()
    runs, setups = [], []
    while True:
        setups.extend(launch.setup_seconds(unit.command(work / "probe")) for _ in range(PROBES_PER_LAUNCH))
        out = work / f"launch{len(runs)}"
        runs.append(launch.run_optbench(unit.command(out, len(runs) % unit.variants), out))
        elapsed = time.monotonic() - start
        if len(runs) >= unit.variants + 1 and elapsed * (len(runs) + 1) / len(runs) > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(launch.setup_seconds(unit.command(work / "probe")))
    return runs, setups


def _expected_cells(unit, suite) -> list[str]:
    texts = [canonical_text(parse_algorithm(a)) for a in unit.algorithms]
    return [
        f"{suite.name}/{p.problem_id}/b{b}/w{w}/{t}/s{s}"
        for p in suite.problems for b in p.budgets for w in p.num_workers
        for t in texts for s in range(unit.seeds)
    ]


def _suite_launches(unit, runs, work, result):
    """Checks every launch of a ``run`` unit.

    Returns (evaluations, launch) per good launch and the final regrets of the
    first launch's cells whose problem has an analytic minimum.
    """
    suite = load_suite(str(unit.manifest))
    expected = _expected_cells(unit, suite)
    analytic = {p.problem_id: make_function(p.spec).known_minimum is not None for p in suite.problems}
    first = None
    done, regrets = [], []
    for i, run in enumerate(runs):
        ok = run.returncode in (0, 1)  # 1: some cells failed, counted below
        result.check(ok, f"launch {i} exited {run.returncode}: {run.stderr[-300:]}")
        if not ok:
            continue
        text = (work / f"launch{i}" / "records.jsonl").read_text()
        first = text if first is None else first
        result.check(text == first, f"launch {i}: records.jsonl differs from launch 0")
        records = load_records(work / f"launch{i}")
        result.check([r.cell_id for r in records] == expected, f"launch {i}: cells differ from the manifest grid")
        good = [r for r in records if not r.failed]
        result.attempted += len(records)
        result.failed += len(records) - len(good)
        done.append((sum(r.budget for r in good), run))
        if not regrets:
            regrets = [r.final_regret for r in good if analytic[r.problem]]
    return done, regrets


def _external_launches(unit, runs, result):
    """Checks every eval-server launch; same returns as ``_suite_launches``,
    with one regret per session (master seed)."""
    objective = child_objective(unit.child)
    done, regrets = [], {}
    for i, run in enumerate(runs):
        result.attempted += 1
        session = i % unit.variants
        ok = run.returncode == 0
        result.check(ok, f"launch {i} exited {run.returncode}: {run.stderr[-300:]}")
        result.check(run.stdout == runs[session].stdout,
                     f"launch {i}: eval-server output differs from launch {session} of the same session")
        if not ok:
            result.failed += 1
            continue
        out = json.loads(run.stdout)
        result.check(
            objective(out["recommendation"]) == out["recommendation_loss"],
            f"launch {i}: recommendation_loss is not the child objective at the recommendation",
        )
        result.check(out["best_told_loss"] >= 0.0, f"launch {i}: a told loss lies below the minimum 0")
        done.append((out["budget"], run))
        regrets.setdefault(session, out["recommendation_loss"])
    return done, list(regrets.values())


def end_to_end(unit, seconds: float, work: Path) -> Result:
    result = Result()
    with launch.SpeedProbes(work) as speed:
        runs, setups = _launches(unit, seconds, work)
    chunk_q1 = statistics.quantiles(speed.chunk_times(), n=4)[0]
    scale = REFERENCE_CHUNK_S / chunk_q1
    if unit.external:
        done, regrets = _external_launches(unit, runs, result)
        cells = "eval-server sessions (master seeds)"
    else:
        done, regrets = _suite_launches(unit, runs, work, result)
        cells = "cells"
    n = len(runs)
    raw_setup_s = statistics.median(setups)
    result.put("setup_s", raw_setup_s * scale,
               f"median of {len(setups)} set-up launches; unscaled {raw_setup_s:.4g} s")
    result.raw = {"setup_s": setups, "launch_wall_s": [r.wall_s for r in runs],
                  "launch_peak_rss_mb": [r.peak_rss_mb for r in runs],
                  "speed_chunk_q1_s": chunk_q1, "speed_scale": scale}
    if done:
        raw_rates = [evals / (run.wall_s - raw_setup_s) for evals, run in done]
        result.raw["evals_per_s"] = raw_rates
        result.put("evals_per_ref_s", statistics.median(raw_rates) / scale,
                   f"median of {len(raw_rates)} launches; unscaled {statistics.median(raw_rates):.6g}/s")
    if regrets:
        result.put("regret_log10_over_floor", _regret_decades(regrets),
                   f"{len(regrets)} {cells}; equal in every repeat")
    result.put("peak_rss_mb", statistics.median(r.peak_rss_mb for r in runs), f"median of {n} launches")
    return result


def per_layer(unit, seconds: float, work: Path) -> Result:
    """Untraced launches alternating with traced passes while they fit in
    ``seconds`` (at least one of each); every traced pass must reproduce the
    untraced output byte for byte.
    """
    result = Result()
    start = time.monotonic()
    setup_s = statistics.median(
        launch.setup_seconds(unit.command(work / "probe")) for _ in range(TRACE_SETUP_LAUNCHES)
    )
    runner = TracedRunner()
    cell_ms, untraced_s, busy = [], 0.0, []
    what = "eval-server output" if unit.external else "records.jsonl"
    while True:
        round_start = time.monotonic()
        out = work / f"untraced{runner.passes}"
        untraced = launch.run_optbench(unit.command(out), out)
        result.check(untraced.returncode in (0, 1), f"untraced launch exited {untraced.returncode}")
        if unit.external:
            expected = untraced.stdout
            untraced_s += untraced.wall_s - setup_s
        else:
            expected = (out / "records.jsonl").read_text()
            walls = [r.wall_time_ms for r in load_records(out) if not r.failed]
            cell_ms.extend(walls)
            untraced_s += sum(walls) / 1e3
            busy.append(sum(walls) / 1e3 / (unit.workers * (untraced.wall_s - setup_s)))
        got = runner.run_pass(unit, work / f"traced{runner.passes}")
        result.check(got == expected, f"traced pass {runner.passes}: {what} differs from the untraced launch")
        if unit.external:
            result.attempted += 1
        else:
            records = load_records(work / f"traced{runner.passes - 1}")
            result.attempted += len(records)
            result.failed += sum(r.failed for r in records)
        now = time.monotonic()
        if now - start + (now - round_start) > seconds:
            break
    runner.write_spans(work / "spans.jsonl")
    metrics = runner.layer_metrics(sorted(REGISTRY))
    metrics["trace.overhead_frac"] = runner.cell_s / untraced_s - 1.0
    samples = f"{runner.passes} traced pass(es), {metrics['harness.cells']} cells each"
    for name, value in metrics.items():
        result.put(name, value, samples)
    if cell_ms:
        untraced_samples = f"{len(cell_ms)} cells of {runner.passes} untraced launch(es)"
        result.put("harness.cell_ms.p50", statistics.median(cell_ms), untraced_samples)
        result.put("harness.cell_ms.p90", _percentile(cell_ms, 90), untraced_samples)
        result.put("harness.pool_busy_frac", statistics.median(busy), untraced_samples)
    return result
