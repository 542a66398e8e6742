"""Reporting: normalized-loss curves, winning-rate heatmaps, rankings.

Losses are min-max rescaled to [0, 1] within each (problem, budget) group
across all algorithms and seeds.  Pairwise outperformance is order-based:
within each configuration the algorithms' seed-wise final regrets are
summarized by the lower median (an order statistic, so any strictly
monotone transformation of the regrets leaves every comparison, and hence
the heatmap, unchanged); x outperforms y when its summary is strictly
lower, and ties contribute one half to each side.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path

import numpy as np

from ..errors import ConfigurationError
from .records import ExperimentRecord, save_records


def _fmt(value: float) -> str:
    return format(value, ".17g")


def lower_median(values) -> float:
    """Order statistic at index (n-1)//2; equivariant under any strictly
    increasing transformation, unlike the arithmetic mean."""
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]


def group_records(records) -> dict[tuple, list[ExperimentRecord]]:
    groups: dict[tuple, list[ExperimentRecord]] = defaultdict(list)
    for record in records:
        if not record.failed:
            groups[record.suite, record.problem, record.budget, record.num_workers].append(record)
    return dict(groups)


def normalize_losses(values) -> list[float]:
    """Linear rescale to [0, 1]; a constant group maps to all zeros."""
    values = [float(v) for v in values]
    lo, hi = min(values), max(values)
    if hi == lo:
        return [0.0 for _ in values]
    return [(v - lo) / (hi - lo) for v in values]


def curves_table(records) -> list[tuple[str, str, int, float, float]]:
    """Rows (problem, algorithm, budget, mean normalized loss, std)."""
    rows = []
    for key, group in sorted(group_records(records).items()):
        _suite, problem, budget, _workers = key
        normalized = normalize_losses([r.final_regret for r in group])
        by_alg: dict[str, list[float]] = defaultdict(list)
        for record, value in zip(group, normalized):
            by_alg[record.algorithm].append(value)
        for alg in sorted(by_alg):
            values = np.asarray(by_alg[alg])
            rows.append((problem, alg, budget, float(values.mean()), float(values.std())))
    return rows


def winning_rate_heatmap(records) -> tuple[list[str], np.ndarray]:
    """Frequency at which algorithm x outperforms algorithm y.

    Entries are NaN for pairs that share no configuration; the diagonal is
    0.5 by convention and H[x][y] + H[y][x] == 1 on shared pairs.
    """
    groups = group_records(records)
    algorithms = sorted({r.algorithm for group in groups.values() for r in group})
    if len(algorithms) < 2:
        raise ConfigurationError("winning rates need at least two algorithms")
    index = {a: i for i, a in enumerate(algorithms)}
    n = len(algorithms)
    wins = np.zeros((n, n))
    shared = np.zeros((n, n))
    for group in groups.values():
        by_alg: dict[str, list[float]] = defaultdict(list)
        for record in group:
            by_alg[record.algorithm].append(record.final_regret)
        summaries = {alg: lower_median(vals) for alg, vals in by_alg.items()}
        present = sorted(summaries)
        for i, x in enumerate(present):
            for y in present[i + 1 :]:
                xi, yi = index[x], index[y]
                shared[xi, yi] += 1
                shared[yi, xi] += 1
                if summaries[x] < summaries[y]:
                    wins[xi, yi] += 1
                elif summaries[y] < summaries[x]:
                    wins[yi, xi] += 1
                else:
                    wins[xi, yi] += 0.5
                    wins[yi, xi] += 0.5
    with np.errstate(invalid="ignore"):
        heatmap = wins / shared
    np.fill_diagonal(heatmap, 0.5)
    return algorithms, heatmap


def rank_algorithms(algorithms: list[str], heatmap: np.ndarray) -> list[tuple[str, float]]:
    """Descending mean winning frequency, excluding the diagonal and
    missing pairs."""
    n = len(algorithms)
    scores = []
    for i in range(n):
        row = np.concatenate([heatmap[i, :i], heatmap[i, i + 1 :]])
        row = row[~np.isnan(row)]
        scores.append(float(row.mean()) if row.size else math.nan)
    order = sorted(range(n), key=lambda i: (-(scores[i] if not math.isnan(scores[i]) else -1.0), algorithms[i]))
    return [(algorithms[i], scores[i]) for i in order]


#: report table -> the file ``emit_reports`` writes it to
_FILES = {"curves": "curves.csv", "heatmap": "heatmap.csv", "ranking": "ranking.txt"}


def report_tables(records) -> dict[str, str]:
    """The text of each report table: curves always, heatmap and ranking
    when two or more algorithms have usable records."""
    lines = ["problem,algorithm,budget,mean_normalized_loss,std"]
    for problem, alg, budget, mean, std in curves_table(records):
        lines.append(f"{problem},{alg},{budget},{_fmt(mean)},{_fmt(std)}")
    tables = {"curves": lines}
    if len({r.algorithm for r in records if not r.failed}) >= 2:
        algorithms, heatmap = winning_rate_heatmap(records)
        ranking = rank_algorithms(algorithms, heatmap)
        order = [algorithms.index(name) for name, _score in ranking]
        tables["heatmap"] = ["algorithm," + ",".join(algorithms[i] for i in order)] + [
            algorithms[i] + "," + ",".join("" if np.isnan(heatmap[i, j]) else _fmt(heatmap[i, j]) for j in order)
            for i in order
        ]
        tables["ranking"] = [f"{pos}. {name} {_fmt(score)}" for pos, (name, score) in enumerate(ranking, start=1)]
    return {name: "".join(line + "\n" for line in table) for name, table in tables.items()}


def emit_reports(records: list[ExperimentRecord], out_dir) -> dict[str, Path]:
    """Write records.jsonl, timings.jsonl and each table of
    ``report_tables``; refuses an empty record list before touching any
    file."""
    if not records:
        raise ConfigurationError("no records to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"records": save_records(records, out), "timings": out / "timings.jsonl"}
    for name, text in report_tables(records).items():
        paths[name] = out / _FILES[name]
        paths[name].write_text(text)
    return paths
