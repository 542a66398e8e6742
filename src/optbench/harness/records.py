"""Experiment records and their serialization.

``records.jsonl`` holds one schema-versioned record per line and is
byte-identical across reruns with the same inputs; wall-clock timings, which
cannot be reproducible, go to a ``timings.jsonl`` sidecar keyed by cell id.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ConfigurationError

RECORD_SCHEMA = 1


@dataclass
class ExperimentRecord:
    """One (problem, budget, workers, algorithm, seed) cell."""

    suite: str
    problem: str
    algorithm: str
    seed: int
    budget: int
    num_workers: int
    checkpoints: tuple[tuple[int, float], ...] = ()
    wall_time_ms: float = 0.0
    failed: bool = False
    error: str = ""

    def __post_init__(self):
        evals = [e for e, _ in self.checkpoints]
        if evals != sorted(set(evals)):
            raise ConfigurationError("checkpoints must be strictly increasing")
        if not self.failed and self.checkpoints and evals[-1] != self.budget:
            raise ConfigurationError("final checkpoint must sit at the full budget")

    @property
    def cell_id(self) -> str:
        return f"{self.suite}/{self.problem}/b{self.budget}/w{self.num_workers}/{self.algorithm}/s{self.seed}"

    @property
    def final_regret(self) -> float:
        return self.checkpoints[-1][1]

    def to_obj(self) -> dict:
        return {
            "schema": RECORD_SCHEMA,
            "suite": self.suite,
            "problem": self.problem,
            "algorithm": self.algorithm,
            "seed": self.seed,
            "budget": self.budget,
            "num_workers": self.num_workers,
            "checkpoints": [[e, r] for e, r in self.checkpoints],
            "failed": self.failed,
            "error": self.error,
        }

    @classmethod
    def from_obj(cls, obj: dict, wall_time_ms: float = 0.0) -> "ExperimentRecord":
        if obj.get("schema") != RECORD_SCHEMA:
            raise ConfigurationError(f"unsupported record schema {obj.get('schema')!r}")
        return cls(
            suite=obj["suite"],
            problem=obj["problem"],
            algorithm=obj["algorithm"],
            seed=obj["seed"],
            budget=obj["budget"],
            num_workers=obj["num_workers"],
            checkpoints=tuple((int(e), float(r)) for e, r in obj["checkpoints"]),
            wall_time_ms=wall_time_ms,
            failed=obj["failed"],
            error=obj["error"],
        )


def record_to_line(record: ExperimentRecord) -> str:
    # json round-trips floats exactly via repr, keeping lines byte-stable;
    # a non-finite float raises instead of writing bare NaN or Infinity
    return json.dumps(record.to_obj(), sort_keys=True, separators=(",", ":"), allow_nan=False)


def save_records(records: list[ExperimentRecord], directory) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    records_path = directory / "records.jsonl"
    with open(records_path, "w") as fh:
        for record in records:
            fh.write(record_to_line(record) + "\n")
    with open(directory / "timings.jsonl", "w") as fh:
        for record in records:
            fh.write(
                json.dumps(
                    {"cell": record.cell_id, "wall_time_ms": record.wall_time_ms},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
    return records_path


def load_records(directory) -> list[ExperimentRecord]:
    directory = Path(directory)
    records_path = directory if directory.is_file() else directory / "records.jsonl"
    if not records_path.is_file():
        raise ConfigurationError(f"no records file at {str(records_path)!r}")
    timings: dict[str, float] = {}
    timings_path = records_path.parent / "timings.jsonl"
    if timings_path.exists():
        for line in timings_path.read_text().splitlines():
            obj = json.loads(line)
            timings[obj["cell"]] = obj["wall_time_ms"]
    records = []
    for line in records_path.read_text().splitlines():
        record = ExperimentRecord.from_obj(json.loads(line))
        record.wall_time_ms = timings.get(record.cell_id, 0.0)
        records.append(record)
    return records
