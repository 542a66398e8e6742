"""Experiment records and their serialization.

``records.jsonl`` holds one schema-versioned record per line and is
byte-identical across reruns with the same inputs; wall-clock timings, which
cannot be reproducible, go to a ``timings.jsonl`` sidecar keyed by cell id.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

from ..domain import _finite, _whole
from ..errors import ConfigurationError, OptbenchError, reject_json_constant

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
        obj = asdict(self)
        del obj["wall_time_ms"]  # lives in the timings.jsonl sidecar
        obj["schema"] = RECORD_SCHEMA
        return obj

    @classmethod
    def from_obj(cls, obj, wall_time_ms: float = 0.0) -> "ExperimentRecord":
        """The record of one ``records.jsonl`` object; a wrong schema, a
        missing field or a value of the wrong type is a ConfigurationError."""
        if not isinstance(obj, dict):
            raise ConfigurationError(f"a record must be a JSON object, got {obj!r}")
        if obj.get("schema") != RECORD_SCHEMA:
            raise ConfigurationError(f"unsupported record schema {obj.get('schema')!r}")
        values = {}
        for name, kind in _STORED_FIELDS.items():
            if name not in obj:
                raise ConfigurationError(f"record has no {name!r}")
            values[name] = obj[name]
            if typing.get_origin(kind) is None and type(obj[name]) is not kind:
                raise ConfigurationError(f"record field {name!r} must be {kind.__name__}, got {obj[name]!r}")
        try:
            values["checkpoints"] = tuple(
                (_whole(e, "evaluation"), _finite(r, "regret")) for e, r in values["checkpoints"]
            )
        except (TypeError, ValueError, ConfigurationError):
            raise ConfigurationError("record checkpoints must be [evaluation, regret] pairs") from None
        return cls(**values, wall_time_ms=wall_time_ms)


#: field -> type of what ``records.jsonl`` stores: every field but the
#: wall time, which lives in the timings.jsonl sidecar
_STORED_FIELDS = {
    name: kind for name, kind in typing.get_type_hints(ExperimentRecord).items() if name != "wall_time_ms"
}


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


def _parse_lines(path: Path, parse) -> list:
    """``parse(obj)`` of each JSON line of ``path``; a bad line is one
    ConfigurationError naming the file and the line number."""
    out = []
    for number, line in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            out.append(parse(json.loads(line, parse_constant=reject_json_constant)))
        except (OptbenchError, TypeError, ValueError) as exc:  # ValueError: not UTF-8 JSON
            raise ConfigurationError(f"{path}, line {number}: {exc}") from None
    return out


def _timing_from_obj(obj) -> tuple[str, float]:
    cell, wall = (obj.get("cell"), obj.get("wall_time_ms")) if isinstance(obj, dict) else (None, None)
    if not isinstance(cell, str) or type(wall) not in (int, float):
        raise ConfigurationError(f"a timing needs a cell id and milliseconds, got {obj!r}")
    return cell, float(wall)


def load_records(directory) -> list[ExperimentRecord]:
    directory = Path(directory)
    records_path = directory if directory.is_file() else directory / "records.jsonl"
    if not records_path.is_file():
        raise ConfigurationError(f"no records file at {str(records_path)!r}")
    timings_path = records_path.parent / "timings.jsonl"
    timings = dict(_parse_lines(timings_path, _timing_from_obj)) if timings_path.exists() else {}
    records = _parse_lines(records_path, ExperimentRecord.from_obj)
    for record in records:
        record.wall_time_ms = timings.get(record.cell_id, 0.0)
    return records
