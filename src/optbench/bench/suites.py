"""Named benchmark suites and their serializable manifests.

A suite pins every function instance (including transform seeds), the budget
grid, and the parallelism grid, so that ``(manifest, master_seed)`` fully
reproduces an experiment.  Shipped suites are desk-scale.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

from ..domain import _whole
from ..errors import ConfigurationError, reject_json_constant
from ..seeds import derive_seed
from .composite import lsgo_composite
from .transforms import CompositeBlock, FunctionSpec, TransformSpec
from .tsp import simple_tsp

MANIFEST_SCHEMA = "optbench-suite-v1"


@dataclass(frozen=True)
class SuiteProblem:
    problem_id: str
    spec: FunctionSpec
    budgets: tuple[int, ...]
    num_workers: tuple[int, ...] = (1,)

    def __post_init__(self):
        if not self.budgets:
            raise ConfigurationError("a suite problem needs at least one budget")
        counts = (*self.budgets, *self.num_workers)
        if min(_whole(n, "a budget or worker count") for n in counts) < 1:
            raise ConfigurationError("budgets and num_workers must be at least 1")
        if min(self.budgets) < max(self.num_workers):
            raise ConfigurationError(
                f"problem {self.problem_id!r}: every budget must be >= every num_workers"
            )


@dataclass(frozen=True)
class BenchmarkSuite:
    name: str
    problems: tuple[SuiteProblem, ...]

    def __post_init__(self):
        ids = [p.problem_id for p in self.problems]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate problem ids in suite")


def _suite_seed(suite: str, *labels) -> int:
    return derive_seed(0, ["suite", suite, *labels])


def _translated(
    suite, problem_id, base, d, budgets, *seed_labels, workers=SuiteProblem.num_workers, **transform
) -> SuiteProblem:
    """Catalog function ``base`` at dimension ``d``, translated with standard
    deviation 1 and seeded from the suite name and ``seed_labels``; the
    keywords in ``transform`` (``rotate``, ``noise_std``) go to its
    :class:`TransformSpec`."""
    seed = _suite_seed(suite, *seed_labels)
    transform = TransformSpec(translation_std=1.0, transform_seed=seed, **transform)
    return SuiteProblem(problem_id, FunctionSpec(base, d, transform), budgets, workers)


def _yabbob_lite() -> BenchmarkSuite:
    # rotation on the non-separable half keeps both cases represented
    bases = ("sphere", "cigar", "ellipsoid", "hm", "ackley", "rosenbrock", "griewank", "lunacek")
    rotated = {"cigar", "ellipsoid", "rosenbrock", "lunacek"}
    return BenchmarkSuite("yabbob_lite", tuple(
        _translated(
            "yabbob_lite", f"{base}-d{d}", base, d, (100, 1000, 10000), base, d,
            rotate=base in rotated,
        )
        for d in (5, 20)
        for base in bases
    ))


def _parallel_multimodal_lite() -> BenchmarkSuite:
    bases = ("ackley", "rosenbrock", "deceptive_multimodal", "griewank", "lunacek", "hm")
    return BenchmarkSuite("parallel_multimodal_lite", tuple(
        _translated(
            "parallel_multimodal_lite", f"{base}-d10", base, 10, (1000, 10000), base, 10,
            workers=(250,),
        )
        for base in bases
    ))


def _noisy_lite() -> BenchmarkSuite:
    return BenchmarkSuite("noisy_lite", tuple(
        _translated(
            "noisy_lite", f"{base}-d{d}-n{n:g}", base, d, (1000, 5000), base, d, f"{n:g}",
            noise_std=n,
        )
        for base in ("sphere", "hm")
        for d in (5, 25)
        for n in (0.1, 1.0, 10.0)
    ))


def _lsgo_lite() -> BenchmarkSuite:
    problems = []
    for d, blocks in ((50, 5), (200, 8)):
        for overlap in (False, True):
            spec = lsgo_composite(
                d, blocks, _suite_seed("lsgo_lite", d, int(overlap)), overlap=overlap
            )
            tag = "ov" if overlap else "sep"
            problems.append(SuiteProblem(f"lsgo-d{d}-{tag}", spec, budgets=(3000,)))
    return BenchmarkSuite("lsgo_lite", tuple(problems))


def _discrete_lite() -> BenchmarkSuite:
    problems = []
    for base, d in (("onemax", 20), ("onemax", 100), ("leadingones", 20)):
        spec = FunctionSpec(base=base, dimension=d)
        problems.append(SuiteProblem(f"{base}-d{d}", spec, budgets=(2000,)))
    problems.append(
        SuiteProblem(
            "simple_tsp-n10",
            simple_tsp(10, _suite_seed("discrete_lite", "tsp", 10)),
            budgets=(2000,),
        )
    )
    return BenchmarkSuite("discrete_lite", tuple(problems))


def _large_smoke() -> BenchmarkSuite:
    # optional large-scale smoke case; not part of the default experiments
    return BenchmarkSuite("large_smoke", tuple(
        _translated("large_smoke", f"{base}-d1000", base, 1000, (2000,), base)
        for base in ("sphere", "ellipsoid")
    ))


_BUILDERS = {
    "yabbob_lite": _yabbob_lite,
    "parallel_multimodal_lite": _parallel_multimodal_lite,
    "noisy_lite": _noisy_lite,
    "lsgo_lite": _lsgo_lite,
    "discrete_lite": _discrete_lite,
    "large_smoke": _large_smoke,
}


def shipped_suites() -> tuple[str, ...]:
    return tuple(sorted(_BUILDERS))


def get_suite(name: str) -> BenchmarkSuite:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown suite {name!r}; shipped suites: {', '.join(shipped_suites())}"
        ) from None


# ----------------------------------------------------------------------
# manifest serialization


def _spec_to_obj(spec: FunctionSpec) -> dict:
    obj = asdict(spec)
    if not spec.blocks:
        del obj["blocks"]
    return obj


def _spec_from_obj(obj: dict) -> FunctionSpec:
    blocks = None
    if obj.get("blocks"):
        blocks = tuple(
            CompositeBlock(b["base"], tuple(b["indices"]), b["weight"], b.get("seed"))
            for b in obj["blocks"]
        )
    return FunctionSpec(
        base=obj["base"],
        dimension=obj["dimension"],
        transform=TransformSpec(**obj["transform"]),
        blocks=blocks,
    )


def suite_to_manifest(suite: BenchmarkSuite) -> dict:
    return {
        "schema": MANIFEST_SCHEMA,
        "name": suite.name,
        "problems": [
            {
                "problem_id": p.problem_id,
                "spec": _spec_to_obj(p.spec),
                "budgets": list(p.budgets),
                "num_workers": list(p.num_workers),
            }
            for p in suite.problems
        ],
    }


def suite_from_manifest(obj: dict) -> BenchmarkSuite:
    """A checked suite; a missing or ill-typed key raises ConfigurationError naming its problem."""
    if not isinstance(obj, dict) or obj.get("schema") != MANIFEST_SCHEMA:
        raise ConfigurationError(f"not a manifest of schema {MANIFEST_SCHEMA!r}")
    where = "manifest"
    try:
        problems = []
        for i, p in enumerate(obj["problems"]):
            where = f"manifest problem {i}"  # until its id is read
            where = f"manifest problem {p['problem_id']!r}"
            spec = _spec_from_obj(p["spec"])
            problems.append(SuiteProblem(p["problem_id"], spec, tuple(p["budgets"]), tuple(p["num_workers"])))
        where = "manifest"
        return BenchmarkSuite(obj["name"], tuple(problems))
    except (KeyError, AttributeError, TypeError, ValueError, ConfigurationError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ConfigurationError(f"{where}: {detail}") from None


def save_manifest(suite: BenchmarkSuite, path) -> None:
    Path(path).write_text(json.dumps(suite_to_manifest(suite), indent=2, sort_keys=True) + "\n")


def load_manifest(path) -> BenchmarkSuite:
    try:
        obj = json.loads(Path(path).read_text(), parse_constant=reject_json_constant)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read manifest {str(path)!r}: {exc}") from None
    return suite_from_manifest(obj)


def load_suite(name_or_path: str) -> BenchmarkSuite:
    """Resolve a shipped suite name or a manifest file path."""
    if name_or_path in _BUILDERS:
        return get_suite(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return load_manifest(path)
    raise ConfigurationError(
        f"{name_or_path!r} is neither a shipped suite ({', '.join(shipped_suites())}) nor a manifest path"
    )
