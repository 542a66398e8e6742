"""Workload inputs, generated from the workload seed through optbench's public API.

Each workload is one ``optbench`` command line (a *unit*).  The benchmark
launches the unit repeatedly in fresh processes; the same seed always gives
the same manifest, child objective and master seed, so every repeat must
write the same bytes.
"""

from __future__ import annotations

import shlex
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from optbench import derive_seed
from optbench.bench.suites import BenchmarkSuite, SuiteProblem, get_suite, save_manifest
from optbench.bench.transforms import FunctionSpec, TransformSpec
from optbench.bench.tsp import simple_tsp

WORKLOADS = ("yabbob_serial", "lsgo_objective", "noisy_parallel_pool2", "external_stdio")
YABBOB_ALGS = ("abbo", "cma", "de", "one-plus-one-es", "tbpsa", "powell")
LSGO_ALGS = ("one-plus-one-es", "de")
POOL_ALGS = ("abbo", "bet(tbpsa,de;0.2)")
EXTERNAL_DIM = 10
EXTERNAL_BUDGET = 20000
# eval-server launches cycle through this many master seeds: one session's
# final loss depends on which Lunacek basin it lands in, so the regret of a
# run is the mean over several sessions
EXTERNAL_SESSIONS = 4


@dataclass(frozen=True)
class Unit:
    """One generated workload: the ``optbench`` arguments and what they name.

    ``argv`` lacks ``--out`` for ``run`` units; every launch adds its own.
    An eval-server unit has one session per master seed in ``sessions``;
    ``argv`` is the first.
    """

    argv: tuple[str, ...]
    manifest: Path | None = None  # run units
    algorithms: tuple[str, ...] = ()
    seeds: int = 1
    workers: int = 1
    child: Path | None = None  # eval-server units
    sessions: tuple[int, ...] = ()

    @property
    def external(self) -> bool:
        return self.child is not None

    @property
    def variants(self) -> int:
        """How many distinct command lines the unit's launches cycle through."""
        return max(len(self.sessions), 1)

    def command(self, out: Path, variant: int = 0) -> tuple[str, ...]:
        """The arguments of one launch; ``run`` writes its reports to ``out``."""
        if not self.external:
            return (*self.argv, "--out", str(out))
        argv = list(self.argv)
        argv[argv.index("--master-seed") + 1] = str(self.sessions[variant])
        return tuple(argv)


def _seed(workload_seed: int, *labels) -> int:
    return derive_seed(workload_seed, ["perfbench", *labels])


def _problem(problem_id, base, d, seed, budgets, rotate=False, noise=0.0, workers=(1,)):
    spec = FunctionSpec(
        base=base,
        dimension=d,
        transform=TransformSpec(
            translation_std=1.0, rotate=rotate, noise_std=noise, transform_seed=seed
        ),
    )
    return SuiteProblem(problem_id, spec, budgets=budgets, num_workers=workers)


def yabbob_suite(seed: int) -> BenchmarkSuite:
    # yabbob_lite's functions and rotations with fresh transforms; one d20
    # problem keeps a budget above 6000 so that abbo reaches chain(cma,powell)
    bases = ("sphere", "cigar", "ellipsoid", "hm", "ackley", "rosenbrock", "griewank", "lunacek")
    rotated = {"cigar", "ellipsoid", "rosenbrock", "lunacek"}
    problems = []
    for d in (5, 20):
        for base in bases:
            budgets = (100, 1000, 8000) if (base, d) == ("ellipsoid", 20) else (100, 1000)
            problems.append(
                _problem(
                    f"{base}-d{d}", base, d, _seed(seed, "yabbob", base, d), budgets,
                    rotate=base in rotated,
                )
            )
    return BenchmarkSuite("yabbob_serial", tuple(problems))


def lsgo_suite(seed: int) -> BenchmarkSuite:
    # lsgo_lite's composites as shipped: lsgo_composite(overlap=True) raises
    # "composite blocks need at least one variable" for about 8% (d50) and
    # 21% (d200) of seeds, so here the seed varies only the master seed
    problems = [
        SuiteProblem(p.problem_id, p.spec, budgets=(1000,)) for p in get_suite("lsgo_lite").problems
    ]
    return BenchmarkSuite("lsgo_objective", tuple(problems))


def pool_suite(seed: int) -> BenchmarkSuite:
    # problems that fire wizard rules no shipped suite reaches; the pool
    # takes cells in manifest order, so the longest (rule 8) goes first
    problems = [
        _problem("rule8-sphere-d31-noisy", "sphere", 31, _seed(seed, "rule8"), (1650,), noise=1.0),
        _problem("rule6-sphere-d120-noisy", "sphere", 120, _seed(seed, "rule6"), (1000,), noise=1.0),
        _problem("rule16-rosenbrock-d4", "rosenbrock", 4, _seed(seed, "rule16"), (100,), rotate=True),
    ]
    for base in ("sphere", "hm"):
        for d in (5, 25):
            for noise in (0.1, 1.0, 10.0):
                problems.append(
                    _problem(
                        f"noisy-{base}-d{d}-n{noise:g}", base, d,
                        _seed(seed, "noisy", base, d, f"{noise:g}"), (300, 1000), noise=noise,
                    )
                )
    for base in ("ackley", "rosenbrock", "deceptive_multimodal", "griewank", "lunacek", "hm"):
        problems.append(
            _problem(
                f"parallel-{base}-d10", base, 10, _seed(seed, "parallel", base),
                (1000, 3000), workers=(250,),
            )
        )
    for base, d in (("onemax", 20), ("onemax", 100), ("leadingones", 20)):
        problems.append(SuiteProblem(f"discrete-{base}-d{d}", FunctionSpec(base=base, dimension=d), budgets=(1000,)))
    problems.append(
        SuiteProblem("discrete-tsp-n10", simple_tsp(10, _seed(seed, "tsp")), budgets=(1000,))
    )
    return BenchmarkSuite("noisy_parallel_pool2", tuple(problems))


# A pure-Python rotated, shifted Lunacek bi-Rastrigin: its recommendation loss
# is its simple regret and stays well above 1e-12 after the eval budget.
CHILD_SOURCE = """\
import json
import math
import sys

SHIFT = {shift!r}
ROTATION = {rotation!r}
DIM = len(SHIFT)
MU0 = 2.5
S = 1.0 - 1.0 / (2.0 * math.sqrt(DIM + 20.0) - 8.2)
MU1 = -math.sqrt((MU0 * MU0 - 1.0) / S)


def objective(point):
    z = [x - t for x, t in zip(point, SHIFT)]
    y = [sum(r * v for r, v in zip(row, z)) for row in ROTATION]
    near = sum(v * v for v in y)
    far = DIM + S * sum((v + MU0 - MU1) ** 2 for v in y)
    ripple = 10.0 * sum(1.0 - math.cos(2.0 * math.pi * v) for v in y)
    return min(near, far) + ripple


def main():
    hello = {{"type": "hello", "dimension": DIM, "variables": [{{"kind": "continuous"}}] * DIM}}
    print(json.dumps(hello), flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        print(json.dumps({{"type": "loss", "id": msg["id"], "value": objective(msg["point"])}}), flush=True)


if __name__ == "__main__":
    main()
"""


def child_source(seed: int) -> str:
    rng = np.random.default_rng(_seed(seed, "external"))
    q, r = np.linalg.qr(rng.standard_normal((EXTERNAL_DIM, EXTERNAL_DIM)))
    rotation = q * np.sign(np.diag(r))
    return CHILD_SOURCE.format(
        shift=[float(v) for v in rng.standard_normal(EXTERNAL_DIM)],
        rotation=[[float(v) for v in row] for row in rotation],
    )


def child_objective(path: Path):
    """The child's objective, loaded in-process to check reported losses."""
    namespace: dict = {}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return namespace["objective"]


_SUITES = {
    "yabbob_serial": (yabbob_suite, YABBOB_ALGS, 1, 1),
    "lsgo_objective": (lsgo_suite, LSGO_ALGS, 13, 1),
    "noisy_parallel_pool2": (pool_suite, POOL_ALGS, 2, 2),
}


def prepare(workload: str, seed: int, workdir: Path) -> Unit:
    """Write the workload's inputs under ``workdir`` (relative to the checkout)."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "external_stdio":
        child = workdir / "child_objective.py"
        child.write_text(child_source(seed))
        command = f"{shlex.quote(sys.executable)} {shlex.quote(str(child))}"
        sessions = tuple(_seed(seed, workload, "session", i) for i in range(EXTERNAL_SESSIONS))
        argv = ("eval-server", "--cmd", command, "--algs", "abbo",
                "--budget", str(EXTERNAL_BUDGET), "--master-seed", str(sessions[0]))
        return Unit(argv, child=child, sessions=sessions)
    build, algorithms, seeds, workers = _SUITES[workload]
    manifest = workdir / "manifest.json"
    save_manifest(build(seed), manifest)
    master_seed = _seed(seed, workload, "master")
    argv = ("run", "--suite", str(manifest), "--algs", ",".join(algorithms),
            "--seeds", str(seeds), "--master-seed", str(master_seed), "--workers", str(workers))
    return Unit(argv, manifest=manifest, algorithms=algorithms,
                seeds=seeds, workers=workers)
