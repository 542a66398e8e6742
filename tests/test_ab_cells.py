"""``tools/ab_cells.py``: interleaved cell timings of two checkouts in one process."""

import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from optbench.bench.suites import BenchmarkSuite, SuiteProblem, save_manifest
from optbench.bench.transforms import FunctionSpec, TransformSpec

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "ab_cells.py"


def _manifest(tmp_path) -> Path:
    spec = FunctionSpec("sphere", 3, TransformSpec(translation_std=1.0, transform_seed=5))
    suite = BenchmarkSuite("tiny", (
        SuiteProblem("wide-sphere-d3", spec, budgets=(40,), num_workers=(8,)),
        SuiteProblem("serial-sphere-d3", spec, budgets=(30,)),
        SuiteProblem("serial-ellipsoid-d3", replace(spec, base="ellipsoid"), budgets=(30,)),
    ))
    path = tmp_path / "manifest.json"
    save_manifest(suite, path)
    return path


def _run(a, b, manifest, *extra):
    return subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), str(manifest), "cma", "tbpsa", "--repeats", "1", *extra],
        capture_output=True, text=True, timeout=120,
    )


def test_same_checkout_twice_gives_identical_records(tmp_path):
    done = _run(REPO, REPO, _manifest(tmp_path), "--match", "wide")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("2 cells, records identical, 0 failed")
    assert [line.split()[:2] for line in lines[2:4]] == [["cma", "40"], ["tbpsa", "40"]]
    assert lines[4].startswith("total")


def test_a_checkout_that_writes_other_records_is_refused(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(REPO / "src" / "optbench", other / "src" / "optbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    functions = other / "src" / "optbench" / "bench" / "functions.py"
    text = functions.read_text()
    functions.write_text(text.replace("return float(np.dot(y, y))", "return float(np.dot(y, y)) + 1.0", 1))
    done = _run(REPO, other, _manifest(tmp_path), "--match", "serial")
    assert done.returncode == 1
    assert done.stdout.startswith("4 cells, records differ on 2, 0 failed")
    assert done.stderr.splitlines() == [
        "error: the checkouts differ on 2 of 4 cells:",
        "tiny/serial-sphere-d3/b30/w1/cma/s0",
        "tiny/serial-sphere-d3/b30/w1/tbpsa/s0",
    ]
