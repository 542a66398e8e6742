"""``tools/ab_perfbench.py``: alternating perfbench pairs of two checkouts."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TOOL = REPO / "tools" / "ab_perfbench.py"

DECLARED = {
    "run_seconds": 30,
    "end_to_end": [
        {"name": "evals_per_ref_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
}


def stub_checkout(root: Path, name: str, evals: list[float], setup: float, log: Path) -> Path:
    """A git checkout whose ``perfbench/run.py`` logs its launch and prints the
    next of ``evals`` (one per launch) as fixed JSON."""
    checkout = root / name
    (checkout / "perfbench").mkdir(parents=True)
    (checkout / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    (checkout / "perfbench" / "run.py").write_text(textwrap.dedent(f"""
        import json, sys
        with open({str(log)!r}, "a") as log:
            log.write({name!r} + " " + " ".join(sys.argv[1:]) + "\\n")
        with open({str(log)!r}) as log:
            launch = sum(line.startswith({name!r}) for line in log) - 1
        print("environment nproc=2 threads=OPENBLAS_NUM_THREADS=1,OMP_NUM_THREADS=1 seed=4")
        metrics = {{"evals_per_ref_s": {{"value": {evals!r}[launch], "unit": "1/s"}},
                   "setup_s": {{"value": {setup!r}, "unit": "s"}}}}
        print(json.dumps({{"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}}))
    """))
    for command in (["init", "-q"], ["add", "-A"],
                    ["-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", name]):
        subprocess.run(["git", "-C", str(checkout), *command], check=True)
    return checkout


def test_pairs_alternate_and_the_file_holds_runs_statistics_wins_and_commits(tmp_path):
    log = tmp_path / "launches.log"
    a = stub_checkout(tmp_path, "a", [10.0, 20.0, 30.0, 40.0], 1.0, log)
    b = stub_checkout(tmp_path, "b", [15.0, 25.0, 25.0, 45.0], 1.0, log)
    out = tmp_path / "BENCH_0.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--workload", "w", "--seed", "4", "--pairs", "4",
         "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    launches = log.read_text().splitlines()
    assert [line.split()[0] for line in launches] == ["a", "b", "b", "a", "a", "b", "b", "a"]
    assert set(line.partition(" ")[2] for line in launches) == {
        "--workload w --seed 4 --seconds 30 --trace 0"
    }

    bench = json.loads(out.read_text())
    head = {side: subprocess.run(["git", "-C", str(c), "rev-parse", "HEAD"], capture_output=True,
                                 text=True).stdout.strip() for side, c in (("a", a), ("b", b))}
    assert bench["sides"] == {"a": {"commit": head["a"]}, "b": {"commit": head["b"]}}
    entry = bench["workloads"]["w/seed4"]
    assert entry["pairs"] == 4 and entry["correct"] == {"a": [True] * 4, "b": [True] * 4}
    assert entry["environment"]["a"]["threads"] == "OPENBLAS_NUM_THREADS=1,OMP_NUM_THREADS=1"
    evals = entry["metrics"]["evals_per_ref_s"]
    assert evals["a"]["runs"] == [10.0, 20.0, 30.0, 40.0]
    assert evals["b"]["runs"] == [15.0, 25.0, 25.0, 45.0]
    assert (evals["a"]["q1"], evals["a"]["median"], evals["a"]["q3"]) == (12.5, 25.0, 37.5)
    assert evals["b"]["median"] == 25.0
    assert (evals["b_wins"], evals["ties"]) == (3, 0)
    assert evals["a_quartile_distance"] == 25.0
    assert evals["medians_differ_by_more_than_a_quartile_distance"] is False
    assert evals["gain_resolved"] is False
    setup = entry["metrics"]["setup_s"]
    assert (setup["b_wins"], setup["ties"], setup["median_change"]) == (0, 4, 0.0)
    assert setup["gain_resolved"] is False


A_EVALS = [10.0 + i for i in range(10)]  # quartiles 11.75 and 17.25, median 14.5


@pytest.mark.parametrize(
    "b_evals, wins, ties, resolved",
    [
        ([v + 7.0 if i != 3 else v for i, v in enumerate(A_EVALS)], 9, 1, True),
        ([v + 7.0 if i > 1 else v - 1.0 for i, v in enumerate(A_EVALS)], 8, 0, False),
        ([v + 1.0 for v in A_EVALS], 10, 0, False),
        ([v - 7.0 for v in A_EVALS], 0, 0, False),
    ],
    ids=["nine-wins-and-a-tie", "eight-wins", "inside-the-quartiles", "worse"],
)
def test_a_gain_is_resolved_by_nine_in_ten_wins_and_a_median_beyond_the_quartiles(
    tmp_path, b_evals, wins, ties, resolved
):
    log = tmp_path / "launches.log"
    a = stub_checkout(tmp_path, "a", A_EVALS, 1.0, log)
    b = stub_checkout(tmp_path, "b", b_evals, 1.0, log)
    out = tmp_path / "BENCH_0.json"
    done = subprocess.run(
        [sys.executable, str(TOOL), str(a), str(b), "--workload", "w", "--seed", "4", "--pairs", "10",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    evals = json.loads(out.read_text())["workloads"]["w/seed4"]["metrics"]["evals_per_ref_s"]
    assert (evals["b_wins"], evals["ties"], evals["gain_resolved"]) == (wins, ties, resolved)


def test_a_second_workload_joins_the_file_only_for_the_same_commits(tmp_path):
    log = tmp_path / "launches.log"
    a = stub_checkout(tmp_path, "a", [10.0] * 3, 1.0, log)
    b = stub_checkout(tmp_path, "b", [12.0] * 3, 2.0, log)
    out = tmp_path / "BENCH_0.json"

    def run(first, second, workload):
        return subprocess.run(
            [sys.executable, str(TOOL), str(first), str(second), "--workload", workload, "--seed", "1",
             "--pairs", "1", "--out", str(out)],
            capture_output=True, text=True, timeout=120,
        )

    assert run(a, b, "w1").returncode == 0
    assert run(a, b, "w2").returncode == 0
    assert sorted(json.loads(out.read_text())["workloads"]) == ["w1/seed1", "w2/seed1"]
    refused = run(b, a, "w3")
    assert refused.returncode == 2 and "holds the commits" in refused.stderr
    assert sorted(json.loads(out.read_text())["workloads"]) == ["w1/seed1", "w2/seed1"]
