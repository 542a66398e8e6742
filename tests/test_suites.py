import hashlib
import json

import pytest

from optbench.bench import (
    get_suite,
    load_manifest,
    load_suite,
    make_function,
    save_manifest,
    shipped_suites,
    suite_from_manifest,
    suite_to_manifest,
)
from optbench.bench.suites import BenchmarkSuite, SuiteProblem
from optbench.bench.transforms import FunctionSpec, TransformSpec
from optbench.errors import ConfigurationError


def test_shipped_suite_names():
    names = shipped_suites()
    for expected in (
        "yabbob_lite",
        "parallel_multimodal_lite",
        "noisy_lite",
        "lsgo_lite",
        "discrete_lite",
    ):
        assert expected in names


def test_yabbob_lite_shape():
    suite = get_suite("yabbob_lite")
    assert len(suite.problems) == 16  # 8 functions x 2 dimensions
    for problem in suite.problems:
        assert problem.budgets == (100, 1000, 10000)
        assert problem.spec.transform.translation_std == 1.0


def test_every_shipped_problem_instantiates():
    for name in shipped_suites():
        suite = get_suite(name)
        for problem in suite.problems:
            f = make_function(problem.spec)
            f.noise_free(f.domain.center())


def test_budget_at_least_num_workers_enforced():
    spec = FunctionSpec("sphere", 3, TransformSpec())
    with pytest.raises(ConfigurationError):
        SuiteProblem("bad", spec, budgets=(10,), num_workers=(20,))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda spec: SuiteProblem("p", spec, budgets=(10,), num_workers=()), "needs at least one worker count"),
        (lambda spec: SuiteProblem(5, spec, budgets=(10,)), "a problem id must be a string, got 5"),
        (lambda spec: BenchmarkSuite(7, (SuiteProblem("p", spec, budgets=(10,)),)),
         "a suite name must be a string, got 7"),
    ],
    ids=["no-worker-counts", "int-problem-id", "int-suite-name"],
)
def test_suite_values_are_checked_at_construction(build, message):
    # what run could not finish or report could not read fails here instead
    with pytest.raises(ConfigurationError, match=message):
        build(FunctionSpec("sphere", 3, TransformSpec()))


def test_duplicate_problem_ids_rejected():
    spec = FunctionSpec("sphere", 3, TransformSpec())
    p = SuiteProblem("p", spec, budgets=(10,))
    with pytest.raises(ConfigurationError):
        BenchmarkSuite("s", (p, p))


def test_manifest_round_trip(tmp_path):
    suite = get_suite("lsgo_lite")
    assert suite_from_manifest(suite_to_manifest(suite)) == suite
    path = tmp_path / "suite.json"
    save_manifest(suite, path)
    assert load_manifest(path) == suite
    assert load_suite(str(path)) == suite


def test_suites_are_deterministic():
    assert get_suite("noisy_lite") == get_suite("noisy_lite")


def test_unknown_suite_rejected():
    with pytest.raises(ConfigurationError):
        load_suite("nope_suite")


# Digests of each shipped suite's manifest, recorded before the suite builders
# were shared.  Like the stream digests of test_streams.py they are never
# regenerated: a changed digest means a changed problem id, function instance,
# budget grid or worker grid.
MANIFEST_DIGESTS = {
    "discrete_lite": "1f070d3c53ed1f82",
    "large_smoke": "b20a0fd5f0c097ec",
    "lsgo_lite": "02ee6d73e5e6ae99",
    "noisy_lite": "2bc4a10d51fff9d9",
    "parallel_multimodal_lite": "a735dda1758c7c88",
    "yabbob_lite": "9c94dd133b12f358",
}


def test_every_shipped_suite_is_pinned():
    assert sorted(MANIFEST_DIGESTS) == sorted(shipped_suites())


@pytest.mark.parametrize("name", sorted(MANIFEST_DIGESTS))
def test_shipped_suite_manifest_is_unchanged(name):
    text = json.dumps(suite_to_manifest(get_suite(name)), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == MANIFEST_DIGESTS[name]
