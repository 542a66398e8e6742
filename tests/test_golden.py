"""Golden outputs: one fixed ``optbench run`` line, one softmax history and
the evaluations of every shipped benchmark instance.

``tests/golden/records.jsonl`` is the records file of ``GOLDEN_RUN`` over
``tests/golden/suite.json`` (a yabbob_lite slice and discrete_lite, budgets
at most 1000) and decides what "same behaviour" means for refactors.  No
suite has a categorical variable, so ``softmax_history.json`` pins the
stochastic softmax decode separately.  The records hold no LSGO composite,
so ``functions.json`` pins ``noise_free``, ``__call__``, ``known_minimum``,
``minimum_point`` and ``domain`` of every shipped suite problem and of 30
overlapping ``lsgo_composite`` seeds, as exact ``float.hex`` strings.  A
change that is meant to alter numeric output regenerates all three with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np

from optbench import DomainSpec, RunContext, categorical, continuous, integer, run_loop
from optbench.bench import get_suite, lsgo_composite, make_function, shipped_suites
from optbench.cli import main

GOLDEN = Path(__file__).parent / "golden"

GOLDEN_ALGS = ",".join(
    [
        "chain(cma,powell;0.5,0.5)",
        "chain(diagcma,meta(cma);100a,1)",
        "bet(tbpsa,de;0.2)",
        "prog(de)",
        "meta(cma)",
        "softmax(cma)",
        "abbo",
    ]
)


def golden_run_argv(out) -> list[str]:
    return [
        "run",
        "--suite",
        str(GOLDEN / "suite.json"),
        "--algs",
        GOLDEN_ALGS,
        "--seeds",
        "2",
        "--master-seed",
        "7",
        "--out",
        str(out),
    ]


def _mixed_objective(x) -> float:
    # category 2 of the first variable, 1.5 on the continuous one, 3 on the
    # integer and category 0 of the last are optimal
    return (
        float(x[0] != 2)
        + (x[1] - 1.5) ** 2
        + 0.25 * abs(x[2] - 3)
        + 0.5 * float(x[3] != 0)
    )


def softmax_history() -> dict:
    domain = DomainSpec([categorical(3), continuous(), integer(0, 5), categorical(4)])
    context = RunContext(domain, budget=120, num_workers=2, master_seed=11)
    rec, history = run_loop("softmax(cma)", _mixed_objective, context)
    return {"history": [[i, loss] for i, loss in history], "recommendation": [float(v) for v in rec.point]}


def _softmax_text() -> str:
    return json.dumps(softmax_history(), sort_keys=True) + "\n"


def _pinned_specs():
    for suite in shipped_suites():
        for problem in get_suite(suite).problems:
            yield f"{suite}/{problem.problem_id}", problem.spec
    for seed in range(30):
        yield f"lsgo_composite-d50-b5-ov/{seed}", lsgo_composite(50, 5, seed, overlap=True)


def _hex(values):
    return None if values is None else [float(v).hex() for v in values]


def _fixed_points(domain, count=4):
    # a wide normal on continuous variables and a uniform value on integer
    # ones keep every point inside the instance's domain
    rng = np.random.default_rng(0)
    return [
        np.array(
            [
                3.0 * rng.standard_normal() if v.kind == "continuous" else float(rng.integers(v.low, v.high + 1))
                for v in domain.variables
            ]
        )
        for _ in range(count)
    ]


def _domain_runs(domain) -> list:
    runs: list = []
    for variable in domain.variables:
        if runs and runs[-1][1] == repr(variable):
            runs[-1][0] += 1
        else:
            runs.append([1, repr(variable)])
    return runs


def function_pins() -> dict:
    pins = {}
    for key, spec in _pinned_specs():
        function = make_function(spec, noise_seed=3)
        points = _fixed_points(function.domain)
        pins[key] = {
            "noise_free": [function.noise_free(x).hex() for x in points],
            "call": [function(x).hex() for x in points],
            "known_minimum": None if function.known_minimum is None else function.known_minimum.hex(),
            "minimum_point": _hex(function.minimum_point),
            "domain": _domain_runs(function.domain),
        }
    return pins


def _functions_text() -> str:
    # one instance per line keeps a regenerated file's diff readable
    lines = [f"{json.dumps(key)}: {json.dumps(pin, sort_keys=True)}" for key, pin in function_pins().items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_golden_records_are_byte_identical(tmp_path):
    rc = main(golden_run_argv(tmp_path / "out"))
    assert rc == 1  # prog(de) on discrete problems fails its cells by design
    produced = (tmp_path / "out" / "records.jsonl").read_bytes()
    assert produced == (GOLDEN / "records.jsonl").read_bytes()


def test_golden_softmax_history_is_byte_identical():
    assert _softmax_text() == (GOLDEN / "softmax_history.json").read_text()


def test_golden_function_evaluations_are_bit_identical():
    assert _functions_text() == (GOLDEN / "functions.json").read_text()


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        main(golden_run_argv(Path(tmp) / "out"))
        shutil.copyfile(Path(tmp) / "out" / "records.jsonl", GOLDEN / "records.jsonl")
    (GOLDEN / "softmax_history.json").write_text(_softmax_text())
    (GOLDEN / "functions.json").write_text(_functions_text())
