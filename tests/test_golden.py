"""Golden outputs: one fixed ``optbench run`` line and one softmax history.

``tests/golden/records.jsonl`` is the records file of ``GOLDEN_RUN`` over
``tests/golden/suite.json`` (a yabbob_lite slice and discrete_lite, budgets
at most 1000) and decides what "same behaviour" means for refactors.  No
suite has a categorical variable, so ``softmax_history.json`` pins the
stochastic softmax decode separately.  A change that is meant to alter
numeric output regenerates both with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import json
from pathlib import Path

from optbench import DomainSpec, RunContext, categorical, continuous, integer, run_loop
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


def test_golden_records_are_byte_identical(tmp_path):
    rc = main(golden_run_argv(tmp_path / "out"))
    assert rc == 1  # prog(de) on discrete problems fails its cells by design
    produced = (tmp_path / "out" / "records.jsonl").read_bytes()
    assert produced == (GOLDEN / "records.jsonl").read_bytes()


def test_golden_softmax_history_is_byte_identical():
    assert _softmax_text() == (GOLDEN / "softmax_history.json").read_text()


if __name__ == "__main__":
    import shutil
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        main(golden_run_argv(Path(tmp) / "out"))
        shutil.copyfile(Path(tmp) / "out" / "records.jsonl", GOLDEN / "records.jsonl")
    (GOLDEN / "softmax_history.json").write_text(_softmax_text())
