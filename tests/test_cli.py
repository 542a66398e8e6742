import json
import os
import sys
import textwrap
from pathlib import Path

import pytest

from optbench.bench.suites import BenchmarkSuite, SuiteProblem, get_suite, save_manifest, suite_to_manifest
from optbench.cli import main


def test_run_and_report_round_trip(tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(
        [
            "run",
            "--suite",
            "discrete_lite",
            "--algs",
            "discrete-fixed,fastga",
            "--seeds",
            "2",
            "--master-seed",
            "7",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    for name in ("records.jsonl", "timings.jsonl", "curves.csv", "heatmap.csv", "ranking.txt"):
        assert (out / name).exists()
    capsys.readouterr()
    rc = main(["report", "--in", str(out), "--ranking"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2 and lines[0].startswith("1. ")
    # report prints the very bytes run wrote
    for flag, name in (("--curves", "curves.csv"), ("--heatmap", "heatmap.csv"), ("--ranking", "ranking.txt")):
        assert main(["report", "--in", str(out), flag]) == 0
        assert capsys.readouterr().out == (out / name).read_text()


def test_run_accepts_manifest_path_and_seed_ranges(tmp_path):
    manifest = tmp_path / "mini.json"
    suite = get_suite("discrete_lite")
    from optbench.bench.suites import BenchmarkSuite, SuiteProblem

    problem = suite.problems[0]
    save_manifest(
        BenchmarkSuite("mini", (SuiteProblem(problem.problem_id, problem.spec, budgets=(30,)),)),
        manifest,
    )
    out = tmp_path / "r"
    rc = main(
        ["run", "--suite", str(manifest), "--algs", "discrete-fixed", "--seeds", "3..4", "--out", str(out)]
    )
    assert rc == 0
    lines = (out / "records.jsonl").read_text().splitlines()
    assert len(lines) == 2
    seeds = sorted(json.loads(line)["seed"] for line in lines)
    assert seeds == [3, 4]


def test_misspelled_algorithm_fails_before_running(tmp_path, capsys):
    rc = main(
        ["run", "--suite", "discrete_lite", "--algs", "fastag", "--seeds", "1", "--out", str(tmp_path / "x")]
    )
    assert rc == 2
    assert "unknown solver id" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()  # validation happens before any cell


def test_failed_cells_exit_nonzero_but_records_are_kept(tmp_path, capsys):
    # progressive widening rejects discrete domains, so every cell fails
    out = tmp_path / "failing"
    rc = main(
        ["run", "--suite", "discrete_lite", "--algs", "prog(de)", "--seeds", "1", "--out", str(out)]
    )
    assert rc == 1
    assert "failed" in capsys.readouterr().err
    assert (out / "records.jsonl").exists()
    lines = (out / "records.jsonl").read_text().splitlines()
    assert lines and all(json.loads(line)["failed"] for line in lines)


def test_explain_prints_rule_and_spec(capsys):
    assert main(["explain", "--ctx", "d=10,b=200,w=1,noisy=false"]) == 0
    assert capsys.readouterr().out.strip() == "rule 17: linear-tr"
    assert main(["explain", "--ctx", "d=25,b=1000,noisy=true"]) == 0
    assert capsys.readouterr().out.strip() == "rule 7: tbpsa"
    assert main(["explain", "--ctx", "d=20,b=500,max_arity=2,has_discrete=true"]) == 0
    assert capsys.readouterr().out.strip() == "rule 2: discrete-lineardecay"


def test_explain_rejects_bad_context(capsys):
    assert main(["explain", "--ctx", "bogus=3"]) == 2
    assert "known keys" in capsys.readouterr().err
    assert main(["explain", "--ctx", "d=x,b=10"]) == 2
    assert capsys.readouterr().err == "error: bad context item 'd=x'; d takes a number\n"
    assert main(["explain", "--ctx", "w=2"]) == 2
    assert capsys.readouterr().err == "error: --ctx needs at least d=<n> and b=<n>\n"
    # features no rule reads are not keys
    assert main(["explain", "--ctx", "d=20,b=500,fully_continuous=false"]) == 2
    assert capsys.readouterr().err.startswith("error: bad context item 'fully_continuous=false'; known keys")
    assert main(["explain", "--ctx", "d=20,b=500,all_discrete=true"]) == 2
    assert capsys.readouterr().err.startswith("error: bad context item 'all_discrete=true'; known keys")
    # a misspelled boolean is an error, not false
    for value in ("ture", "", "2", "on"):
        assert main(["explain", "--ctx", f"d=25,b=1000,noisy={value}"]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad context item 'noisy={value}'; noisy takes one of")
    for value, rule in (("TRUE", 7), ("Yes", 7), ("1", 7), ("False", 18), ("no", 18), ("0", 18)):
        assert main(["explain", "--ctx", f"d=25,b=1000,noisy={value}"]) == 0
        assert capsys.readouterr().out.startswith(f"rule {rule}:")
    # a dimension, budget or worker count below 1 picks no rule
    for ctx, item in (("d=0,b=10", "d=0"), ("d=5,b=-3", "b=-3"), ("d=5,b=10,w=0", "w=0"), ("d=-1,b=10", "d=-1")):
        assert main(["explain", "--ctx", ctx]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad context item '{item}'; {item[0]} must be at least 1\n"


def test_master_seed_env_fallback(tmp_path, monkeypatch):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    monkeypatch.setenv("OPTBENCH_MASTER_SEED", "99")
    main(["run", "--suite", "discrete_lite", "--algs", "discrete-fixed", "--seeds", "1", "--out", str(out_a)])
    monkeypatch.delenv("OPTBENCH_MASTER_SEED")
    main(
        [
            "run", "--suite", "discrete_lite", "--algs", "discrete-fixed", "--seeds", "1",
            "--master-seed", "99", "--out", str(out_b),
        ]
    )
    assert (out_a / "records.jsonl").read_bytes() == (out_b / "records.jsonl").read_bytes()


def test_bad_master_seed_env_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OPTBENCH_MASTER_SEED", "abc")
    argv = ["run", "--suite", "discrete_lite", "--algs", "discrete-fixed", "--seeds", "1", "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: bad OPTBENCH_MASTER_SEED 'abc'; expected an integer\n"
    assert not (tmp_path / "records.jsonl").exists()
    assert main([*argv, "--master-seed", "4"]) == 0  # the flag wins over the variable


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_run_rejects_a_worker_count_below_one(tmp_path, capsys, workers):
    argv = ["run", "--suite", "discrete_lite", "--algs", "discrete-fixed", "--seeds", "1",
            "--workers", workers, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: bad --workers {workers}; expected at least 1\n"
    assert not (tmp_path / "records.jsonl").exists()


def test_eval_server_command(tmp_path, capsys):
    child = tmp_path / "child.py"
    child.write_text(
        textwrap.dedent(
            """
            import json, sys
            print(json.dumps({"type": "hello", "dimension": 2,
                              "variables": [{"kind": "continuous"}] * 2}), flush=True)
            for line in sys.stdin:
                msg = json.loads(line)
                value = sum((v - 1.0) ** 2 for v in msg["point"])
                print(json.dumps({"type": "loss", "id": msg["id"], "value": value}), flush=True)
            """
        )
    )
    rc = main(
        [
            "eval-server",
            "--cmd",
            f"{sys.executable} {child}",
            "--algs",
            "one-plus-one-es",
            "--budget",
            "60",
            "--master-seed",
            "1",
        ]
    )
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["budget"] == 60
    assert payload["recommendation_loss"] < 1e-2
    assert len(payload["recommendation"]) == 2


@pytest.mark.parametrize(
    "algs",
    ["cma[bogus=1]", "diagcma[diagonal=false]", "cma[population_size=x]", "chain(cma,one-plus-one-es[c_up=-1];0.5,0.5)"],
)
def test_bad_leaf_params_fail_before_any_cell(tmp_path, capsys, algs):
    out = tmp_path / "x"
    rc = main(["run", "--suite", "discrete_lite", "--algs", algs, "--seeds", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


REMOVED_KEYWORDS = [
    "cma[population_size=8]",
    "one-plus-one-es[c_up=2]",
    "one-plus-one-es[c_down=0.5]",
    "linear-tr[initial_radius=1]",
    "quadratic-tr[initial_radius=1]",
    "fastga[beta=1.5]",
    "tbpsa[recommendation_window=5]",
    "naive-tbpsa[recommendation_window=5]",
    "tbpsa[stagnation_limit=2]",
    "naive-tbpsa[stagnation_limit=2]",
]


def assert_run_fails_before_any_cell(tmp_path, capsys, algs, message):
    out = tmp_path / "x"
    rc = main(["run", "--suite", "yabbob_lite", "--algs", f"de,{algs}", "--seeds", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("algs", REMOVED_KEYWORDS)
def test_removed_solver_keywords_are_unknown_parameters(tmp_path, capsys, algs):
    name, _, rest = algs.partition("[")
    key = rest.partition("=")[0]
    assert_run_fails_before_any_cell(tmp_path, capsys, algs, f"unknown parameter {key!r} for {name!r}; known: ")


@pytest.mark.parametrize("algs, reason", [
    # a boolean takes only true or false, and only an omitted keyword means the default
    ("cma[diagonal=no]", "diagonal takes true or false"),
    ("tbpsa[naive=no]", "naive takes true or false"),
    ("de[lhs_init=1]", "lhs_init takes true or false"),
    ("de[population_size=0]", "DE needs a population of at least 4"),
    ("tbpsa[population_size=0]", "TBPSA needs a whole population of at least 4"),
    ("naive-tbpsa[population_size=3]", "TBPSA needs a whole population of at least 4"),
    ("tbpsa[population_size=4.5]", "TBPSA needs a whole population of at least 4"),
    ("tbpsa[elite_fraction=-1]", "the elite fraction must lie in (0, 1]"),
    ("tbpsa[elite_fraction=2]", "the elite fraction must lie in (0, 1]"),
    ("tbpsa[elite_fraction=nan]", "the elite fraction must lie in (0, 1]"),
])
def test_misread_leaf_values_fail_before_any_cell(tmp_path, capsys, algs, reason):
    assert_run_fails_before_any_cell(tmp_path, capsys, algs, f"bad parameter value in {algs!r}: {reason}")


@pytest.mark.parametrize("suite, algs, message", [
    ("discrete_lite", "chain(cma;)", "bad allocation ''"),
    ("discrete_lite", "chain(cma;1b)", "bad allocation '1b'"),
    ("discrete_lite", "chain(cma,de;0.5)", "chain has 2 children but 1 allocations"),
    ("discrete_lite", "bet(cma;0.5)", "bet-and-run needs at least two children"),
    ("discrete_lite", "bet(cma,de;x)", "bad phase fraction 'x'"),
    ("discrete_lite", "cma[x]", "bad parameter 'x' in 'cma[x]'"),
    ("discrete_lite", "cma;de", "bad leaf name 'cma;de'"),
    ("discrete_lite", "a)b(", "unbalanced parentheses in 'a)b('"),
    ("discrete_lite", "foo(cma)", "unknown combinator 'foo' in 'foo(cma)'"),
    ("discrete_lite", "abbo[x=1]", "'abbo' takes no parameters"),
    ("discrete_lite", "cma[seed=1,seed=2]", "repeated parameter in 'cma[seed=1,seed=2]'"),
    ("not-json.json", "cma", "cannot read manifest 'not-json.json': "),
    ("records.json", "cma", "not a manifest of schema 'optbench-suite-v1'"),
])
def test_bad_spec_or_manifest_is_one_error_line(tmp_path, monkeypatch, capsys, suite, algs, message):
    monkeypatch.chdir(tmp_path)
    Path("not-json.json").write_text("{not json")
    Path("records.json").write_text(json.dumps({"schema": 1, "problem": "sphere-d2"}))
    rc = main(["run", "--suite", suite, "--algs", algs, "--seeds", "1", "--out", "x"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {message}")
    assert not Path("x").exists()


def test_eval_server_validates_algs_before_spawning_the_child(tmp_path, capsys):
    marker = tmp_path / "spawned"
    child = tmp_path / "child.py"
    child.write_text(f"open({str(marker)!r}, 'w').close()\n")
    for algs, message in [
        ("cma[bogus=1]", "error: unknown parameter 'bogus'"),
        ("de[f_weight=3]", "error: bad parameter value in 'de[f_weight=3]': differential weight F must lie in"),
    ]:
        rc = main(["eval-server", "--cmd", f"{sys.executable} {child}", "--algs", algs])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not marker.exists()


@pytest.mark.parametrize("cmd, message", [
    ("", "error: the evaluator command is empty"),
    ("   ", "error: the evaluator command is empty"),
    ("'unclosed", "error: bad evaluator command \"'unclosed\": No closing quotation"),
])
def test_eval_server_rejects_an_empty_or_unparsable_command(cmd, message, capsys):
    rc = main(["eval-server", "--cmd", cmd, "--algs", "one-plus-one-es"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf", "1e12"])
def test_eval_server_rejects_a_bad_timeout_before_spawning_the_child(timeout, tmp_path, capsys):
    marker = tmp_path / "spawned"
    child = tmp_path / "child.py"
    child.write_text(f"open({str(marker)!r}, 'w').close()\n")
    rc = main(["eval-server", "--cmd", f"{sys.executable} {child}", "--algs", "one-plus-one-es",
               "--timeout", timeout])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: bad timeout {float(timeout)!r}")
    assert not marker.exists()


def test_eval_server_rejects_a_hello_without_dimension(tmp_path, capsys):
    pid_file = tmp_path / "pid"
    child = tmp_path / "child.py"
    child.write_text(
        textwrap.dedent(
            f"""
            import json, os, sys
            open({str(pid_file)!r}, "w").write(str(os.getpid()))
            print(json.dumps({{"type": "hello", "variables": [{{"kind": "continuous"}}]}}), flush=True)
            sys.stdin.read()
            """
        )
    )
    rc = main(["eval-server", "--cmd", f"{sys.executable} {child}", "--algs", "one-plus-one-es"])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: handshake dimension must be a positive integer, got None"]
    with pytest.raises(ProcessLookupError):  # terminated and reaped
        os.kill(int(pid_file.read_text()), 0)


def test_bad_seeds_is_an_input_error(tmp_path, capsys):
    rc = main(["run", "--suite", "discrete_lite", "--algs", "cma", "--seeds", "x", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: bad --seeds 'x'")


def test_report_on_a_missing_directory_is_an_input_error(tmp_path, capsys):
    rc = main(["report", "--in", str(tmp_path / "missing")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: no records file at")


def _mini_manifest(tmp_path, edit) -> str:
    # one onemax-d20 problem at budget 30, edited before it is written
    problem = get_suite("discrete_lite").problems[0]
    obj = suite_to_manifest(BenchmarkSuite("mini", (SuiteProblem(problem.problem_id, problem.spec, budgets=(30,)),)))
    edit(obj["problems"][0])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return str(path)


PROBLEM = "manifest problem 'onemax-d20': "
UNREADABLE = "cannot read manifest "
TRANSFORM = ("spec", "transform")
NOT_WHOLE = "a budget or worker count must be an integer, got "
NOT_INDEX = "a block index or seed must be an integer, got "


def _set(*keys, **changes):
    # an edit that updates the object at p[keys[0]][keys[1]]... of the manifest problem p
    def edit(p):
        for key in keys:
            p = p[key]
        p.update(changes)
    return edit


def _composite(**block_changes):
    # replaces the problem's spec with a valid two-block composite, its first block edited
    blocks = [{"base": "sphere", "indices": [0, 1], "weight": 1.0, "seed": 3},
              {"base": "sphere", "indices": [2, 3], "weight": 2.0, "seed": None}]
    blocks[0].update(block_changes)
    return _set(spec={"base": "lsgo_composite", "dimension": 4, "transform": {}, "blocks": blocks})


@pytest.mark.parametrize(
    "edit, where, expected",
    [
        (_set("spec", base="onemx"), PROBLEM, "unknown base function 'onemx'"),
        (_set(*TRANSFORM, rotate=True), PROBLEM, "do not apply to 'onemax'"),
        (lambda p: p["spec"].pop("dimension"), PROBLEM, "missing key 'dimension'"),
        (_set("spec", dimension="20"), PROBLEM, "dimension must be an integer, got '20'"),
        (_set(*TRANSFORM, rotat=True), PROBLEM, "unexpected keyword argument 'rotat'"),
        (_set("spec", base="lunacek", dimension=1), PROBLEM, "'lunacek' needs dimension >= 2"),
        (_set(budgets=[100.5]), PROBLEM, NOT_WHOLE + "100.5"),
        (_set(num_workers=[1.5]), PROBLEM, NOT_WHOLE + "1.5"),
        (_set(budgets=[float("nan")]), UNREADABLE, "NaN is not valid JSON"),
        (_set(*TRANSFORM, rotate="no"), PROBLEM, "rotate must be true or false, got 'no'"),
        (_set(budgets=[True]), PROBLEM, NOT_WHOLE + "True"),
        (_composite(indices=[0.7, 1]), PROBLEM, NOT_INDEX + "0.7"),
        (_set(*TRANSFORM, noise_std=float("nan")), UNREADABLE, "NaN is not valid JSON"),
        (_set(num_workers=[0]), PROBLEM, "budgets and num_workers must be at least 1"),
        (_set("spec", dimension=True), PROBLEM, "dimension must be an integer, got True"),
        (_set(*TRANSFORM, transform_seed=1.5), PROBLEM,
         "transform_seed must be an integer, got 1.5"),
        (_composite(weight="2"), PROBLEM, "a block weight must be a finite number, got '2'"),
        (_composite(seed=1.5), PROBLEM, NOT_INDEX + "1.5"),
        (_set(*TRANSFORM, translation_std=float("inf")), UNREADABLE, "Infinity is not valid"),
    ],
    ids=[
        "unknown-base", "rotated-onemax", "no-dimension", "str-dimension", "unknown-transform-key",
        "lunacek-d1", "float-budget", "float-workers", "nan-budget", "str-rotate", "bool-budget",
        "float-block-index", "nan-noise", "zero-workers", "bool-dimension", "float-transform-seed",
        "str-block-weight", "float-block-seed", "infinite-translation",
    ],
)
def test_bad_manifest_fails_at_load(tmp_path, capsys, edit, where, expected):
    out = tmp_path / "x"
    rc = main(["run", "--suite", _mini_manifest(tmp_path, edit), "--algs", "discrete-fixed", "--seeds", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {where}")
    assert expected in err[0]
    assert not out.exists()  # no cell ran


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("workers", ["1", "2"])
def test_faults_inside_a_cell_become_failed_records(tmp_path, capsys, workers):
    sphere = {"base": "sphere", "dimension": 3, "transform": {"translation_std": 1.0, "transform_seed": 1}}
    manifest = _mini_manifest(tmp_path, lambda p: p.update(spec=sphere))
    obj = json.loads(Path(manifest).read_text())
    # a valid problem whose first loss overflows to inf: no check before the run can see it
    overflow = {**obj["problems"][0], "problem_id": "overflow"}
    overflow["spec"] = {**sphere, "transform": {"translation_std": 1e200, "transform_seed": 1}}
    obj["problems"].append(overflow)
    Path(manifest).write_text(json.dumps(obj))
    out = tmp_path / "r"
    algs = "tbpsa,one-plus-one-es"
    rc = main(["run", "--suite", manifest, "--algs", algs, "--seeds", "2", "--workers", workers, "--out", str(out)])
    assert rc == 1
    assert "4 cells failed" in capsys.readouterr().err
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    failed = [r for r in records if r["failed"]]
    assert len(failed) == 4 and all(r["problem"] == "overflow" for r in failed)
    assert all(r["error"] == "loss must be finite, got inf" and not r["checkpoints"] for r in failed)
    done = [r for r in records if not r["failed"]]
    assert len(done) == 4 and all(r["problem"] == "onemax-d20" and r["checkpoints"] for r in done)


ONE_ALGORITHM_NOTE = "pairwise tables need at least two algorithms\n"


@pytest.mark.parametrize(
    "flags, code, printed, err",
    [
        (["--curves"], 0, True, ""),
        (["--heatmap"], 2, False, "error: " + ONE_ALGORITHM_NOTE),
        (["--ranking"], 2, False, "error: " + ONE_ALGORITHM_NOTE),
        ([], 0, True, ONE_ALGORITHM_NOTE),
    ],
    ids=["curves", "heatmap", "ranking", "all"],
)
def test_report_with_one_algorithm(tmp_path, capsys, flags, code, printed, err):
    out = tmp_path / "r"
    manifest = _mini_manifest(tmp_path, lambda p: None)
    assert main(["run", "--suite", manifest, "--algs", "discrete-fixed", "--seeds", "1", "--out", str(out)]) == 0
    assert not (out / "heatmap.csv").exists()
    capsys.readouterr()
    assert main(["report", "--in", str(out), *flags]) == code
    captured = capsys.readouterr()
    assert captured.out == ((out / "curves.csv").read_text() if printed else "")
    assert captured.err == err


_GOLDEN_LINE = (Path(__file__).parent / "golden" / "records.jsonl").read_text().splitlines()[0]
_GOLDEN_CELL = json.loads(_GOLDEN_LINE)


def _edited_line(**changes) -> str:
    return json.dumps({**_GOLDEN_CELL, **changes})


def _with_checkpoint(index, pair) -> str:
    checkpoints = list(_GOLDEN_CELL["checkpoints"])
    checkpoints[index] = pair
    return _edited_line(checkpoints=checkpoints)


PAIRS = "checkpoints must be [evaluation, regret] pairs"


@pytest.mark.parametrize(
    "file, line, expected",
    [
        ("records.jsonl", "{not json", "Expecting property name"),
        ("records.jsonl", json.dumps({k: v for k, v in _GOLDEN_CELL.items() if k != "seed"}), "record has no 'seed'"),
        ("records.jsonl", _edited_line(schema=2), "unsupported record schema 2"),
        ("records.jsonl", _edited_line(seed="0"), "record field 'seed' must be int, got '0'"),
        ("records.jsonl", _edited_line(failed=0), "record field 'failed' must be bool, got 0"),
        ("records.jsonl", _edited_line(checkpoints=[[1]]), PAIRS),
        ("records.jsonl", _with_checkpoint(-1, [100, float("nan")]), "NaN is not valid JSON"),
        ("records.jsonl", _with_checkpoint(-1, [100, float("inf")]), "Infinity is not valid JSON"),
        ("records.jsonl", _with_checkpoint(-1, ["100", "0.4"]), PAIRS),
        ("records.jsonl", _with_checkpoint(-1, [100.7, 0.4]), PAIRS),
        ("records.jsonl", _with_checkpoint(0, [True, 12.5]), PAIRS),
        ("records.jsonl", "[1, 2]", "a record must be a JSON object"),
        ("records.jsonl", "\udcff", "can't decode byte 0xff"),
        ("timings.jsonl", "not json", "Expecting value"),
        ("timings.jsonl", '{"cell": "x"}', "a timing needs a cell id and milliseconds"),
        ("timings.jsonl", '{"cell": "x", "wall_time_ms": "1"}', "a timing needs a cell id and milliseconds"),
    ],
    ids=[
        "records-not-json", "records-missing-key", "records-schema", "records-str-seed", "records-int-failed",
        "records-short-checkpoint", "records-nan-regret", "records-infinite-regret",
        "records-str-pair", "records-float-evaluation", "records-bool-evaluation", "records-list",
        "records-not-utf8", "timings-not-json", "timings-missing-key", "timings-str-ms",
    ],
)
def test_report_on_a_malformed_line_is_an_input_error(tmp_path, capsys, file, line, expected):
    (tmp_path / "records.jsonl").write_text(_GOLDEN_LINE + "\n")
    (tmp_path / "timings.jsonl").write_text('{"cell": "c", "wall_time_ms": 1.5}\n')
    with open(tmp_path / file, "a", errors="surrogateescape") as fh:
        fh.write(line + "\n")
    assert main(["report", "--in", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {tmp_path / file}, line 2: ")
    assert expected in err[0]
