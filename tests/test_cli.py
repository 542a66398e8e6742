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


def test_eval_server_validates_algs_before_spawning_the_child(tmp_path, capsys):
    marker = tmp_path / "spawned"
    child = tmp_path / "child.py"
    child.write_text(f"open({str(marker)!r}, 'w').close()\n")
    for algs, message in [
        ("cma[bogus=1]", "error: unknown parameter 'bogus'"),
        ("one-plus-one-es[c_up=-1]", "error: bad parameter value in 'one-plus-one-es[c_up=-1]': ValueError: "),
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


@pytest.mark.parametrize(
    "edit, expected",
    [
        (lambda p: p["spec"].update(base="onemx"), "unknown base function 'onemx'"),
        (lambda p: p["spec"]["transform"].update(rotate=True), "do not apply to 'onemax'"),
        (lambda p: p["spec"].pop("dimension"), "missing key 'dimension'"),
        (lambda p: p["spec"].update(dimension="20"), "'str' object cannot be interpreted as an integer"),
        (lambda p: p["spec"]["transform"].update(rotat=True), "unexpected keyword argument 'rotat'"),
        (lambda p: p["spec"].update(base="lunacek", dimension=1), "'lunacek' needs dimension >= 2"),
    ],
    ids=["unknown-base", "rotated-onemax", "no-dimension", "str-dimension", "unknown-transform-key", "lunacek-d1"],
)
def test_bad_manifest_fails_at_load(tmp_path, capsys, edit, expected):
    out = tmp_path / "x"
    rc = main(["run", "--suite", _mini_manifest(tmp_path, edit), "--algs", "discrete-fixed", "--seeds", "1", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: manifest problem 'onemax-d20': ")
    assert expected in err[0]
    assert not out.exists()  # no cell ran


@pytest.mark.parametrize("workers", ["1", "2"])
def test_faults_inside_a_cell_become_failed_records(tmp_path, capsys, workers):
    manifest = _mini_manifest(tmp_path, lambda p: p.update(
        spec={"base": "sphere", "dimension": 3, "transform": {"translation_std": 1.0, "transform_seed": 1}}
    ))
    out = tmp_path / "r"
    # both parameters build fine and break only at tbpsa's first generation
    algs = "tbpsa[elite_fraction=a],tbpsa[recommendation_window=x],one-plus-one-es"
    rc = main(["run", "--suite", manifest, "--algs", algs, "--seeds", "2", "--workers", workers, "--out", str(out)])
    assert rc == 1
    assert "4 cells failed" in capsys.readouterr().err
    records = [json.loads(line) for line in (out / "records.jsonl").read_text().splitlines()]
    errors = {r["algorithm"]: r["error"] for r in records if r["failed"]}
    assert errors["tbpsa[elite_fraction=a]"] == "TypeError: must be real number, not str"
    assert errors["tbpsa[recommendation_window=x]"].startswith("TypeError: ")
    done = [r for r in records if not r["failed"]]
    assert len(done) == 2 and all(r["algorithm"] == "one-plus-one-es" and r["checkpoints"] for r in done)


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


@pytest.mark.parametrize(
    "file, line, expected",
    [
        ("records.jsonl", "{not json", "Expecting property name"),
        ("records.jsonl", json.dumps({k: v for k, v in _GOLDEN_CELL.items() if k != "seed"}), "record has no 'seed'"),
        ("records.jsonl", _edited_line(schema=2), "unsupported record schema 2"),
        ("records.jsonl", _edited_line(seed="0"), "record field 'seed' must be int, got '0'"),
        ("records.jsonl", _edited_line(failed=0), "record field 'failed' must be bool, got 0"),
        ("records.jsonl", _edited_line(checkpoints=[[1]]), "checkpoints must be [evaluation, regret] pairs"),
        ("records.jsonl", "[1, 2]", "a record must be a JSON object"),
        ("records.jsonl", "\udcff", "can't decode byte 0xff"),
        ("timings.jsonl", "not json", "Expecting value"),
        ("timings.jsonl", '{"cell": "x"}', "a timing needs a cell id and milliseconds"),
        ("timings.jsonl", '{"cell": "x", "wall_time_ms": "1"}', "a timing needs a cell id and milliseconds"),
    ],
    ids=[
        "records-not-json", "records-missing-key", "records-schema", "records-str-seed", "records-int-failed",
        "records-short-checkpoint", "records-list", "records-not-utf8", "timings-not-json", "timings-missing-key", "timings-str-ms",
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
