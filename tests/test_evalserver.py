import hashlib
import json
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from optbench import DomainSpec, RunContext, continuous, run_loop
from optbench.cli import main
from optbench.errors import EvaluationError, ProtocolError
from optbench.harness import evalserver, external_evaluator_session
from optbench.harness.evalserver import ExternalEvaluator

SPHERE_CHILD = textwrap.dedent(
    """
    import json, sys
    print(json.dumps({"type": "hello", "dimension": 3,
                      "variables": [{"kind": "continuous"}] * 3}), flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        value = sum(v * v for v in msg["point"])
        print(json.dumps({"type": "loss", "id": msg["id"], "value": value}), flush=True)
    """
)

BAD_ID_CHILD = textwrap.dedent(
    """
    import json, sys
    print(json.dumps({"type": "hello", "dimension": 2,
                      "variables": [{"kind": "continuous"}] * 2}), flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        print(json.dumps({"type": "loss", "id": msg["id"] + 999, "value": 0.0}), flush=True)
    """
)

DYING_CHILD = textwrap.dedent(
    """
    import json, sys
    print(json.dumps({"type": "hello", "dimension": 2,
                      "variables": [{"kind": "continuous"}] * 2}), flush=True)
    count = 0
    for line in sys.stdin:
        msg = json.loads(line)
        count += 1
        if count > 3:
            sys.exit(1)
        print(json.dumps({"type": "loss", "id": msg["id"], "value": 1.0}), flush=True)
    """
)


def child_command(tmp_path, source, name):
    path = tmp_path / name
    path.write_text(source)
    return f"{sys.executable} {path}"


def test_external_sphere_matches_in_process_run(tmp_path):
    command = child_command(tmp_path, SPHERE_CHILD, "sphere_child.py")
    with external_evaluator_session(command, timeout=20.0) as external:
        assert len(external.domain.variables) == 3
        ctx = RunContext(external.domain, budget=80, master_seed=11)
        rec_ext, hist_ext = run_loop("one-plus-one-es", external, ctx)

    dom = DomainSpec([continuous() for _ in range(3)])
    ctx = RunContext(dom, budget=80, master_seed=11)
    # same accumulation order as the child, so losses match bit for bit
    rec_in, hist_in = run_loop("one-plus-one-es", lambda x: sum(v * v for v in x.tolist()), ctx)
    assert hist_ext == hist_in
    assert np.array_equal(rec_ext.point, rec_in.point)


def test_mismatched_reply_id_is_a_protocol_error(tmp_path):
    command = child_command(tmp_path, BAD_ID_CHILD, "bad_id_child.py")
    with external_evaluator_session(command, timeout=20.0) as external:
        with pytest.raises(ProtocolError):
            external(np.zeros(2))


def test_child_death_surfaces_as_evaluation_error(tmp_path):
    command = child_command(tmp_path, DYING_CHILD, "dying_child.py")
    with external_evaluator_session(command, timeout=20.0) as external:
        for _ in range(3):
            external(np.zeros(2))
        with pytest.raises(EvaluationError):
            external(np.zeros(2))


def test_child_death_fails_only_its_own_cell(tmp_path):
    # a failing external run does not poison an unrelated in-process run
    command = child_command(tmp_path, DYING_CHILD, "dying_child2.py")
    with external_evaluator_session(command, timeout=20.0) as external:
        ctx = RunContext(external.domain, budget=10, master_seed=0)
        with pytest.raises(EvaluationError) as err:
            run_loop("one-plus-one-es", external, ctx)
        assert len(err.value.history) == 3  # partial history preserved
    dom = DomainSpec([continuous(), continuous()])
    rec, hist = run_loop("one-plus-one-es", lambda x: float(x @ x), RunContext(dom, budget=10))
    assert len(hist) == 10


def test_failed_handshake_closes_the_child(tmp_path):
    pid_file = tmp_path / "pid"
    source = textwrap.dedent(
        f"""
        import json, os, sys
        open({str(pid_file)!r}, "w").write(str(os.getpid()))
        print(json.dumps({{"type": "greeting"}}), flush=True)
        for line in sys.stdin:
            pass
        """
    )
    command = child_command(tmp_path, source, "rude_child.py")
    with pytest.raises(ProtocolError):
        external_evaluator_session(command, timeout=20.0)
    with pytest.raises(ProcessLookupError):  # terminated and reaped
        os.kill(int(pid_file.read_text()), 0)


@pytest.mark.parametrize("reply", ['{"type": "loss", "id": 0}', '{"type": "loss", "id": 0, "value": "1.5"}'])
def test_loss_reply_without_a_numeric_value_is_a_protocol_error(tmp_path, reply):
    source = textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps({{"type": "hello", "dimension": 2}}), flush=True)
        for line in sys.stdin:
            print({reply!r}, flush=True)
        """
    )
    command = child_command(tmp_path, source, "valueless_child.py")
    with external_evaluator_session(command, timeout=20.0) as external:
        with pytest.raises(ProtocolError, match="no numeric value"):
            external(np.zeros(2))


def test_a_reply_sent_with_the_hello_is_read_at_once(tmp_path):
    # both lines arrive in one read; the reply must not wait behind select()
    source = textwrap.dedent(
        """
        import json, sys
        hello = json.dumps({"type": "hello", "dimension": 1})
        loss = json.dumps({"type": "loss", "id": 0, "value": 1.5})
        sys.stdout.write(hello + "\\n" + loss + "\\n")
        sys.stdout.flush()
        sys.stdin.read()
        """
    )
    with ExternalEvaluator(child_command(tmp_path, source, "eager_child.py"), timeout=2.0) as external:
        start = time.monotonic()
        assert external(np.zeros(1)) == 1.5
        assert time.monotonic() - start < 1.0


def test_a_reply_split_over_two_writes_is_joined(tmp_path):
    source = textwrap.dedent(
        """
        import json, sys, time
        print(json.dumps({"type": "hello", "dimension": 1}), flush=True)
        for line in sys.stdin:
            reply = json.dumps({"type": "loss", "id": json.loads(line)["id"], "value": 2.5})
            sys.stdout.write(reply[:10])
            sys.stdout.flush()
            time.sleep(0.05)
            print(reply[10:], flush=True)
        """
    )
    with ExternalEvaluator(child_command(tmp_path, source, "split_child.py"), timeout=20.0) as external:
        assert [external(np.zeros(1)) for _ in range(2)] == [2.5, 2.5]


def _record_children(monkeypatch) -> list:
    children = []
    spawn = subprocess.Popen

    def popen(*args, **kwargs):
        children.append(spawn(*args, **kwargs))
        return children[-1]

    monkeypatch.setattr(evalserver.subprocess, "Popen", popen)
    return children


def test_pipes_are_closed_after_a_session(tmp_path, monkeypatch):
    children = _record_children(monkeypatch)
    with external_evaluator_session(child_command(tmp_path, SPHERE_CHILD, "sphere_child.py")) as external:
        external(np.zeros(3))
    (child,) = children
    assert child.returncode is not None
    assert child.stdin.closed and child.stdout.closed


def _one_variable(variable) -> dict:
    return {"type": "hello", "dimension": 1, "variables": [variable]}


@pytest.mark.parametrize(
    "hello, message",
    [
        ({"type": "hello", "variables": [{"kind": "continuous"}]}, "dimension must be a positive integer"),
        ({"type": "hello", "dimension": "2"}, "dimension must be a positive integer"),
        ({"type": "hello", "dimension": 2.0}, "dimension must be a positive integer"),
        ({"type": "hello", "dimension": 0}, "dimension must be a positive integer"),
        ({"type": "hello", "dimension": True}, "dimension must be a positive integer"),
        (_one_variable({"kind": "integer"}), "bad integer variable"),
        (_one_variable({"kind": "categorical"}), "bad categorical variable"),
        (_one_variable({"kind": "continuous", "bogus": 1}), "unexpected keyword"),
        (_one_variable({"kind": "integer", "low": 3, "high": 1}), "low <= high"),
        (_one_variable({"kind": "integer", "low": 0.7, "high": 3.9}), "integer bound must be an integer"),
        (_one_variable({"kind": "categorical", "arity": "3"}), "categorical arity must be an integer"),
        (_one_variable({"kind": "continuous", "lower": "a"}), "bounds must be numbers"),
        (_one_variable({"kind": "bogus"}), "unknown variable kind"),
        (_one_variable("continuous"), "unknown variable kind"),
        ({"type": "hello", "dimension": 1, "variables": {"kind": "continuous"}}, "variables must be a list"),
        (["hello", 1], "malformed message"),
    ],
    ids=[
        "missing", "string", "float", "zero", "bool",
        "integer-without-bounds", "categorical-without-arity", "unknown-field", "rejected-field",
        "fractional-integer-bounds", "string-arity", "non-numeric-bound",
        "unknown-kind", "variable-not-an-object", "variables-not-a-list", "hello-not-an-object",
    ],
)
def test_handshake_dimension_must_be_a_positive_integer(tmp_path, monkeypatch, hello, message):
    # every malformed hello, its dimension or its variables, ends the same way
    children = _record_children(monkeypatch)
    source = f"import json, sys\nprint(json.dumps({hello!r}), flush=True)\nsys.stdin.read()\n"
    with pytest.raises(ProtocolError, match=message):
        external_evaluator_session(child_command(tmp_path, source, "bad_hello_child.py"), timeout=20.0)
    (child,) = children
    assert child.returncode is not None  # terminated and reaped
    assert child.stdin.closed and child.stdout.closed


def test_a_child_that_dies_before_its_hello_leaves_its_traceback_in_the_error(tmp_path, monkeypatch, capsys):
    children = _record_children(monkeypatch)
    command = child_command(tmp_path, "raise RuntimeError('no hello today')\n", "dead_child.py")
    with pytest.raises(EvaluationError, match=r"closed its output; child stderr: 'Traceback.*RuntimeError: no hello today"):
        external_evaluator_session(command, timeout=20.0)
    assert children[0].returncode is not None
    # through the CLI: one error line, exit 2
    assert main(["eval-server", "--cmd", command, "--algs", "cma", "--budget", "5"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: external evaluator closed its output; child stderr:")
    assert "RuntimeError: no hello today" in line


def test_an_error_in_a_session_keeps_the_last_2_kb_of_stderr(tmp_path):
    # 1 MB of stderr before the hello would fill a pipe nobody reads
    source = DYING_CHILD.replace(
        "count = 0", "sys.stderr.write('x' * 1_000_000); sys.stderr.flush()\ncount = 0"
    ).replace("sys.exit(1)", "sys.exit('gave up after three')")
    command = child_command(tmp_path, source, "chatty_child.py")
    with pytest.raises(EvaluationError) as err:
        with external_evaluator_session(command, timeout=20.0) as external:
            run_loop("one-plus-one-es", external, RunContext(external.domain, budget=10))
    message = str(err.value)
    assert message.startswith("objective evaluation 4 failed: external evaluator closed its output; child stderr: '")
    assert message.endswith("gave up after three\\n'")
    assert len(message) < 2200 and len(err.value.history) == 3


def test_a_quiet_child_adds_nothing_to_the_error(tmp_path):
    with pytest.raises(ProtocolError) as err:
        with external_evaluator_session(child_command(tmp_path, BAD_ID_CHILD, "bad_id_child.py")) as external:
            external(np.zeros(2))
    assert "stderr" not in str(err.value)


ELLIPSOID_CHILD = textwrap.dedent(
    """
    import json, sys
    print(json.dumps({"type": "hello", "dimension": 8,
                      "variables": [{"kind": "continuous"}] * 8}), flush=True)
    for line in sys.stdin:
        msg = json.loads(line)
        value = 0.0
        for i, v in enumerate(msg["point"]):
            value += (i + 1) * (v - 0.25 * i) ** 2
        print(json.dumps({"type": "loss", "id": msg["id"], "value": value}), flush=True)
    """
)


def test_an_abbo_session_prints_the_pinned_result(tmp_path, capsys):
    # d8 with budget 6500 runs chain(cma,powell): the serial path, each CMA
    # generation one ``batch`` and each Powell ask one call.  The digest was
    # recorded with one request per evaluation and is never regenerated.
    command = child_command(tmp_path, ELLIPSOID_CHILD, "ellipsoid_child.py")
    argv = ["eval-server", "--cmd", command, "--algs", "abbo", "--budget", "6500", "--master-seed", "11"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["recommendation_loss"] < 1e-20
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "332e17fb7a4bd969"


def test_a_parallel_session_prints_the_result_of_one_request_at_a_time(tmp_path, capsys):
    # budget 2000 over 4 workers runs cma in waves of 4, each one ``batch``;
    # the digest was recorded before the evaluator had a ``batch``
    command = child_command(tmp_path, ELLIPSOID_CHILD, "ellipsoid_child.py")
    argv = ["eval-server", "--cmd", command, "--algs", "abbo", "--budget", "2000", "--master-seed", "11",
            "--num-workers", "4"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == "819003fcc2249b72"


def test_a_serial_de_session_prints_the_result_of_one_request_at_a_time(tmp_path, capsys):
    # serial DE asks the trials no pending tell can change as one wave, each
    # one ``batch``; the digest was recorded while DE asked one point at a time
    command = child_command(tmp_path, ELLIPSOID_CHILD, "ellipsoid_child.py")
    argv = ["eval-server", "--cmd", command, "--algs", "de", "--budget", "300", "--master-seed", "11"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()[:16] == "b842788f3b113899"


#: a d4 child that logs each request's id and at its fourth request does ``{fault}``
#: a child that logs each request's id and at its fourth request does ``{fault}``
FAULTY_CHILD = """
import json, os, sys, time
print(json.dumps({{"type": "hello", "dimension": {dimension}}}), flush=True)
for n, line in enumerate(sys.stdin, 1):
    msg = json.loads(line)
    with open({log!r}, "a") as log:
        log.write(f"{{msg['id']}}\\n")
    if n == 4:
        {fault}
    print(json.dumps({{"type": "loss", "id": msg["id"], "value": sum(v * v for v in msg["point"])}}), flush=True)
"""

CLOSED = "external evaluator closed its output"

#: fault -> (child action, error, --timeout, dimension, cma's first wave)
FAULTS = {
    "dies": ("sys.exit(1)", CLOSED, 20.0, 4, 8),
    "wrong-id": ('msg["id"] += 999', "evaluator answered id 1002 to request 3", 20.0, 4, 8),
    "sleeps": ("time.sleep(60)", "external evaluator timed out after 2.0s", 2.0, 4, 8),
    # 22 requests of ~10 KB overfill the child's stdin pipe, so the harness
    # is still writing when the child closes it, before its stdout
    "stops-reading-in-a-wide-wave": ("os.close(0); time.sleep(0.5); sys.exit(1)", CLOSED, 20.0, 500, 22),
}


@pytest.mark.parametrize("fault", FAULTS)
def test_a_failed_wave_ends_the_session_as_one_request_at_a_time_does(tmp_path, monkeypatch, capsys, fault):
    # serial cma asks a generation as one wave; its fourth request fails
    action, message, timeout, dimension, wave = FAULTS[fault]
    children = _record_children(monkeypatch)

    def faulty(name):
        log = tmp_path / f"{name}.log"
        source = FAULTY_CHILD.format(log=str(log), fault=action, dimension=dimension)
        return child_command(tmp_path, source, f"{name}.py"), log

    def session(name):
        command, log = faulty(f"{name}-run-loop")
        with pytest.raises(EvaluationError) as err:
            with ExternalEvaluator(command, timeout=timeout) as external:
                run_loop("cma", external, RunContext(external.domain, budget=50))
        cli_command, cli_log = faulty(f"{name}-cli")
        code = main(["eval-server", "--cmd", cli_command, "--algs", "cma", "--budget", "50",
                     "--timeout", str(timeout)])
        # each child got requests 0, 1, ... once each
        for ids in ([int(i) for i in path.read_text().split()] for path in (log, cli_log)):
            assert ids == list(range(len(ids)))
        return str(err.value), len(err.value.history), code, capsys.readouterr().err

    batch, waves_sent = ExternalEvaluator.batch, []
    monkeypatch.setattr(ExternalEvaluator, "batch", lambda self, points: waves_sent.append(len(points)) or batch(self, points))
    waves = session("waves")
    assert waves_sent == [wave, wave]  # the first wave of each session, then the session ended
    monkeypatch.delattr(ExternalEvaluator, "batch")
    assert session("rows") == waves == (
        f"objective evaluation 4 failed: {message}", 3, 2, f"error: objective evaluation 4 failed: {message}\n"
    )
    assert len(children) == 4 and all(child.returncode is not None for child in children)


def test_a_wave_that_fills_both_pipes_does_not_deadlock(tmp_path):
    # 64 requests of ~40 KB fill the child's stdin while its ~4 KB replies
    # fill its stdout; writing them all before reading any would hang
    source = textwrap.dedent(
        """
        import json, sys
        print(json.dumps({"type": "hello", "dimension": 2000}), flush=True)
        for line in sys.stdin:
            msg = json.loads(line)
            value = sum(v * v for v in msg["point"])
            print(json.dumps({"type": "loss", "id": msg["id"], "value": value, "pad": "x" * 4000}), flush=True)
        """
    )
    command = child_command(tmp_path, source, "wide_child.py")
    argv = ["eval-server", "--cmd", command, "--algs", "de", "--budget", "128", "--num-workers", "64"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-m", "optbench.cli", *argv], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["budget"] == 128


def test_requests_are_the_json_dumps_bytes_of_one_request_at_a_time(tmp_path):
    log = tmp_path / "requests.log"
    source = textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps({{"type": "hello", "dimension": 2}}), flush=True)
        for line in sys.stdin:
            open({str(log)!r}, "a").write(line)
            print(json.dumps({{"type": "loss", "id": json.loads(line)["id"], "value": 0.0}}), flush=True)
        """
    )
    rows = np.array([[-0.0, 5e-324], [1e308, 3.0]])
    with ExternalEvaluator(child_command(tmp_path, source, "echo_child.py"), timeout=20.0) as external:
        assert external.batch(rows) == [0.0, 0.0]
        assert [external(row) for row in rows] == [0.0, 0.0]
    expected = [json.dumps({"type": "eval", "id": i, "point": [float(v) for v in rows[i % 2]]}) + "\n"
                for i in range(4)]
    assert log.read_text() == "".join(expected)
    assert "-0.0, 5e-324" in expected[0] and "1e+308, 3.0" in expected[1]
