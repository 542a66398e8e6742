import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from optbench import DomainSpec, RunContext, continuous, run_loop
from optbench.errors import EvaluationError, ProtocolError
from optbench.harness import evalserver, external_evaluator_session

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
        (_one_variable({"kind": "continuous", "lower": "a"}), "bounds must be numbers"),
        (_one_variable({"kind": "bogus"}), "unknown variable kind"),
        (_one_variable("continuous"), "unknown variable kind"),
        ({"type": "hello", "dimension": 1, "variables": {"kind": "continuous"}}, "variables must be a list"),
        (["hello", 1], "malformed message"),
    ],
    ids=[
        "missing", "string", "float", "zero", "bool",
        "integer-without-bounds", "categorical-without-arity", "unknown-field", "rejected-field", "non-numeric-bound",
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
