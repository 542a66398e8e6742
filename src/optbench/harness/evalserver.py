"""External evaluator sessions: wrap a child process as a benchmark.

Wire protocol, newline-delimited JSON over the child's stdio:

    child -> harness   {"type": "hello", "dimension": d,
                        "variables": [{"kind": "continuous", ...}, ...]}
    harness -> child   {"type": "eval", "id": N, "point": [...]}
    child -> harness   {"type": "loss", "id": N, "value": X}

Variable objects take the same fields as the domain factories: continuous
(lower/upper/scale), integer (low/high), categorical (arity),
unbounded_integer.  Malformed replies, id mismatches, timeouts, and child
death raise; the harness marks the affected cell failed and moves on.
"""

from __future__ import annotations

import json
import select
import shlex
import subprocess

import numpy as np

from ..domain import DomainSpec, VariableSpec
from ..errors import EvaluationError, ProtocolError


def _variable_from_obj(obj: dict) -> VariableSpec:
    kind = obj.get("kind")
    if kind == "continuous":
        return VariableSpec(
            "continuous",
            lower=obj.get("lower"),
            upper=obj.get("upper"),
            scale=obj.get("scale", 1.0),
        )
    if kind == "integer":
        return VariableSpec("integer", low=obj["low"], high=obj["high"])
    if kind == "categorical":
        return VariableSpec("categorical", arity=obj["arity"])
    if kind == "unbounded_integer":
        return VariableSpec("unbounded_integer")
    raise ProtocolError(f"unknown variable kind in handshake: {kind!r}")


class ExternalEvaluator:
    """Callable objective backed by a child process."""

    def __init__(self, command: str, timeout: float = 30.0):
        self.command = command
        self.timeout = timeout
        self._proc = subprocess.Popen(
            shlex.split(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._next_id = 0
        try:
            hello = self._read_message()
            if hello.get("type") != "hello":
                raise ProtocolError(f"expected a hello handshake, got {hello!r}")
            dim = hello.get("dimension")
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
                raise ProtocolError(f"handshake dimension must be a positive integer, got {dim!r}")
            variables = hello.get("variables")
            if variables:
                self.domain = DomainSpec([_variable_from_obj(v) for v in variables])
            else:
                self.domain = DomainSpec([VariableSpec("continuous") for _ in range(dim)])
            if len(self.domain.variables) != dim:
                raise ProtocolError("handshake dimension does not match its variable list")
        except BaseException:
            self.close()  # a failed handshake leaves no child behind
            raise

    # ------------------------------------------------------------------
    def _read_message(self) -> dict:
        if self._proc.poll() is not None:
            raise EvaluationError("external evaluator exited")
        ready, _, _ = select.select([self._proc.stdout], [], [], self.timeout)
        if not ready:
            raise EvaluationError(f"external evaluator timed out after {self.timeout}s")
        line = self._proc.stdout.readline()
        if not line:
            raise EvaluationError("external evaluator closed its output")
        try:
            return json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"malformed message from evaluator: {line!r}") from exc

    def __call__(self, point) -> float:
        msg_id = self._next_id
        self._next_id += 1
        values = [float(v) for v in np.asarray(point, dtype=float)]
        try:
            self._proc.stdin.write(
                json.dumps({"type": "eval", "id": msg_id, "point": values}) + "\n"
            )
            self._proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise EvaluationError("external evaluator pipe closed") from exc
        reply = self._read_message()
        if reply.get("type") != "loss":
            raise ProtocolError(f"expected a loss reply, got {reply!r}")
        if reply.get("id") != msg_id:
            raise ProtocolError(
                f"evaluator answered id {reply.get('id')!r} to request {msg_id}"
            )
        if not isinstance(reply.get("value"), (int, float)):
            raise ProtocolError(f"loss reply to request {msg_id} has no numeric value: {reply!r}")
        return float(reply["value"])

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:  # unsent output to a child that is gone
                pass

    def __enter__(self) -> "ExternalEvaluator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def external_evaluator_session(command: str, timeout: float = 30.0) -> ExternalEvaluator:
    """Spawn the child and complete the handshake."""
    return ExternalEvaluator(command, timeout=timeout)
