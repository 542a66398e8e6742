"""External evaluator sessions: wrap a child process as a benchmark.

Wire protocol, newline-delimited JSON over the child's stdio:

    child -> harness   {"type": "hello", "dimension": d,
                        "variables": [{"kind": "continuous", ...}, ...]}
    harness -> child   {"type": "eval", "id": N, "point": [...]}
    child -> harness   {"type": "loss", "id": N, "value": X}

A variable object names a domain factory in ``kind`` and passes the
factory's keywords as its other fields: continuous (lower/upper/scale),
integer (low/high), categorical (arity), unbounded_integer; a missing,
unknown or rejected field is a ProtocolError.  Malformed replies, id
mismatches, timeouts, and child death raise; the harness marks the affected
cell failed and moves on.  The child's stderr goes to an unnamed temporary
file, and an optbench error that ends a session carries its last 2 KB.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import tempfile
import time

import numpy as np

from ..domain import DomainSpec, VariableSpec, categorical, continuous, integer, unbounded_integer
from ..errors import ConfigurationError, EvaluationError, OptbenchError, ProtocolError


#: bytes of the child's stderr kept in an error message
_STDERR_TAIL = 2048

#: the longest reply wait in seconds; select() overflows not far above it
_MAX_TIMEOUT = 1e9

#: variable kind -> the domain factory of that name
_FACTORIES = {f.__name__: f for f in (continuous, integer, categorical, unbounded_integer)}


def _variable_from_obj(obj) -> VariableSpec:
    kind = obj.get("kind") if isinstance(obj, dict) else None
    factory = _FACTORIES.get(kind) if isinstance(kind, str) else None
    if factory is None:
        raise ProtocolError(f"unknown variable kind in handshake: {obj!r}")
    try:
        return factory(**{key: value for key, value in obj.items() if key != "kind"})
    except (OptbenchError, TypeError, ValueError) as exc:
        raise ProtocolError(f"bad {kind} variable in handshake {obj!r}: {exc}") from None


class ExternalEvaluator:
    """Callable objective backed by a child process."""

    def __init__(self, command: str, timeout: float = 30.0):
        try:
            argv = shlex.split(command)
        except ValueError as exc:  # an unclosed quote
            raise ConfigurationError(f"bad evaluator command {command!r}: {exc}") from None
        if not argv:
            raise ConfigurationError("the evaluator command is empty")
        if not 0.0 < timeout <= _MAX_TIMEOUT:  # also refuses NaN
            raise ConfigurationError(f"bad timeout {timeout!r}; expected seconds in (0, {_MAX_TIMEOUT:g}]")
        self.command = command
        self.timeout = timeout
        # a file, not a pipe, so a chatty child never blocks on its stderr
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._stderr
            )
        except BaseException:
            self._stderr.close()
            raise
        # every read goes through this one buffer, so a line the child wrote
        # together with an earlier one is never left waiting behind select()
        self._received = b""
        self._next_id = 0
        try:
            hello = self._read_message()
            if hello.get("type") != "hello":
                raise ProtocolError(f"expected a hello handshake, got {hello!r}")
            dim = hello.get("dimension")
            if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
                raise ProtocolError(f"handshake dimension must be a positive integer, got {dim!r}")
            variables = hello.get("variables") or [{"kind": "continuous"}] * dim
            if not isinstance(variables, list):
                raise ProtocolError(f"handshake variables must be a list, got {variables!r}")
            self.domain = DomainSpec([_variable_from_obj(v) for v in variables])
            if len(self.domain.variables) != dim:
                raise ProtocolError("handshake dimension does not match its variable list")
        except BaseException as exc:
            self._add_stderr(exc)
            self.close()  # a failed handshake leaves no child behind
            raise

    # ------------------------------------------------------------------
    def _read_message(self) -> dict:
        fd = self._proc.stdout.fileno()
        deadline = time.monotonic() + self.timeout
        while b"\n" not in self._received:
            ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
            if not ready:
                raise EvaluationError(f"external evaluator timed out after {self.timeout}s")
            chunk = os.read(fd, 65536)
            if not chunk:
                raise EvaluationError("external evaluator closed its output")
            self._received += chunk
        line, _, self._received = self._received.partition(b"\n")
        try:
            message = json.loads(line)
        except ValueError:  # not JSON, or not UTF-8
            message = None
        if not isinstance(message, dict):
            raise ProtocolError(f"malformed message from evaluator: {line.decode(errors='replace')!r}")
        return message

    def __call__(self, point) -> float:
        msg_id = self._next_id
        self._next_id += 1
        values = [float(v) for v in np.asarray(point, dtype=float)]
        try:
            self._proc.stdin.write(
                (json.dumps({"type": "eval", "id": msg_id, "point": values}) + "\n").encode()
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

    def _add_stderr(self, exc: BaseException) -> None:
        """Append the last bytes the child wrote to stderr to an optbench error's message."""
        if not isinstance(exc, OptbenchError):
            return
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        # pread leaves the file offset, which the child shares, where it is
        tail = os.pread(fd, min(size, _STDERR_TAIL), max(0, size - _STDERR_TAIL))
        if tail.strip():
            exc.args = (f"{exc}; child stderr: {tail.decode(errors='replace')!r}",)

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
        self._stderr.close()

    def __enter__(self) -> "ExternalEvaluator":
        return self

    def __exit__(self, _type, exc, _traceback) -> None:
        if exc is not None:
            self._add_stderr(exc)
        self.close()


def external_evaluator_session(command: str, timeout: float = 30.0) -> ExternalEvaluator:
    """Spawn the child and complete the handshake."""
    return ExternalEvaluator(command, timeout=timeout)
