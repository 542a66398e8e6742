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

``batch(points)`` sends the requests of a whole wave before it reads the
first reply, so the child must answer each request once and in order, as a
``for line in sys.stdin`` loop does.  Requests are written without blocking
while replies are read, so full pipes in both directions cannot deadlock.
After a failed wave, calls replay its received losses and then raise its
error without writing, so ``run_loop``'s row-by-row retry ends as one
request at a time would have.
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


def _request(msg_id: int, point: str) -> bytes:
    """An eval request line; ``point`` is the ``json.dumps`` of a list of floats."""
    return b'{"type": "eval", "id": %d, "point": %s}\n' % (msg_id, point.encode())


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
        # requests are written without blocking, so a child that blocks on
        # its replies while the harness writes cannot deadlock the session
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._unsent = memoryview(b"")
        self._next_id = 0
        #: (the points and losses answered, the error) of the first failed wave
        self._failure: tuple[list[tuple[str, float]], Exception] | None = None
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
    def _read_message(self, keep: int = 0) -> dict:
        """The next message from the child.  While it waits, it writes the
        unsent requests; the pipe closing before all but their last ``keep``
        bytes are written is an error."""
        deadline = time.monotonic() + self.timeout
        stdin = self._proc.stdin
        while b"\n" not in self._received:
            if self._unsent and not stdin.closed:
                try:
                    self._unsent = self._unsent[os.write(stdin.fileno(), self._unsent):]
                except BlockingIOError:  # the child's stdin pipe is full until it reads
                    pass
                except BrokenPipeError:  # the child reads no more; its replies may still come
                    stdin.close()
            if len(self._unsent) > keep and stdin.closed:
                raise EvaluationError("external evaluator pipe closed")
            fd = self._proc.stdout.fileno()
            sending = [stdin.fileno()] if self._unsent and not stdin.closed else []
            ready, writable, _ = select.select([fd], sending, [], max(0.0, deadline - time.monotonic()))
            if ready:
                chunk = os.read(fd, 65536)
                if not chunk:
                    raise EvaluationError("external evaluator closed its output")
                self._received += chunk
            elif not writable:
                raise EvaluationError(f"external evaluator timed out after {self.timeout}s")
        line, _, self._received = self._received.partition(b"\n")
        try:
            message = json.loads(line)
        except ValueError:  # not JSON, or not UTF-8
            message = None
        if not isinstance(message, dict):
            raise ProtocolError(f"malformed message from evaluator: {line.decode(errors='replace')!r}")
        return message

    def __call__(self, point) -> float:
        return self._evaluate((np.asarray(point, dtype=float),))[0]

    def batch(self, points) -> list[float]:
        """The losses of the rows of ``points``, as from one call per row.

        Every request of the wave goes out before the first reply is
        awaited.  A wave that fails ends the session: later calls get the
        losses the child did send for the same points, then that error, and
        the child gets no further request."""
        return self._evaluate(np.asarray(points, dtype=float))

    def _evaluate(self, rows) -> list[float]:
        points = [json.dumps(row.tolist()) for row in rows]
        if self._failure is not None:
            return [self._replay(point) for point in points]
        first = self._next_id
        self._next_id += len(points)
        requests = [_request(msg_id, point) for msg_id, point in enumerate(points, first)]
        self._unsent = memoryview(b"".join(requests))
        keep = len(self._unsent)
        values: list[float] = []
        try:
            for msg_id, request in enumerate(requests, first):
                keep -= len(request)
                reply = self._read_message(keep)
                if reply.get("type") != "loss":
                    raise ProtocolError(f"expected a loss reply, got {reply!r}")
                if reply.get("id") != msg_id:
                    raise ProtocolError(
                        f"evaluator answered id {reply.get('id')!r} to request {msg_id}"
                    )
                if not isinstance(reply.get("value"), (int, float)):
                    raise ProtocolError(f"loss reply to request {msg_id} has no numeric value: {reply!r}")
                values.append(float(reply["value"]))
        except Exception as exc:
            self._failure = (list(zip(points, values)), exc)
            raise
        return values

    def _replay(self, point: str) -> float:
        answered, error = self._failure
        if not answered or answered[0][0] != point:
            raise error
        return answered.pop(0)[1]

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


#: ``external_evaluator_session(command, timeout)`` spawns the child and completes the handshake
external_evaluator_session = ExternalEvaluator
