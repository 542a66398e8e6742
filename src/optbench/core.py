"""Ask/tell/recommend optimizer contract and the evaluation run loop.

The interaction pattern is: ``ask`` proposes a candidate, ``tell`` reports
its loss, ``recommend`` returns the solver's estimate of the optimum, which
is allowed to differ from any asked point.  Parallelism is modeled logically
through up to ``num_workers`` asked-but-untold candidates; handles are
single-threaded and never spawn threads themselves.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import count
from typing import Callable

import numpy as np

from .domain import CATEGORICAL_NEEDS_BRIDGE, DomainSpec
from .errors import (
    BudgetExceededError,
    ConfigurationError,
    ContractError,
    EvaluationError,
    InvalidLossError,
)

logger = logging.getLogger(__name__)

#: the dtype of every point; a float64 ndarray is taken as it is
_FLOAT64 = np.dtype(float)


@dataclass(frozen=True)
class RunContext:
    """Everything an optimizer may know about a run before it starts."""

    domain: DomainSpec
    budget: int
    num_workers: int = 1
    noisy: bool = False
    master_seed: int = 0

    def __post_init__(self):
        if self.budget < 1:
            raise ConfigurationError("budget must be a positive integer")
        if not (1 <= self.num_workers <= self.budget):
            raise ConfigurationError("num_workers must satisfy 1 <= w <= budget")

    def with_budget(self, budget: int, domain: DomainSpec | None = None) -> "RunContext":
        """This context with another budget, and optionally another domain."""
        return replace(
            self,
            budget=budget,
            num_workers=min(self.num_workers, budget),
            domain=self.domain if domain is None else domain,
        )


class Candidate:
    """One proposed point and the losses observed for it.

    Every ask issues a fresh candidate, with no observations and an id its
    handle never issued before, and ``tell`` appends its one loss.  So a
    handle's own candidates hold one loss each; ``observations`` is a list
    because a recommendation may carry several (``discrete-optimistic``
    recommends an assignment with all the losses told for it).  Candidates
    compare by identity.

    ``payload`` belongs to the optimizer that created the candidate.  A
    solver stores what its update needs from the ask (a sample direction, a
    population slot) and reads and clears it at the tell, so a told
    candidate holds no extra vectors.  A composite stores the
    ``(weakref.ref(child), child_candidate)`` route, through which the tell
    reaches the child.
    """

    __slots__ = ("id", "point", "observations", "payload")

    def __init__(self, id: int, point: np.ndarray, observations: list[float] | None = None,
                 payload: object = None):
        self.id = id
        self.point = point
        self.observations = [] if observations is None else observations
        self.payload = payload

    @property
    def mean_loss(self) -> float:
        return sum(self.observations) / len(self.observations)

    def __repr__(self) -> str:
        return f"Candidate(id={self.id}, point={np.asarray(self.point)!r}, n_obs={len(self.observations)})"


class Optimizer:
    """Base class for all solvers and combinators.

    Subclasses implement ``_ask`` (a point or a fresh ``_new_candidate(point,
    payload)``), ``_tell``, and optionally ``_ask_many`` (a wave in one pass)
    and ``_recommend``.  The hooks only make candidates, a fresh one per ask;
    ``ask`` and ``ask_many`` alone issue them.
    The base class owns budget accounting, the pending set and incumbent
    tracking.  ``tell`` takes each pending candidate exactly once and raises
    a ContractError for any other (one told already, or asked from another
    handle) before it changes anything.  The incumbent is the first
    candidate with the strictly lowest told loss, in noisy mode too: with
    one loss per candidate that is the lowest mean, and a noisy solver's
    ``_recommend`` gives its aggregate estimate instead.
    Composites derive from ``combinators.RoutingOptimizer``, which routes
    candidates to their children through the payload.

    A handle holds its pending candidates and its incumbent, not the
    candidates it was told: ``num_tells`` counts them.

    ``check_context`` raises the ConfigurationError of a context the solver
    cannot run on.  The constructor calls it first, and
    ``wizard.validate_spec`` calls it on every context a spec tree gives a
    leaf, so a lazily built leaf cannot fail in the middle of a run.
    """

    #: generation-based solvers expose their population size for combinators
    generation_size: int | None = None

    @classmethod
    def check_context(cls, context: RunContext) -> None:
        pass

    def __init__(self, context: RunContext, seed: int = 0, init_point: Sequence[float] | None = None):
        self.check_context(context)
        self.domain = context.domain
        self.budget = context.budget
        self.noisy = context.noisy
        self.rng = np.random.default_rng(seed)
        self.init_point = None if init_point is None else np.asarray(init_point, dtype=float)
        self.pending: dict[int, Candidate] = {}
        self.incumbent: Candidate | None = None
        self.num_asks = 0
        self.num_tells = 0
        self.incumbent_loss = math.inf
        self._next_id = 0

    # ------------------------------------------------------------------
    # subclass hooks
    def _ask(self) -> "np.ndarray | Candidate":
        raise NotImplementedError

    def _tell(self, candidate: Candidate, loss: float) -> None:
        pass

    def _recommend(self) -> "Candidate | np.ndarray | None":
        return None

    # ------------------------------------------------------------------
    def _register(self, out: "np.ndarray | Candidate") -> Candidate:
        return out if type(out) is Candidate else self._new_candidate(out)

    def _new_candidate(self, point, payload=None) -> Candidate:
        if type(point) is not np.ndarray or point.dtype is not _FLOAT64:
            point = np.asarray(point, dtype=float)
        cand = Candidate(self._next_id, point, None, payload)
        self._next_id += 1
        return cand

    def ask(self) -> Candidate:
        if self.num_asks >= self.budget:
            raise BudgetExceededError(
                f"budget of {self.budget} evaluations exhausted after {self.num_asks} asks"
            )
        cand = self._register(self._ask())
        self.pending[cand.id] = cand
        self.num_asks += 1
        return cand

    def free_asks(self) -> int:
        """How many asks this handle can issue now whose points no tell before
        them would change (at least 1).  A solver that fixes a whole
        generation before its first tell overrides it."""
        return 1

    def ask_many(self, n: int) -> list[Candidate]:
        """``n`` asks at once: the candidates, ids and state of ``n`` calls of
        ``ask``.  Asks beyond the budget raise before anything is drawn."""
        if self.num_asks + n > self.budget:
            raise BudgetExceededError(
                f"budget of {self.budget} evaluations cannot cover {n} asks after {self.num_asks}"
            )
        cands = self._ask_many(n) if n else []
        pending = self.pending
        for cand in cands:
            pending[cand.id] = cand
        self.num_asks += n
        return cands

    def _ask_many(self, n: int) -> list[Candidate]:
        """The ``n`` candidates of a wave, made but not issued: ``ask_many``
        issues them.  A solver that draws a whole wave in one pass overrides
        this and makes its points into candidates through ``_book``."""
        return [self._register(self._ask()) for _ in range(n)]

    def _book(self, points, payloads) -> list[Candidate]:
        """Fresh candidates for ``points`` (float arrays), the next ids and ``payloads``."""
        ids = range(self._next_id, self._next_id + len(points))
        cands = [Candidate(i, x, None, p) for i, x, p in zip(ids, points, payloads)]
        self._next_id = ids.stop
        return cands

    def tell(self, candidate: Candidate, loss: float) -> None:
        loss = float(loss)
        if not math.isfinite(loss):
            raise InvalidLossError(f"loss must be finite, got {loss!r}")
        if self.pending.get(candidate.id) is not candidate:
            raise ContractError(f"candidate id {candidate.id} is not pending on this optimizer")
        del self.pending[candidate.id]
        candidate.observations.append(loss)
        self.num_tells += 1
        if loss < self.incumbent_loss:
            self.incumbent = candidate
            self.incumbent_loss = loss
        self._tell(candidate, loss)

    def recommend(self) -> Candidate:
        """The recommendation.  Before any tell it is the domain center as candidate id
        -1; after, ``_recommend``'s (a point becomes candidate id -2) or the incumbent."""
        if self.num_tells == 0:
            logger.warning("recommend() called before any tell; returning the domain center")
            return Candidate(-1, self.domain.center())
        out = self._recommend()
        if out is None:
            return self.incumbent
        if isinstance(out, Candidate):
            return out
        return Candidate(-2, np.asarray(out, dtype=float))


#: rows of one ``ScalarSolver`` normal block
NORMAL_BLOCK_ROWS = 64


class ScalarSolver(Optimizer):
    """Base of the solvers that search the domain's standardized scalar view.

    ``_z0`` is the standardized start point: the initial point, or the
    domain center.  ``_normal_row(width)`` hands out the rows of one
    ``standard_normal((NORMAL_BLOCK_ROWS, width))`` block, and
    ``_normal_rows(n, width)`` the next n of them at once.  One ``(n, k)``
    draw equals n sequential length-k draws bit for bit, so a solver that
    draws nothing else from ``self.rng`` and always asks for the same width
    sees the stream of per-ask draws.
    """

    @classmethod
    def check_context(cls, context: RunContext) -> None:
        if context.domain.has_categorical:  # builds no ScalarView
            raise ConfigurationError(CATEGORICAL_NEEDS_BRIDGE)

    def __init__(self, context: RunContext, seed: int = 0, init_point: Sequence[float] | None = None):
        super().__init__(context, seed=seed, init_point=init_point)
        self._view = self.domain.scalar_view
        self._z0 = self._view.encode(self.init_point) if self.init_point is not None else np.zeros(self._view.dim)
        self._normals = np.empty((0, 0))
        self._normals_used = 0

    def _normal_row(self, width: int) -> np.ndarray:
        if self._normals_used == len(self._normals):
            self._normals = self.rng.standard_normal((NORMAL_BLOCK_ROWS, width))
            self._normals_used = 0
        row = self._normals[self._normals_used]
        self._normals_used += 1
        return row

    def _normal_rows(self, n: int, width: int) -> np.ndarray:
        """The next ``n`` rows of ``_normal_row(width)`` as one ``(n, width)`` array."""
        parts = []
        while n:
            if self._normals_used == len(self._normals):
                self._normals = self.rng.standard_normal((NORMAL_BLOCK_ROWS, width))
                self._normals_used = 0
            start = self._normals_used
            self._normals_used = min(start + n, len(self._normals))
            parts.append(self._normals[start : self._normals_used])
            n -= self._normals_used - start
        return parts[0] if len(parts) == 1 else np.concatenate(parts)


class History(Sequence):
    """A run's ``(evaluation, loss)`` pairs, the evaluations counted from 1.

    The losses are kept in one ``array('d')``, 8 bytes per evaluation; a
    pair is made only when it is read.  A history equals a list or tuple of
    the same pairs.
    """

    __slots__ = ("losses",)

    def __init__(self):
        self.losses = array("d")

    def __len__(self) -> int:
        return len(self.losses)

    def __iter__(self):
        return zip(count(1), self.losses)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [(i + 1, self.losses[i]) for i in range(len(self.losses))[index]]
        i = range(len(self.losses))[index]
        return i + 1, self.losses[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, (History, list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"History({list(self)!r})"


def _evaluation_failed(done: int, exc: Exception, history: History) -> EvaluationError:
    return EvaluationError(f"objective evaluation {done + 1} failed: {exc}", history=history)


def run_loop(
    algorithm,
    function: Callable[[np.ndarray], float],
    context: RunContext,
    checkpoint_callback: Callable[[int, Optimizer], None] | None = None,
) -> tuple[Candidate, History]:
    """Run ``algorithm`` on ``function`` for exactly ``context.budget`` tells.

    Asks are issued in waves of ``min(num_workers, remaining)``.  A wave of
    more than one candidate is one ``ask_many``; when ``function`` has a
    row-exact ``batch(points)`` (as ``BenchmarkFunction`` does), the wave is
    evaluated by one call of it, else row by row.  The tells follow in ask
    order either way, so both give the same history.  A batch that raises,
    or returns other than one loss per point, is evaluated again row by
    row, so an error names the evaluation that fails and the history holds
    the tells before it.  Each run is executed independently from scratch;
    results for budget T are not the truncation of a longer run.  Returns
    ``(recommendation, history)`` where history is a :class:`History` of
    ``(evaluation_index, loss)`` pairs.

    A serial run (``num_workers == 1``) asks ``min(handle.free_asks(),
    remaining)`` candidates per wave instead: the rest of a CMA-ES or TBPSA
    generation, whose points no tell before them changes, is one wave.  A
    serial run calls ``checkpoint_callback`` after every tell, so it sees
    the ``done`` values and recommendations of one-at-a-time ask and tell;
    a parallel run calls it after each wave.

    ``algorithm`` may be an :class:`Optimizer`, an algorithm spec tree, or a
    spec string such as ``"chain(cma,powell;0.5,0.5)"``.
    """
    if isinstance(algorithm, Optimizer):
        handle = algorithm
    else:
        from .wizard import build_optimizer

        handle = build_optimizer(algorithm, context)
    fdomain = getattr(function, "domain", None)
    if fdomain is not None and fdomain != context.domain:
        raise ContractError("function domain does not match the run context domain")
    ask, tell, free_asks, ask_many = handle.ask, handle.tell, handle.free_asks, handle.ask_many
    batch = getattr(function, "batch", None)
    budget, workers = context.budget, context.num_workers
    serial = workers == 1
    history = History()
    record = history.losses.append
    done = 0
    while done < budget:
        wave = min(free_asks() if serial else workers, budget - done)
        if wave == 1:
            cand = ask()
            try:
                loss = float(function(cand.point))
            except Exception as exc:
                raise _evaluation_failed(done, exc, history) from exc
            try:
                tell(cand, loss)
            except InvalidLossError as exc:
                raise EvaluationError(str(exc), history=history) from exc
            done += 1
            record(loss)
            if checkpoint_callback is not None:
                checkpoint_callback(done, handle)
            continue
        cands = ask_many(wave)
        losses = None
        if batch is not None:
            try:
                values = batch(np.array([cand.point for cand in cands]))
                losses = iter(np.asarray(values, dtype=float).reshape(wave).tolist())
            except Exception:
                pass  # evaluated row by row below, which names the row that fails
        for i, cand in enumerate(cands, 1):
            try:
                loss = float(function(cand.point)) if losses is None else next(losses)
            except Exception as exc:
                raise _evaluation_failed(done, exc, history) from exc
            try:
                tell(cand, loss)
            except InvalidLossError as exc:
                raise EvaluationError(str(exc), history=history) from exc
            done += 1
            record(loss)
            if checkpoint_callback is not None and (serial or i == wave):
                checkpoint_callback(done, handle)
    return handle.recommend(), history
