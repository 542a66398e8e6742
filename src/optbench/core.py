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
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

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


@dataclass(eq=False, slots=True)
class Candidate:
    """One proposed point and the losses observed for it.

    Observations are only appended through ``tell``; re-tells of the same
    candidate are legal and used by resampling solvers under noise.

    ``payload`` belongs to the optimizer that created the candidate.  A
    solver stores what its update needs from the ask (a sample direction, a
    population slot) and reads and clears it at the first tell, so a re-tell
    finds ``None`` and the archive keeps no extra vectors.  A composite
    stores the ``(child, child_candidate)`` route and keeps it, so every
    re-tell reaches the child.
    """

    id: int
    point: np.ndarray
    observations: list[float] = field(default_factory=list)
    is_default_center: bool = False
    payload: object = None

    @property
    def num_observations(self) -> int:
        return len(self.observations)

    @property
    def mean_loss(self) -> float:
        return sum(self.observations) / len(self.observations)

    def __repr__(self) -> str:
        return f"Candidate(id={self.id}, point={np.asarray(self.point)!r}, n_obs={len(self.observations)})"


class Optimizer:
    """Base class for all solvers and combinators.

    Subclasses implement ``_ask`` (return a point, a fresh candidate from
    ``_new_candidate(point, payload)``, or an already-issued Candidate to
    request a re-tell), ``_tell``, and optionally ``_recommend``.  The base
    class owns budget accounting, the pending set, the archive, and
    incumbent tracking: strict-improvement replacement in noise-free mode,
    lowest mean loss (ties: more observations, then lower id) in noisy mode.
    Composites derive from ``combinators.RoutingOptimizer``, which routes
    candidates to their children through the payload.

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
        self.num_workers = context.num_workers
        self.noisy = context.noisy
        self.rng = np.random.default_rng(seed)
        self.init_point = None if init_point is None else np.asarray(init_point, dtype=float)
        self.archive: list[Candidate] = []
        self.pending: dict[int, Candidate] = {}
        self.incumbent: Candidate | None = None
        self.num_asks = 0
        self.num_tells = 0
        self._candidates: dict[int, Candidate] = {}
        self._next_id = 0
        self._incumbent_loss = math.inf
        self._incumbent_key: tuple[float, int, int] | None = None  # noisy mode

    # ------------------------------------------------------------------
    # subclass hooks
    def _ask(self) -> "np.ndarray | Candidate":
        raise NotImplementedError

    def _tell(self, candidate: Candidate, loss: float) -> None:
        pass

    def _recommend(self) -> "Candidate | np.ndarray | None":
        return None

    # ------------------------------------------------------------------
    def _new_candidate(self, point, payload=None) -> Candidate:
        cand = Candidate(self._next_id, np.asarray(point, dtype=float), payload=payload)
        self._candidates[self._next_id] = cand
        self._next_id += 1
        return cand

    def ask(self) -> Candidate:
        if self.num_asks >= self.budget:
            raise BudgetExceededError(
                f"budget of {self.budget} evaluations exhausted after {self.num_asks} asks"
            )
        out = self._ask()
        if type(out) is Candidate:
            cand = out
            if self._candidates.get(cand.id) is not cand:
                raise ContractError("solver re-asked a candidate it does not own")
        else:
            cand = self._new_candidate(out)
        self.pending[cand.id] = cand
        self.num_asks += 1
        return cand

    def ask_many(self, n: int) -> list[Candidate]:
        """``n`` asks at once: the candidates, ids and state of ``n`` calls of
        ``ask``.  Asks beyond the budget raise before anything is drawn."""
        if self.num_asks + n > self.budget:
            raise BudgetExceededError(
                f"budget of {self.budget} evaluations cannot cover {n} asks after {self.num_asks}"
            )
        return self._ask_many(n)

    def _ask_many(self, n: int) -> list[Candidate]:
        """A solver that draws a whole wave in one pass overrides this and
        issues the points through ``_book`` (or its own candidates through
        ``_issue``)."""
        return [self.ask() for _ in range(n)]

    def _book(self, points, payloads) -> list[Candidate]:
        """Fresh candidates for ``points`` (float arrays) with the next ids and
        ``payloads``, issued as asks."""
        ids = range(self._next_id, self._next_id + len(points))
        cands = self._issue([Candidate(i, x, payload=p) for i, x, p in zip(ids, points, payloads)])
        self._candidates.update(zip(ids, cands))
        self._next_id = ids.stop
        return cands

    def _issue(self, cands: list[Candidate]) -> list[Candidate]:
        """Issue candidates of this handle as asks, in order: the pending set
        and ask count of ``len(cands)`` ``ask`` calls."""
        self.pending.update((cand.id, cand) for cand in cands)
        self.num_asks += len(cands)
        return cands

    def tell(self, candidate: Candidate, loss: float) -> None:
        loss = float(loss)
        if not math.isfinite(loss):
            raise InvalidLossError(f"loss must be finite, got {loss!r}")
        if self._candidates.get(candidate.id) is not candidate:
            raise ContractError(f"candidate id {candidate.id} unknown to this optimizer")
        observations = candidate.observations
        first = not observations
        observations.append(loss)
        self.pending.pop(candidate.id, None)
        if first:
            self.archive.append(candidate)
        self.num_tells += 1
        self._update_incumbent(candidate, loss)
        self._tell(candidate, loss)

    def recommend(self) -> Candidate:
        if self.num_tells == 0:
            logger.warning("recommend() called before any tell; returning the domain center")
            return Candidate(-1, self.domain.center(), is_default_center=True)
        out = self._recommend()
        if out is None:
            return self.incumbent
        if isinstance(out, Candidate):
            return out
        return Candidate(-2, np.asarray(out, dtype=float))

    # ------------------------------------------------------------------
    def _update_incumbent(self, candidate: Candidate, loss: float) -> None:
        if not self.noisy:
            if loss < self._incumbent_loss:
                self.incumbent = candidate
                self._incumbent_loss = loss
            return
        # only a tell changes a key, so the incumbent's is kept until it is told
        if self.incumbent is None:
            self.incumbent = candidate
        elif candidate is self.incumbent:
            # the incumbent's own mean moved; a full rescan keeps the rule exact
            self.incumbent = min(self.archive, key=self._noisy_key)
        else:
            key = self._noisy_key(candidate)
            if key < self._incumbent_key:
                self.incumbent, self._incumbent_key = candidate, key
            return
        self._incumbent_key = self._noisy_key(self.incumbent)

    @staticmethod
    def _noisy_key(cand: Candidate) -> tuple[float, int, int]:
        return (cand.mean_loss, -len(cand.observations), cand.id)

    @property
    def incumbent_loss(self) -> float:
        if self.incumbent is None:
            return math.inf
        return self.incumbent.mean_loss if self.noisy else self._incumbent_loss


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


def run_loop(
    algorithm,
    function: Callable[[np.ndarray], float],
    context: RunContext,
    checkpoint_callback: Callable[[int, Optimizer], None] | None = None,
) -> tuple[Candidate, list[tuple[int, float]]]:
    """Run ``algorithm`` on ``function`` for exactly ``context.budget`` tells.

    Asks are issued in waves of ``min(num_workers, remaining)``.  A wave of
    more than one candidate is one ``ask_many``; when ``function`` has a
    row-exact ``batch(points)`` (as ``BenchmarkFunction`` does), the wave is
    evaluated by one call of it, else each candidate is evaluated and told
    before the next.  The tells follow in ask order either way, so both
    give the same history.  A batch that raises, or returns other than one
    loss per point, is evaluated again row by row, so an error names the
    evaluation that fails and the history holds the tells before it.  Each
    run is executed independently from scratch; results for budget T are
    not the truncation of a longer run.  Returns ``(recommendation,
    history)`` where history holds ``(evaluation_index, loss)`` pairs.

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
    ask, tell = handle.ask, handle.tell
    batch = getattr(function, "batch", None)
    history: list[tuple[int, float]] = []
    done = 0
    while done < context.budget:
        wave = min(context.num_workers, context.budget - done)
        cands = (ask(),) if wave == 1 else handle.ask_many(wave)
        losses = None
        if wave > 1 and batch is not None:
            try:
                values = batch(np.array([cand.point for cand in cands]))
                losses = iter(np.asarray(values, dtype=float).reshape(wave).tolist())
            except Exception:
                pass  # evaluated row by row below, which names the row that fails
        for cand in cands:
            try:
                loss = float(function(cand.point)) if losses is None else next(losses)
            except Exception as exc:
                raise EvaluationError(
                    f"objective evaluation {done + 1} failed: {exc}", history=history
                ) from exc
            try:
                tell(cand, loss)
            except InvalidLossError as exc:
                raise EvaluationError(str(exc), history=history) from exc
            done += 1
            history.append((done, loss))
        if checkpoint_callback is not None:
            checkpoint_callback(done, handle)
    return handle.recommend(), history
