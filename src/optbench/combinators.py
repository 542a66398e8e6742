"""Algorithm composition: chaining, bet-and-run, progressive widening.

Every composite (the three here, ``MetamodelWrapper`` and ``SoftmaxBridge``)
is a :class:`RoutingOptimizer` with the constructor ``(context, spec,
builder, path, seed, init_point)``.  It builds its children on demand with
``builder(child_spec, child_context, path + (index,), init_point)`` and
routes candidates to them:

- ``_wrap(child, child_cand, lift)`` returns the outer candidate for a child
  candidate, a new one with the payload ``(child, child_cand)`` or, when the
  child re-asks one of its own candidates, the outer candidate it already
  has;
- the inherited ``_tell`` forwards every tell and re-tell of a routed
  candidate to its child, then calls ``_after_tell``.  Candidates a
  composite makes itself (surrogate proposals) carry no route.

Ids stay local to each handle, budgets are conserved exactly, and the
parallelism contract forwards to the active child.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Callable

import numpy as np

from .core import Candidate, Optimizer, RunContext
from .domain import DomainSpec
from .errors import BudgetExceededError, ConfigurationError

#: builder(child_spec, child_context, child_path, init_point) -> Optimizer
ChildBuilder = Callable[..., Optimizer]


class RoutingOptimizer(Optimizer):
    """Base of every composite: child construction and candidate routing."""

    def __init__(
        self,
        context: RunContext,
        spec,
        builder: ChildBuilder,
        path: tuple = (),
        seed: int = 0,
        init_point=None,
    ):
        super().__init__(context, seed=seed, init_point=init_point)
        self.spec = spec
        self._builder = builder
        self._path = path
        self._outer: dict[Candidate, Candidate] = {}  # child candidate -> outer candidate

    def _build(self, index: int, spec, context: RunContext, init_point) -> Optimizer:
        return self._builder(spec, context, self._path + (index,), init_point)

    def _wrap(self, child: Optimizer, child_cand: Candidate, lift=None) -> Candidate:
        """The outer candidate for ``child_cand``; ``lift`` maps a child point
        to an outer point and runs only when the candidate is new."""
        cand = self._outer.get(child_cand)
        if cand is None:
            point = child_cand.point if lift is None else lift(child_cand.point)
            cand = self._new_candidate(point, payload=(child, child_cand))
            self._outer[child_cand] = cand
        return cand

    def _tell(self, candidate: Candidate, loss: float) -> None:
        if candidate.payload is not None:
            child, child_cand = candidate.payload
            child.tell(child_cand, loss)
        self._after_tell(candidate, loss)

    def _after_tell(self, candidate: Candidate, loss: float) -> None:
        pass


def chain_allocations(budget: int, fractions, asks) -> list[int]:
    """Per-child evaluation counts: absolute ask counts first, floored
    fractions of the remainder after them, leftover to the last fractional
    child.
    """
    n = len(fractions)
    allocs = [0] * n
    remaining = budget
    for i in range(n):
        if asks[i] is not None:
            allocs[i] = min(asks[i], remaining)
            remaining -= allocs[i]
    net = remaining
    last_fractional = None
    for i in range(n):
        if asks[i] is None:
            allocs[i] = int(net * fractions[i])
            remaining -= allocs[i]
            last_fractional = i
    if last_fractional is not None:
        allocs[last_fractional] += remaining
    elif remaining > 0:
        allocs[-1] += remaining  # all-absolute chains roll leftovers to the end
    return allocs


class ChainOptimizer(RoutingOptimizer):
    """Run children in turn; each starts from the best point found so far.

    The final recommendation is the last child's recommendation, with the
    global incumbent as fallback when the recommendation has been observed
    to be worse.
    """

    def __init__(self, context, spec, builder, path=(), seed=0, init_point=None):
        super().__init__(context, spec, builder, path, seed, init_point)
        self._allocs = chain_allocations(context.budget, spec.fractions, spec.asks)
        self._active_index = -1
        self._active: Optimizer | None = None
        self._last_built: Optimizer | None = None
        self._active_alloc = 0
        self._unused = 0  # rolled over from children that quit early
        self._advance()

    def _advance(self) -> None:
        while True:
            self._active_index += 1
            if self._active_index >= len(self.spec.children):
                self._active = None
                return
            alloc = self._allocs[self._active_index] + self._unused
            self._unused = 0
            if alloc <= 0:
                continue
            child_context = self.context.with_budget(alloc)
            init = self.incumbent.point if self.incumbent is not None else self.init_point
            self._active = self._build(
                self._active_index, self.spec.children[self._active_index], child_context, init
            )
            self._last_built = self._active
            self._active_alloc = alloc
            return

    def _ask(self) -> Candidate:
        while self._active is not None and self._active.num_asks >= self._active_alloc:
            self._advance()
        if self._active is None:
            raise BudgetExceededError("chain children exhausted their allocations")
        try:
            child_cand = self._active.ask()
        except BudgetExceededError:
            # an early-stopping child rolls its remaining budget forward
            self._unused = self._active_alloc - self._active.num_asks
            self._advance()
            if self._active is None:
                raise
            child_cand = self._active.ask()
        return self._wrap(self._active, child_cand)

    def _recommend(self):
        final = self._active or self._last_built
        if final is None or final.num_tells == 0:
            return None
        rec = final.recommend()
        if rec.observations and self.incumbent is not None and rec.mean_loss > self.incumbent_loss:
            return self.incumbent
        return rec


class BetAndRunOptimizer(RoutingOptimizer):
    """Phase 1 splits a budget slice round-robin over all children; the
    child with the best told loss survives and gets everything left."""

    def __init__(self, context, spec, builder, path=(), seed=0, init_point=None):
        super().__init__(context, spec, builder, path, seed, init_point)
        m = len(spec.children)
        phase_total = int(context.budget * spec.phase_fraction)
        base = phase_total // m
        if base < 1:
            raise ConfigurationError(
                f"phase-1 budget {phase_total} cannot cover {m} children"
            )
        self._phase_allocs = [base + (phase_total - base * m if i == 0 else 0) for i in range(m)]
        rest = context.budget - phase_total
        self.children = [
            self._build(i, child, context.with_budget(self._phase_allocs[i] + rest), init_point)
            for i, child in enumerate(spec.children)
        ]
        self._best: list[float] = [math.inf] * m
        self._cursor = 0
        self.survivor: int | None = None

    def _phase1_done(self) -> bool:
        return all(
            child.num_asks >= alloc for child, alloc in zip(self.children, self._phase_allocs)
        )

    def _ask(self) -> Candidate:
        if self.survivor is None and self._phase1_done():
            self._pick_survivor()
        if self.survivor is not None:
            idx = self.survivor
        else:
            idx = self._cursor % len(self.children)
            probes = 0
            while self.children[idx].num_asks >= self._phase_allocs[idx]:
                self._cursor += 1
                idx = self._cursor % len(self.children)
                probes += 1
                if probes > len(self.children):
                    raise BudgetExceededError("phase-1 allocations exhausted")
            self._cursor += 1
        child = self.children[idx]
        return self._wrap(child, child.ask())

    def _after_tell(self, candidate: Candidate, loss: float) -> None:
        idx = self.children.index(candidate.payload[0])
        if loss < self._best[idx]:
            self._best[idx] = loss
        if self.survivor is None and self.num_tells >= sum(self._phase_allocs):
            self._pick_survivor()

    def _pick_survivor(self) -> None:
        # ties go to the lowest child index
        self.survivor = int(np.argmin(self._best))

    def _recommend(self):
        if self.survivor is not None:
            rec = self.children[self.survivor].recommend()
            if not rec.is_default_center:
                return rec
        return None


class ProgressiveWidening(RoutingOptimizer):
    """Optimize a growing prefix of coordinates, pinning the rest.

    At evaluation ``t`` only the first ``active(t) = min(d, 1 + floor(t /
    ceil(0.8 budget / d)))`` coordinates are free; the child is rebuilt on
    the wider subspace at each widening, warm-started from the best point.
    """

    def __init__(self, context, spec, builder, path=(), seed=0, init_point=None):
        super().__init__(context, spec, builder, path, seed, init_point)
        if not self.domain.all_continuous:
            raise ConfigurationError("progressive widening needs a continuous domain")
        d = len(self.domain.variables)
        self._step = max(1, math.ceil(0.8 * context.budget / d))
        self._center = self.domain.center()
        self._active_dims = 0
        self._child: Optimizer | None = None
        self._rebuilds = 0

    def active_dims(self, tells: int) -> int:
        return min(len(self.domain.variables), 1 + tells // self._step)

    def _ensure_child(self) -> Optimizer:
        k = self.active_dims(self.num_tells)
        if self._child is None or k > self._active_dims:
            self._active_dims = k
            child_context = replace(
                self.context.with_budget(max(1, self.budget - self.num_tells)),
                domain=DomainSpec(self.domain.variables[:k]),
            )
            init = None
            if self.incumbent is not None:
                init = self.incumbent.point[:k]
            elif self.init_point is not None:
                init = self.init_point[:k]
            self._child = self._build(self._rebuilds, self.spec.child, child_context, init)
            self._rebuilds += 1
        return self._child

    def _lift(self, prefix: np.ndarray) -> np.ndarray:
        point = self._center.copy()
        point[: len(prefix)] = prefix
        return point

    def _ask(self) -> Candidate:
        child = self._ensure_child()
        return self._wrap(child, child.ask(), self._lift)

    def _recommend(self):
        if self._child is None or self._child.num_tells == 0:
            return None
        return self._lift(self._child.recommend().point)
