"""Algorithm composition: chaining, bet-and-run, progressive widening.

Every composite (the three here, ``MetamodelWrapper`` and ``SoftmaxBridge``)
is a :class:`RoutingOptimizer` with the constructor ``(context, spec,
builder, path, seed, init_point)``.  It builds its children on demand with
``builder(child_spec, child_context, path + (index,), init_point)`` and
routes candidates to them:

- ``_wrap(child, child_cand, lift)`` returns a new outer candidate for each
  fresh child candidate, with the payload ``(weakref.ref(child),
  child_cand)`` and the point ``lift`` maps the child's point to, if any;
- the inherited ``_tell`` forwards every tell and re-tell of a routed
  candidate to its child while the child lives, then calls ``_after_tell``.
  Candidates a composite makes itself (surrogate proposals) carry no route.

What a composite keeps: the payload holds its child candidate strongly, so
a re-tell reaches a live child, but it links the child itself weakly.  The
composite holds its live children (a chain's ``_active``, bet-and-run's
``children``, progressive widening's ``_child``, the wrappers' ``child``
and ``inner``).  No handle, a probe solver included, sits in a reference
cycle, so every child it has retired (a chain's finished child, a narrower
prefix child), never asked again and read by nothing, is freed at once,
even while a noisy handle's ``archive`` keeps the outer candidates it made;
tells of its candidates stop at the composite.

Each composite's classmethod ``child_contexts(spec, context)`` is the one
place that decides what its children get: their run contexts in build
order, None for a child that is never built, or a ConfigurationError when
the context cannot cover them.  The constructor reads only that method, and
``wizard.validate_spec`` walks a whole tree through it before the root is
built, so a lazily built child cannot fail in the middle of a run.

Ids stay local to each handle and budgets are conserved exactly.  A wave
goes to the child ``_wave_child`` names (chain: the active child; bet-and-run:
the survivor) when that child has room for all of it, else ask by ask.
"""

from __future__ import annotations

import math
import weakref
from typing import Callable

import numpy as np

from .core import Candidate, Optimizer, RunContext
from .domain import DomainSpec
from .errors import ConfigurationError

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

    def _build(self, index: int, spec, context: RunContext, init_point) -> Optimizer:
        return self._builder(spec, context, self._path + (index,), init_point)

    def _wrap(self, child: Optimizer, child_cand: Candidate, lift=None) -> Candidate:
        """The outer candidate for ``child_cand``; ``lift`` maps a child point to an outer point."""
        point = child_cand.point if lift is None else lift(child_cand.point)
        return self._new_candidate(point, payload=(weakref.ref(child), child_cand))

    def _wave_child(self) -> Optimizer | None:
        """The child that takes the next wave, or None to ask it ask by ask."""
        return None

    def _ask_many(self, n: int) -> list[Candidate]:
        child = self._wave_child()
        if child is None or child.budget - child.num_asks < n:
            return super()._ask_many(n)  # e.g. a hand-off inside the wave
        return [self._wrap(child, cc) for cc in child.ask_many(n)]

    def free_asks(self) -> int:
        # capped by its room: a chain's next child starts from the incumbent, after the tells
        child = self._wave_child()
        return 1 if child is None else max(1, min(child.free_asks(), child.budget - child.num_asks))

    def _tell(self, candidate: Candidate, loss: float) -> None:
        if candidate.payload is not None:
            link, child_cand = candidate.payload
            child = link()
            if child is not None:  # a retired child is freed and told nothing
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

    The final recommendation is the last child's recommendation; a
    noise-free chain falls back to the global incumbent when the
    recommendation has been observed to be worse.  A noisy chain's incumbent
    is the lowest of single noisy draws, so it has no fallback and warm-starts
    each child from the recommendation of the one before.
    """

    @classmethod
    def child_contexts(cls, spec, context: RunContext):
        allocs = chain_allocations(context.budget, spec.fractions, spec.asks)
        return [context.with_budget(alloc) if alloc > 0 else None for alloc in allocs]

    def __init__(self, context, spec, builder, path=(), seed=0, init_point=None):
        super().__init__(context, spec, builder, path, seed, init_point)
        self._contexts = self.child_contexts(spec, context)
        self._active_index = -1
        self._advance()

    def _advance(self) -> None:
        # the allocations sum to the budget, so a child with asks left
        # follows until the last ask
        self._active_index += 1
        while self._contexts[self._active_index] is None:
            self._active_index += 1
        init = self.init_point
        if self.incumbent is not None:
            init = self.recommend().point if self.noisy else self.incumbent.point
        self._active = self._build(
            self._active_index,
            self.spec.children[self._active_index],
            self._contexts[self._active_index],
            init,
        )

    def _ask(self) -> Candidate:
        while self._active.num_asks >= self._active.budget:
            self._advance()
        return self._wrap(self._active, self._active.ask())

    def _wave_child(self) -> Optimizer:
        return self._active

    def _recommend(self):
        if self._active.num_tells == 0:
            return None
        rec = self._active.recommend()
        if not self.noisy and rec.observations and rec.mean_loss > self.incumbent_loss:
            return self.incumbent
        return rec


class BetAndRunOptimizer(RoutingOptimizer):
    """Phase 1 splits a budget slice round-robin over all children; the
    child with the best told loss survives and gets everything left."""

    @classmethod
    def child_contexts(cls, spec, context: RunContext):
        """Child i runs its phase-1 share, then everything after phase 1."""
        m = len(spec.children)
        phase_total = int(context.budget * spec.phase_fraction)
        base = phase_total // m
        if base < 1:
            raise ConfigurationError(
                f"phase-1 budget {phase_total} cannot cover {m} children"
            )
        shares = [base + (phase_total - base * m if i == 0 else 0) for i in range(m)]
        return [context.with_budget(share + context.budget - phase_total) for share in shares]

    def __init__(self, context, spec, builder, path=(), seed=0, init_point=None):
        super().__init__(context, spec, builder, path, seed, init_point)
        contexts = self.child_contexts(spec, context)
        rest = context.budget - int(context.budget * spec.phase_fraction)
        self._phase_allocs = [child_context.budget - rest for child_context in contexts]
        self.children = [
            self._build(i, child, child_context, init_point)
            for i, (child, child_context) in enumerate(zip(spec.children, contexts))
        ]
        self._best: list[float] = [math.inf] * len(contexts)
        self._cursor = 0
        self.survivor: int | None = None

    def _ask(self) -> Candidate:
        if self.survivor is None and all(
            child.num_asks >= alloc for child, alloc in zip(self.children, self._phase_allocs)
        ):
            self._pick_survivor()
        if self.survivor is not None:
            idx = self.survivor
        else:
            idx = self._cursor % len(self.children)
            while self.children[idx].num_asks >= self._phase_allocs[idx]:
                self._cursor += 1
                idx = self._cursor % len(self.children)
            self._cursor += 1
        child = self.children[idx]
        return self._wrap(child, child.ask())

    def _wave_child(self) -> Optimizer | None:
        return None if self.survivor is None else self.children[self.survivor]

    def _after_tell(self, candidate: Candidate, loss: float) -> None:
        idx = self.children.index(candidate.payload[0]())
        if loss < self._best[idx]:
            self._best[idx] = loss
        # distinct candidates, so a re-tell cannot end phase 1 before every
        # child has had its phase-1 asks
        if self.survivor is None and sum(child.num_told for child in self.children) >= sum(self._phase_allocs):
            self._pick_survivor()

    def _pick_survivor(self) -> None:
        # ties go to the lowest child index
        self.survivor = int(np.argmin(self._best))

    def _recommend(self):
        if self.survivor is None or self.children[self.survivor].num_tells == 0:
            return None
        return self.children[self.survivor].recommend()


class ProgressiveWidening(RoutingOptimizer):
    """Optimize a growing prefix of coordinates, pinning the rest.

    After ``t`` told candidates (a re-tell adds none) only the first
    ``active(t) = min(d, 1 + floor(t / step))`` coordinates are free, with
    ``step = ceil(0.8 budget / d)``; the child on the k-prefix is built at
    the first ask that widens to k, warm-started from the best point, with
    the budget left after ``(k - 1) step`` evaluations.
    """

    @staticmethod
    def _widening_step(context: RunContext) -> int:
        return max(1, math.ceil(0.8 * context.budget / len(context.domain.variables)))

    @classmethod
    def child_contexts(cls, spec, context: RunContext):
        """Lazily, the context of the k-prefix child for every k reached
        before the budget ends."""
        if not context.domain.all_continuous:
            raise ConfigurationError("progressive widening needs a continuous domain")
        variables = context.domain.variables
        step = cls._widening_step(context)
        widest = min(len(variables), 1 + (context.budget - 1) // step)
        return (
            context.with_budget(context.budget - (k - 1) * step, DomainSpec(variables[:k]))
            for k in range(1, widest + 1)
        )

    def __init__(self, context, spec, builder, path=(), seed=0, init_point=None):
        super().__init__(context, spec, builder, path, seed, init_point)
        self._contexts = self.child_contexts(spec, context)
        self._step = self._widening_step(context)
        self._center = self.domain.center()
        self._active_dims = 0
        self._child: Optimizer | None = None

    def active_dims(self, tells: int) -> int:
        return min(len(self.domain.variables), 1 + tells // self._step)

    def _ensure_child(self) -> Optimizer:
        k = self.active_dims(self.num_told)
        if k > self._active_dims:
            while self._active_dims < k:  # several widenings at once under parallel asks
                child_context = next(self._contexts)
                self._active_dims += 1
            init = None
            if self.incumbent is not None:
                init = self.incumbent.point[:k]
            elif self.init_point is not None:
                init = self.init_point[:k]
            self._child = self._build(k - 1, self.spec.child, child_context, init)
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
