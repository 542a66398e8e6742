"""Discrete (1+1) evolutionary algorithms and FastGA, one class per registry id.

All of them mutate the current parent assignment: each variable flips with
probability ``r`` to a uniformly drawn different value (at least one
variable is forced to change), and a mutant is accepted when its loss does
not exceed the parent's.  Mixed domains are supported: continuous variables
selected for mutation get a Gaussian kick of one sampling scale.

Rate rules per registry id, with ``d`` the number of variables and ``t`` the
number of tells so far:

    discrete-fixed        r = 1/d
    discrete-lineardecay  r(t) = max(1/d, (1 - t/budget) / 2)
    discrete-adaptive     success: r <- min(1/2, 2 r); failure: r <- max(1/d, r 2^(-1/4))
    discrete-portfolio    r drawn per step from {1/d, sqrt(1/d)/2, 1/2}
    discrete-optimistic   r = 1/d; re-asks the parent with probability 1/2 and
                          accepts by mean loss minus a sqrt(2 ln t / n) bonus

``fastga`` instead draws a mutation strength ``k`` from a power law
``P(k) ~ k^-1.5`` over ``{1..floor(d/2)}`` and changes exactly ``k``
variables; unbounded integers move by ``+-2^j`` doubling steps.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Candidate, Optimizer, RunContext
from ..domain import CATEGORICAL, INTEGER, UNBOUNDED_INTEGER
from ..errors import ConfigurationError


class _ParentMutation(Optimizer):
    """Base of the solvers that mutate one parent, starting at the initial
    point or the domain center, and accept a mutant that is not worse."""

    @classmethod
    def check_context(cls, context: RunContext) -> None:
        if all(v.num_values == 1 for v in context.domain.variables):
            raise ConfigurationError("every variable has a single value; nothing to mutate")

    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        self._mutable = np.array([v.num_values != 1 for v in self.domain.variables])
        self.d = len(self.domain.variables)
        self.parent = self.init_point if self.init_point is not None else self.domain.center()
        self.parent_loss: float | None = None

    def _mutate(self, indices) -> np.ndarray:
        """A copy of the parent with each listed variable changed."""
        child = self.parent.copy()
        for i in indices:
            v = self.domain.variables[i]
            if v.kind in (INTEGER, CATEGORICAL):  # a uniformly drawn different value
                low, high = (v.low, v.high) if v.kind == INTEGER else (0, v.arity - 1)
                draw = int(self.rng.integers(low, high))  # one below the width
                child[i] = float(draw if draw < child[i] else draw + 1)
            elif v.kind == UNBOUNDED_INTEGER:
                j = self.rng.geometric(0.5) - 1  # doubling random walk step
                sign = 1.0 if self.rng.random() < 0.5 else -1.0
                child[i] = child[i] + sign * float(2**j)
            else:  # continuous variable inside a mixed domain
                value = child[i] + v.scale * self.rng.standard_normal()
                if v.lower is not None:
                    value = max(value, v.lower)
                if v.upper is not None:
                    value = min(value, v.upper)
                child[i] = value
        return child

    def _tell(self, candidate: Candidate, loss: float) -> None:
        previous = self.parent_loss
        if previous is None or loss <= previous:
            self.parent = candidate.point.copy()
            self.parent_loss = loss
        if previous is not None:
            self._adapt(loss < previous)

    def _adapt(self, improved: bool) -> None:
        """Called after every tell but the first; ties count as failures."""


class DiscreteOnePlusOne(_ParentMutation):
    """``discrete-fixed``: (1+1) EA at rate 1/d; subclasses change the rate rule."""

    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        self.rate = 1.0 / self.d

    def _current_rate(self) -> float:
        return self.rate

    def _mutant(self) -> np.ndarray:
        rate = self._current_rate()
        while True:
            mask = (self.rng.random(self.d) < rate) & self._mutable
            if mask.any():
                return self._mutate(np.flatnonzero(mask))

    def _ask(self):
        return self._mutant()


class DiscreteLinearDecay(DiscreteOnePlusOne):
    """``discrete-lineardecay``: the rate falls linearly from 1/2 to 1/d."""

    def _current_rate(self) -> float:
        return max(1.0 / self.d, 0.5 * (1.0 - self.num_tells / self.budget))


class DiscreteAdaptive(DiscreteOnePlusOne):
    """``discrete-adaptive``: success doubles the rate, failure shrinks it."""

    def _adapt(self, improved: bool) -> None:
        if improved:
            self.rate = min(0.5, 2.0 * self.rate)
        else:
            self.rate = max(1.0 / self.d, self.rate * 2.0 ** -0.25)


class DiscretePortfolio(DiscreteOnePlusOne):
    """``discrete-portfolio``: each step draws one of three rates."""

    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        rates = (1.0 / self.d, math.sqrt(1.0 / self.d) / 2.0, 0.5)
        self._rates = tuple(min(0.5, max(1.0 / self.d, r)) for r in rates)

    def _current_rate(self) -> float:
        return self._rates[int(self.rng.integers(3))]


class DiscreteOptimistic(DiscreteOnePlusOne):
    """``discrete-optimistic``: resamples the parent and moves by a lower confidence bound."""

    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        self._parent_candidate: Candidate | None = None
        self._seen: dict[bytes, Candidate] = {}

    def _ask(self):
        if self._parent_candidate is not None and self.rng.random() < 0.5:
            return self._parent_candidate  # resample the parent
        child = self._mutant()
        key = child.tobytes()
        if key not in self._seen:
            self._seen[key] = self._new_candidate(child)
        return self._seen[key]  # a revisited assignment keeps its candidate

    def _tell(self, candidate: Candidate, loss: float) -> None:
        parent, t = self._parent_candidate, max(2, self.num_tells)
        if parent is None or (candidate is not parent and self._lcb(candidate, t) <= self._lcb(parent, t)):
            self._parent_candidate = candidate
            self.parent = candidate.point.copy()
            self.parent_loss = candidate.mean_loss

    @staticmethod
    def _lcb(cand: Candidate, t: int) -> float:
        return cand.mean_loss - math.sqrt(2.0 * math.log(t) / cand.num_observations)


def strength_probabilities(d: int) -> np.ndarray:
    """Exact FastGA strength distribution over ``{1..floor(d/2)}``, ``P(k) ~ k^-1.5``."""
    top = max(1, d // 2)
    k = np.arange(1, top + 1, dtype=float)
    weights = k**-1.5
    return weights / weights.sum()


class FastGa(_ParentMutation):
    """Heavy-tailed mutation (1+1) EA for discrete and unbounded domains."""

    @classmethod
    def check_context(cls, context: RunContext) -> None:
        super().check_context(context)
        if len(context.domain.variables) < 2:
            raise ConfigurationError("FastGA needs at least 2 variables")

    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        self._probs = strength_probabilities(self.d)
        self._support = np.arange(1, len(self._probs) + 1)
        self._mutable_indices = np.flatnonzero(self._mutable)

    def sample_strength(self) -> int:
        return int(self.rng.choice(self._support, p=self._probs))

    def _ask(self):
        k = min(self.sample_strength(), len(self._mutable_indices))
        return self._mutate(self.rng.choice(self._mutable_indices, size=k, replace=False))
