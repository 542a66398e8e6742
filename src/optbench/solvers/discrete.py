"""Discrete (1+1) evolutionary algorithms and FastGA.

All variants mutate the current parent assignment: each variable flips with
probability ``r`` to a uniformly drawn different value (at least one
variable is forced to change), and a mutant is accepted when its loss does
not exceed the parent's.  Mixed domains are supported: continuous variables
selected for mutation get a Gaussian kick of one sampling scale.

Rate rules per variant, with ``d`` the number of variables and ``t`` the
number of tells so far:

    fixed            r = 1/d
    linear_decay     r(t) = max(1/d, (1 - t/budget) / 2)
    adaptive         success: r <- min(1/2, 2 r); failure: r <- max(1/d, r 2^(-1/4))
    portfolio        r drawn per step from {1/d, sqrt(1/d)/2, 1/2}
    optimistic_noisy re-asks the parent with probability 1/2 and accepts by
                     mean loss minus a sqrt(2 ln t / n) exploration bonus

FastGA instead draws a mutation strength ``k`` from a power law
``P(k) ~ k^-beta`` over ``{1..floor(d/2)}`` and changes exactly ``k``
variables; unbounded integers move by ``+-2^j`` doubling steps.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Candidate, Optimizer, RunContext
from ..domain import CATEGORICAL, INTEGER, UNBOUNDED_INTEGER
from ..errors import ConfigurationError

VARIANTS = ("fixed", "linear_decay", "adaptive", "portfolio", "optimistic_noisy")


def _mutable_mask(domain) -> np.ndarray:
    return np.array([v.num_values != 1 for v in domain.variables], dtype=bool)


class _DiscreteMutator:
    """Shared variable-wise mutation for the discrete solvers."""

    def __init__(self, domain, rng):
        self.domain = domain
        self.rng = rng
        self.mutable = _mutable_mask(domain)
        self.num_mutable = int(self.mutable.sum())

    def mutate_variable(self, point: np.ndarray, i: int) -> None:
        v = self.domain.variables[i]
        if v.kind == INTEGER:
            point[i] = self._different_int(int(point[i]), v.low, v.high)
        elif v.kind == CATEGORICAL:
            point[i] = self._different_int(int(point[i]), 0, v.arity - 1)
        elif v.kind == UNBOUNDED_INTEGER:
            j = self.rng.geometric(0.5) - 1  # doubling random walk step
            sign = 1.0 if self.rng.random() < 0.5 else -1.0
            point[i] = point[i] + sign * float(2**j)
        else:  # continuous variable inside a mixed domain
            value = point[i] + v.scale * self.rng.standard_normal()
            if v.lower is not None:
                value = max(value, v.lower)
            if v.upper is not None:
                value = min(value, v.upper)
            point[i] = value

    def _different_int(self, current: int, low: int, high: int) -> float:
        draw = int(self.rng.integers(low, high))  # one below the width
        return float(draw if draw < current else draw + 1)

    def mutate_with_rate(self, parent: np.ndarray, rate: float) -> np.ndarray:
        n = len(parent)
        while True:
            mask = (self.rng.random(n) < rate) & self.mutable
            if mask.any():
                break
        child = parent.copy()
        for i in np.flatnonzero(mask):
            self.mutate_variable(child, int(i))
        return child

    def mutate_exactly(self, parent: np.ndarray, k: int) -> np.ndarray:
        idx = self.rng.choice(np.flatnonzero(self.mutable), size=k, replace=False)
        child = parent.copy()
        for i in idx:
            self.mutate_variable(child, int(i))
        return child


class _ParentMutation(Optimizer):
    """Base of the solvers that mutate one parent, starting at the initial
    point or the domain center."""

    @classmethod
    def check_context(cls, context: RunContext) -> None:
        if not _mutable_mask(context.domain).any():
            raise ConfigurationError("every variable has a single value; nothing to mutate")

    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        self._mutator = _DiscreteMutator(self.domain, self.rng)
        self.parent = self.init_point if self.init_point is not None else self.domain.center()
        self.parent_loss: float | None = None


class DiscreteOnePlusOne(_ParentMutation):
    """(1+1) EA over finite (or mixed) alphabets; see module docstring."""

    def __init__(self, context: RunContext, seed: int = 0, init_point=None, variant: str = "fixed"):
        super().__init__(context, seed=seed, init_point=init_point)
        if variant not in VARIANTS:
            raise ConfigurationError(f"unknown discrete variant {variant!r}; known: {VARIANTS}")
        self.variant = variant
        self.d = len(self.domain.variables)
        self.rate = 1.0 / self.d
        self._parent_candidate: Candidate | None = None
        self._seen: dict[bytes, Candidate] = {}
        rates = (1.0 / self.d, math.sqrt(1.0 / self.d) / 2.0, 0.5)
        self._portfolio_rates = tuple(min(0.5, max(1.0 / self.d, r)) for r in rates)

    def _current_rate(self) -> float:
        if self.variant == "linear_decay":
            return max(1.0 / self.d, 0.5 * (1.0 - self.num_tells / self.budget))
        if self.variant == "adaptive":
            return self.rate
        if self.variant == "portfolio":
            return self._portfolio_rates[int(self.rng.integers(3))]
        return 1.0 / self.d

    def _ask(self):
        if (
            self.variant == "optimistic_noisy"
            and self._parent_candidate is not None
            and self.rng.random() < 0.5
        ):
            return self._parent_candidate  # resample the parent
        child = self._mutator.mutate_with_rate(self.parent, self._current_rate())
        if self.variant == "optimistic_noisy":
            key = child.tobytes()
            known = self._seen.get(key)
            if known is not None:
                return known  # revisit an already-seen assignment
            cand = self._new_candidate(child)
            self._seen[key] = cand
            return cand
        return self._new_candidate(child)

    def _tell(self, candidate: Candidate, loss: float) -> None:
        if self.variant == "optimistic_noisy":
            self._tell_optimistic(candidate)
            return
        if self.parent_loss is None:
            self.parent = candidate.point.copy()
            self.parent_loss = loss
            return
        if loss <= self.parent_loss:
            improved = loss < self.parent_loss
            self.parent = candidate.point.copy()
            self.parent_loss = loss
        else:
            improved = False
        if self.variant == "adaptive":
            if improved:
                self.rate = min(0.5, 2.0 * self.rate)
            else:
                self.rate = max(1.0 / self.d, self.rate * 2.0 ** -0.25)

    def _tell_optimistic(self, candidate: Candidate) -> None:
        if self._parent_candidate is None:
            self._adopt(candidate)
            return
        if candidate is self._parent_candidate:
            return
        t = max(2, self.num_tells)
        if self._lcb(candidate, t) <= self._lcb(self._parent_candidate, t):
            self._adopt(candidate)

    def _adopt(self, candidate: Candidate) -> None:
        self._parent_candidate = candidate
        self.parent = candidate.point.copy()
        self.parent_loss = candidate.mean_loss

    @staticmethod
    def _lcb(cand: Candidate, t: int) -> float:
        bonus = math.sqrt(2.0 * math.log(t) / cand.num_observations)
        return cand.mean_loss - bonus


def strength_probabilities(d: int, beta: float) -> np.ndarray:
    """Exact FastGA strength distribution over ``{1..floor(d/2)}``."""
    top = max(1, d // 2)
    k = np.arange(1, top + 1, dtype=float)
    weights = k**-beta
    return weights / weights.sum()


class FastGa(_ParentMutation):
    """Heavy-tailed mutation (1+1) EA for discrete and unbounded domains."""

    @classmethod
    def check_context(cls, context: RunContext) -> None:
        super().check_context(context)
        if len(context.domain.variables) < 2:
            raise ConfigurationError("FastGA needs at least 2 variables")

    def __init__(self, context: RunContext, seed: int = 0, init_point=None, beta: float = 1.5):
        super().__init__(context, seed=seed, init_point=init_point)
        if beta <= 1.0:
            raise ConfigurationError("the power-law exponent beta must exceed 1")
        self.beta = beta
        self._probs = strength_probabilities(len(self.domain.variables), beta)
        self._support = np.arange(1, len(self._probs) + 1)

    def sample_strength(self) -> int:
        return int(self.rng.choice(self._support, p=self._probs))

    def _ask(self):
        k = min(self.sample_strength(), self._mutator.num_mutable)
        return self._mutator.mutate_exactly(self.parent, k)

    def _tell(self, candidate: Candidate, loss: float) -> None:
        if self.parent_loss is None or loss <= self.parent_loss:
            self.parent = candidate.point.copy()
            self.parent_loss = loss
