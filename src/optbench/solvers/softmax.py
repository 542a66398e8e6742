"""Softmax bridge: run a continuous optimizer over categorical logits.

Each categorical variable of arity ``a`` becomes a block of ``a`` unbounded
continuous logits; integers and continuous variables pass through.  Asks
realize categories stochastically from ``softmax(logits / temperature)``;
the recommendation decodes deterministically by argmax with ties going to
the lowest category index, so it is always a valid domain point.

Domains without categorical variables degrade to a pure pass-through
wrapper (the inner solver already handles integers by rounding), which
keeps the conversion total for every finite-alphabet domain.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..combinators import RoutingOptimizer
from ..core import Candidate
from ..domain import CATEGORICAL, DomainSpec, continuous
from ..errors import ConfigurationError


def logit_domain(domain: DomainSpec) -> DomainSpec:
    """The continuous-or-integer inner domain seen by the wrapped solver."""
    variables = []
    for v in domain.variables:
        if v.kind == CATEGORICAL:
            variables.extend(continuous(scale=1.0) for _ in range(v.arity))
        else:
            variables.append(v)
    return DomainSpec(variables)


def softmax_probabilities(logits: np.ndarray, temperature: float) -> np.ndarray:
    z = np.asarray(logits, dtype=float) / temperature
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


class SoftmaxBridge(RoutingOptimizer):
    """Wraps an inner optimizer built on the logit encoding."""

    def __init__(
        self, context, spec, builder, path=(), seed=0, init_point=None, temperature: float = 1.0
    ):
        super().__init__(context, spec, builder, path, seed, init_point)
        if temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        self.temperature = temperature
        self.inner_domain = logit_domain(self.domain)
        inner_init = self.encode(self.init_point) if self.init_point is not None else None
        self.inner = self._build(0, spec.child, replace(context, domain=self.inner_domain), inner_init)

    # ------------------------------------------------------------------
    def encode(self, point) -> np.ndarray:
        """Outer point to inner point; chosen categories get a +1 logit."""
        values = []
        for v, value in zip(self.domain.variables, np.asarray(point, dtype=float)):
            if v.kind == CATEGORICAL:
                logits = np.zeros(v.arity)
                logits[int(value)] = 1.0
                values.extend(logits)
            else:
                values.append(float(value))
        return np.asarray(values)

    def decode(self, inner_point, stochastic: bool) -> np.ndarray:
        values = np.empty(len(self.domain.variables))
        cursor = 0
        inner_point = np.asarray(inner_point, dtype=float)
        for i, v in enumerate(self.domain.variables):
            if v.kind == CATEGORICAL:
                logits = inner_point[cursor : cursor + v.arity]
                cursor += v.arity
                if stochastic:
                    probs = softmax_probabilities(logits, self.temperature)
                    values[i] = self.rng.choice(v.arity, p=probs)
                else:
                    values[i] = int(np.argmax(logits))  # ties: lowest index
            else:
                values[i] = inner_point[cursor]
                cursor += 1
        return values

    # ------------------------------------------------------------------
    def _ask(self) -> Candidate:
        return self._wrap(
            self.inner, self.inner.ask(), lambda point: self.decode(point, stochastic=True)
        )

    def _recommend(self):
        if self.inner.num_tells == 0:
            return None
        inner_rec = self.inner.recommend()
        return self.decode(inner_rec.point, stochastic=False)
