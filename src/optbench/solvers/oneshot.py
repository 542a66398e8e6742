"""One-shot recentering sampler for extreme parallelism.

All asks are independent draws from ``N(0, sigma_r^2 I)`` in the
standardized domain with ``sigma_r = min(1, sqrt(ln(1 + budget) / d))``:
small budgets and high dimensions concentrate the cloud near the center.
There is no adaptation; the recommendation is the best told point.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import RunContext, ScalarSolver


def recentering_std(budget: int, dim: int) -> float:
    return min(1.0, math.sqrt(math.log1p(budget) / dim))


class OneShotRecentering(ScalarSolver):
    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        self.sigma_r = recentering_std(self.budget, self._view.dim)

    def _ask(self) -> np.ndarray:
        z = self.sigma_r * self._normal_row(self._view.dim)
        return self._view.decode(z)
