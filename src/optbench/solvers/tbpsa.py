"""Population-based evolution strategy for noisy objectives (TBPSA).

Samples each generation around a center with mutative self-adaptive step
sizes, recombines the elite quarter into a new center, and doubles the
population whenever the observed elite mean stops improving, so that under
noise the center estimate is averaged over ever more samples.  The
recommendation aggregates the last few center estimates instead of trusting
any single observation; the naive variant recommends the best single
observation instead, which is the behavior proper noisy benchmarking must
distinguish from.
"""

from __future__ import annotations

import math

import numpy as np

from ..core import Candidate, RunContext, ScalarSolver
from ..errors import ConfigurationError

SIGMA_MIN = 1e-18
SIGMA_MAX = 1e6
#: the recommendation averages the centers of this many last generations
RECOMMENDATION_WINDOW = 5
#: the population doubles after this many generations without a better elite mean
STAGNATION_LIMIT = 2


class Tbpsa(ScalarSolver):
    """Test-based population size adaptation ES."""

    def __init__(
        self,
        context: RunContext,
        seed: int = 0,
        init_point=None,
        naive: bool = False,
        elite_fraction: float = 0.25,
        population_size: int | None = None,
    ):
        super().__init__(context, seed=seed, init_point=init_point)
        d = self._view.dim
        self.lam = 4 + int(3 * math.log(d)) if population_size is None else population_size
        if not isinstance(self.lam, int) or self.lam < 4:
            raise ConfigurationError("TBPSA needs a whole population of at least 4")
        if not 0.0 < elite_fraction <= 1.0:  # also refuses NaN
            raise ConfigurationError("the elite fraction must lie in (0, 1]")
        self.naive = naive
        self.elite_fraction = elite_fraction
        self.tau = 1.0 / math.sqrt(2.0 * d)
        self.center = self._z0
        self.sigma = 1.0
        self.center_history: list[np.ndarray] = []
        self._gen: list[tuple[np.ndarray, float, float]] = []  # (z, log sigma_i, loss)
        self._best_elite_mean = math.inf
        self._stagnation = 0
        self._best_single: tuple[float, np.ndarray] | None = None

    @property
    def generation_size(self) -> int:
        return self.lam

    def _ask(self) -> Candidate:
        draw = self._normal_row(self._view.dim + 1)  # the sigma draw, then the step
        log_sigma_i = math.log(self.sigma) + self.tau * float(draw[0])
        z = self.center + math.exp(log_sigma_i) * draw[1:]
        return self._new_candidate(self._view.decode(z), payload=(z, log_sigma_i))

    def _ask_many(self, n: int) -> list[Candidate]:
        draws = self._normal_rows(n, self._view.dim + 1)
        log_sigma = math.log(self.sigma)
        log_sigmas = [log_sigma + self.tau * v for v in draws[:, 0].tolist()]
        # math.exp per row: numpy's exp can differ from it in the last bit
        steps = np.array([math.exp(v) for v in log_sigmas])
        zs = self.center + steps[:, None] * draws[:, 1:]
        return self._book(self._view.decode(zs), list(zip(zs, log_sigmas)))

    def free_asks(self) -> int:
        # center and sigma are fixed until the generation's last tell
        return max(1, self.lam - len(self._gen) - len(self.pending))

    def _tell(self, candidate: Candidate, loss: float) -> None:
        if self._best_single is None or loss < self._best_single[0]:
            self._best_single = (loss, candidate.point)
        sample, candidate.payload = candidate.payload, None
        if sample is None:
            sample = (self._view.encode(candidate.point), math.log(self.sigma))
        self._gen.append((sample[0], sample[1], loss))
        if len(self._gen) >= self.lam:
            self._update_generation()

    def _update_generation(self) -> None:
        order = sorted(range(len(self._gen)), key=lambda i: self._gen[i][2])
        k = max(1, math.ceil(self.lam * self.elite_fraction))
        elite = [self._gen[i] for i in order[:k]]
        self._gen.clear()
        zs = np.asarray([e[0] for e in elite])
        self.center = zs.mean(axis=0)
        log_sigma = float(np.mean([e[1] for e in elite]))
        self.sigma = min(max(math.exp(log_sigma), SIGMA_MIN), SIGMA_MAX)
        self.center_history.append(self.center)
        elite_mean = float(np.mean([e[2] for e in elite]))
        if elite_mean < self._best_elite_mean:
            self._best_elite_mean = elite_mean
            self._stagnation = 0
        else:
            self._stagnation += 1
            if self._stagnation >= STAGNATION_LIMIT:
                self.lam *= 2  # double the population to average more noise
                self._stagnation = 0

    def _recommend(self):
        if self.naive:
            if self._best_single is None:
                return None
            return self._best_single[1]
        if not self.center_history:
            return None
        window = self.center_history[-RECOMMENDATION_WINDOW:]
        return self._view.decode(np.mean(window, axis=0))
