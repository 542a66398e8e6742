"""(1+1) evolution strategy with the one-fifth success rule."""

from __future__ import annotations

import logging

from ..core import Candidate, RunContext, ScalarSolver

logger = logging.getLogger(__name__)

SIGMA_FLOOR = 1e-15


class OnePlusOneEs(ScalarSolver):
    """Isotropic Gaussian (1+1)-ES.

    Every ask mutates the current parent by ``sigma * N(0, I)`` in the
    standardized space; a strict improvement moves the parent and multiplies
    sigma by ``c_up``, anything else multiplies it by ``c_down``.  They
    satisfy ``c_up * c_down**4 == 1`` so sigma is stationary at a
    one-fifth success rate.  Parallel asks are independent mutations of the
    same parent.
    """

    c_up = 2.0
    c_down = 2.0 ** -0.25

    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        self.sigma = 1.0
        self._parent = self._z0
        self._parent_loss: float | None = None

    def _ask(self) -> Candidate:
        z = self._parent + self.sigma * self._normal_row(self._view.dim)
        return self._new_candidate(self._view.decode(z), payload=z)

    def _tell(self, candidate: Candidate, loss: float) -> None:
        z, candidate.payload = candidate.payload, None
        if z is None:  # re-tell: reconstruct from the point
            z = self._view.encode(candidate.point)
        if self._parent_loss is None:
            self._parent = z
            self._parent_loss = loss
            return
        if loss < self._parent_loss:
            self._parent = z
            self._parent_loss = loss
            self.sigma *= self.c_up
        else:
            self.sigma *= self.c_down
        if self.sigma < SIGMA_FLOOR:
            logger.debug("sigma underflow clamped at %.1e", SIGMA_FLOOR)
            self.sigma = SIGMA_FLOOR
