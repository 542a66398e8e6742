"""CMA-ES with cumulative step-size adaptation and rank-one/rank-mu
covariance updates, in full and diagonal (separable) variants.

The parameters are the tutorial's (Hansen 2016): population size
``lambda = 4 + floor(3 ln d)``, ``mu = lambda // 2`` parents, log-rank
recombination weights normalized to sum to one.  The diagonal variant keeps
only the diagonal of the covariance and scales the covariance learning rates
by ``(d + 2) / 3``; its off-diagonal entries are exactly zero by
construction.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from ..core import Candidate, RunContext, ScalarSolver

logger = logging.getLogger(__name__)

EIGEN_FLOOR = 1e-12
SIGMA_FLOOR = 1e-12


def recombination_weights(mu: int) -> np.ndarray:
    """Positive, non-increasing log-rank weights summing to one."""
    raw = math.log(mu + 0.5) - np.log(np.arange(1, mu + 1))
    return raw / raw.sum()


class CmaEs(ScalarSolver):
    """Covariance matrix adaptation evolution strategy."""

    def __init__(self, context: RunContext, seed: int = 0, init_point=None, diagonal: bool = False):
        super().__init__(context, seed=seed, init_point=init_point)
        self.diagonal = diagonal
        d = self._view.dim
        self.lam = 4 + int(3 * math.log(d))
        self.generation_size = self.lam
        self.mu = self.lam // 2
        self.weights = recombination_weights(self.mu)
        self.mueff = 1.0 / float(self.weights @ self.weights)

        self.c_sigma = (self.mueff + 2.0) / (d + self.mueff + 5.0)
        self.d_sigma = (
            1.0 + 2.0 * max(0.0, math.sqrt((self.mueff - 1.0) / (d + 1.0)) - 1.0) + self.c_sigma
        )
        self.c_c = (4.0 + self.mueff / d) / (d + 4.0 + 2.0 * self.mueff / d)
        self.c_1 = 2.0 / ((d + 1.3) ** 2 + self.mueff)
        self.c_mu = min(
            1.0 - self.c_1,
            2.0 * (self.mueff - 2.0 + 1.0 / self.mueff) / ((d + 2.0) ** 2 + self.mueff),
        )
        if diagonal:
            # separable variant learns d instead of d^2 entries
            boost = (d + 2.0) / 3.0
            self.c_1 = min(1.0, self.c_1 * boost)
            self.c_mu = min(1.0 - self.c_1, self.c_mu * boost)
        self.chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))
        # per-run terms of the update, each computed as the update writes it
        self._ps_decay = 1.0 - self.c_sigma
        self._ps_gain = math.sqrt(self.c_sigma * (2.0 - self.c_sigma) * self.mueff)
        self._pc_decay = 1.0 - self.c_c
        self._pc_gain = math.sqrt(self.c_c * (2.0 - self.c_c) * self.mueff)
        self._h_sigma_factor = 1.4 + 2.0 / (d + 1.0)
        self._cov_decay = 1.0 - self.c_1 - self.c_mu
        self._sigma_rate = self.c_sigma / self.d_sigma

        self.mean = self._z0
        self.sigma = 1.0
        self.p_sigma = np.zeros(d)
        self.p_c = np.zeros(d)
        if diagonal:
            self.cov_diag = np.ones(d)
            self.cov = None
        else:
            self.cov = np.eye(d)
            self._eig_basis = np.eye(d)
            self._eig_scale = np.ones(d)
        self._generations = 0
        # the sample batch: points xs, steps ys; rows [0, _queued) are not
        # asked yet and are taken from the last one down
        self._xs = self._ys = np.empty((0, d))
        self._queued = 0
        self._told_y: list[np.ndarray] = []
        self._told_losses: list[float] = []

    # ------------------------------------------------------------------
    def _sample_batch(self) -> None:
        n = self.rng.standard_normal((self.lam, self._view.dim))
        if self.diagonal:
            ys = n * np.sqrt(self.cov_diag)
        else:
            ys = (n * self._eig_scale) @ self._eig_basis.T
        self._xs = self._view.decode(self.mean + self.sigma * ys)
        self._ys = ys
        self._queued = self.lam

    def _decompose(self) -> None:
        vals, basis = np.linalg.eigh(self.cov)
        if vals[0] < EIGEN_FLOOR:
            logger.debug("covariance eigenvalues floored at %.1e", EIGEN_FLOOR)
            vals = np.maximum(vals, EIGEN_FLOOR)
            self.cov = (basis * vals) @ basis.T
        self._eig_basis = basis
        self._eig_scale = np.sqrt(vals)

    def _ask(self) -> Candidate:
        if not self._queued:
            self._sample_batch()
        self._queued -= 1
        return self._new_candidate(self._xs[self._queued], payload=self._ys[self._queued])

    def _ask_many(self, n: int) -> list[Candidate]:
        # the rows of n asks: from the last queued one down, a new batch when it runs dry
        cands: list[Candidate] = []
        while n:
            if not self._queued:
                self._sample_batch()
            stop = self._queued
            self._queued = start = max(0, stop - n)
            cands += self._book(self._xs[start:stop][::-1], self._ys[start:stop][::-1])
            n -= stop - start
        return cands

    def free_asks(self) -> int:
        # the generation's samples are fixed until its last tell
        return max(1, self.lam - len(self._told_y) - len(self.pending))

    def _tell(self, candidate: Candidate, loss: float) -> None:
        y, candidate.payload = candidate.payload, None
        if y is None:
            y = (self._view.encode(candidate.point) - self.mean) / self.sigma
        self._told_y.append(y)
        self._told_losses.append(loss)
        if len(self._told_y) >= self.lam:
            self._update_generation()

    # ------------------------------------------------------------------
    def _update_generation(self) -> None:
        # a stable sort of finite losses, as ``np.argsort(kind="stable")`` is
        order = sorted(range(len(self._told_losses)), key=self._told_losses.__getitem__)[: self.mu]
        ys = np.array([self._told_y[i] for i in order])
        self._told_y.clear()
        self._told_losses.clear()
        self._queued = 0  # stale distribution samples are discarded
        self._generations += 1

        y_w = self.weights @ ys
        self.mean = self.mean + self.sigma * y_w

        if self.diagonal:
            c_inv_half_yw = y_w / np.sqrt(self.cov_diag)
        else:
            c_inv_half_yw = self._eig_basis @ ((self._eig_basis.T @ y_w) / self._eig_scale)
        self.p_sigma = self._ps_decay * self.p_sigma + self._ps_gain * c_inv_half_yw
        norm_ps = math.sqrt(self.p_sigma.dot(self.p_sigma))
        expected = math.sqrt(1.0 - self._ps_decay ** (2.0 * self._generations)) * self.chi_n
        h_sigma = 1.0 if norm_ps < self._h_sigma_factor * expected else 0.0
        self.p_c = self._pc_decay * self.p_c + h_sigma * self._pc_gain * y_w
        delta_h = (1.0 - h_sigma) * self.c_c * (2.0 - self.c_c)

        if self.diagonal:
            rank_mu = self.weights @ (ys * ys)
            self.cov_diag = (
                (self._cov_decay + self.c_1 * delta_h) * self.cov_diag
                + self.c_1 * self.p_c * self.p_c
                + self.c_mu * rank_mu
            )
            np.maximum(self.cov_diag, EIGEN_FLOOR, out=self.cov_diag)
        else:
            rank_mu = (ys.T * self.weights) @ ys
            self.cov = (
                (self._cov_decay + self.c_1 * delta_h) * self.cov
                + self.c_1 * np.multiply.outer(self.p_c, self.p_c)
                + self.c_mu * rank_mu
            )
            self.cov = 0.5 * (self.cov + self.cov.T)
            self._decompose()

        arg = self._sigma_rate * (norm_ps / self.chi_n - 1.0)
        self.sigma *= math.exp(min(1.0, arg))
        # keep sampling non-degenerate; matches the eigenvalue floor scale
        if self.sigma < SIGMA_FLOOR:
            logger.debug("global step clamped at %.1e", SIGMA_FLOOR)
            self.sigma = SIGMA_FLOOR
        self.sigma = min(self.sigma, 1e20)

