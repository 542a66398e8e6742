"""Quadratic surrogate fitting and the meta-model wrapper.

``metamodel_propose`` fits a full quadratic by least squares on the most
recent told points and returns its minimizer when the quadratic part is
positive-definite and the minimizer stays inside the sampled region's
bounding box inflated by a factor of two.  Absence of a proposal is a valid
outcome and the caller falls back to plain sampling.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..combinators import RoutingOptimizer
from ..core import Candidate, ScalarSolver


def quadratic_feature_count(dim: int) -> int:
    return (dim + 1) * (dim + 2) // 2


def metamodel_min_points(dim: int) -> int:
    """Archive size needed before a surrogate fit is attempted."""
    return quadratic_feature_count(dim) + dim + 1


def metamodel_window(dim: int) -> int:
    """How many of the most recent told points a surrogate fit uses."""
    return 2 * metamodel_min_points(dim)


def quadratic_design(u: np.ndarray) -> np.ndarray:
    """Feature rows ``[1, u, u_i u_j for i <= j]``, filled into one array."""
    n, d = u.shape
    design = np.empty((n, quadratic_feature_count(d)))
    design[:, 0] = 1.0
    design[:, 1 : d + 1] = u
    k = d + 1
    for i in range(d):
        np.multiply(u[:, i : i + 1], u[:, i:], out=design[:, k : k + d - i])
        k += d - i
    return design


def split_quadratic(coeffs: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, float]:
    """``(A, b, c)`` of ``c + b.u + u'Au`` from coefficients over ``quadratic_design``."""
    quad = np.zeros((d, d))
    k = d + 1
    for i in range(d):
        width = d - i
        row = coeffs[k : k + width]
        quad[i, i] = row[0]
        quad[i, i + 1 :] = 0.5 * row[1:]
        quad[i + 1 :, i] = 0.5 * row[1:]
        k += width
    return quad, coeffs[1 : d + 1], coeffs[0]


def fit_quadratic(points: np.ndarray, losses: np.ndarray):
    """Least-squares full quadratic ``c + b.u + u'Au`` on centered data.

    Returns ``(A, b, c, mean, scale)`` in centered coordinates
    ``u = (x - mean) / scale``, or None when the system is singular.
    """
    pts = np.asarray(points, dtype=float)
    losses = np.asarray(losses, dtype=float)
    n, d = pts.shape
    mean = pts.mean(axis=0)
    scale = float(pts.std())
    if scale <= 0 or not np.isfinite(scale):
        return None
    u = (pts - mean) / scale
    if n < quadratic_feature_count(d):
        return None
    design = quadratic_design(u)
    coeffs, _res, rank, _sv = np.linalg.lstsq(design, losses, rcond=None)
    if rank < design.shape[1]:
        return None
    return (*split_quadratic(coeffs, d), mean, scale)


def metamodel_propose(points, losses) -> np.ndarray | None:
    """Minimizer of a fitted quadratic, gated for trustworthiness."""
    pts = np.asarray(points, dtype=float)
    losses = np.asarray(losses, dtype=float)
    if pts.ndim != 2 or len(pts) != len(losses):
        return None
    needed = metamodel_min_points(pts.shape[1])
    if len(pts) < needed:
        return None
    window = min(len(pts), metamodel_window(pts.shape[1]))
    pts = pts[-window:]
    losses = losses[-window:]
    fit = fit_quadratic(pts, losses)
    if fit is None:
        return None
    quad, b, _c, mean, scale = fit
    eigvals = np.linalg.eigvalsh(quad)
    if eigvals[0] <= 1e-10 * max(1.0, abs(eigvals[-1])):
        return None  # quadratic part not positive-definite
    u_star = np.linalg.solve(quad, -0.5 * b)
    x_star = mean + scale * u_star
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    if np.any(np.abs(x_star - center) > 2.0 * half + 1e-12):
        return None  # outside the sampled region's inflated bounding box
    return x_star


class MetamodelWrapper(RoutingOptimizer):
    """Injects quadratic-surrogate minimizers into a sampling child.

    Once per child generation, the wrapper fits a quadratic on its own told
    points and, when a trustworthy minimizer exists, serves it as the next
    ask instead of the child's sample.  Surrogate candidates update the
    incumbent but are not fed back into the child's distribution update.
    A noisy wrapper recommends its child's recommendation, since its own
    incumbent is the lowest of single noisy draws.
    It keeps only the last ``metamodel_window(d)`` told points and losses,
    the ones ``metamodel_propose`` fits.
    """

    @classmethod
    def child_contexts(cls, spec, context):
        ScalarSolver.check_context(context)
        return [context]

    def __init__(self, context, spec, builder, path=(), seed=0, init_point=None):
        super().__init__(context, spec, builder, path, seed, init_point)
        (child_context,) = self.child_contexts(spec, context)
        self.child = self._build(0, spec.child, child_context, init_point)
        self._view = self.domain.scalar_view
        window = metamodel_window(self._view.dim)
        self._points: deque[np.ndarray] = deque(maxlen=window)
        self._losses: deque[float] = deque(maxlen=window)
        self._tells_at_attempt = 0

    @property
    def generation_size(self) -> int | None:
        return self.child.generation_size

    def _ask(self):
        gen = self.child.generation_size or max(8, self._view.dim)
        if self.num_tells - self._tells_at_attempt >= gen and len(
            self._points
        ) >= metamodel_min_points(self._view.dim):
            self._tells_at_attempt = self.num_tells
            proposal = metamodel_propose(np.asarray(self._points), self._losses)
            if proposal is not None:
                return self._view.decode(self._view.encode(proposal))
        return self._wrap(self.child, self.child.ask())

    def _recommend(self):
        return self.child.recommend() if self.noisy and self.child.num_tells else None

    def _after_tell(self, candidate: Candidate, loss: float) -> None:
        self._points.append(candidate.point)
        self._losses.append(loss)
