"""Derivative-free local search: Powell's method and model trust regions.

These solvers are sequential by nature; they are driven through a probe
generator so they fit the ask/tell contract.  The generator reaches its
solver only through a weak proxy, so no frame holds the solver, and a
dropped solver is freed by reference counting alone, mid-run included.
Surplus parallel asks (more outstanding asks than the generator has pending
probes) are served as Gaussian probes around the best known point, and
their losses never reach the generator.

The trust-region variants fill the classic derivative-free slots with one
interpolation model (``SlidingModel``) over linear features ``[1, u]`` or
full quadratic features, updated in O(p^2) per step as its window of the
last p points slides.  One step path serves both: the model minimizer
clipped to the trust region when the quadratic part is positive-definite,
otherwise a step to the trust boundary along the model's steepest descent,
which is the only step a linear model (zero quadratic part) takes.  Both
shrink the radius on failure; in noisy mode every model point is resampled
three times and the mean is used.
"""

from __future__ import annotations

import logging
import math
import weakref

import numpy as np

from ..core import Candidate, RunContext, ScalarSolver
from .metamodel import quadratic_design, quadratic_feature_count, split_quadratic

logger = logging.getLogger(__name__)

RHO_FLOOR = 1e-12
_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)


def quadratic_fit_step(fit, origin, rho: float) -> np.ndarray | None:
    """Model-minimizer step clipped to the trust ball around ``origin``.

    ``fit`` is ``(A, b, c, mean, scale)`` as from ``fit_quadratic`` or
    ``SlidingModel.fit``.  Falls back to a step to the trust boundary along
    the model's -gradient when the quadratic part is not positive-definite
    (always for a linear model, whose A is zero); returns None when that
    gradient vanishes.
    """
    origin = np.asarray(origin, dtype=float)
    quad, b, _c, mean, scale = fit
    u0 = (origin - mean) / scale
    if quad.any():  # a zero quadratic part has no positive eigenvalue
        eigvals = np.linalg.eigvalsh(quad)
        if eigvals[0] > 1e-12 * max(1.0, abs(eigvals[-1])):
            u_star = np.linalg.solve(quad, -0.5 * b)
            x_star = mean + scale * u_star
            offset = x_star - origin
            dist = math.sqrt(offset.dot(offset))
            if dist > rho:
                x_star = origin + offset * (rho / dist)
            return x_star
    grad = b + 2.0 * quad @ u0  # model gradient at the origin (centered coords)
    norm = math.sqrt(grad.dot(grad))
    if not math.isfinite(norm) or norm < 1e-300:
        return None
    return origin - rho * (grad / norm)


#: a slide whose denominator is below this times the largest entry of its
#: update row refactorizes instead of updating the inverse; about sqrt(eps),
#: below which one update could lose half the digits of the inverse
_DENOMINATOR_FLOOR = 1e-8
#: rows per in-place block of the rank-one update
_ROW_BLOCK = 64
#: right-hand-side columns per solve when the inverse is built; beside the
#: design and the inverse, a solve holds one design copy and a few such blocks
_SOLVE_BLOCK = 128


def _linear_design(u: np.ndarray) -> np.ndarray:
    """Feature rows ``[1, u]``, filled into one array."""
    design = np.empty((u.shape[0], u.shape[1] + 1))
    design[:, 0] = 1.0
    design[:, 1:] = u
    return design


class SlidingModel:
    """Linear or quadratic interpolation model of a window of p points slid
    one by one; p is the number of features, d + 1 or (d+1)(d+2)/2.

    ``_inv`` is H, the inverse of the p x p interpolation matrix in the frame
    ``u = (x - mean) / scale`` fixed at the last full factorization; the
    model's coefficients are ``H @ values``, so it interpolates the window.
    ``slide`` replaces the oldest point by a new one through one
    Sherman-Morrison row replacement in O(p^2), as Powell's NEWUOA updates
    its interpolation model; the update's denominator is the oldest point's
    Lagrange polynomial at the new point.  A full factorization, with
    ``lstsq``'s rank test, happens when no inverse exists, after p updates,
    and when that denominator falls below ``_DENOMINATOR_FLOOR``.
    """

    def __init__(self, points, values, quadratic: bool):
        self._points = np.array(points, dtype=float)
        self._values = np.array(values, dtype=float)
        self.size, self.dim = self._points.shape
        self._quadratic = quadratic
        self._design = quadratic_design if quadratic else _linear_design
        self._oldest = 0  # slot of the point the next slide replaces
        self._inv: np.ndarray | None = None
        self._mean = np.zeros(self.dim)
        self._scale = 1.0
        self._updates = 0
        self.factorizations = 0
        self.threshold_hits = 0
        self._factorize()

    def fit(self):
        """``(A, b, c, mean, scale)`` of the model, or None for a rejected window."""
        if self._inv is None:
            return None
        coeffs = self._inv @ self._values
        if self._quadratic:
            return (*split_quadratic(coeffs, self.dim), self._mean, self._scale)
        return np.zeros((self.dim, self.dim)), coeffs[1:], coeffs[0], self._mean, self._scale

    def slide(self, point, value: float) -> None:
        """Replace the oldest point of the window by ``point``."""
        k = self._oldest
        self._oldest = (k + 1) % self.size
        old_row = None if self._inv is None else self._features(self._points[k])
        self._points[k] = point
        self._values[k] = value
        if old_row is None or self._updates >= self.size:
            self._factorize()
            return
        w = (self._features(self._points[k]) - old_row) @ self._inv
        denom = 1.0 + w[k]
        if not abs(denom) > _DENOMINATOR_FLOOR * np.abs(w).max():
            self.threshold_hits += 1
            self._factorize()
            return
        col = self._inv[:, k] / denom
        for start in range(0, self.size, _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            self._inv[rows] -= np.multiply.outer(col[rows], w)
        self._updates += 1

    def _features(self, point) -> np.ndarray:
        return self._design(((point - self._mean) / self._scale)[None, :])[0]

    def _factorize(self) -> None:
        self._inv = None  # freed before the new inverse is built
        self._updates = 0
        self.factorizations += 1
        p = self.size
        mean = self._points.mean(axis=0)
        scale = float(self._points.std())
        if scale <= 0 or not np.isfinite(scale):
            return
        design = self._design((self._points - mean) / scale)
        singular = np.linalg.svd(design, compute_uv=False)
        if not singular[-1] > np.finfo(float).eps * p * singular[0]:
            return  # rank deficient by lstsq's default rcond
        inv = np.empty((p, p))
        for start in range(0, p, _SOLVE_BLOCK):
            width = min(_SOLVE_BLOCK, p - start)
            unit = np.zeros((p, width))
            unit[np.arange(start, start + width), np.arange(width)] = 1.0
            inv[:, start : start + width] = np.linalg.solve(design, unit)
        self._inv, self._mean, self._scale = inv, mean, scale


class _ProbeDrivenSolver(ScalarSolver):
    """Ask/tell adapter around a sequential probe generator."""

    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        self._best_z = self._z0.copy()
        self._awaiting: int | None = None
        self._last_loss: float | None = None
        self._fallback_scale = 1.0
        # its frames hold only a weak proxy of this solver, so no cycle runs through them
        self._gen = type(self)._probes(weakref.proxy(self))

    def _probes(self):
        raise NotImplementedError

    def _ask(self) -> Candidate:
        if self._awaiting is None:  # the generators never end, so a send always yields a probe
            cand = self._new_candidate(self._view.decode(self._gen.send(self._last_loss)))
            self._awaiting = cand.id
            return cand
        z = self._best_z + self._fallback_scale * self.rng.standard_normal(self._view.dim)
        return self._new_candidate(self._view.decode(z))

    def _tell(self, candidate: Candidate, loss: float) -> None:
        if loss <= self.incumbent_loss:
            self._best_z = self._view.encode(candidate.point)
        if candidate.id == self._awaiting:
            self._awaiting = None
            self._last_loss = loss


def _measure(solver, z):
    """Probe ``z``: one loss, or the mean over three resamples in noisy mode."""
    if not solver.noisy:
        return (yield z)
    total = 0.0
    for _ in range(3):
        total += yield z
    return total / 3.0


class Powell(_ProbeDrivenSolver):
    """Powell's conjugate-direction method with parabolic line searches.

    Each sweep line-searches every direction in turn, then applies the
    classic direction-replacement test on the extrapolated point, replacing
    the direction of largest decrease so the set stays full-rank.
    """

    def __init__(self, context: RunContext, seed: int = 0, init_point=None):
        super().__init__(context, seed=seed, init_point=init_point)
        self.directions = np.eye(self._view.dim)

    def _probes(self):
        d = self._view.dim
        x = self._z0.copy()
        fx = yield from _measure(self, x)
        scale = 1.0
        while True:
            x_start = x.copy()
            f_start = fx
            drops = np.zeros(d)
            for i in range(d):
                x, fx, drops[i] = yield from _line_search(self, x, fx, self.directions[i], scale)
            ibig = int(np.argmax(drops))
            delta = drops[ibig]
            f_extra = yield from _measure(self, 2.0 * x - x_start)
            if f_extra < f_start:
                t = (
                    2.0 * (f_start - 2.0 * fx + f_extra) * (f_start - fx - delta) ** 2
                    - delta * (f_start - f_extra) ** 2
                )
                if t < 0.0:
                    new_dir = x - x_start
                    norm = math.sqrt(new_dir.dot(new_dir))
                    if norm > 0.0:
                        new_dir = new_dir / norm
                        x, fx, _ = yield from _line_search(self, x, fx, new_dir, scale)
                        self.directions[ibig] = new_dir
            step = x - x_start
            moved = math.sqrt(step.dot(step))
            scale = min(max(moved, 1e-12), 1e3)
            self._fallback_scale = scale


def _line_search(solver, x, fx, direction, scale):
    a, b, c, fa, fb, fc = yield from _bracket(solver, x, fx, direction, scale)
    b, fb = yield from _refine(solver, x, direction, a, b, c, fa, fb, fc)
    if fb >= fx:
        return x, fx, 0.0
    return x + b * direction, fb, fx - fb


def _bracket(solver, x, fx, u, scale):
    h = scale
    f_plus = yield from _measure(solver, x + h * u)
    if f_plus >= fx:
        f_minus = yield from _measure(solver, x - h * u)
        if f_minus >= fx:
            return -h, 0.0, h, f_minus, fx, f_plus
        sign, f1 = -1.0, f_minus
    else:
        sign, f1 = 1.0, f_plus
    a0, f0 = 0.0, fx
    a1 = sign * h
    step = sign * h
    for _ in range(60):
        step *= 2.0
        a2 = a1 + step
        f2 = yield from _measure(solver, x + a2 * u)
        if f2 >= f1:
            lo, mid, hi = (a0, a1, a2) if sign > 0 else (a2, a1, a0)
            flo, fmid, fhi = (f0, f1, f2) if sign > 0 else (f2, f1, f0)
            return lo, mid, hi, flo, fmid, fhi
        a0, f0, a1, f1 = a1, f1, a2, f2
    # runaway descent: treat the latest three points as the bracket
    lo, mid, hi = (a0, a1, a1 + step) if sign > 0 else (a1 + step, a1, a0)
    return lo, mid, hi, f0, f1, f2


def _refine(solver, x, u, a, b, c, fa, fb, fc, max_iter=18):
    for _ in range(max_iter):
        tol = 1e-11 * (abs(b) + 1e-3) + 1e-14
        if (c - a) < tol:
            break
        trial = _parabolic_vertex(a, b, c, fa, fb, fc)
        if trial is None or not (a < trial < c) or abs(trial - b) < 0.1 * tol:
            # golden-section step into the larger side
            trial = b + (1.0 - _GOLDEN) * ((c - b) if (c - b) > (b - a) else (a - b))
        ft = yield from _measure(solver, x + trial * u)
        if ft < fb:
            if trial < b:
                c, fc = b, fb
            else:
                a, fa = b, fb
            b, fb = trial, ft
        else:
            if trial < b:
                a, fa = trial, ft
            else:
                c, fc = trial, ft
    return b, fb


def _parabolic_vertex(a, b, c, fa, fb, fc) -> float | None:
    r = (b - a) * (fb - fc)
    q = (b - c) * (fb - fa)
    denom = 2.0 * (r - q)
    if denom == 0.0 or not math.isfinite(denom):
        return None
    vertex = b - ((b - a) * r - (b - c) * q) / denom
    return vertex if math.isfinite(vertex) else None


class TrustRegion(_ProbeDrivenSolver):
    """Linear or quadratic model trust region ("cobyla" / "sqp" slots)."""

    def __init__(
        self, context: RunContext, seed: int = 0, init_point=None, quadratic: bool = False
    ):
        super().__init__(context, seed=seed, init_point=init_point)
        self.quadratic = quadratic
        self.rho = 1.0

    def _probes(self):
        d = self._view.dim
        need = quadratic_feature_count(d) if self.quadratic else d + 1
        x = self._z0.copy()
        fx = yield from _measure(self, x)
        best_x, best_f = x.copy(), fx
        points: list[np.ndarray] = [x.copy()]
        values: list[float] = [fx]
        for axis in range(need - 1):
            direction = _unit(d, axis) if axis < d else self._random_direction(d)
            z = best_x + self.rho * direction
            f = yield from _measure(self, z)
            points.append(z)
            values.append(f)
            if f < best_f:
                best_x, best_f = z, f
        model = SlidingModel(points, values, self.quadratic)
        while True:
            fit = model.fit()
            proposal = None if fit is None else quadratic_fit_step(fit, best_x, self.rho)
            if proposal is None:
                logger.debug("degenerate model fit; random probe at radius %.3g", self.rho)
                proposal = best_x + self.rho * self._random_direction(d)
            f = yield from _measure(self, proposal)
            model.slide(proposal, f)
            if f < best_f:
                best_x, best_f = proposal, f
            else:
                self.rho *= 0.5
                if self.rho < RHO_FLOOR:
                    logger.debug("trust radius clamped at %.1e", RHO_FLOOR)
                    self.rho = RHO_FLOOR
            self._fallback_scale = self.rho

    def _random_direction(self, d: int) -> np.ndarray:
        g = self.rng.standard_normal(d)
        norm = math.sqrt(g.dot(g))
        return g / norm if norm > 0 else _unit(d, 0)


def _unit(d: int, axis: int) -> np.ndarray:
    e = np.zeros(d)
    e[axis] = 1.0
    return e
