"""Base test-function catalog with analytic minima.

Every continuous entry is minimized at 0 with value 0, except rosenbrock
whose minimizer is the all-ones vector and lunacek whose minimizer is the
all-2.5 vector.  Definitions used here:

    sphere(y)     = sum y_i^2
    cigar(y)      = y_1^2 + 1e6 * sum_{i>=2} y_i^2
    ellipsoid(y)  = sum 10^(6 (i-1)/(d-1)) y_i^2           (condition 1e6)
    hm(y)         = sum y_i^2 (1.1 + cos(1/y_i)),  term 0 at y_i = 0
    ackley(y)     = -20 exp(-0.2 sqrt(mean y^2)) - exp(mean cos 2 pi y) + 20 + e
    griewank(y)   = 1 + sum y^2/4000 - prod cos(y_i / sqrt(i))
    rosenbrock(y) = sum 100 (y_{i+1} - y_i^2)^2 + (1 - y_i)^2
    lunacek(y)    = bi-Rastrigin with mu0 = 2.5,
                    s = 1 - 1/(2 sqrt(d + 20) - 8.2)  (negative at d = 1, so d >= 2),
                    mu1 = -sqrt((mu0^2 - 1)/s):
                    min(sum (y-mu0)^2, d + s sum (y-mu1)^2)
                      + 10 sum (1 - cos(2 pi (y - mu0)))
    deceptive_multimodal(y) = r (1 + 0.9 cos(2 pi log2 r)),  r = |y|_2
                    rings of deceptive local minima at geometrically spaced
                    radii; value 0 only at the origin

Discrete entries: onemax counts entries different from one, leadingones
counts positions after the first non-one entry.

Some entries also have a row kernel, ``rows(ys)``, which evaluates every row
of an ``(n, d)`` block at once and equals ``fn`` on each row bit for bit:
``np.vecdot`` is ``np.dot`` per row, ``np.add.reduce(..., axis=-1)`` sums
each row as the 1-D reduction does, elementwise ufuncs do not depend on the
shape, and scalar transcendentals stay per-row ``math`` calls.  The
discrete entries have none.  Only ``hm`` calls its row kernel on one point:
for every other entry the last-axis form costs more per call (sphere,
ellipsoid and lunacek 1.1x to 1.8x at d 5 to 120), so ``fn`` stays a 1-D
kernel beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from ..domain import DomainSpec, continuous, integer
from ..errors import ConfigurationError

_TWO_PI = 2.0 * math.pi


def sphere(y: np.ndarray) -> float:
    return float(np.dot(y, y))


def sphere_rows(ys: np.ndarray) -> np.ndarray:
    return np.vecdot(ys, ys)


def cigar(y: np.ndarray) -> float:
    tail = y[1:]
    return float(y[0] * y[0] + 1e6 * np.dot(tail, tail))


def cigar_rows(ys: np.ndarray) -> np.ndarray:
    head, tail = ys[:, 0], ys[:, 1:]
    return head * head + 1e6 * np.vecdot(tail, tail)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False  # cached and shared by every call
    return a


@lru_cache(maxsize=None)
def _ellipsoid_weights(d: int) -> np.ndarray:
    if d == 1:
        return _read_only(np.ones(1))
    return _read_only(10.0 ** (6.0 * np.arange(d) / (d - 1)))


def ellipsoid(y: np.ndarray) -> float:
    return float(np.dot(_ellipsoid_weights(len(y)), y * y))


def ellipsoid_rows(ys: np.ndarray) -> np.ndarray:
    return np.vecdot(ys * ys, _ellipsoid_weights(ys.shape[1]))


def hm(y: np.ndarray) -> float:
    return float(hm_rows(y))


def hm_rows(ys: np.ndarray) -> np.ndarray:
    zero = ys == 0.0
    terms = ys * ys * (1.1 + np.cos(1.0 / np.where(zero, 1.0, ys)))
    return np.add.reduce(np.where(zero, 0.0, terms), axis=-1)


def _ackley(squares: float, cosines: float, d: int) -> float:
    return -20.0 * math.exp(-0.2 * math.sqrt(squares / d)) - math.exp(cosines / d) + 20.0 + math.e


def ackley(y: np.ndarray) -> float:
    return _ackley(np.dot(y, y), np.add.reduce(np.cos(_TWO_PI * y)), len(y))


def ackley_rows(ys: np.ndarray) -> np.ndarray:
    squares = np.vecdot(ys, ys).tolist()
    cosines = np.add.reduce(np.cos(_TWO_PI * ys), axis=-1).tolist()
    return np.array([_ackley(sq, cs, ys.shape[1]) for sq, cs in zip(squares, cosines)])


@lru_cache(maxsize=None)
def _griewank_scales(d: int) -> np.ndarray:
    return _read_only(np.sqrt(np.arange(1, d + 1)))


def griewank(y: np.ndarray) -> float:
    return float(1.0 + np.dot(y, y) / 4000.0 - np.multiply.reduce(np.cos(y / _griewank_scales(len(y)))))


def griewank_rows(ys: np.ndarray) -> np.ndarray:
    cosines = np.cos(ys / _griewank_scales(ys.shape[1]))
    return 1.0 + np.vecdot(ys, ys) / 4000.0 - np.multiply.reduce(cosines, axis=-1)


def rosenbrock(y: np.ndarray) -> float:
    a = y[:-1]
    t = y[1:] - a * a
    u = 1.0 - a
    return float(np.add.reduce(100.0 * (t * t) + u * u))


def rosenbrock_rows(ys: np.ndarray) -> np.ndarray:
    a = ys[:, :-1]
    t = ys[:, 1:] - a * a
    u = 1.0 - a
    return np.add.reduce(100.0 * (t * t) + u * u, axis=-1)


_LUNACEK_MU0 = 2.5


def _lunacek_constants(d: int) -> tuple[float, float]:
    s = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
    return s, -math.sqrt((_LUNACEK_MU0 * _LUNACEK_MU0 - 1.0) / s)


def lunacek(y: np.ndarray) -> float:
    d = len(y)
    s, mu1 = _lunacek_constants(d)
    a = y - _LUNACEK_MU0
    b = y - mu1
    return float(
        min(np.dot(a, a), d + s * np.dot(b, b)) + 10.0 * np.add.reduce(1.0 - np.cos(_TWO_PI * a))
    )


def lunacek_rows(ys: np.ndarray) -> np.ndarray:
    d = ys.shape[1]
    s, mu1 = _lunacek_constants(d)
    a = ys - _LUNACEK_MU0
    b = ys - mu1
    # min(x, y) keeps x unless y < x
    near, far = np.vecdot(a, a), d + s * np.vecdot(b, b)
    return np.where(far < near, far, near) + 10.0 * np.add.reduce(1.0 - np.cos(_TWO_PI * a), axis=-1)


def _deceptive(r: float) -> float:
    return r * (1.0 + 0.9 * math.cos(_TWO_PI * math.log2(r))) if r else 0.0


def deceptive_multimodal(y: np.ndarray) -> float:
    return _deceptive(math.sqrt(np.dot(y, y)))


def deceptive_multimodal_rows(ys: np.ndarray) -> np.ndarray:
    return np.array([_deceptive(math.sqrt(sq)) for sq in np.vecdot(ys, ys).tolist()])


def onemax(v: np.ndarray) -> float:
    return float(np.count_nonzero(v != 1.0))


def leadingones(v: np.ndarray) -> float:
    d = len(v)
    ones = np.flatnonzero(v != 1.0)
    return float(d - (ones[0] if ones.size else d))


#: the variable of every continuous default domain, one frozen spec shared by all
UNBOUNDED_CONTINUOUS = continuous()


@dataclass(frozen=True)
class BaseFunction:
    """Catalog entry: callable, optional row kernel, default domain builder,
    analytic minimum."""

    name: str
    fn: Callable[[np.ndarray], float]
    rows: Callable[[np.ndarray], np.ndarray] | None = None
    discrete: bool = False
    minimum_value: float = 0.0
    minimizer: float = 0.0  # the minimum sits at minimizer * ones(d)
    min_dimension: int = 1  # the fewest variables ``fn`` is defined on

    def minimum_point(self, dimension: int) -> np.ndarray:
        return np.full(dimension, self.minimizer)

    def default_domain(self, dimension: int) -> DomainSpec:
        return DomainSpec((integer(0, 1) if self.discrete else UNBOUNDED_CONTINUOUS,) * dimension)


CATALOG: dict[str, BaseFunction] = {
    f.name: f
    for f in (
        BaseFunction("sphere", sphere, sphere_rows),
        BaseFunction("cigar", cigar, cigar_rows),
        BaseFunction("ellipsoid", ellipsoid, ellipsoid_rows),
        BaseFunction("hm", hm, hm_rows),
        BaseFunction("ackley", ackley, ackley_rows),
        BaseFunction("rosenbrock", rosenbrock, rosenbrock_rows, minimizer=1.0),
        BaseFunction("griewank", griewank, griewank_rows),
        BaseFunction("lunacek", lunacek, lunacek_rows, minimizer=_LUNACEK_MU0, min_dimension=2),
        BaseFunction("deceptive_multimodal", deceptive_multimodal, deceptive_multimodal_rows),
        BaseFunction("onemax", onemax, discrete=True, minimizer=1.0),
        BaseFunction("leadingones", leadingones, discrete=True, minimizer=1.0),
    )
}


def base_function_catalog() -> dict[str, BaseFunction]:
    """All base functions with their analytic minima."""
    return dict(CATALOG)


def get_base(name: str) -> BaseFunction:
    try:
        return CATALOG[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown base function {name!r}; known: {sorted(CATALOG)}"
        ) from None
