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


def cigar(y: np.ndarray) -> float:
    tail = y[1:]
    return float(y[0] * y[0] + 1e6 * np.dot(tail, tail))


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


def hm(y: np.ndarray) -> float:
    zero = y == 0.0
    terms = y * y * (1.1 + np.cos(1.0 / np.where(zero, 1.0, y)))
    return float(np.add.reduce(np.where(zero, 0.0, terms)))


def ackley(y: np.ndarray) -> float:
    d = len(y)
    return float(
        -20.0 * math.exp(-0.2 * math.sqrt(np.dot(y, y) / d))
        - math.exp(np.add.reduce(np.cos(_TWO_PI * y)) / d)
        + 20.0
        + math.e
    )


@lru_cache(maxsize=None)
def _griewank_scales(d: int) -> np.ndarray:
    return _read_only(np.sqrt(np.arange(1, d + 1)))


def griewank(y: np.ndarray) -> float:
    return float(1.0 + np.dot(y, y) / 4000.0 - np.multiply.reduce(np.cos(y / _griewank_scales(len(y)))))


def rosenbrock(y: np.ndarray) -> float:
    a = y[:-1]
    t = y[1:] - a * a
    u = 1.0 - a
    return float(np.add.reduce(100.0 * (t * t) + u * u))


_LUNACEK_MU0 = 2.5


def lunacek(y: np.ndarray) -> float:
    d = len(y)
    s = 1.0 - 1.0 / (2.0 * math.sqrt(d + 20.0) - 8.2)
    mu1 = -math.sqrt((_LUNACEK_MU0 * _LUNACEK_MU0 - 1.0) / s)
    a = y - _LUNACEK_MU0
    b = y - mu1
    return float(
        min(np.dot(a, a), d + s * np.dot(b, b)) + 10.0 * np.add.reduce(1.0 - np.cos(_TWO_PI * a))
    )


def deceptive_multimodal(y: np.ndarray) -> float:
    r = math.sqrt(np.dot(y, y))
    if r == 0.0:
        return 0.0
    return r * (1.0 + 0.9 * math.cos(_TWO_PI * math.log2(r)))


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
    """Catalog entry: callable, default domain builder, analytic minimum."""

    name: str
    fn: Callable[[np.ndarray], float]
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
        BaseFunction("sphere", sphere),
        BaseFunction("cigar", cigar),
        BaseFunction("ellipsoid", ellipsoid),
        BaseFunction("hm", hm),
        BaseFunction("ackley", ackley),
        BaseFunction("rosenbrock", rosenbrock, minimizer=1.0),
        BaseFunction("griewank", griewank),
        BaseFunction("lunacek", lunacek, minimizer=_LUNACEK_MU0, min_dimension=2),
        BaseFunction("deceptive_multimodal", deceptive_multimodal),
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
