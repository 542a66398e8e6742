"""Search-space model: variable descriptors, domains, and the scalar view.

A point is always a 1-d float64 numpy array with one entry per variable:
continuous values as-is, integer and categorical values as integral floats.
Continuous solvers work through :class:`ScalarView`, a standardized
coordinate system where the domain center is the origin and one unit equals
one per-variable sampling scale.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError, ContractError

CONTINUOUS = "continuous"
INTEGER = "integer"
CATEGORICAL = "categorical"
UNBOUNDED_INTEGER = "unbounded_integer"

_KINDS = (CONTINUOUS, INTEGER, CATEGORICAL, UNBOUNDED_INTEGER)

CATEGORICAL_NEEDS_BRIDGE = "categorical variables need the softmax bridge, not a scalar view"


@dataclass(frozen=True)
class VariableSpec:
    """One search variable.  Use the module-level factory functions."""

    kind: str
    lower: float | None = None
    upper: float | None = None
    scale: float = 1.0
    low: int = 0
    high: int = 0
    arity: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown variable kind {self.kind!r}")
        if self.kind == CONTINUOUS:
            if not all(bound is None or isinstance(bound, numbers.Real) for bound in (self.lower, self.upper)):
                raise ConfigurationError("continuous bounds must be numbers or None")
            if not (self.scale > 0):
                raise ConfigurationError("continuous variables need scale > 0")
            if self.lower is not None and self.upper is not None and not (self.lower < self.upper):
                raise ConfigurationError("continuous bounds require lower < upper")
        elif self.kind == INTEGER:
            if self.low > self.high:
                raise ConfigurationError("integer variables require low <= high")
        elif self.kind == CATEGORICAL:
            if self.arity < 2:
                raise ConfigurationError("categorical variables require arity >= 2")

    @property
    def is_discrete(self) -> bool:
        return self.kind != CONTINUOUS

    @property
    def num_values(self) -> float:
        """Alphabet size; ``math.inf`` for continuous and unbounded kinds."""
        if self.kind == INTEGER:
            return self.high - self.low + 1
        if self.kind == CATEGORICAL:
            return self.arity
        return math.inf

    def center_value(self) -> float:
        if self.kind == CONTINUOUS:
            if self.lower is not None and self.upper is not None:
                return 0.5 * (self.lower + self.upper)
            if self.lower is not None:
                return self.lower + self.scale
            if self.upper is not None:
                return self.upper - self.scale
            return 0.0
        if self.kind == INTEGER:
            return float((self.low + self.high) // 2)
        # categorical center is uniform logits, which decode to category 0;
        # unbounded integers center at 0
        return 0.0

    def contains(self, value: float) -> bool:
        if self.kind == CONTINUOUS:
            if not math.isfinite(value):
                return False
            if self.lower is not None and value < self.lower:
                return False
            if self.upper is not None and value > self.upper:
                return False
            return True
        if value != int(value):
            return False
        if self.kind == INTEGER:
            return self.low <= value <= self.high
        if self.kind == CATEGORICAL:
            return 0 <= value < self.arity
        return True


def continuous(lower: float | None = None, upper: float | None = None, scale: float = 1.0) -> VariableSpec:
    """A real variable, optionally box-bounded, with a sampling scale."""
    return VariableSpec(CONTINUOUS, lower=lower, upper=upper, scale=scale)


def _whole(value, what: str) -> int:
    # int() would truncate 0.7 to 0 and parse "3"; bools are not counts
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _finite(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigurationError(f"{what} must be a finite number, got {value!r}")
    return float(value)


def integer(low: int, high: int) -> VariableSpec:
    """An integer variable ranging over ``low..high`` inclusive."""
    return VariableSpec(INTEGER, low=_whole(low, "integer bound"), high=_whole(high, "integer bound"))


def categorical(arity: int) -> VariableSpec:
    """An unordered categorical variable with ``arity`` categories."""
    return VariableSpec(CATEGORICAL, arity=_whole(arity, "categorical arity"))


def unbounded_integer() -> VariableSpec:
    """An integer variable with no bounds."""
    return VariableSpec(UNBOUNDED_INTEGER)


class DomainSpec:
    """Ordered collection of variables; variable order is meaningful."""

    def __init__(self, variables: Iterable[VariableSpec]):
        self.variables: tuple[VariableSpec, ...] = tuple(variables)
        if not self.variables:
            raise ConfigurationError("a domain needs at least one variable")

    def __len__(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return isinstance(other, DomainSpec) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        kinds = ",".join(v.kind[:4] for v in self.variables)
        return f"DomainSpec({len(self.variables)} vars: {kinds})"

    @cached_property
    def dimension(self) -> int:
        """Total scalar dimension under the softmax logit encoding."""
        return sum(v.arity if v.kind == CATEGORICAL else 1 for v in self.variables)

    @cached_property
    def all_continuous(self) -> bool:
        return all(v.kind == CONTINUOUS for v in self.variables)

    @cached_property
    def has_discrete(self) -> bool:
        return any(v.is_discrete for v in self.variables)

    @cached_property
    def has_categorical(self) -> bool:
        return any(v.kind == CATEGORICAL for v in self.variables)

    @cached_property
    def has_unbounded_discrete(self) -> bool:
        return any(v.kind == UNBOUNDED_INTEGER for v in self.variables)

    @cached_property
    def max_arity(self) -> float:
        """Largest discrete alphabet; integer ranges count their width.

        ``math.inf`` when an unbounded integer is present, 0 when the domain
        is fully continuous.
        """
        arities = [v.num_values for v in self.variables if v.is_discrete]
        return max(arities) if arities else 0

    def center(self) -> np.ndarray:
        return np.array([v.center_value() for v in self.variables], dtype=float)

    def validate(self, point: Sequence[float]) -> None:
        """Raise :class:`ContractError` unless ``point`` lies in the domain."""
        arr = np.asarray(point, dtype=float)
        if arr.shape != (len(self.variables),):
            raise ContractError(
                f"point has shape {arr.shape}, domain has {len(self.variables)} variables"
            )
        for i, (v, value) in enumerate(zip(self.variables, arr)):
            if not v.contains(float(value)):
                raise ContractError(f"value {value!r} outside variable {i} ({v.kind})")

    @cached_property
    def scalar_view(self) -> "ScalarView":
        """Standardized real view; raises for categorical variables."""
        return ScalarView(self)


class ScalarView:
    """Standardized coordinates for a categorical-free domain.

    ``decode`` maps a z-vector to a valid point: ``x = center + scale * z``
    clipped to bounds, with integer variables rounded to the nearest value.
    Integer variables get scale ``max(1, width / 6)`` so that one z-unit is
    a meaningful move.
    """

    def __init__(self, domain: DomainSpec):
        if domain.has_categorical:
            raise ConfigurationError(CATEGORICAL_NEEDS_BRIDGE)
        self.domain = domain
        n = len(domain.variables)
        self.dim = n
        self.center = domain.center()
        scale = np.ones(n)
        lo = np.full(n, -np.inf)
        hi = np.full(n, np.inf)
        int_mask = np.zeros(n, dtype=bool)
        for i, v in enumerate(domain.variables):
            if v.kind == CONTINUOUS:
                scale[i] = v.scale
                if v.lower is not None:
                    lo[i] = v.lower
                if v.upper is not None:
                    hi[i] = v.upper
            elif v.kind == INTEGER:
                scale[i] = max(1.0, (v.high - v.low) / 6.0)
                lo[i], hi[i] = v.low, v.high
                int_mask[i] = True
            else:  # unbounded integer
                int_mask[i] = True
        self.scale = scale
        self.lower = lo
        self.upper = hi
        self.int_mask = int_mask
        self.any_int = bool(int_mask.any())
        self.bounded = bool(np.isfinite(lo).any() or np.isfinite(hi).any())

    def decode(self, z: np.ndarray) -> np.ndarray:
        """The point of ``z``, or one point per row of an ``(n, dim)`` block."""
        x = self.center + self.scale * z
        if self.bounded:
            np.clip(x, self.lower, self.upper, out=x)
        if self.any_int:
            x[..., self.int_mask] = np.rint(x[..., self.int_mask])
        return x

    def encode(self, x: Sequence[float]) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.center) / self.scale

    def init_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Standardized box for population initialization.

        Bounded sides use the true bound; unbounded sides use ``+-2``.
        """
        lo, hi = self.encode(self.lower), self.encode(self.upper)  # +-inf where absent
        return np.where(np.isfinite(lo), lo, -2.0), np.where(np.isfinite(hi), hi, 2.0)
