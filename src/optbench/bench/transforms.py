"""Benchmark instances: base function + transform stack + optional blocks.

A continuous instance evaluates ``g(x) = f(S M (x - t)) + noise_std * nu``
with a fresh standard normal ``nu`` per call.  Transforms apply in the fixed
order translate, rotate, symmetrize; the optimum therefore sits at ``t`` in
original coordinates (shifted by the base minimizer where it is not zero).
The noise-free part ``g0`` stays available as an oracle for simple-regret
scoring and never spends evaluation budget.

The one table ``_KINDS`` maps a base name to one of three instance kinds:
plain catalog functions (the default), ``lsgo_composite`` weighted block sums
and ``simple_tsp`` tour lengths.  Each kind checks a spec when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..domain import DomainSpec, _finite, _whole
from ..errors import ConfigurationError
from ..seeds import derive_seed
from .functions import UNBOUNDED_CONTINUOUS, get_base
from .tsp import decode_tour, tour_length, tsp_cities, tsp_domain


@dataclass(frozen=True)
class TransformSpec:
    """How a base function is disguised into a benchmark instance.

    ``far_optimum`` multiplies the translation standard deviation by 5
    (variance times 25) to test recovery from a bad initialization.
    """

    translation_std: float = 0.0
    far_optimum: bool = False
    rotate: bool = False
    symmetrize: bool = False
    noise_std: float = 0.0
    transform_seed: int = 0

    def __post_init__(self):
        for name in ("translation_std", "noise_std"):
            if _finite(getattr(self, name), name) < 0:
                raise ConfigurationError("standard deviations must be non-negative")
        for name in ("far_optimum", "rotate", "symmetrize"):
            if not isinstance(value := getattr(self, name), bool):
                raise ConfigurationError(f"{name} must be true or false, got {value!r}")
        _whole(self.transform_seed, "transform_seed")

    @property
    def effective_translation_std(self) -> float:
        return self.translation_std * (5.0 if self.far_optimum else 1.0)

    @property
    def is_affine(self) -> bool:
        return self.translation_std > 0 or self.rotate or self.symmetrize


@dataclass(frozen=True)
class CompositeBlock:
    """One subcomponent of a composite function.

    ``seed`` selects the block's own shift and rotation; ``None`` leaves the
    block untransformed.
    """

    base: str
    indices: tuple[int, ...]
    weight: float
    seed: int | None = None

    def __post_init__(self):
        if _finite(self.weight, "a block weight") == 0:
            raise ConfigurationError("composite block weights must be nonzero")
        if not self.indices:
            raise ConfigurationError("composite blocks need at least one variable")
        for value in self.indices if self.seed is None else (*self.indices, self.seed):
            _whole(value, "a block index or seed")


@dataclass(frozen=True)
class FunctionSpec:
    """A reproducible benchmark instance description."""

    base: str
    dimension: int
    transform: TransformSpec = field(default_factory=TransformSpec)
    blocks: tuple[CompositeBlock, ...] | None = None

    def __post_init__(self):
        if _whole(self.dimension, "dimension") < 1:
            raise ConfigurationError("dimension must be positive")
        _KINDS.get(self.base, BenchmarkFunction).check(self)

    @property
    def instance_name(self) -> str:
        parts = [self.base, f"d{self.dimension}"]
        t = self.transform
        if t.translation_std > 0:
            parts.append("far" if t.far_optimum else "tr")
        if t.rotate:
            parts.append("rot")
        if t.symmetrize:
            parts.append("sym")
        if t.noise_std > 0:
            parts.append(f"n{t.noise_std:g}")
        return "-".join(parts)


def _haar_orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    gauss = rng.standard_normal((d, d))
    q, r = np.linalg.qr(gauss)
    return q * np.sign(np.diag(r))


class BenchmarkFunction:
    """Callable instance with a noise-free oracle and analytic minimum.

    Calling the object returns a (possibly noisy) loss; ``noise_free`` is
    the oracle used only for scoring recommendations; ``batch`` and
    ``noise_free_batch`` evaluate a block of points at once.  This is the
    plain catalog kind; the others override ``check`` and the three hooks
    below, and their batches loop over the rows.
    """

    def __init__(self, spec: FunctionSpec, noise_seed: int | None = None):
        self.spec = spec
        t = spec.transform
        d = spec.dimension
        rng = np.random.default_rng(derive_seed(t.transform_seed, ["transform"]))
        self._t = None
        self._M = None
        self._S = None
        if t.translation_std > 0:
            self._t = t.effective_translation_std * rng.standard_normal(d)
        if t.rotate:
            self._M = _haar_orthogonal(rng, d)
        if t.symmetrize:
            self._S = np.where(rng.random(d) < 0.5, -1.0, 1.0)
        self.noise_std = t.noise_std
        self._noise_rng = np.random.default_rng(
            derive_seed(t.transform_seed if noise_seed is None else noise_seed, ["noise"])
        )
        self._setup(spec)

    @classmethod
    def check(cls, spec: FunctionSpec) -> None:
        """Raise ConfigurationError for a spec this kind cannot build."""
        if spec.blocks:
            raise ConfigurationError("only lsgo_composite specs carry blocks")
        base = get_base(spec.base)
        if base.discrete and spec.transform.is_affine:
            raise ConfigurationError(f"translate/rotate/symmetrize do not apply to {spec.base!r}")
        if spec.dimension < base.min_dimension:
            raise ConfigurationError(f"{spec.base!r} needs dimension >= {base.min_dimension}")

    #: ``_inner`` of every row of an ``(n, d)`` block, or None to loop over the rows
    _rows = None

    def _setup(self, spec: FunctionSpec) -> None:
        """Set ``domain``, ``known_minimum`` (None unless analytic) and the kind's state."""
        self._base = get_base(spec.base)
        self.domain = self._base.default_domain(spec.dimension)
        self.known_minimum = self._base.minimum_value
        self._rows = self._base.rows

    def _inner(self, y: np.ndarray) -> float:
        """The objective in transformed coordinates."""
        return self._base.fn(y)

    def _inner_minimum(self) -> np.ndarray:
        """The minimizer in transformed coordinates, read when ``known_minimum`` is set."""
        return self._base.minimum_point(self.spec.dimension)

    @property
    def minimum_point(self) -> np.ndarray | None:
        if self.known_minimum is None:
            return None
        x = self._inner_minimum()
        if self._S is not None:
            x = self._S * x
        if self._M is not None:
            x = self._M.T @ x
        if self._t is not None:
            x = x + self._t
        return x

    def noise_free(self, point) -> float:
        y = np.asarray(point, dtype=float)
        if self._t is not None:
            y = y - self._t
        if self._M is not None:
            y = np.dot(self._M, y)
        if self._S is not None:
            y = self._S * y
        return self._inner(y)

    def __call__(self, point) -> float:
        value = self.noise_free(point)
        if self.noise_std > 0:
            value += self.noise_std * self._noise_rng.standard_normal()
        return value

    def noise_free_batch(self, points) -> np.ndarray:
        """``noise_free`` of each row of ``points``, bit for bit.

        ``np.matmul(M, ys[:, :, None])`` is one matrix-vector product per
        row, as ``np.dot(M, y)`` is (``ys @ M.T`` can differ in the last
        bit).  Kinds and bases without a row kernel evaluate row by row.
        """
        ys = np.ascontiguousarray(points, dtype=float)
        if self._t is not None:
            ys = ys - self._t
        if self._M is not None:
            ys = np.matmul(self._M, ys[:, :, None])[:, :, 0]
        if self._S is not None:
            ys = self._S * ys
        rows = self._rows
        return np.array([self._inner(y) for y in ys]) if rows is None else rows(ys)

    def batch(self, points) -> np.ndarray:
        """The losses of the rows of ``points``: row i equals ``self(points[i])``
        bit for bit, and the noise stream moves on as after that many calls
        (one ``standard_normal(n)`` draw equals n scalar draws).  The noise
        is drawn last, so a batch that raises leaves the stream unchanged."""
        values = self.noise_free_batch(points)
        if self.noise_std > 0:
            values += self.noise_std * self._noise_rng.standard_normal(len(values))
        return values


class _Composite(BenchmarkFunction):
    """Weighted sum of catalog functions over (possibly shared) index blocks."""

    @classmethod
    def check(cls, spec: FunctionSpec) -> None:
        if not spec.blocks:
            raise ConfigurationError("composite specs need at least one block")
        for block in spec.blocks:
            if max(block.indices) >= spec.dimension:
                raise ConfigurationError("block indices exceed the dimension")
            base = get_base(block.base)
            if base.discrete:
                raise ConfigurationError("composite blocks must be continuous bases")
            if len(block.indices) < base.min_dimension:
                raise ConfigurationError(f"a {block.base!r} block needs at least {base.min_dimension} indices")

    def _setup(self, spec: FunctionSpec) -> None:
        self.domain = DomainSpec((UNBOUNDED_CONTINUOUS,) * spec.dimension)
        sets = [set(block.indices) for block in spec.blocks]
        # overlapping blocks can conflict, so only disjoint ones have a known minimum
        self.known_minimum = 0.0 if sum(map(len, sets)) == len(set().union(*sets)) else None
        self._gather, self._shift, self._entries = _block_plan(spec.blocks)

    def _inner(self, y: np.ndarray) -> float:
        # one gather and one shift for all blocks; block i owns z[start:stop]
        z = y[self._gather]
        z -= self._shift
        total = 0.0
        for fn, start, stop, weight, rotation in self._entries:
            sub = z[start:stop]
            if rotation is not None:
                sub = np.dot(rotation, sub)
            total += weight * fn(sub)
        return total

    def _inner_minimum(self) -> np.ndarray:
        inner = np.zeros(self.spec.dimension)
        for block, (_fn, start, stop, _weight, rotation) in zip(self.spec.blocks, self._entries):
            m = get_base(block.base).minimum_point(stop - start)
            if rotation is not None:
                m = self._shift[start:stop] + rotation.T @ m
            inner[self._gather[start:stop]] = m
        return inner


@lru_cache(maxsize=8)
def _block_plan(blocks: tuple[CompositeBlock, ...]) -> tuple[np.ndarray, np.ndarray, tuple]:
    """A composite's concatenated block indices and shifts, and one
    ``(fn, start, stop, weight, rotation)`` entry per block in spec order.

    A block without a seed has a zero shift and no rotation.  Instances with
    equal blocks share the result, so its arrays are read-only.
    """
    shifts, entries, start = [], [], 0
    for block in blocks:
        size = len(block.indices)
        shift, rotation = np.zeros(size), None
        if block.seed is not None:
            brng = np.random.default_rng(derive_seed(block.seed, ["block"]))
            shift = brng.standard_normal(size)
            rotation = _haar_orthogonal(brng, size)
            rotation.flags.writeable = False
        shifts.append(shift)
        entries.append((get_base(block.base).fn, start, start + size, block.weight, rotation))
        start += size
    gather = np.array([i for block in blocks for i in block.indices], dtype=np.intp)
    shift = np.concatenate(shifts)
    gather.flags.writeable = shift.flags.writeable = False
    return gather, shift, tuple(entries)


class _Tsp(BenchmarkFunction):
    """Closed-tour length over random planar cities, Lehmer-code encoded."""

    @classmethod
    def check(cls, spec: FunctionSpec) -> None:
        if spec.blocks or spec.transform.is_affine:
            raise ConfigurationError(f"{spec.base!r} takes no blocks and no translate/rotate/symmetrize")

    def _setup(self, spec: FunctionSpec) -> None:
        self._cities = tsp_cities(spec.dimension, spec.transform.transform_seed)
        self.domain = tsp_domain(spec.dimension)
        self.known_minimum = None

    def _inner(self, y: np.ndarray) -> float:
        return tour_length(self._cities, decode_tour(y))


_KINDS: dict[str, type[BenchmarkFunction]] = {"lsgo_composite": _Composite, "simple_tsp": _Tsp}


def make_function(spec: FunctionSpec, noise_seed: int | None = None) -> BenchmarkFunction:
    """Instantiate a benchmark: transforms drawn from the transform seed."""
    return _KINDS.get(spec.base, BenchmarkFunction)(spec, noise_seed=noise_seed)
