"""Generator for LSGO-style composite instances.

Builds partially separable functions whose subcomponents (groups of decision
variables) have non-uniform sizes and non-uniform, possibly conflicting,
contributions: block sizes are log-uniform, weights are log-uniform over six
orders of magnitude, and each block gets its own shift and rotation.  In
overlap mode each block shares a quarter of its variables (at most all of
the previous block) with the previous block and no other.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..seeds import derive_seed
from .transforms import CompositeBlock, FunctionSpec, TransformSpec

_BLOCK_BASES = ("ellipsoid", "rosenbrock", "ackley", "sphere")


def lsgo_composite(
    dimension: int,
    num_blocks: int,
    transform_seed: int,
    overlap: bool = False,
) -> FunctionSpec:
    """A composite FunctionSpec with ``num_blocks`` random subcomponents.

    Sizes are log-uniform over ``[2, dimension/2]``, weights log-uniform over
    ``[1e-3, 1e3]``.  Raises when the requested blocks cannot fit in the
    dimension.
    """
    if dimension < 4:
        raise ConfigurationError("composite generation needs dimension >= 4")
    if num_blocks < 1:
        raise ConfigurationError("need at least one block")
    if 2 * num_blocks > dimension:  # every block needs two new variables at least
        raise ConfigurationError(
            f"dimension {dimension} too small for {num_blocks} blocks needing {2 * num_blocks} variables"
        )
    rng = np.random.default_rng(derive_seed(transform_seed, ["lsgo"]))
    hi = max(2, dimension // 2)

    def shared_with(size: int, prev: int) -> int:
        # a quarter of the block, taken from the previous block only
        return min(size // 4, prev) if overlap else 0

    sizes, shared = [], []
    available = dimension
    for i in range(num_blocks):
        reserve = 2 * (num_blocks - i - 1)
        prev = sizes[-1] if sizes else 0
        size = int(round(math.exp(rng.uniform(math.log(2.0), math.log(hi)))))
        size = min(max(size, 2), hi)
        while size - shared_with(size, prev) > available - reserve and size > 2:
            size -= 1  # clamp to the remaining capacity
        sizes.append(size)
        shared.append(shared_with(size, prev))
        available -= size - shared[-1]
    order = rng.permutation(dimension)
    blocks = []
    cursor = 0
    for i, size in enumerate(sizes):
        start = cursor - shared[i]
        idx = tuple(int(v) for v in order[start : start + size])
        cursor = start + size
        weight = float(math.exp(rng.uniform(math.log(1e-3), math.log(1e3))))
        blocks.append(
            CompositeBlock(
                base=_BLOCK_BASES[int(rng.integers(len(_BLOCK_BASES)))],
                indices=idx,
                weight=weight,
                seed=derive_seed(transform_seed, ["block", i]),
            )
        )
    return FunctionSpec(
        base="lsgo_composite",
        dimension=dimension,
        transform=TransformSpec(transform_seed=transform_seed),
        blocks=tuple(blocks),
    )
