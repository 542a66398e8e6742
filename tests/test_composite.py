from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optbench.bench import CompositeBlock, FunctionSpec, TransformSpec, lsgo_composite, make_function
from optbench.bench.functions import CATALOG, get_base
from optbench.bench.transforms import _haar_orthogonal
from optbench.errors import ConfigurationError
from optbench.seeds import derive_seed


def test_disjoint_blocks_minimum_at_global_shift():
    # two untransformed sphere blocks plus an outer translation: the shift
    # is the exact minimizer with value 0
    blocks = (
        CompositeBlock("sphere", (0, 1), 1.0),
        CompositeBlock("sphere", (2, 3), 10.0),
    )
    spec = FunctionSpec(
        "lsgo_composite",
        4,
        TransformSpec(translation_std=1.0, transform_seed=5),
        blocks=blocks,
    )
    f = make_function(spec)
    assert f.noise_free(f._t) == 0.0
    assert f.known_minimum == 0.0
    assert np.allclose(f.minimum_point, f._t)


def test_block_weights_scale_contributions():
    blocks = (
        CompositeBlock("sphere", (0,), 1.0),
        CompositeBlock("sphere", (1,), 10.0),
    )
    spec = FunctionSpec("lsgo_composite", 2, TransformSpec(transform_seed=1), blocks=blocks)
    f = make_function(spec)
    assert f.noise_free(np.array([1.0, 0.0])) == 1.0
    assert f.noise_free(np.array([0.0, 1.0])) == 10.0


def test_overlapping_blocks_share_variables():
    spec = lsgo_composite(30, 3, transform_seed=2, overlap=True)
    index_sets = [set(b.indices) for b in spec.blocks]
    shared = [index_sets[i] & index_sets[i + 1] for i in range(len(index_sets) - 1)]
    assert all(len(s) == len(spec.blocks[i + 1].indices) // 4 for i, s in enumerate(shared))
    assert f_known_minimum_is_none(spec)


def f_known_minimum_is_none(spec):
    return make_function(spec).known_minimum is None


def test_generated_block_sizes_are_bounded_and_varied():
    # direct sampling of the generator: sizes within [2, d/2] and non-constant
    sizes = []
    for seed in range(100):
        spec = lsgo_composite(50, 4, transform_seed=seed)
        sizes.extend(len(b.indices) for b in spec.blocks)
    assert min(sizes) >= 2
    assert max(sizes) <= 25
    assert len(set(sizes)) > 1


def test_generated_weights_span_orders_of_magnitude():
    weights = []
    for seed in range(100):
        spec = lsgo_composite(50, 4, transform_seed=seed)
        weights.extend(b.weight for b in spec.blocks)
    assert min(weights) >= 1e-3 and max(weights) <= 1e3
    assert max(weights) / min(weights) > 1e2


def test_disjoint_generated_composite_has_analytic_minimum():
    spec = lsgo_composite(40, 3, transform_seed=3, overlap=False)
    f = make_function(spec)
    assert f.known_minimum == 0.0
    assert f.noise_free(f.minimum_point) == pytest.approx(0.0, abs=1e-10)


def test_dimension_too_small_rejected():
    with pytest.raises(ConfigurationError):
        lsgo_composite(8, 10, transform_seed=0)
    with pytest.raises(ConfigurationError):
        lsgo_composite(3, 1, transform_seed=0)


def test_block_validation():
    with pytest.raises(ConfigurationError):
        CompositeBlock("sphere", (0, 1), 0.0)
    with pytest.raises(ConfigurationError):
        CompositeBlock("sphere", (), 1.0)
    with pytest.raises(ConfigurationError):
        FunctionSpec(
            "lsgo_composite",
            2,
            TransformSpec(),
            blocks=(CompositeBlock("sphere", (5,), 1.0),),
        )
    with pytest.raises(ConfigurationError):
        FunctionSpec("lsgo_composite", 4, TransformSpec())  # needs blocks
    with pytest.raises(ConfigurationError):
        FunctionSpec("sphere", 4, TransformSpec(), blocks=(CompositeBlock("sphere", (0,), 1.0),))


def test_generation_is_deterministic():
    a = lsgo_composite(50, 5, transform_seed=42, overlap=True)
    b = lsgo_composite(50, 5, transform_seed=42, overlap=True)
    assert a == b


@pytest.mark.parametrize("dimension, num_blocks", [(50, 5), (200, 8), (200, 10)])
def test_overlapping_blocks_share_only_the_previous_block(dimension, num_blocks):
    # a block's quarter overlap used to reach past a smaller previous block
    for seed in range(200):
        blocks = [b.indices for b in lsgo_composite(dimension, num_blocks, seed, overlap=True).blocks]
        assert len(blocks) == num_blocks
        for i, block in enumerate(blocks):
            assert block and all(0 <= v < dimension for v in block)
            if i == 0:
                continue
            earlier = set().union(*blocks[:i])
            assert set(block) & earlier <= set(blocks[i - 1])
            assert len(set(block) & set(blocks[i - 1])) == min(len(block) // 4, len(blocks[i - 1]))


def test_shipped_lsgo_lite_specs_are_unchanged():
    import hashlib
    import json

    from optbench.bench.suites import get_suite, suite_to_manifest

    manifest = json.dumps(suite_to_manifest(get_suite("lsgo_lite")), sort_keys=True)
    assert (
        hashlib.sha256(manifest.encode()).hexdigest()
        == "02ee6d73e5e6ae998b05834875c11eb1f77a8567058c7608cc07ec37f8458398"
    )


CONTINUOUS_BASES = sorted(name for name, base in CATALOG.items() if not base.discrete)


def per_block_formula(f, x):
    """sum_i w_i f_i(R_i (y[idx_i] - t_i)), one block at a time, with y the
    outer-transformed point and each block's shift and rotation drawn anew."""
    y = np.asarray(x, dtype=float)
    if f._t is not None:
        y = y - f._t
    if f._M is not None:
        y = f._M @ y
    total = 0.0
    for block in f.spec.blocks:
        sub = y[np.asarray(block.indices, dtype=int)]
        if block.seed is not None:
            rng = np.random.default_rng(derive_seed(block.seed, ["block"]))
            shift = rng.standard_normal(len(block.indices))
            sub = _haar_orthogonal(rng, len(block.indices)) @ (sub - shift)
        total += block.weight * get_base(block.base).fn(sub)
    return total


@given(
    st.integers(4, 120),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_composite_equals_the_per_block_formula_bit_for_bit(dimension, num_blocks, seed, overlap, outer, data):
    spec = lsgo_composite(dimension, min(num_blocks, dimension // 2), seed, overlap=overlap)
    n = len(spec.blocks)
    seedless = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bases = data.draw(st.lists(st.sampled_from(CONTINUOUS_BASES), min_size=n, max_size=n))
    blocks = tuple(
        replace(block, base=base, seed=None if drop else block.seed)
        for block, base, drop in zip(spec.blocks, bases, seedless)
    )
    transform = TransformSpec(translation_std=float(outer), rotate=outer, transform_seed=seed)
    f = make_function(replace(spec, transform=transform, blocks=blocks))
    points = np.random.default_rng(seed).standard_normal((5, dimension)) * data.draw(st.sampled_from([0.1, 1.0, 10.0]))
    points[0] = 0.0
    points[1, ::3] = 0.0
    for x in points:
        assert f.noise_free(x) == per_block_formula(f, x)


def test_instances_with_equal_blocks_share_read_only_block_data():
    spec = lsgo_composite(50, 5, transform_seed=4, overlap=True)
    a, b = make_function(spec), make_function(replace(spec))
    assert a._gather is b._gather and a._shift is b._shift and a._entries is b._entries
    rotations = [entry[4] for entry in a._entries]
    for array in (a._gather, a._shift, *rotations):
        assert not array.flags.writeable
    assert a._noise_rng is not b._noise_rng


@pytest.mark.parametrize(
    "name, pinned",
    [("griewank", "0x1.fd47c9e26821ep-1"), ("lunacek", "0x1.f83b8199dd7dcp+6"), ("hm", "0x1.49b9b6559cadap+5")],
)
def test_kernels_at_a_point_with_exact_zero_coordinates(name, pinned):
    # hm takes its zero branch there; griewank and lunacek are pinned beside it
    x = np.array([0.0, 1.5, -0.25, 2.0, 0.0, -3.75])
    assert CATALOG[name].fn(x).hex() == pinned
