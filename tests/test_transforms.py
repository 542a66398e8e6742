import numpy as np
import pytest

from optbench.bench import CompositeBlock, FunctionSpec, TransformSpec, make_function
from optbench.errors import ConfigurationError


def spec(base="sphere", d=5, **kwargs):
    seed = kwargs.pop("transform_seed", 7)
    return FunctionSpec(base, d, TransformSpec(transform_seed=seed, **kwargs))


def test_sphere_untransformed_minimum_at_center():
    f = make_function(spec())
    assert f(np.zeros(5)) == 0.0


def test_translation_moves_the_minimum_exactly():
    f = make_function(spec(translation_std=1.0))
    t = f.minimum_point
    assert f.noise_free(t) == 0.0
    assert f.noise_free(np.zeros(5)) > 0.0


def test_sphere_invariant_under_rotation():
    plain = make_function(spec(translation_std=1.0))
    rotated = make_function(spec(translation_std=1.0, rotate=True))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(5)
        # same translation (same seed): |x - t|^2 unchanged by the rotation
        assert rotated.noise_free(x) == pytest.approx(plain.noise_free(x), rel=1e-9)


def test_rotation_matrix_is_orthogonal():
    f = make_function(spec(base="ellipsoid", rotate=True))
    M = f._M
    assert np.max(np.abs(M.T @ M - np.eye(5))) < 1e-9
    assert abs(abs(np.linalg.det(M)) - 1.0) < 1e-9


def test_symmetrization_is_a_sign_involution():
    f = make_function(spec(base="ellipsoid", symmetrize=True))
    S = f._S
    assert set(np.unique(S)) <= {-1.0, 1.0}
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.standard_normal(5)
        assert f.noise_free(S * (S * x)) == pytest.approx(f.noise_free(x), rel=1e-12)


def test_far_optimum_scales_translation_std_by_five():
    base_spec = TransformSpec(translation_std=1.0, transform_seed=3)
    far_spec = TransformSpec(translation_std=1.0, far_optimum=True, transform_seed=3)
    assert far_spec.effective_translation_std == 5.0 * base_spec.effective_translation_std
    near = make_function(FunctionSpec("sphere", 5, base_spec))
    far = make_function(FunctionSpec("sphere", 5, far_spec))
    assert np.allclose(far._t, 5.0 * near._t)  # same draw, five times the spread


def test_transform_determinism_bit_exact():
    a = make_function(spec(translation_std=1.0, rotate=True, symmetrize=True))
    b = make_function(spec(translation_std=1.0, rotate=True, symmetrize=True))
    assert np.array_equal(a._t, b._t)
    assert np.array_equal(a._M, b._M)
    assert np.array_equal(a._S, b._S)


def test_minimum_value_preserved_under_all_transforms():
    for base in ("sphere", "cigar", "ellipsoid", "rosenbrock", "ackley", "griewank", "lunacek"):
        f = make_function(
            FunctionSpec(
                base,
                6,
                TransformSpec(
                    translation_std=1.0, rotate=True, symmetrize=True, transform_seed=11
                ),
            )
        )
        assert f.noise_free(f.minimum_point) == pytest.approx(0.0, abs=1e-12), base


def test_noise_statistics_match_requested_std():
    f = make_function(spec(noise_std=1.0, translation_std=1.0), noise_seed=123)
    x = np.ones(5)
    samples = np.array([f(x) for _ in range(10_000)])
    assert samples.std() == pytest.approx(1.0, rel=0.05)
    assert samples.mean() == pytest.approx(f.noise_free(x), abs=0.05)


def test_noise_free_oracle_is_deterministic_mean():
    f = make_function(spec(noise_std=2.0), noise_seed=9)
    x = np.full(5, 0.5)
    oracle = f.noise_free(x)
    samples = np.array([f(x) for _ in range(10_000)])
    # mean of noisy evaluations within a 3-sigma band of the oracle
    assert abs(samples.mean() - oracle) < 3.0 * 2.0 / np.sqrt(len(samples))


def test_noise_stream_reseeding():
    # one noise stream per run: the same noise seed replays the same stream
    f = make_function(spec(noise_std=1.0), noise_seed=1)
    g = make_function(spec(noise_std=1.0), noise_seed=1)
    first = [f(np.zeros(5)) for _ in range(5)]
    assert [g(np.zeros(5)) for _ in range(5)] == first
    assert len(set(first)) == 5


def test_transforms_rejected_for_discrete_bases():
    with pytest.raises(ConfigurationError):
        make_function(FunctionSpec("onemax", 5, TransformSpec(translation_std=1.0)))
    # noise alone is fine
    f = make_function(FunctionSpec("onemax", 5, TransformSpec(noise_std=0.5)))
    assert f.domain.all_discrete


def test_unknown_base_rejected():
    with pytest.raises(ConfigurationError):
        make_function(FunctionSpec("mystery", 5))


def test_instance_names_are_descriptive():
    s = FunctionSpec(
        "sphere", 5, TransformSpec(translation_std=1.0, rotate=True, noise_std=0.5, transform_seed=1)
    )
    assert s.instance_name == "sphere-d5-tr-rot-n0.5"


@pytest.mark.parametrize(
    "base, transform, blocks",
    [
        ("mystery", TransformSpec(), None),
        ("onemax", TransformSpec(rotate=True), None),
        ("simple_tsp", TransformSpec(translation_std=1.0), None),
        ("lsgo_composite", TransformSpec(), (CompositeBlock("onemax", (0, 1), 1.0),)),
        ("lsgo_composite", TransformSpec(), (CompositeBlock("mystery", (0, 1), 1.0),)),
    ],
    ids=["unknown-base", "rotated-onemax", "translated-tsp", "discrete-block", "unknown-block-base"],
)
def test_bad_specs_fail_when_built(base, transform, blocks):
    # before any cell builds the instance
    with pytest.raises(ConfigurationError):
        FunctionSpec(base, 5, transform, blocks)
