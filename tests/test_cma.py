import numpy as np
from scipy.stats import ranksums

from optbench import DomainSpec, RunContext, continuous, run_loop
from optbench.bench import FunctionSpec, TransformSpec, make_function
from optbench.solvers.cma import EIGEN_FLOOR, CmaEs, recombination_weights


def test_recombination_weights_positive_decreasing_normalized():
    for mu in (1, 2, 3, 5, 10):
        w = recombination_weights(mu)
        assert np.all(w > 0)
        assert np.all(np.diff(w) <= 0)
        assert abs(w.sum() - 1.0) < 1e-12


def run_cma(f, d, budget, seed, diagonal=False):
    ctx = RunContext(f.domain, budget=budget, master_seed=seed)
    handle = CmaEs(ctx, seed=seed, diagonal=diagonal)
    rec, _ = run_loop(handle, f, ctx)
    return handle, rec


def test_covariance_stays_symmetric():
    spec = FunctionSpec("rosenbrock", 4, TransformSpec(translation_std=1.0, transform_seed=0))
    f = make_function(spec)
    ctx = RunContext(f.domain, budget=60, master_seed=0)
    handle = CmaEs(ctx, seed=0)
    for _ in range(60):
        cand = handle.ask()
        handle.tell(cand, f(cand.point))
        assert np.max(np.abs(handle.cov - handle.cov.T)) < 1e-12


def test_diagonal_variant_never_touches_off_diagonals():
    spec = FunctionSpec("ellipsoid", 5, TransformSpec(translation_std=1.0, transform_seed=1))
    f = make_function(spec)
    handle, _rec = run_cma(f, 5, 400, seed=1, diagonal=True)
    assert handle.cov is None  # only a diagonal vector exists by construction
    assert handle.cov_diag.shape == (5,)


def test_sphere_d2_median_under_1e6_over_20_seeds():
    # expected value derived by direct runs of a plain reference setup
    finals = []
    for seed in range(20):
        spec = FunctionSpec("sphere", 2, TransformSpec(translation_std=1.0, transform_seed=seed))
        f = make_function(spec)
        _h, rec = run_cma(f, 2, 500, seed)
        finals.append(f.noise_free(rec.point))
    assert float(np.median(finals)) < 1e-6


def test_rotation_invariance_rank_sum():
    # solver-level invariance: losses on an exact quadratic vs its rotation
    # are statistically indistinguishable across seeds
    plain, rotated = [], []
    for seed in range(20):
        for rotate, out in ((False, plain), (True, rotated)):
            spec = FunctionSpec(
                "ellipsoid", 5, TransformSpec(rotate=rotate, transform_seed=100 + seed)
            )
            f = make_function(spec)
            _h, rec = run_cma(f, 5, 1500, seed)
            out.append(f.noise_free(rec.point))
    _stat, p = ranksums(np.log10(plain), np.log10(rotated))
    assert p > 0.01


def test_generation_buffer_supports_wide_parallelism():
    dom = DomainSpec([continuous() for _ in range(3)])
    ctx = RunContext(dom, budget=100, num_workers=50)
    handle = CmaEs(ctx, seed=4)
    cands = [handle.ask() for _ in range(50)]  # far beyond lambda
    assert len({c.id for c in cands}) == 50
    for c in cands:
        handle.tell(c, float(c.point @ c.point))
    assert handle.num_tells == 50


def test_decompose_floors_small_eigenvalues_and_rebuilds_the_covariance():
    handle = CmaEs(RunContext(DomainSpec([continuous() for _ in range(3)]), budget=50), seed=0)
    handle.cov = np.diag([4.0, 0.0, 1.0])
    handle._decompose()
    assert sorted(handle._eig_scale ** 2) == [EIGEN_FLOOR, 1.0, 4.0]
    assert np.array_equal(handle.cov, np.diag([4.0, EIGEN_FLOOR, 1.0]))
    healthy = np.diag([4.0, 2.0, 1.0])
    handle.cov = healthy
    handle._decompose()
    assert handle.cov is healthy  # rebuilt only when an eigenvalue was floored
