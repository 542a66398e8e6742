import numpy as np

from optbench import DomainSpec, RunContext, continuous, run_loop
from optbench.bench import FunctionSpec, TransformSpec, make_function
from optbench.solvers.tbpsa import RECOMMENDATION_WINDOW, Tbpsa


def make_tbpsa(d=2, budget=400, seed=0, noisy=False, **kwargs):
    dom = DomainSpec([continuous() for _ in range(d)])
    return Tbpsa(RunContext(dom, budget=budget, noisy=noisy), seed=seed, **kwargs)


def test_naive_recommends_argmin_of_observations():
    t = make_tbpsa(seed=1, naive=True)
    losses = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0]
    cands = []
    for loss in losses:
        cand = t.ask()
        t.tell(cand, loss)
        cands.append(cand)
    rec = t.recommend()
    assert np.array_equal(rec.point, cands[1].point)


def test_elite_center_is_mean_of_top_quarter():
    # lambda 4, elite fraction 0.5 -> elite = best 2 of 4
    t = make_tbpsa(d=2, seed=2, population_size=4, elite_fraction=0.5)
    points = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0), (2.0, 2.0)]
    losses = [1.0, 2.0, 3.0, 4.0]
    for p, loss in zip(points, losses):
        cand = t.ask()
        cand.payload = (np.asarray(p), cand.payload[1])  # pin the sample position
        t.tell(cand, loss)
    assert np.allclose(t.center, [1.0, 0.0])  # mean of (0,0) and (2,0)


def test_population_doubles_on_stagnation():
    t = make_tbpsa(d=2, seed=3, population_size=4)
    lam0 = t.lam
    # three generations with non-improving elite means
    for gen in range(3):
        lam = t.lam
        for _ in range(lam):
            t.tell(t.ask(), 1.0)
    assert t.lam == 2 * lam0


def test_recommendation_within_told_box():
    # aggregated center stays in the per-coordinate envelope of told points
    t = make_tbpsa(d=3, budget=600, seed=4)
    rng = np.random.default_rng(0)
    points = []
    for _ in range(600):
        cand = t.ask()
        points.append(cand.point)
        t.tell(cand, float(cand.point @ cand.point + rng.normal()))
    rec = t.recommend()
    pts = np.asarray(points)
    assert np.all(rec.point >= pts.min(axis=0) - 1e-12)
    assert np.all(rec.point <= pts.max(axis=0) + 1e-12)


def test_recommendation_buffer_nonempty_after_first_generation():
    t = make_tbpsa(d=2, seed=5, population_size=4)
    for _ in range(4):
        t.tell(t.ask(), 1.0)
    assert len(t.center_history) == 1


def test_center_history_keeps_the_window_the_recommendation_averages():
    t = make_tbpsa(d=3, budget=2000, seed=6)
    centers = [t.center]  # every center, the start included
    rng = np.random.default_rng(1)
    for _ in range(t.budget):
        cand = t.ask()
        t.tell(cand, float(cand.point @ cand.point + rng.normal()))
        if t.center is not centers[-1]:
            centers.append(t.center)
            assert len(t.center_history) <= RECOMMENDATION_WINDOW
            want = t._view.decode(np.mean(centers[1:][-RECOMMENDATION_WINDOW:], axis=0))
            assert t.recommend().point.tobytes() == want.tobytes()
    assert len(centers) > 2 * RECOMMENDATION_WINDOW


def test_ask_differs_from_recommend_under_noise():
    # the aggregated recommendation almost never equals the best single
    # observation; simple regrets differ in the vast majority of seeds
    differing = 0
    for seed in range(20):
        spec = FunctionSpec(
            "sphere", 10, TransformSpec(translation_std=1.0, noise_std=1.0, transform_seed=seed)
        )
        f = make_function(spec, noise_seed=seed)
        ctx = RunContext(f.domain, budget=5000, noisy=True, master_seed=seed)
        handle = Tbpsa(ctx, seed=seed)
        rec, _ = run_loop(handle, f, ctx)
        best_single = min(handle.archive, key=lambda c: min(c.observations))
        r_rec = f.noise_free(rec.point)
        r_naive = f.noise_free(best_single.point)
        if abs(r_rec - r_naive) > 1e-12:
            differing += 1
    assert differing >= 18  # > 90% of 20 seeds


def test_noise_free_convergence_is_reasonable():
    spec = FunctionSpec("sphere", 5, TransformSpec(translation_std=1.0, transform_seed=9))
    f = make_function(spec)
    ctx = RunContext(f.domain, budget=3000, master_seed=9)
    rec, _ = run_loop("tbpsa", f, ctx)
    assert f.noise_free(rec.point) < 1e-3
