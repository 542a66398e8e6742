import gc
import math
import weakref

import numpy as np
import pytest

from optbench import DomainSpec, RunContext, continuous, run_loop
from optbench.solvers import localsearch
from optbench.solvers.localsearch import (
    Powell,
    SlidingModel,
    TrustRegion,
    quadratic_fit_step,
)
from optbench.solvers.metamodel import fit_quadratic, quadratic_feature_count


def test_linear_step_descends_to_clipped_boundary():
    # archive {0, 0.5} on f(x) = x over [-1, 1], rho 1: proposal -1
    points = np.array([[0.0], [0.5]])
    losses = np.array([0.0, 0.5])
    model = SlidingModel(points, losses, quadratic=False)
    proposal = quadratic_fit_step(model.fit(), origin=np.array([0.0]), rho=1.0)
    dom = DomainSpec([continuous(-1.0, 1.0)])
    clipped = dom.scalar_view.decode(dom.scalar_view.encode(proposal))
    assert clipped[0] == -1.0


def test_quadratic_step_proposes_exact_vertex():
    # archive {0, 1, 2} on f(x) = (x-3)^2, rho 5: proposal x = 3
    points = np.array([[0.0], [1.0], [2.0]])
    losses = np.array([9.0, 4.0, 1.0])
    proposal = quadratic_fit_step(fit_quadratic(points, losses), origin=np.array([2.0]), rho=5.0)
    assert proposal is not None
    assert abs(proposal[0] - 3.0) < 1e-9


def test_quadratic_step_clips_to_trust_radius():
    points = np.array([[0.0], [1.0], [2.0]])
    losses = np.array([9.0, 4.0, 1.0])
    proposal = quadratic_fit_step(fit_quadratic(points, losses), origin=np.array([2.0]), rho=0.5)
    assert abs(proposal[0] - 2.5) < 1e-9


def test_degenerate_fit_returns_none():
    points = np.array([[1.0], [1.0], [1.0]])
    losses = np.array([2.0, 2.0, 2.0])
    assert SlidingModel(points[:2], losses[:2], quadratic=False).fit() is None
    assert fit_quadratic(points, losses) is None


def run_solver(solver_cls, f, dom, budget, seed=0, init=None, workers=1, **kwargs):
    ctx = RunContext(dom, budget=budget, num_workers=workers, master_seed=seed)
    handle = solver_cls(ctx, seed=seed, init_point=init, **kwargs)
    rec, history = run_loop(handle, f, ctx)
    return handle, rec, history


def test_powell_reaches_1e8_on_quadratic_within_three_sweeps():
    # analytic minimizer at the origin; three sweeps of two line searches
    # cost well under 200 evaluations at this dimension
    A = np.array([[3.0, 1.0], [1.0, 2.0]])
    dom = DomainSpec([continuous(), continuous()])

    def f(x):
        return float(x @ A @ x)

    _h, rec, history = run_solver(Powell, f, dom, budget=200, seed=1, init=np.array([5.0, 5.0]))
    assert min(loss for _i, loss in history) < 1e-8
    assert f(rec.point) < 1e-8


def test_powell_direction_set_stays_full_rank():
    dom = DomainSpec([continuous() for _ in range(4)])
    rng = np.random.default_rng(3)
    A = rng.standard_normal((4, 4))
    A = A @ A.T + np.eye(4)

    def f(x):
        return float(x @ A @ x)

    ctx = RunContext(dom, budget=600, master_seed=3)
    handle = Powell(ctx, seed=3, init_point=rng.standard_normal(4))
    for _ in range(600):
        cand = handle.ask()
        handle.tell(cand, f(cand.point))
        rank = np.linalg.matrix_rank(handle.directions, tol=1e-10)
        assert rank == 4


def test_powell_parallel_surplus_asks_are_valid():
    dom = DomainSpec([continuous(-2.0, 2.0) for _ in range(3)])
    ctx = RunContext(dom, budget=30, num_workers=10)
    handle = Powell(ctx, seed=4)
    cands = [handle.ask() for _ in range(10)]
    assert len({c.id for c in cands}) == 10
    for c in cands:
        dom.validate(c.point)
        handle.tell(c, float(c.point @ c.point))


def test_linear_trust_region_descends_sphere():
    dom = DomainSpec([continuous() for _ in range(5)])
    target = np.full(5, 1.5)

    def f(x):
        return float((x - target) @ (x - target))

    _h, rec, _ = run_solver(TrustRegion, f, dom, budget=400, seed=5)
    assert f(rec.point) < 1e-6


def test_quadratic_trust_region_exact_on_quadratics():
    dom = DomainSpec([continuous() for _ in range(3)])
    target = np.array([0.5, -1.0, 2.0])

    def f(x):
        return float((x - target) @ (x - target))

    _h, rec, _ = run_solver(TrustRegion, f, dom, budget=120, seed=6, quadratic=True)
    assert f(rec.point) < 1e-10


def test_noisy_mode_resamples_each_model_point_three_times():
    dom = DomainSpec([continuous(), continuous()])
    ctx = RunContext(dom, budget=60, noisy=True, master_seed=7)
    handle = TrustRegion(ctx, seed=7)
    points = []
    for _ in range(60):
        cand = handle.ask()
        points.append(tuple(cand.point))
        handle.tell(cand, float(cand.point @ cand.point))
    # consecutive triples of identical probe points
    assert points[0] == points[1] == points[2]
    assert points[3] == points[4] == points[5]
    assert points[0] != points[3]


def test_trust_radius_shrinks_on_failure():
    dom = DomainSpec([continuous()])
    ctx = RunContext(dom, budget=80, master_seed=8)
    handle = TrustRegion(ctx, seed=8)
    rho0 = handle.rho
    for _ in range(80):
        cand = handle.ask()
        handle.tell(cand, float(abs(cand.point[0])))
    assert handle.rho < rho0


def model_values(fit, x):
    quad, b, c, mean, scale = fit
    u = (x - mean) / scale
    return c + u @ b + np.einsum("ni,ij,nj->n", u, quad, u)


def check_slides_against_a_fresh_fit(d, p, quadratic, reference):
    rng = np.random.default_rng(d)
    slides = 3 * (p + 1)  # a full factorization follows every p updates
    walk = np.cumsum(rng.standard_normal((p + slides, d)), axis=0)
    values = rng.standard_normal(p + slides)
    model = SlidingModel(walk[:p], values[:p], quadratic)
    for t in range(p, p + slides):
        model.slide(walk[t], values[t])
        window = slice(t + 1 - p, t + 1)
        probe = rng.uniform(walk[window].min(axis=0), walk[window].max(axis=0), size=(10, d))
        expected = reference(walk[window], values[window], probe)
        got = model_values(model.fit(), probe)
        assert np.abs(got - expected).max() <= 1e-8 * np.abs(expected).max()
    assert model.factorizations - model.threshold_hits >= 3  # the first and two scheduled


@pytest.mark.parametrize("d", [3, 6])
def test_sliding_model_matches_a_fresh_fit_after_every_slide(d):
    def reference(points, values, probe):
        return model_values(fit_quadratic(points, values), probe)

    check_slides_against_a_fresh_fit(d, quadratic_feature_count(d), True, reference)


@pytest.mark.parametrize("d", [3, 6])
def test_linear_sliding_model_matches_lstsq_after_every_slide(d):
    def reference(points, values, probe):
        design = np.hstack([np.ones((len(points), 1)), points])
        coeffs = np.linalg.lstsq(design, values, rcond=None)[0]
        return coeffs[0] + probe @ coeffs[1:]

    check_slides_against_a_fresh_fit(d, d + 1, False, reference)


def test_duplicate_point_forces_a_factorization_that_rejects_the_window():
    rng = np.random.default_rng(1)
    points = rng.standard_normal((10, 3))
    values = rng.standard_normal(10)
    model = SlidingModel(points, values, quadratic=True)
    assert model.fit() is not None and model.factorizations == 1
    model.slide(points[4], 0.5)  # the oldest point leaves, a copy of points[4] enters
    assert model.threshold_hits == 1 and model.factorizations == 2
    assert model.fit() is None
    window = np.vstack([points[1:], points[4]])
    assert fit_quadratic(window, np.append(values[1:], 0.5)) is None


def test_full_factorizations_are_scheduled_or_forced(monkeypatch):
    models = []

    class Counted(SlidingModel):
        def __init__(self, points, values, quadratic):
            super().__init__(points, values, quadratic)
            self.slides = self.rejected = 0
            models.append(self)

        def slide(self, point, value):
            super().slide(point, value)
            self.slides += 1
            self.rejected += self.fit() is None  # the next slide factorizes again

    monkeypatch.setattr(localsearch, "SlidingModel", Counted)
    dom = DomainSpec([continuous() for _ in range(4)])

    def rosenbrock(x):
        return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))

    for _ in range(2):
        run_solver(TrustRegion, rosenbrock, dom, budget=400, seed=9, quadratic=True)
    first, second = models
    counts = [(m.slides, m.factorizations, m.threshold_hits, m.rejected) for m in models]
    assert counts[0] == counts[1]
    assert first.slides == 400 - quadratic_feature_count(4) - 1  # the last tell's loss is never sent
    scheduled = math.ceil(first.slides / first.size) + 1
    assert first.factorizations <= scheduled + first.threshold_hits + first.rejected


@pytest.mark.parametrize("solver, kwargs", [(TrustRegion, {"quadratic": True}), (Powell, {})])
def test_finished_probe_solver_is_freed_without_a_collection(solver, kwargs):
    dom = DomainSpec([continuous() for _ in range(3)])
    gc.disable()
    try:
        for workers in (1, 4):  # at 4 workers the last ask is inside a wave
            handle, _rec, _history = run_solver(solver, lambda x: float(x @ x), dom, budget=60, workers=workers,
                                                **kwargs)
            alive = weakref.ref(handle)
            del handle
            assert alive() is None, f"not freed at {workers} workers"
    finally:
        gc.enable()
