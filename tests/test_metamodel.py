import numpy as np
import pytest

from optbench import DomainSpec, RunContext, continuous, run_loop
from optbench.solvers.metamodel import (
    MetamodelWrapper,
    metamodel_min_points,
    metamodel_propose,
    metamodel_window,
)
from optbench.wizard import build_optimizer


def random_pd_quadratic(rng, d):
    q, _r = np.linalg.qr(rng.standard_normal((d, d)))
    eigs = rng.uniform(0.5, 5.0, size=d)
    A = (q * eigs) @ q.T
    b = rng.standard_normal(d)
    c = float(rng.standard_normal())
    minimizer = np.linalg.solve(A, -0.5 * b)
    return A, b, c, minimizer


@pytest.mark.parametrize("d", [2, 5, 10])
def test_recovers_analytic_minimizer(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        A, b, c, minimizer = random_pd_quadratic(rng, d)
        pts = minimizer + rng.standard_normal((metamodel_min_points(d) + 5, d))
        losses = np.array([x @ A @ x + b @ x + c for x in pts])
        proposal = metamodel_propose(pts, losses)
        assert proposal is not None
        assert np.linalg.norm(proposal - minimizer) < 1e-6


def test_fitted_model_gradient_matches_finite_differences():
    # the fit's gradient field agrees with central finite differences of the
    # true loss surface, so the recovered minimizer is a true stationary point
    rng = np.random.default_rng(5)
    d = 4
    A, b, c, _minimizer = random_pd_quadratic(rng, d)

    def loss(x):
        return float(x @ A @ x + b @ x + c)

    pts = rng.standard_normal((metamodel_min_points(d) + 10, d))
    values = np.array([loss(x) for x in pts])
    from optbench.solvers.metamodel import fit_quadratic

    quad, bb, _cc, mean, scale = fit_quadratic(pts, values)
    probe = rng.standard_normal(d)
    u = (probe - mean) / scale
    model_grad = (bb + 2.0 * quad @ u) / scale  # chain rule back to x-space
    h = 1e-5
    for i in range(d):
        e = np.zeros(d)
        e[i] = h
        fd = (loss(probe + e) - loss(probe - e)) / (2 * h)
        assert model_grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-6)


def test_insufficient_points_yield_no_proposal():
    pts = np.zeros((3, 5))
    assert metamodel_propose(pts, np.zeros(3)) is None


def test_non_positive_definite_quadratic_rejected():
    rng = np.random.default_rng(0)
    d = 3
    pts = rng.standard_normal((metamodel_min_points(d) + 5, d))
    losses = np.array([-(x @ x) for x in pts])  # concave: negative eigenvalues
    assert metamodel_propose(pts, losses) is None


def test_minimizer_outside_inflated_box_rejected():
    rng = np.random.default_rng(1)
    d = 2
    # quadratic with minimizer far outside the sampled cloud
    minimizer = np.array([50.0, 50.0])
    pts = rng.standard_normal((metamodel_min_points(d) + 5, d))
    losses = np.array([(x - minimizer) @ (x - minimizer) for x in pts])
    assert metamodel_propose(pts, losses) is None


def test_wrapper_converges_fast_on_quadratic():
    dom = DomainSpec([continuous() for _ in range(4)])
    target = np.array([0.3, -0.5, 1.2, 0.8])

    def f(x):
        return float((x - target) @ (x - target))

    ctx = RunContext(dom, budget=400, master_seed=2)
    rec, _ = run_loop("meta(cma)", f, ctx)
    assert f(rec.point) < 1e-8


def test_wrapper_marks_child_generation():
    dom = DomainSpec([continuous(), continuous()])
    ctx = RunContext(dom, budget=50, master_seed=3)
    handle = build_optimizer("meta(cma)", ctx)
    assert isinstance(handle, MetamodelWrapper)
    assert handle.generation_size == handle.child.generation_size


def test_nested_wrappers_follow_a_growing_tbpsa_generation():
    # a noisy constant makes tbpsa double its population; both wrappers must see each new size
    ctx = RunContext(DomainSpec([continuous() for _ in range(3)]), budget=3000, noisy=True, master_seed=0)
    outer = build_optimizer("meta(meta(tbpsa))", ctx)
    tbpsa = outer.child.child
    lam0 = tbpsa.lam
    rng = np.random.default_rng(0)
    attempts = []  # (tells at the attempt, the tbpsa generation size then)
    for _ in range(1500):
        before = outer._tells_at_attempt
        cand = outer.ask()
        if outer._tells_at_attempt != before:
            attempts.append((outer.num_tells, tbpsa.lam))
        outer.tell(cand, float(rng.normal()))
    assert tbpsa.lam >= 8 * lam0  # it doubled at least three times
    assert outer.generation_size == outer.child.generation_size == tbpsa.lam
    assert len(attempts) > 3
    assert all(later - earlier >= lam for (earlier, _), (later, lam) in zip(attempts, attempts[1:]))


def test_a_proposal_depends_only_on_the_last_window_of_points():
    rng = np.random.default_rng(7)
    d = 3
    A, b, c, _minimizer = random_pd_quadratic(rng, d)
    window = metamodel_window(d)
    pts = rng.standard_normal((3 * window + 4, d))
    losses = np.array([x @ A @ x + b @ x + c for x in pts])
    full = metamodel_propose(pts, losses)
    assert full is not None
    assert metamodel_propose(pts[-window:], losses[-window:]).tobytes() == full.tobytes()


def test_wrapper_keeps_only_the_window_it_fits():
    dom = DomainSpec([continuous() for _ in range(3)])
    handle = build_optimizer("meta(cma)", RunContext(dom, budget=300, master_seed=4))
    told = []
    for _ in range(handle.budget):
        cand = handle.ask()
        handle.tell(cand, float(cand.point @ cand.point))
        told.append((cand.point.tobytes(), float(cand.point @ cand.point)))
    window = metamodel_window(3)
    assert [(p.tobytes(), loss) for p, loss in zip(handle._points, handle._losses)] == told[-window:]
