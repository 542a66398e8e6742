import math

import numpy as np
import pytest
from scipy.stats import chisquare

from optbench import (
    ConfigurationError,
    DomainSpec,
    RunContext,
    categorical,
    continuous,
    integer,
    run_loop,
    unbounded_integer,
)
from optbench.bench import FunctionSpec, make_function
from optbench.solvers import REGISTRY
from optbench.solvers.discrete import FastGa, strength_probabilities


def binary_domain(d):
    return DomainSpec([integer(0, 1) for _ in range(d)])


def onemax(x):
    return float(np.sum(x != 1.0))


def make_ea(d=10, budget=500, seed=0, variant="fixed", noisy=False):
    ctx = RunContext(binary_domain(d), budget=budget, noisy=noisy)
    return REGISTRY[f"discrete-{variant}"](ctx, seed=seed)


def test_improvement_accepted():
    ea = make_ea(d=3, seed=1)
    first = ea.ask()
    ea.tell(first, 3.0)  # parent now 'first' with loss 3 (OneMax 000)
    cand = ea.ask()
    ea.tell(cand, 2.0)
    assert np.array_equal(ea.parent, cand.point)
    assert ea.parent_loss == 2.0


def test_tie_moves_parent_but_not_adaptive_rate():
    ea = make_ea(d=8, seed=2, variant="adaptive")
    ea.tell(ea.ask(), 5.0)
    ea.rate = 1.0 / 8.0
    cand = ea.ask()
    ea.tell(cand, 5.0)  # tie: accepted as a move, counts as failure for the rate
    assert np.array_equal(ea.parent, cand.point)
    assert ea.rate == max(1.0 / 8.0, (1.0 / 8.0) * 2 ** -0.25)


def test_adaptive_success_doubles_rate():
    ea = make_ea(d=8, seed=3, variant="adaptive")
    ea.tell(ea.ask(), 5.0)
    ea.rate = 1.0 / 8.0
    ea.tell(ea.ask(), 4.0)
    assert ea.rate == 0.25


def test_adaptive_rate_bounded_under_random_schedules():
    rng = np.random.default_rng(4)
    ea = make_ea(d=10, budget=400, seed=4, variant="adaptive")
    for _ in range(400):
        cand = ea.ask()
        ea.tell(cand, float(rng.integers(0, 5)))
        assert 1.0 / 10.0 - 1e-12 <= ea.rate <= 0.5 + 1e-12


def test_linear_decay_schedule_value():
    # d=10, budget 100, t=50 -> r = max(0.1, 0.25) = 0.25
    ea = make_ea(d=10, budget=100, seed=5, variant="lineardecay")
    ea.num_tells = 50
    assert ea._current_rate() == 0.25
    ea.num_tells = 95
    assert ea._current_rate() == pytest.approx(0.1)


def test_portfolio_rates_come_from_three_element_set():
    ea = make_ea(d=16, seed=6, variant="portfolio")
    expected = {1.0 / 16.0, math.sqrt(1.0 / 16.0) / 2.0, 0.5}
    seen = {ea._current_rate() for _ in range(300)}
    assert seen == expected


def test_every_mutation_changes_at_least_one_variable():
    ea = make_ea(d=6, budget=300, seed=7)
    ea.tell(ea.ask(), 6.0)
    for _ in range(200):
        cand = ea.ask()
        assert np.any(cand.point != ea.parent)
        ea.tell(cand, onemax(cand.point))


def test_mixed_domain_mutation_keeps_points_valid():
    dom = DomainSpec([integer(0, 3), categorical(4), continuous(-1.0, 1.0), unbounded_integer()])
    ctx = RunContext(dom, budget=300, noisy=False)
    ea = REGISTRY["discrete-fixed"](ctx, seed=8)
    for _ in range(300):
        cand = ea.ask()
        dom.validate(cand.point)
        ea.tell(cand, float(np.sum(np.abs(cand.point))))


def test_all_constant_domain_rejected():
    dom = DomainSpec([integer(2, 2), integer(5, 5)])
    with pytest.raises(ConfigurationError):
        REGISTRY["discrete-fixed"](RunContext(dom, budget=10), seed=0)


def test_noise_free_elitism_for_non_optimistic_variants():
    for variant in ("fixed", "lineardecay", "adaptive", "portfolio"):
        ea = make_ea(d=10, budget=300, seed=9, variant=variant)
        rng = np.random.default_rng(9)
        best = math.inf
        for _ in range(300):
            cand = ea.ask()
            loss = float(rng.integers(0, 10))
            ea.tell(cand, loss)
            best = min(best, loss)
            assert ea.parent_loss <= best + 1e-12


def test_onemax_hits_optimum_well_within_budget():
    # expected hitting time ~ e d ln d ~ 163 for d=20
    spec = FunctionSpec("onemax", 20)
    f = make_function(spec)
    hits = 0
    for seed in range(20):
        ctx = RunContext(f.domain, budget=2000, master_seed=seed)
        rec, _ = run_loop("discrete-fixed", f, ctx)
        hits += f.noise_free(rec.point) == 0.0
    assert hits == 20


# ---------------------------------------------------------------------------
# optimistic noisy variant


def test_optimistic_resamples_parent_and_recommends_best_mean():
    dom = DomainSpec([integer(0, 3)])
    rng = np.random.default_rng(11)
    truth = {0: 2.0, 1: 0.0, 2: 1.0, 3: 3.0}

    def f(x):
        return truth[int(x[0])] + float(rng.normal(0, 0.5))

    ctx = RunContext(dom, budget=400, noisy=True, master_seed=11)
    handle = REGISTRY["discrete-optimistic"](ctx, seed=11)
    rec, _ = run_loop(handle, f, ctx)
    # the recommendation is the point with the best observed mean...
    best_mean = min(handle.archive, key=lambda c: (c.mean_loss, -c.num_observations, c.id))
    assert np.array_equal(rec.point, best_mean.point)
    # ...which differs from the last asked point in general and has many samples
    assert rec.num_observations > 10
    assert int(rec.point[0]) == 1  # enough budget to identify the true best arm


def test_optimistic_reuses_candidates_for_revisited_points():
    dom = DomainSpec([integer(0, 1)])
    rng = np.random.default_rng(12)
    ctx = RunContext(dom, budget=100, noisy=True, master_seed=12)
    handle = REGISTRY["discrete-optimistic"](ctx, seed=12)

    def f(x):
        return float(x[0]) + float(rng.normal(0, 0.1))

    run_loop(handle, f, ctx)
    assert len(handle.archive) <= 2  # two possible assignments only
    assert sum(c.num_observations for c in handle.archive) == 100


# ---------------------------------------------------------------------------
# FastGA


def test_fastga_degenerate_support_d2():
    probs = strength_probabilities(2)
    assert probs.tolist() == [1.0]


def test_fastga_power_law_ratio():
    probs = strength_probabilities(10)
    assert probs[0] / probs[4] == pytest.approx(5.0**1.5, rel=1e-12)


def test_fastga_strength_histogram_matches_power_law():
    # chi-squared against the closed-form normalization over 1e5 draws
    dom = DomainSpec([integer(0, 1) for _ in range(10)])
    handle = FastGa(RunContext(dom, budget=10), seed=13)
    draws = np.array([handle.sample_strength() for _ in range(100_000)])
    observed = np.bincount(draws, minlength=6)[1:6]
    expected = strength_probabilities(10) * len(draws)
    _stat, p = chisquare(observed, expected)
    assert p > 0.01


def test_fastga_changes_exactly_k_variables():
    dom = DomainSpec([integer(0, 9) for _ in range(10)])
    handle = FastGa(RunContext(dom, budget=10), seed=14)
    rng_state_parent = handle.parent.copy()
    for _ in range(100):
        k = handle.sample_strength()
        child = handle._mutate(handle.rng.choice(10, size=k, replace=False))
        assert int(np.sum(child != rng_state_parent)) == k


def test_fastga_unbounded_integsince_moves_by_powers_of_two():
    dom = DomainSpec([unbounded_integer(), unbounded_integer()])
    handle = FastGa(RunContext(dom, budget=200), seed=15)
    handle.tell(handle.ask(), 1.0)
    for _ in range(100):
        cand = handle.ask()
        deltas = np.abs(cand.point - handle.parent)
        changed = deltas[deltas > 0]
        assert all(math.log2(v).is_integer() for v in changed)
        handle.tell(cand, float(np.sum(np.abs(cand.point))))


def test_fastga_requires_two_variables():
    dom = DomainSpec([integer(0, 5)])
    with pytest.raises(ConfigurationError):
        FastGa(RunContext(dom, budget=10), seed=0)
