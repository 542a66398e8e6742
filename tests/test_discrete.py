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
from optbench.wizard import build_optimizer


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


def losses_by_assignment(candidates):
    """The losses of each told assignment, in order of first tell."""
    by_point = {}
    for cand in candidates:
        by_point.setdefault(cand.point.tobytes(), []).extend(cand.observations)
    return by_point


def run_keeping_candidates(handle, f):
    """``run_loop``'s serial ask and tell, which keeps no told candidate: the
    recommendation and every told candidate, in order."""
    told = []
    while handle.num_asks < handle.budget:
        cand = handle.ask()
        handle.tell(cand, f(cand.point))
        told.append(cand)
    return handle.recommend(), told


def test_optimistic_resamples_parent_and_recommends_best_mean():
    dom = DomainSpec([integer(0, 3)])
    rng = np.random.default_rng(11)
    truth = {0: 2.0, 1: 0.0, 2: 1.0, 3: 3.0}

    def f(x):
        return truth[int(x[0])] + float(rng.normal(0, 0.5))

    ctx = RunContext(dom, budget=400, noisy=True, master_seed=11)
    handle = REGISTRY["discrete-optimistic"](ctx, seed=11)
    rec, told = run_keeping_candidates(handle, f)
    # the recommendation is the assignment with the best observed mean...
    by_point = losses_by_assignment(told)
    best = min(by_point, key=lambda key: (np.mean(by_point[key]), -len(by_point[key])))
    assert rec.point.tobytes() == best
    # ...which differs from the last asked point in general and has many samples
    assert rec.observations == by_point[best] and len(rec.observations) > 10
    assert int(rec.point[0]) == 1  # enough budget to identify the true best arm


def test_optimistic_averages_revisited_assignments():
    dom = DomainSpec([integer(0, 1)])
    rng = np.random.default_rng(12)
    ctx = RunContext(dom, budget=100, noisy=True, master_seed=12)
    handle = REGISTRY["discrete-optimistic"](ctx, seed=12)

    def f(x):
        return float(x[0]) + float(rng.normal(0, 0.1))

    _rec, told = run_keeping_candidates(handle, f)
    # one fresh candidate per ask; the losses are pooled per assignment
    assert [c.id for c in told] == list(range(100))
    assert all(len(c.observations) == 1 for c in told)
    assert len(handle._losses) <= 2  # two possible assignments only
    assert handle._losses == losses_by_assignment(told)


def optimistic_by_hand(domain, budget, seed, noisy, f):
    """The optimistic rule written plainly over assignments, serially: the
    asked points, their losses and the recommended point."""
    mutator = REGISTRY["discrete-fixed"](RunContext(domain, budget=budget), seed=seed)  # its mutants only
    losses, parent, asked, told = {}, None, [], []
    best_loss, best_point = math.inf, None

    def lcb(key, t):
        n = len(losses[key])
        return sum(losses[key]) / n - math.sqrt(2.0 * math.log(t) / n)

    for t in range(1, budget + 1):
        if parent is not None and mutator.rng.random() < 0.5:
            x = np.frombuffer(parent).copy()
        else:
            x = mutator._mutant()
        key = x.tobytes()
        losses.setdefault(key, [])
        loss = f(x)
        asked.append(key)
        told.append(loss)
        losses[key].append(loss)
        if parent is None or (key != parent and lcb(key, max(2, t)) <= lcb(parent, max(2, t))):
            parent = key
            mutator.parent = x.copy()
        if loss < best_loss:
            best_loss, best_point = loss, key
    if noisy:  # the lowest mean; ties: more losses, then the earlier first ask
        told_keys = [key for key in losses if losses[key]]
        best_point = min(told_keys, key=lambda k: (sum(losses[k]) / len(losses[k]), -len(losses[k])))
    return asked, told, best_point


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("domain", [
    DomainSpec([integer(0, 2) for _ in range(3)]),
    DomainSpec([categorical(3), integer(0, 1), unbounded_integer()]),
    DomainSpec([integer(0, 1), continuous(-1.0, 1.0)]),
])
@pytest.mark.parametrize("seed", [0, 7])
def test_optimistic_equals_the_rule_written_by_hand(domain, noisy, seed):
    budget = 300

    def objective(seed):
        rng = np.random.default_rng(seed)
        noise = 1.0 if noisy else 0.0
        return lambda x: float(np.sum((x - 1.0) ** 2)) + noise * float(rng.normal())

    want_points, want_losses, want_rec = optimistic_by_hand(domain, budget, seed, noisy, objective(3))
    ctx = RunContext(domain, budget=budget, noisy=noisy)
    handle = REGISTRY["discrete-optimistic"](ctx, seed=seed)
    points, f = [], objective(3)

    def logged(x):
        points.append(x.tobytes())
        return f(x)

    rec, history = run_loop(handle, logged, ctx)
    assert points == want_points
    assert [loss for _i, loss in history] == want_losses
    assert rec.point.tobytes() == want_rec


def best_mean_assignment(handle) -> bytes:
    """The told assignment of a ``discrete-optimistic`` handle with the lowest mean loss."""
    told = {key: losses for key, losses in handle._losses.items() if losses}
    return min(told, key=lambda key: (sum(told[key]) / len(told[key]), -len(told[key])))


def noisy_bowl(seed):
    """A d3 bowl under noise of sd 3, at which a lowest single draw is seldom the best mean."""
    rng = np.random.default_rng(seed)
    return lambda x: float(np.sum((x - 1.0) ** 2)) + 3.0 * float(rng.normal())


@pytest.mark.parametrize("seed", [2, 3])
def test_noisy_meta_over_optimistic_recommends_the_childs_best_mean(seed):
    ctx = RunContext(DomainSpec([integer(0, 2) for _ in range(3)]), budget=300, noisy=True)
    handle = build_optimizer("meta(discrete-optimistic)", ctx)
    rec, _ = run_loop(handle, noisy_bowl(seed), ctx)
    assert rec.point.tobytes() == best_mean_assignment(handle.child)
    assert len(rec.observations) > 1  # an average, not the wrapper's lowest single draw


@pytest.mark.parametrize("seed", [2, 3])  # seeds at which the two starts differ
def test_noisy_chain_of_optimistic_starts_and_recommends_by_the_childs_best_mean(seed):
    ctx = RunContext(DomainSpec([integer(0, 2) for _ in range(3)]), budget=300, noisy=True)
    handle = build_optimizer("chain(discrete-optimistic,discrete-optimistic;0.5,0.5)", ctx)
    f = noisy_bowl(seed)
    children = []
    for _ in range(300):
        cand = handle.ask()
        if not children or handle._active is not children[-1]:
            children.append(handle._active)
        handle.tell(cand, f(cand.point))
    first, second = children
    assert second.init_point.tobytes() == best_mean_assignment(first)
    rec = handle.recommend()
    assert rec.point.tobytes() == best_mean_assignment(second)
    assert len(rec.observations) > 1


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


def _mutate_by_scalar_draws(solver, indices):
    """The mutation of integer and categorical variables, one ``integers`` draw per index."""
    child = solver.parent.copy()
    for i in indices:
        v = solver.domain.variables[i]
        low, high = (v.low, v.high) if v.kind == "integer" else (0, v.arity - 1)
        draw = int(solver.rng.integers(low, high))
        child[i] = float(draw if draw < child[i] else draw + 1)
    return child


@pytest.mark.parametrize("seed", range(4))
def test_mutation_draws_equal_the_scalar_draws_in_index_order(seed):
    rng = np.random.default_rng(seed)
    widths = rng.integers(1, 51, size=40)  # the range of each draw; width 1 flips a binary variable
    variables = [
        integer(low := int(rng.integers(-5, 5)), low + int(w)) if rng.random() < 0.5 else categorical(int(w) + 1)
        for w in widths
    ]
    context = RunContext(DomainSpec(variables), budget=100)
    solvers = [REGISTRY["discrete-fixed"](context, seed=seed) for _ in range(2)]
    for step in range(60):
        count = int(rng.integers(1, len(variables) + 1))  # both sides of SCALAR_DRAWS
        indices = np.sort(rng.choice(len(variables), size=count, replace=False))
        parent = np.array([float(rng.integers(v.low, v.high + 1)) if v.kind == "integer"
                           else float(rng.integers(v.arity)) for v in variables])
        for solver in solvers:
            solver.parent = parent.copy()
        child = solvers[0]._mutate(indices)
        want = _mutate_by_scalar_draws(solvers[1], indices)
        assert child.tobytes() == want.tobytes()
        assert solvers[0].rng.bit_generator.state == solvers[1].rng.bit_generator.state
        assert np.all(child[indices] != parent[indices])
