import math
import tracemalloc

import numpy as np
import pytest

from optbench import (
    BudgetExceededError,
    Candidate,
    ContractError,
    DomainSpec,
    EvaluationError,
    InvalidLossError,
    Optimizer,
    RunContext,
    categorical,
    continuous,
    run_loop,
)


class RandomProbe(Optimizer):
    """Minimal solver used to exercise the base contract."""

    def _ask(self):
        return self.rng.standard_normal(len(self.domain.variables))


def make_context(budget=10, num_workers=1, noisy=False):
    dom = DomainSpec([continuous(), continuous()])
    return RunContext(dom, budget=budget, num_workers=num_workers, noisy=noisy)


def test_context_validation():
    dom = DomainSpec([continuous()])
    with pytest.raises(Exception):
        RunContext(dom, budget=0)
    with pytest.raises(Exception):
        RunContext(dom, budget=5, num_workers=6)


def test_budget_exhaustion_raises():
    opt = RandomProbe(make_context(budget=3))
    for _ in range(3):
        cand = opt.ask()
        opt.tell(cand, 1.0)
    with pytest.raises(BudgetExceededError):
        opt.ask()


def test_parallel_asks_before_tells():
    opt = RandomProbe(make_context(budget=10, num_workers=4))
    cands = [opt.ask() for _ in range(4)]
    assert len({c.id for c in cands}) == 4
    for c in cands:
        opt.domain.validate(c.point)
    assert len(opt.pending) == 4


def test_noise_free_elitism_strict_improvement():
    opt = RandomProbe(make_context())
    a = opt.ask()
    opt.tell(a, 1.0)
    assert opt.incumbent is a
    b = opt.ask()
    opt.tell(b, 1.0)  # tie: incumbent kept
    assert opt.incumbent is a
    c = opt.ask()
    opt.tell(c, 0.5)
    assert opt.incumbent is c


def test_incumbent_non_increasing_over_any_tell_sequence():
    opt = RandomProbe(make_context(budget=50))
    rng = np.random.default_rng(0)
    best = math.inf
    for _ in range(50):
        cand = opt.ask()
        opt.tell(cand, float(rng.standard_normal()))
        assert opt.incumbent_loss <= best + 1e-15
        best = opt.incumbent_loss


def test_noisy_mean_incumbent_with_retell():
    opt = RandomProbe(make_context(budget=10, noisy=True))
    a = opt.ask()
    opt.tell(a, 0.0)
    opt.tell(a, 2.0)  # re-tell: mean 1.0
    assert a.mean_loss == 1.0
    b = opt.ask()
    opt.tell(b, 0.9)
    assert opt.incumbent is b
    # same mean but more observations wins
    c = opt.ask()
    opt.tell(c, 0.9)
    opt.tell(c, 0.9)
    assert opt.incumbent is c


def test_noisy_incumbent_rescan_when_own_mean_degrades():
    opt = RandomProbe(make_context(budget=10, noisy=True))
    a = opt.ask()
    b = opt.ask()
    opt.tell(a, 0.5)
    opt.tell(b, 0.6)
    assert opt.incumbent is a
    opt.tell(a, 10.0)  # mean jumps to 5.25
    assert opt.incumbent is b


def test_non_finite_loss_rejected():
    opt = RandomProbe(make_context())
    cand = opt.ask()
    with pytest.raises(InvalidLossError):
        opt.tell(cand, float("nan"))
    with pytest.raises(InvalidLossError):
        opt.tell(cand, float("inf"))


def test_unknown_candidate_rejected():
    opt = RandomProbe(make_context())
    opt.ask()
    stranger = Candidate(999, np.zeros(2))
    with pytest.raises(ContractError):
        opt.tell(stranger, 1.0)


def test_recommend_before_any_tell_returns_center_with_flag():
    opt = RandomProbe(make_context())
    rec = opt.recommend()
    assert rec.id == -1  # the flag: no candidate of the handle has a negative id
    assert np.array_equal(rec.point, opt.domain.center())
    assert rec.observations == []


def test_recommend_default_is_incumbent():
    opt = RandomProbe(make_context())
    a = opt.ask()
    opt.tell(a, 3.0)
    assert opt.recommend() is a


class WavePattern:
    """Objective that records the pending count at each evaluation."""

    def __init__(self, handle):
        self.handle = handle
        self.pattern = []

    def __call__(self, point):
        self.pattern.append(len(self.handle.pending))
        return 7.0


def test_run_loop_wave_pattern_even():
    ctx = make_context(budget=4, num_workers=2)
    handle = RandomProbe(ctx)
    fn = WavePattern(handle)
    rec, history = run_loop(handle, fn, ctx)
    # two full waves: pending counts 2,1 then 2,1
    assert fn.pattern == [2, 1, 2, 1]
    assert len(history) == 4


def test_run_loop_wave_remainder():
    ctx = make_context(budget=5, num_workers=2)
    handle = RandomProbe(ctx)
    fn = WavePattern(handle)
    run_loop(handle, fn, ctx)
    assert fn.pattern == [2, 1, 2, 1, 1]  # waves of sizes 2, 2, 1


def test_run_loop_constant_function():
    ctx = make_context(budget=5)
    rec, history = run_loop(RandomProbe(ctx), lambda x: 7.0, ctx)
    assert [loss for _i, loss in history] == [7.0] * 5
    assert rec.observations[-1] == 7.0


def test_run_loop_budget_exactness():
    ctx = make_context(budget=17, num_workers=3)
    handle = RandomProbe(ctx)
    _rec, history = run_loop(handle, lambda x: float(np.sum(x**2)), ctx)
    assert handle.num_tells == 17
    assert len(history) == 17


def test_run_loop_failure_preserves_partial_history():
    ctx = make_context(budget=10)

    calls = []

    def flaky(point):
        calls.append(1)
        if len(calls) == 4:
            raise RuntimeError("simulator crashed")
        return 1.0

    with pytest.raises(EvaluationError) as err:
        run_loop(RandomProbe(ctx), flaky, ctx)
    assert len(err.value.history) == 3


def test_run_loop_rejects_mismatched_function_domain():
    class DomainCarrier:
        domain = DomainSpec([continuous()])

        def __call__(self, x):
            return 0.0

    ctx = make_context(budget=5)  # two-variable domain
    with pytest.raises(ContractError):
        run_loop(RandomProbe(ctx), DomainCarrier(), ctx)


def test_run_loop_determinism_bit_identical():
    dom = DomainSpec([continuous() for _ in range(4)])

    def f(x):
        return float(x @ x)

    ctx = RunContext(dom, budget=200, master_seed=99)
    _rec1, h1 = run_loop("cma", f, ctx)
    _rec2, h2 = run_loop("cma", f, ctx)
    assert h1 == h2  # bit-identical histories


def test_run_loop_checkpoint_callback_sees_wave_ends():
    ctx = make_context(budget=6, num_workers=2)
    seen = []
    run_loop(RandomProbe(ctx), lambda x: 0.0, ctx, checkpoint_callback=lambda done, h: seen.append(done))
    assert seen == [2, 4, 6]


def test_run_loop_checkpoint_callback_sees_wave_ends_with_an_assignment_asked_twice():
    # discrete-optimistic may resample its parent twice in one wave, as two
    # candidates of one point, so the wave end is found by position.
    dom = DomainSpec([categorical(3)] * 4)
    ctx = RunContext(dom, budget=100, num_workers=2, noisy=True)
    seen = []
    run_loop("discrete-optimistic", lambda x: 1.0, ctx, checkpoint_callback=lambda done, h: seen.append(done))
    assert seen == list(range(2, 101, 2))


def test_history_reads_as_the_list_of_pairs():
    ctx = make_context(budget=6)
    _rec, history = run_loop(RandomProbe(ctx), lambda x: float(x[0]), ctx)
    pairs = list(history)
    assert [i for i, _loss in pairs] == [1, 2, 3, 4, 5, 6]
    assert all(type(i) is int and type(loss) is float for i, loss in pairs)
    assert len(history) == 6 and history == pairs and pairs == history and history == tuple(pairs)
    assert history != pairs[:-1] and history != "not a history"
    assert history[0] == pairs[0] and history[-1] == pairs[-1] and history[1:4] == pairs[1:4]
    with pytest.raises(IndexError):
        history[6]
    assert min(loss for _i, loss in history) == min(loss for _i, loss in pairs)


def test_history_holds_at_most_16_bytes_per_evaluation():
    budget = 100_000
    ctx = make_context(budget=budget)
    point = np.zeros(2)

    class Fixed(Optimizer):
        def _ask(self):
            return self._new_candidate(point)

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _rec, history = run_loop(Fixed(ctx), lambda x: 1.5, ctx)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(history) == budget
    assert held <= 16 * budget
