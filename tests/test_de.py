import copy

import numpy as np
import pytest

from optbench import ConfigurationError, DomainSpec, RunContext, continuous, run_loop
from optbench.bench import FunctionSpec, TransformSpec, make_function
from optbench.solvers.de import DifferentialEvolution


def make_de(d=4, budget=500, seed=0, **kwargs):
    dom = DomainSpec([continuous() for _ in range(d)])
    return DifferentialEvolution(RunContext(dom, budget=budget), seed=seed, **kwargs)


def fill_population(de, f):
    for _ in range(de.np_size):
        cand = de.ask()
        de.tell(cand, f(cand.point))


def test_population_size_validation():
    with pytest.raises(ConfigurationError):
        make_de(population_size=3)
    with pytest.raises(ConfigurationError):
        make_de(crossover=1.5)
    with pytest.raises(ConfigurationError):
        make_de(f_weight=3.0)


def test_cr_one_trial_equals_mutant():
    de = make_de(d=5, seed=1, population_size=6, crossover=1.0, f_weight=0.5)
    fill_population(de, lambda x: float(x @ x))
    slot, trial = de.ask().payload
    # the mutant of the donors the generation's plan holds for the slot
    a, b, c = de._donors[slot]
    mutant = de.positions[a] + 0.5 * (de.positions[b] - de.positions[c])
    assert np.allclose(trial, mutant)


def test_f_zero_cr_one_trial_equals_a():
    de = make_de(d=5, seed=2, population_size=6, crossover=1.0, f_weight=0.0)
    fill_population(de, lambda x: float(x @ x))
    _slot, trial = de.ask().payload
    matches = [np.allclose(trial, de.positions[i]) for i in range(de.np_size)]
    assert any(matches)  # equals one of the existing members (the base a)


def test_selection_rejects_worse_proposal():
    de = make_de(d=2, seed=3, population_size=4)
    fill_population(de, lambda x: 2.0)
    cand = de.ask()
    slot, _z = cand.payload
    before = de.positions[slot].copy()
    de.tell(cand, 3.0)  # worse than the slot's 2.0
    assert np.array_equal(de.positions[slot], before)
    assert de.losses[slot] == 2.0


def test_selection_accepts_ties():
    de = make_de(d=2, seed=4, population_size=4)
    fill_population(de, lambda x: 2.0)
    cand = de.ask()
    slot, z = cand.payload
    de.tell(cand, 2.0)
    assert np.array_equal(de.positions[slot], z)


def test_slot_losses_never_increase():
    de = make_de(d=3, seed=5, population_size=5, budget=400)
    rng = np.random.default_rng(0)

    def f(x):
        return float(x @ x + rng.normal(0, 0.1))  # noisy losses, noise-free rule still holds

    prev = None
    for _ in range(400):
        cand = de.ask()
        de.tell(cand, f(cand.point))
        losses = de.losses.copy()
        if prev is not None:
            ready = np.isfinite(prev)
            assert np.all(losses[ready] <= prev[ready] + 1e-15)
        prev = losses


def test_lhs_init_stratifies_each_coordinate():
    de = make_de(d=2, seed=6, population_size=10, lhs_init=True)
    samples = de._init_samples
    lo, hi = de._view.init_box()
    for j in range(2):
        strata = np.floor((samples[:, j] - lo[j]) / (hi[j] - lo[j]) * 10).astype(int)
        assert sorted(strata.tolist()) == list(range(10))  # one sample per stratum


def test_de_progress_on_sphere():
    spec = FunctionSpec("sphere", 5, TransformSpec(translation_std=1.0, transform_seed=3))
    f = make_function(spec)
    ctx = RunContext(f.domain, budget=3000, master_seed=3)
    rec, _ = run_loop("de", f, ctx)
    assert f.noise_free(rec.point) < 1e-2


def test_bounded_domain_points_always_valid():
    dom = DomainSpec([continuous(-1.0, 1.0), continuous(0.0, 5.0)])
    ctx = RunContext(dom, budget=200, master_seed=1)
    de = DifferentialEvolution(ctx, seed=1, population_size=6)
    for _ in range(200):
        cand = de.ask()
        dom.validate(cand.point)
        de.tell(cand, float(cand.point @ cand.point))


def check_plan(de, ready):
    """Donors of each evaluated slot: distinct, other than the slot, in
    range and evaluated; one mutant coordinate per mask row at CR = 0."""
    n = de.np_size
    for slot in np.flatnonzero(ready):
        donors = de._donors[slot]
        assert len(set(donors)) == 3 and slot not in donors
        assert all(0 <= i < n and ready[i] for i in donors)
    assert np.array_equal(de._masks.sum(axis=1), np.ones(n))


@pytest.mark.parametrize("np_size", [4, 5, 30, 200])
def test_plan_properties(np_size):
    d = 6
    rng = np.random.default_rng(np_size)
    for seed in range(3):
        de = make_de(d=d, seed=seed, budget=10 * np_size, population_size=np_size, crossover=0.0)
        init = [de.ask() for _ in range(np_size)]
        # a partly initialized population: tell a random subset, ask past it
        told = rng.choice(np_size, size=int(rng.integers(4, np_size + 1)), replace=False)
        for i in told:
            de.tell(init[i], float(rng.random()))
        ready = de._initialized.copy()
        trials = [de.ask() for _ in range(np_size)]
        check_plan(de, ready)
        for cand in trials:
            slot, z = cand.payload
            if ready[slot]:  # CR = 0: the forced coordinate alone comes from the mutant
                assert np.count_nonzero(z != de.positions[slot]) == 1
        for cand in init + trials:
            if cand.payload is not None:
                de.tell(cand, float(rng.random()))
        de.ask()  # the next generation's plan, on the full population
        check_plan(de, de._initialized)


@pytest.mark.parametrize("np_size", [4, 5, 30, 200])
def test_plan_masks_include_the_forced_coordinate(np_size):
    d = 3  # at CR = 0.5 a row draws no coordinate with probability 1/8
    de = make_de(d=d, seed=7, budget=3 * np_size, population_size=np_size)
    fill_population(de, lambda x: float(x @ x))
    replay = copy.deepcopy(de.rng)
    de.ask()
    replay.random((np_size, 3))
    replay.random((np_size, d))
    forced = replay.integers(d, size=np_size)
    assert de._masks[np.arange(np_size), forced].all()


def _free_asks_from_pending(de):
    """``free_asks`` as the slots of the pending candidates give it."""
    generation, start = divmod(de._cursor, de.np_size)
    busy = {cand.payload[0] for cand in de.pending.values()}
    drawn = de._plan_generation == generation
    free = 0
    for slot in range(start, de.np_size):
        if slot in busy or (de._initialized[slot] and not (drawn and busy.isdisjoint(de._donors[slot]))):
            break
        busy.add(slot)
        free += 1
    return max(1, free)


@pytest.mark.parametrize("workers", [1, 3, 40])
def test_free_asks_equals_the_rule_over_the_pending_slots(workers):
    # asks run ahead of tells and tells come out of order; with 40 in flight
    # and 8 slots, one slot has several asks pending
    context = RunContext(DomainSpec([continuous()] * 3), budget=600, num_workers=workers)
    de = DifferentialEvolution(context, seed=2, population_size=8)
    rng = np.random.default_rng(workers)
    in_flight = []
    while de.num_tells < de.budget:
        assert de.free_asks() == _free_asks_from_pending(de)
        room = min(de.budget - de.num_asks, workers - len(in_flight))
        if room and (not in_flight or rng.random() < 0.6):
            in_flight += de.ask_many(int(rng.integers(1, room + 1)))
        else:
            cand = in_flight.pop(int(rng.integers(len(in_flight))))
            de.tell(cand, float(cand.point @ cand.point))
