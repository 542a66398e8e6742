"""What a handle keeps: its own state, not every candidate it was told.

A noise-free handle holds its pending candidates and its incumbent; a
composite's route links its child weakly.  So the number of live
candidates does not grow with the budget, and no candidate or handle sits in
a reference cycle that only a full collection frees.  A noisy handle keeps
its told candidates in ``archive``, which its incumbent rule rescans.
"""

import gc
import weakref

import numpy as np
import pytest

from optbench import (
    Candidate,
    DomainSpec,
    Optimizer,
    RunContext,
    build_optimizer,
    categorical,
    continuous,
    integer,
    run_loop,
)
from optbench.bench import FunctionSpec, TransformSpec, make_function
from optbench.solvers import REGISTRY
from optbench.solvers.de import DifferentialEvolution
from optbench.solvers.localsearch import Powell

SPECS = [
    "one-plus-one-es",
    "cma",
    "de",
    "powell",
    "chain(cma,powell;0.5,0.5)",
    "bet(tbpsa,de;0.2)",
    "prog(de)",
]


def sphere(x):
    return float(np.dot(x, x))


def context(budget, noisy=False):
    return RunContext(DomainSpec([continuous() for _ in range(4)]), budget=budget, noisy=noisy, master_seed=5)


def live_candidates() -> int:
    return sum(type(obj) is Candidate for obj in gc.get_objects())


def candidates_held_after_run(spec, budget):
    gc.collect()
    before = live_candidates()
    ctx = context(budget)
    handle = build_optimizer(spec, ctx)
    run_loop(handle, sphere, ctx)
    gc.collect()
    held = live_candidates() - before
    assert handle.num_told == budget and handle.archive == []
    return held


@pytest.mark.parametrize("spec", SPECS)
def test_live_candidates_do_not_grow_with_the_budget(spec):
    small, large = candidates_held_after_run(spec, 300), candidates_held_after_run(spec, 3000)
    assert large <= small <= 10


@pytest.mark.parametrize("spec", SPECS)
def test_a_dropped_handle_leaves_no_cycle_of_candidates_or_handles(spec):
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)  # a collection keeps what it finds in gc.garbage
    try:
        ctx = context(500)
        rec, _history = run_loop(spec, sphere, ctx)
        del rec
        gc.collect()
        cyclic = [type(obj).__name__ for obj in gc.garbage if isinstance(obj, (Candidate, Optimizer))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert cyclic == []


@pytest.mark.parametrize("spec", ["one-plus-one-es", "tbpsa", "chain(cma,powell;0.5,0.5)"])
def test_a_noisy_handle_keeps_its_told_candidates(spec):
    ctx = context(400, noisy=True)
    handle = build_optimizer(spec, ctx)
    rng = np.random.default_rng(0)
    run_loop(handle, lambda x: sphere(x) + float(rng.normal()), ctx)
    assert len(handle.archive) == handle.num_told == 400
    assert len({id(cand) for cand in handle.archive}) == 400
    assert handle.incumbent in handle.archive


INTEGERS = DomainSpec([integer(0, 2) for _ in range(4)])
MIXED = DomainSpec([categorical(3), categorical(2), integer(0, 2), integer(0, 2)])


@pytest.mark.parametrize("spec, domain", [
    ("chain(discrete-optimistic,discrete-optimistic;0.5,0.5)", INTEGERS),
    ("bet(discrete-optimistic,discrete-optimistic;0.2)", INTEGERS),
    ("softmax(discrete-optimistic)", MIXED),  # its lift draws categories from the bridge's rng
])
def test_holding_the_asked_candidates_changes_nothing(spec, domain):
    # discrete-optimistic revisits its parent and other assignments, each time as a fresh candidate
    ctx = RunContext(domain, budget=300, master_seed=9)

    def run(hold):
        handle = build_optimizer(spec, ctx)
        held, trace = [], []
        for _ in range(ctx.budget):
            cand = handle.ask()
            handle.tell(cand, float(np.sum((cand.point - 1.0) ** 2)))
            trace.append((cand.id, cand.point.tobytes(), tuple(cand.observations)))
            if hold:
                held.append(cand)
        return handle, trace

    kept, kept_trace = run(hold=True)
    dropped, dropped_trace = run(hold=False)
    assert dropped_trace == kept_trace
    assert len({point for _id, point, _obs in kept_trace}) < ctx.budget  # assignments were revisited
    assert dropped.num_told == kept.num_told == dropped._next_id == ctx.budget
    assert dropped.recommend().point.tobytes() == kept.recommend().point.tobytes()
    assert dropped.rng.bit_generator.state == kept.rng.bit_generator.state


def test_a_noisy_composite_frees_the_children_it_retired():
    # prog(de) builds a DE child per widening, and a noisy handle's archive keeps
    # every outer candidate; the route links each child weakly, so the retired
    # children are freed at once, without a collection (a strong link kept all 120)
    function = make_function(FunctionSpec("sphere", 120, TransformSpec(noise_std=1.0, transform_seed=1)),
                             noise_seed=2)
    ctx = RunContext(function.domain, budget=1000, noisy=True, master_seed=3)

    def live_de() -> int:
        return sum(type(obj) is DifferentialEvolution for obj in gc.get_objects())

    gc.collect()
    before, alive = live_de(), []

    def count(done, handle):
        if done == ctx.budget:
            alive.extend([live_de() - before, len(handle.archive)])

    run_loop("prog(de)", function, ctx, checkpoint_callback=count)
    assert alive == [1, ctx.budget]


# composites over the probe solvers, whose generators once held their solver in a cycle
PROBE_COMPOSITES = ["prog(powell)", "prog(linear-tr)", "prog(quadratic-tr)", "chain(powell,linear-tr;0.5,0.5)",
                    "bet(powell,de;0.3)", "softmax(powell)"]


def live_handles() -> int:
    return sum(issubclass(type(obj), Optimizer) for obj in gc.get_objects())


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("share", [0.3, 1.0])
@pytest.mark.parametrize("spec", [*sorted(REGISTRY), *PROBE_COMPOSITES])
def test_a_dropped_handle_is_freed_by_reference_counting_alone(spec, share, workers):
    # mid-run too: no handle, root or child, waits for a collection
    if spec.startswith("discrete-") or spec == "fastga":
        domain = INTEGERS
    elif spec.startswith("softmax"):
        domain = DomainSpec([categorical(3), continuous(), continuous()])
    else:
        domain = DomainSpec([continuous() for _ in range(4)])
    ctx = RunContext(domain, budget=200, num_workers=workers, master_seed=5)
    gc.collect()
    gc.disable()
    try:
        before = live_handles()
        handle = build_optimizer(spec, ctx)
        while handle.num_asks < share * ctx.budget:
            for cand in handle.ask_many(min(workers, ctx.budget - handle.num_asks)):
                handle.tell(cand, float(np.sum((cand.point - 1.0) ** 2)))
        alive = weakref.ref(handle)
        del handle, cand
        left = alive() is not None, live_handles() - before
    finally:
        gc.enable()
    assert left == (False, 0)


def test_a_widening_run_holds_one_probe_child():
    # prog(powell) retires a Powell child at every widening; each is freed at once
    function = make_function(FunctionSpec("sphere", 20, TransformSpec(translation_std=1.0, transform_seed=1)))
    ctx = RunContext(function.domain, budget=4000, master_seed=3)

    def live_powell() -> int:
        return sum(type(obj) is Powell for obj in gc.get_objects())  # isinstance matches a proxy too

    alive = []

    def count(done, _handle):
        if done == ctx.budget:
            alive.append(live_powell() - before)

    gc.collect()
    gc.disable()
    try:
        before = live_powell()
        run_loop("prog(powell)", function, ctx, checkpoint_callback=count)
    finally:
        gc.enable()
    assert alive == [1]
