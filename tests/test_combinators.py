import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optbench import (
    ConfigurationError,
    ContractError,
    DomainSpec,
    OptbenchError,
    RunContext,
    canonical_text,
    categorical,
    continuous,
    integer,
    parse_algorithm,
    run_loop,
)
from optbench.bench import make_function
from optbench.bench.suites import BenchmarkSuite, SuiteProblem
from optbench.bench.transforms import BenchmarkFunction, FunctionSpec, TransformSpec
from optbench.bench.tsp import simple_tsp
from optbench.combinators import chain_allocations
from optbench.errors import error_text
from optbench.harness.experiment import run_cell, run_experiment
from optbench.harness.records import record_to_line
from optbench.solvers import REGISTRY, SoftmaxBridge
from optbench.wizard import build_optimizer


def sphere_domain(d=3):
    return DomainSpec([continuous() for _ in range(d)])


def sphere(x):
    return float(x @ x)


# ---------------------------------------------------------------------------
# chain allocations


def test_chain_split_exact():
    assert chain_allocations(100, (0.5, 0.5), (None, None)) == [50, 50]


def test_chain_split_remainder_to_last():
    assert chain_allocations(101, (0.5, 0.5), (None, None)) == [50, 51]


def test_chain_absolute_asks_override_fractions():
    # the absolute child keeps its count regardless of budget fractions
    assert chain_allocations(300, (None, 1.0), (100, None)) == [100, 200]
    assert chain_allocations(450, (None, 1.0), (100, None)) == [100, 350]
    # budget smaller than the absolute count: truncated, fractional child starved
    assert chain_allocations(80, (None, 1.0), (100, None)) == [80, 0]


def test_chain_all_absolute_asks_roll_leftovers_to_the_last_child():
    assert chain_allocations(100, (None, None), (10, 20)) == [10, 90]


def test_chain_budget_conservation_examples():
    for budget in (7, 100, 101, 999):
        for fracs in ((1.0,), (0.5, 0.5), (0.2, 0.3, 0.5)):
            asks = (None,) * len(fracs)
            assert sum(chain_allocations(budget, fracs, asks)) == budget


@given(
    st.integers(1, 5000),
    st.lists(st.floats(0.01, 1.0), min_size=1, max_size=4),
)
@settings(max_examples=120, deadline=None)
def test_chain_allocation_conservation_fuzz(budget, raw):
    fracs = tuple(r / sum(raw) for r in raw)
    allocs = chain_allocations(budget, fracs, (None,) * len(fracs))
    assert sum(allocs) == budget
    assert all(a >= 0 for a in allocs)


# ---------------------------------------------------------------------------
# chain behavior


def test_chain_runs_exact_budget_and_switches_children():
    dom = sphere_domain()
    ctx = RunContext(dom, budget=60, master_seed=1)
    handle = build_optimizer("chain(cma,powell;0.5,0.5)", ctx)
    rec, history = run_loop(handle, sphere, ctx)
    assert len(history) == 60
    assert handle.num_tells == 60
    assert handle._active_index == 1  # second child became active


def test_chain_handoff_initializes_child_at_best_point():
    dom = sphere_domain(2)
    ctx = RunContext(dom, budget=40, master_seed=2)
    handle = build_optimizer("chain(oneshot,one-plus-one-es;0.5,0.5)", ctx)
    best = np.inf
    for _ in range(20):
        cand = handle.ask()
        loss = sphere(cand.point)
        best = min(best, loss)
        handle.tell(cand, loss)
    cand = handle.ask()  # first ask of child 1 builds it
    child = handle._active
    assert np.array_equal(child.init_point, handle.incumbent.point)
    assert sphere(handle.incumbent.point) == best


def test_chain_incumbent_non_increasing_across_boundary():
    dom = sphere_domain(4)
    ctx = RunContext(dom, budget=200, master_seed=3)
    handle = build_optimizer("chain(de,powell;0.5,0.5)", ctx)
    best = np.inf
    for _ in range(200):
        cand = handle.ask()
        loss = sphere(cand.point)
        handle.tell(cand, loss)
        best = min(best, loss)
        assert handle.incumbent_loss <= best + 1e-15
    rec = handle.recommend()
    assert sphere(rec.point) <= best + 1e-15  # the handoff cannot lose the best point


def test_chain_skips_a_child_with_no_evaluations():
    # int(30 * 0.01) == 0: cma gets no evaluations and is never built
    ctx = RunContext(sphere_domain(), budget=30, master_seed=5)
    handle = build_optimizer("chain(cma,de;0.01,0.99)", ctx)
    assert handle._active_index == 1
    assert [c is None for c in handle._contexts] == [True, False]
    _rec, history = run_loop(handle, sphere, ctx)
    assert len(history) == 30 and handle._active.num_tells == 30


def test_chain_warm_starts_a_softmax_bridge_through_its_encoding():
    dom = DomainSpec([categorical(3), categorical(4)])
    ctx = RunContext(dom, budget=40, master_seed=6)
    handle = build_optimizer("chain(discrete-fixed,softmax(cma);0.5,0.5)", ctx)
    for _ in range(21):  # the 21st ask builds the bridge from the incumbent
        cand = handle.ask()
        handle.tell(cand, float(cand.point @ cand.point))
    bridge = handle._active
    assert isinstance(bridge, SoftmaxBridge)
    incumbent = handle.incumbent.point
    assert np.array_equal(bridge.inner.init_point, bridge.encode(incumbent))
    assert np.array_equal(bridge.decode(bridge.inner.init_point, stochastic=False), incumbent)


def test_chain_absolute_ask_child_budget():
    dom = sphere_domain(2)
    ctx = RunContext(dom, budget=300, master_seed=4)
    handle = build_optimizer("chain(diagcma,meta(cma);100a,1)", ctx)
    for _ in range(300):
        cand = handle.ask()
        handle.tell(cand, sphere(cand.point))
    # child 0 received exactly its pinned 100 asks
    assert [child_context.budget for child_context in handle._contexts] == [100, 200]


# ---------------------------------------------------------------------------
# bet-and-run


def test_bet_and_run_phase_split_example():
    # 3 children, fraction 0.2, budget 1000: 66/66 with remainder 2 to child 0
    dom = sphere_domain()
    ctx = RunContext(dom, budget=1000, master_seed=5)
    handle = build_optimizer("bet(cma,de,tbpsa;0.2)", ctx)
    assert handle._phase_allocs == [68, 66, 66]


def test_bet_and_run_survivor_is_best_phase1_child():
    dom = sphere_domain()
    ctx = RunContext(dom, budget=200, master_seed=6)
    handle = build_optimizer("bet(oneshot,cma;0.3)", ctx)
    for _ in range(200):
        cand = handle.ask()
        handle.tell(cand, sphere(cand.point))
    assert handle.survivor == int(np.argmin(handle._best))


def test_bet_and_run_identical_children_same_seed_tie_goes_to_child_zero():
    dom = sphere_domain()
    ctx = RunContext(dom, budget=120, master_seed=7)
    spec = "bet(cma[seed=9],cma[seed=9];0.5)"
    handle = build_optimizer(spec, ctx)
    phase1 = sum(handle._phase_allocs)
    for _ in range(phase1):
        cand = handle.ask()
        handle.tell(cand, sphere(cand.point))
    assert handle._best[0] == handle._best[1]  # identical seeds, identical streams
    handle.ask()  # crossing the phase boundary picks the survivor
    assert handle.survivor == 0


def test_bet_and_run_zero_phase_budget_rejected():
    dom = sphere_domain()
    ctx = RunContext(dom, budget=10, master_seed=8)
    with pytest.raises(ConfigurationError):
        build_optimizer("bet(cma,de,tbpsa,powell,oneshot,lhsde;0.2)", ctx)


def test_bet_and_run_budget_conservation():
    dom = sphere_domain()
    ctx = RunContext(dom, budget=157, master_seed=9)
    handle = build_optimizer("bet(cma,de;0.25)", ctx)
    _rec, history = run_loop(handle, sphere, ctx)
    assert len(history) == 157
    assert sum(c.num_tells for c in handle.children) == 157


def test_a_re_tell_does_not_end_phase_1_early():
    # phase 1 is one ask per child; a refused re-tell of child 0's candidate must not
    # make child 0 the survivor, which would run out of its 9 evaluations
    handle = build_optimizer("bet(tbpsa,de;0.2)", RunContext(sphere_domain(1), budget=10, master_seed=0))
    cand = handle.ask()
    handle.tell(cand, 0.0)
    with pytest.raises(ContractError):
        handle.tell(cand, 0.0)
    assert handle.survivor is None
    for _ in range(9):
        handle.tell(handle.ask(), 1.0)
    assert handle.num_asks == 10 and [c.num_asks for c in handle.children] == [9, 1]


# ---------------------------------------------------------------------------
# progressive widening


def test_progressive_schedule():
    dom = sphere_domain(10)
    ctx = RunContext(dom, budget=100, master_seed=10)
    handle = build_optimizer("prog(de)", ctx)
    assert handle.active_dims(0) == 1
    assert handle.active_dims(72) == 10
    assert handle.active_dims(99) == 10


def test_progressive_pins_inactive_coordinates_to_center():
    dom = DomainSpec([continuous(1.0, 3.0) for _ in range(6)])  # center 2.0
    ctx = RunContext(dom, budget=60, master_seed=11)
    handle = build_optimizer("prog(de)", ctx)
    for _ in range(60):
        cand = handle.ask()
        k = handle._active_dims
        assert np.all(cand.point[k:] == 2.0)
        handle.tell(cand, sphere(cand.point))


def test_progressive_identity_in_one_dimension():
    dom = sphere_domain(1)
    ctx = RunContext(dom, budget=50, master_seed=12)
    handle = build_optimizer("prog(de)", ctx)
    rec, history = run_loop(handle, sphere, ctx)
    assert handle.active_dims(49) == 1
    assert len(history) == 50


def test_progressive_requires_continuous_domain():
    dom = DomainSpec([integer(0, 3)])
    with pytest.raises(ConfigurationError):
        build_optimizer("prog(de)", RunContext(dom, budget=10))


# ---------------------------------------------------------------------------
# the run contract over random spec trees

LEAVES = [
    "cma", "de", "tbpsa", "one-plus-one-es", "oneshot", "powell",
    "linear-tr", "discrete-fixed", "fastga", "abbo",
]

DOMAINS = {
    "1 continuous": DomainSpec([continuous()]),
    "3 continuous": sphere_domain(3),
    "box and integer": DomainSpec([continuous(-1.0, 1.0), integer(0, 4)]),
    "mixed": DomainSpec([categorical(3), integer(0, 2), continuous()]),
    "4 binary": DomainSpec([integer(0, 1) for _ in range(4)]),
    "single-valued": DomainSpec([integer(2, 2), integer(1, 1)]),
}


@st.composite
def spec_trees(draw, depth=0, leaves=LEAVES):
    if depth >= 3:
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(["leaf", "chain", "bet", "meta", "prog", "softmax"]))
    if kind == "leaf":
        return draw(st.sampled_from(leaves))
    if kind == "chain":
        n = draw(st.integers(1, 3))
        children = [draw(spec_trees(depth=depth + 1, leaves=leaves)) for _ in range(n)]
        raw = [draw(st.floats(0.1, 1.0)) for _ in range(n)]
        fracs = [f"{r / sum(raw):.6f}" for r in raw[:-1]]
        last = 1.0 - sum(float(x) for x in fracs)
        fracs.append(f"{last:.6f}")
        return f"chain({','.join(children)};{','.join(fracs)})"
    if kind == "bet":
        n = draw(st.integers(2, 3))
        children = [draw(spec_trees(depth=depth + 1, leaves=leaves)) for _ in range(n)]
        return f"bet({','.join(children)};0.5)"
    return f"{kind}({draw(spec_trees(depth=depth + 1, leaves=leaves))})"


#: a bet whose chain share (3 of 30) cannot give each child a phase-1 ask
THIN_BET_IN_CHAIN = "chain(cma,bet(cma,cma;0.5),cma;0.444444,0.111111,0.444445)"
#: lazily built leaves whose solver rejects its domain
FASTGA_ON_ONE_VARIABLE = "chain(cma,fastga;0.5,0.5)"
NOTHING_TO_MUTATE = "chain(cma,discrete-fixed;0.5,0.5)"
META_ON_CATEGORICALS = "chain(softmax(meta(one-plus-one-es)),meta(fastga);0.5,0.5)"


@given(
    spec_trees(),
    st.sampled_from(sorted(DOMAINS)),
    st.integers(30, 300),
    st.sampled_from([1, 2, 5]),
    st.integers(0, 10_000),
)
@example(THIN_BET_IN_CHAIN, "3 continuous", 30, 1, 0)
@example(FASTGA_ON_ONE_VARIABLE, "1 continuous", 30, 1, 0)
@example(NOTHING_TO_MUTATE, "single-valued", 30, 1, 0)
@example(META_ON_CATEGORICALS, "mixed", 30, 1, 0)
@settings(max_examples=200, deadline=None)
def test_budget_conservation_over_random_trees(spec_text, domain_name, budget, workers, seed):
    # once the root is built, the run keeps the contract: every ask in the
    # domain, the exact budget told, nothing left pending, nothing raised
    dom = DOMAINS[domain_name]
    ctx = RunContext(dom, budget=budget, num_workers=workers, master_seed=seed)
    try:
        handle = build_optimizer(spec_text, ctx)
    except ConfigurationError:
        return  # e.g. a bet phase too thin for its children

    def objective(x):
        dom.validate(x)
        return float(x @ x)

    _rec, history = run_loop(handle, objective, ctx)
    assert len(history) == budget
    assert handle.num_asks == handle.num_tells == budget
    assert handle.pending == {}


def assert_every_ask_is_fresh(handle, workers, noisy, seed):
    # no observations and an id never issued before, through ask and ask_many alike
    rng = np.random.default_rng(seed)
    issued = set()
    while handle.num_asks < handle.budget:
        n = min(workers, handle.budget - handle.num_asks)
        cands = handle.ask_many(n) if n > 1 else [handle.ask()]
        for cand in cands:
            assert cand.observations == [] and cand.id not in issued
            issued.add(cand.id)
        for cand in cands:
            handle.tell(cand, float(np.sum((cand.point - 1.0) ** 2)) + noisy * float(rng.normal()))


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("alg", sorted(REGISTRY))
def test_every_ask_of_a_solver_is_a_fresh_candidate(alg, noisy, workers):
    domain = DOMAINS["4 binary" if alg.startswith("discrete-") or alg == "fastga" else "3 continuous"]
    ctx = RunContext(domain, budget=120, num_workers=workers, noisy=noisy, master_seed=4)
    assert_every_ask_is_fresh(build_optimizer(alg, ctx), workers, noisy, seed=4)


#: the leaves of the fresh-candidate property: the parent-resampling solver among others
FRESH_LEAVES = ["discrete-optimistic", "discrete-optimistic", "discrete-fixed", "cma", "one-plus-one-es", "abbo"]


@given(
    spec_trees(leaves=FRESH_LEAVES),
    st.sampled_from(sorted(DOMAINS)),
    st.integers(30, 120),
    st.sampled_from([1, 3]),
    st.booleans(),
    st.integers(0, 10_000),
)
@example("chain(discrete-optimistic,discrete-optimistic;0.5,0.5)", "4 binary", 60, 1, True, 0)
@example("bet(discrete-optimistic,cma;0.5)", "box and integer", 60, 3, True, 0)
@example("softmax(discrete-optimistic)", "mixed", 60, 1, False, 0)
@example("prog(discrete-optimistic)", "3 continuous", 60, 3, False, 0)
@example("meta(discrete-optimistic)", "box and integer", 60, 1, True, 0)
@settings(max_examples=60, deadline=None)
def test_every_ask_is_a_fresh_candidate_over_random_trees(spec_text, domain_name, budget, workers, noisy, seed):
    ctx = RunContext(DOMAINS[domain_name], budget=budget, num_workers=workers, noisy=noisy, master_seed=seed)
    try:
        handle = build_optimizer(spec_text, ctx)
    except ConfigurationError:
        return  # e.g. a bet phase too thin for its children
    assert_every_ask_is_fresh(handle, workers, noisy, seed)


#: continuous, noisy, binary and permutation problems, each small
RECORDS_SUITE_SPECS = {
    "sphere-d3": FunctionSpec("sphere", 3),
    "sphere-d3-noisy": FunctionSpec("sphere", 3, TransformSpec(noise_std=1.0, transform_seed=1)),
    "onemax-d8": FunctionSpec("onemax", 8),
    "simple_tsp-6": simple_tsp(6, 2),
}


@given(spec_trees(), st.integers(10, 60), st.integers(0, 10_000))
@settings(max_examples=12, deadline=None)
def test_records_are_the_same_bytes_for_one_and_two_workers(spec_text, budget, master_seed):
    # a second process changes only wall time: same cells, same order, same
    # bytes, failed cells included; the 8 cells are dealt one at a time
    suite = BenchmarkSuite(
        "records",
        tuple(SuiteProblem(name, spec, budgets=(budget,)) for name, spec in RECORDS_SUITE_SPECS.items()),
    )
    serial, pooled = (
        [record_to_line(r) for r in run_experiment(suite, [spec_text], [0, 1], master_seed, jobs=jobs)]
        for jobs in (1, 2)
    )
    assert serial == pooled


class Unbatched:
    """``function`` without its ``batch``, so a serial run evaluates row by row."""

    def __init__(self, function):
        self.domain = function.domain
        self._function = function

    def __call__(self, point):
        return self._function(point)


def one_at_a_time(spec_text, function, context, checkpoint_callback):
    """The reference serial run: ask one candidate, evaluate it, tell it, checkpoint."""
    handle = build_optimizer(spec_text, context)
    history = []
    for done in range(1, context.budget + 1):
        cand = handle.ask()
        loss = float(function(cand.point))
        handle.tell(cand, loss)
        history.append((done, loss))
        checkpoint_callback(done, handle)
    return handle.recommend(), history


def serial_run(run, spec_text, function, budget, noisy, seed):
    """Everything a serial run shows: recommendation, history and what each checkpoint saw."""
    context = RunContext(function.domain, budget=budget, noisy=noisy, master_seed=seed)
    seen = []

    def checkpoint(done, handle):
        seen.append((done, handle.recommend().point.tobytes()))

    try:
        rec, history = run(spec_text, function, context, checkpoint_callback=checkpoint)
    except OptbenchError as exc:
        return error_text(exc), seen
    return rec.point.tobytes(), [(i, float.hex(v)) for i, v in history], seen


@given(spec_trees(), st.sampled_from(sorted(RECORDS_SUITE_SPECS)), st.integers(10, 200), st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_serial_generation_waves_change_nothing_over_random_trees(spec_text, problem, budget, seed):
    # a serial run asks the rest of a generation in one wave, evaluated in one
    # batch or row by row; neither may differ from one-at-a-time ask and tell
    fspec = RECORDS_SUITE_SPECS[problem]
    noisy = fspec.transform.noise_std > 0
    reference = serial_run(one_at_a_time, spec_text, make_function(fspec, noise_seed=seed), budget, noisy, seed)
    for wrap in (lambda f: f, Unbatched):
        function = wrap(make_function(fspec, noise_seed=seed))
        assert serial_run(run_loop, spec_text, function, budget, noisy, seed) == reference


@pytest.mark.parametrize(
    "spec, domain, budget, message",
    [
        (FASTGA_ON_ONE_VARIABLE, DOMAINS["1 continuous"], 20, "FastGA needs at least 2 variables"),
        (NOTHING_TO_MUTATE, DOMAINS["single-valued"], 20, "nothing to mutate"),
        (META_ON_CATEGORICALS, DOMAINS["mixed"], 30, "categorical variables need the softmax bridge"),
    ],
    ids=["fastga-one-variable", "nothing-to-mutate", "meta-on-categoricals"],
)
def test_a_lazily_built_leaf_that_cannot_run_fails_before_the_first_evaluation(spec, domain, budget, message):
    calls = []

    def counted(x):
        calls.append(x)
        return float(x @ x)

    with pytest.raises(ConfigurationError, match=message):
        run_loop(spec, counted, RunContext(domain, budget=budget))
    assert calls == []


def test_a_child_that_cannot_cover_its_share_fails_before_the_first_evaluation():
    calls = []

    def counted(x):
        calls.append(x)
        return sphere(x)

    ctx = RunContext(sphere_domain(3), budget=30, master_seed=0)
    with pytest.raises(ConfigurationError, match="phase-1 budget 1 cannot cover 2 children"):
        run_loop(THIN_BET_IN_CHAIN, counted, ctx)
    assert calls == []


def test_a_cell_with_a_leaf_that_cannot_run_records_its_message(monkeypatch):
    calls = []
    evaluate = BenchmarkFunction.__call__
    monkeypatch.setattr(BenchmarkFunction, "__call__", lambda self, x: calls.append(x) or evaluate(self, x))
    problem = SuiteProblem("sphere-d1", FunctionSpec("sphere", 1), budgets=(20,))
    spec = parse_algorithm(FASTGA_ON_ONE_VARIABLE)
    record = run_cell("lazy", problem, 20, 1, FASTGA_ON_ONE_VARIABLE, spec, 0, 0)
    assert record.failed and record.error == "FastGA needs at least 2 variables"
    assert calls == []
