"""The wave path of ``run_loop``: ``ask_many`` and row-exact objective batches.

A wave of more than one candidate is one ``ask_many`` call and, when the
objective has ``batch``, one batch evaluation.  Both must be invisible in
the results: ``batch(X)[i]`` equals ``f(X[i])`` bit for bit and leaves the
noise stream where n calls leave it, and ``ask_many(n)`` issues what n
``ask`` calls issue and leaves the same state behind.
"""

import math
import sys
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optbench import (
    BudgetExceededError,
    Candidate,
    ConfigurationError,
    DomainSpec,
    EvaluationError,
    Optimizer,
    RunContext,
    build_optimizer,
    continuous,
    integer,
    run_loop,
)
from optbench.bench import CompositeBlock, FunctionSpec, TransformSpec, get_suite, make_function
from optbench.bench.functions import CATALOG
from optbench.solvers import REGISTRY
from optbench.solvers.cma import CmaEs
from test_combinators import DOMAINS, spec_trees

CONTINUOUS_BASES = sorted(name for name, base in CATALOG.items() if not base.discrete)

# exact zeros, tiny and huge magnitudes next to ordinary values
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, 1e-300, -1e-300, 1e100, -1e100]),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e-3, 1e-3, allow_nan=False),
)


@st.composite
def instances(draw, base):
    d = draw(st.integers(CATALOG[base].min_dimension, 64))
    transform = TransformSpec(
        translation_std=draw(st.sampled_from([0.0, 1.0])),
        rotate=draw(st.booleans()),
        symmetrize=draw(st.booleans()),
        noise_std=draw(st.sampled_from([0.0, 0.5])),
        transform_seed=draw(st.integers(0, 2**32)),
    )
    n = draw(st.integers(1, 6))
    points = np.array(draw(st.lists(st.lists(VALUES, min_size=d, max_size=d), min_size=n, max_size=n)))
    return FunctionSpec(base, d, transform), points


@pytest.mark.parametrize("base", CONTINUOUS_BASES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_batch_rows_equal_calls_bit_for_bit(base, data):
    assert_batches_equal_calls(*data.draw(instances(base)))


def assert_batches_equal_calls(spec, points):
    batched, called = make_function(spec, noise_seed=7), make_function(spec, noise_seed=7)
    with np.errstate(all="ignore"):  # huge points overflow alike on both paths
        free = batched.noise_free_batch(points)
        assert [float.hex(float(v)) for v in free] == [float.hex(called.noise_free(p)) for p in points]
        losses = batched.batch(points)
        assert [float.hex(float(v)) for v in losses] == [float.hex(called(p)) for p in points]
        # the noise stream continues as after len(points) calls
        assert float.hex(batched(points[0])) == float.hex(called(points[0]))


@pytest.mark.parametrize("spec", [
    FunctionSpec("onemax", 7),
    FunctionSpec("sphere", 6, TransformSpec(noise_std=1.0, transform_seed=3)),
])
def test_batch_without_a_row_kernel_loops_over_the_rows(spec):
    rng = np.random.default_rng(0)
    points = rng.integers(0, 2, size=(9, spec.dimension)).astype(float)
    batched, called = make_function(spec), make_function(spec)
    assert batched.batch(points).tolist() == [called(p) for p in points]


def test_composite_and_tsp_batches_equal_calls():
    for suite in ("lsgo_lite", "discrete_lite"):
        for problem in get_suite(suite).problems:
            f, g = make_function(problem.spec), make_function(problem.spec)
            points = f.domain.scalar_view.decode(np.random.default_rng(1).standard_normal((4, problem.spec.dimension)))
            assert [float.hex(float(v)) for v in f.batch(points)] == [float.hex(g(p)) for p in points]


@st.composite
def composites(draw, base):
    """A composite whose first block is ``base`` at its fewest variables;
    further blocks may share variables with it and with each other."""
    d = draw(st.integers(CATALOG[base].min_dimension, 24))

    def block(base, size):
        indices = draw(st.lists(st.integers(0, d - 1), min_size=size, max_size=size, unique=True))
        weight = draw(st.sampled_from([1.0, -2.5, 1e-3, 1e3]))
        return CompositeBlock(base, tuple(indices), weight, draw(st.none() | st.integers(0, 2**32)))

    blocks = [block(base, CATALOG[base].min_dimension)]
    for _ in range(draw(st.integers(0, 4))):
        other = draw(st.sampled_from([b for b in CONTINUOUS_BASES if CATALOG[b].min_dimension <= d]))
        blocks.append(block(other, draw(st.integers(CATALOG[other].min_dimension, d))))
    transform = TransformSpec(
        translation_std=draw(st.sampled_from([0.0, 1.0])),
        rotate=draw(st.booleans()),
        noise_std=draw(st.sampled_from([0.0, 0.5])),
        transform_seed=draw(st.integers(0, 2**32)),
    )
    # rows of VALUES: a drawn pool, laid out by a drawn seed so that 200 rows fit the draw
    pool = draw(st.lists(VALUES, min_size=1, max_size=32))
    n = draw(st.sampled_from([1, 7, 200]))
    points = np.random.default_rng(draw(st.integers(0, 2**32))).choice(pool, size=(n, d))
    return FunctionSpec("lsgo_composite", d, transform, tuple(blocks)), points


@pytest.mark.parametrize("base", CONTINUOUS_BASES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_composite_batch_rows_equal_calls_bit_for_bit(base, data):
    assert_batches_equal_calls(*data.draw(composites(base)))


WAVE_SPECS = ["cma", "diagcma", "tbpsa", "naive-tbpsa", "bet(tbpsa,de;0.2)", "chain(cma,powell;0.5,0.5)"]
DE_SPECS = ["de", "lhsde"]
# composites that name no wave child, so their waves go ask by ask
ASK_BY_ASK_SPECS = ["meta(cma)", "softmax(cma)", "prog(de)"]
# the survivor or the active child re-asks candidates, some of them twice in one wave
REASKING_BET = "bet(discrete-optimistic,discrete-optimistic;0.2)"
REASKING_CHAIN = "chain(discrete-optimistic,discrete-optimistic;0.5,0.5)"
REASKING = (REASKING_BET, REASKING_CHAIN)


def snapshot(obj, memo):
    """A comparable picture of ``obj``'s state; handles, candidates, arrays,
    random and Python generators are opened up, shared objects (domain, view,
    spec) print alike."""
    if isinstance(obj, (Optimizer, Candidate)):
        key = (type(obj).__name__, id(obj))
        if key in memo:
            return ("seen", memo[key])
        memo[key] = len(memo)
        if isinstance(obj, Candidate):
            return ("cand", obj.id, obj.point.tobytes(), tuple(obj.observations), snapshot(obj.payload, memo))
        return (type(obj).__name__, snapshot(vars(obj), memo))
    if isinstance(obj, weakref.ref):  # a composite's link to its child
        return ("weakref", snapshot(obj(), memo))
    if isinstance(obj, np.ndarray):
        return ("array", obj.shape, obj.tobytes())
    if isinstance(obj, np.random.Generator):
        return obj.bit_generator.state
    if isinstance(obj, types.GeneratorType):  # a suspended generator: where it stopped, and its locals
        frame = obj.gi_frame
        return ("generator", obj.gi_code.co_name, frame and (frame.f_lasti, snapshot(frame.f_locals, memo)))
    if isinstance(obj, dict):
        return [(snapshot(k, memo), snapshot(v, memo)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [snapshot(v, memo) for v in obj])
    text = repr(obj)
    if " at 0x" in text and not isinstance(obj, types.FunctionType):
        # made per handle (a view of a handle's own domain, an iterator): what pickling keeps of it
        return (type(obj).__name__, snapshot(obj.__reduce_ex__(4)[1:], memo))
    return text


def twins(spec, n):
    variables = [integer(0, 2)] * 4 if spec in REASKING else [continuous()] * 6
    context = RunContext(DomainSpec(variables), budget=4 * n + 40, num_workers=n, noisy=spec in REASKING,
                         master_seed=11)
    return build_optimizer(spec, context), build_optimizer(spec, context)


def assert_waves_equal_asks(many, single, n):
    while many.num_asks + n <= many.budget:
        got = many.ask_many(n)
        want = [single.ask() for _ in range(n)]
        assert [c.id for c in got] == [c.id for c in want]
        assert [c.point.tobytes() for c in got] == [c.point.tobytes() for c in want]
        for a, b in zip(got, want):
            loss = float(np.dot(a.point, a.point))
            many.tell(a, loss)
            single.tell(b, loss)
        assert snapshot(many, {}) == snapshot(single, {})


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 250])
@pytest.mark.parametrize("spec", [*WAVE_SPECS, *DE_SPECS, *ASK_BY_ASK_SPECS, *REASKING])
def test_ask_many_equals_asks(spec, n):
    many, single = twins(spec, n)
    assert_waves_equal_asks(many, single, n)
    if spec in REASKING and n > 2:
        assert spec == REASKING_CHAIN or many.survivor is not None
        assert len(many.archive) < many.num_tells  # re-asks were issued and told


@given(spec_trees(), st.sampled_from(sorted(DOMAINS)), st.sampled_from([2, 5]), st.integers(10, 80), st.booleans(),
       st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_ask_many_equals_asks_over_random_trees(spec_text, domain_name, n, budget, noisy, seed):
    # the property behind the wave tests above, on the composites the contract tests draw
    context = RunContext(DOMAINS[domain_name], budget=budget, num_workers=n, noisy=noisy, master_seed=seed)
    try:
        many = build_optimizer(spec_text, context)
    except ConfigurationError:
        return  # e.g. a bet phase too thin for its children
    assert_waves_equal_asks(many, build_optimizer(spec_text, context), n)


@pytest.mark.parametrize("spec", [*sorted(REGISTRY), "chain(cma,powell;0.5,0.5)", "bet(tbpsa,de;0.2)",
                                  *ASK_BY_ASK_SPECS])
def test_only_ask_many_issues_a_wave(spec):
    # the wave hook makes candidates; issuing them is left to ask_many
    discrete = spec.startswith("discrete-") or spec == "fastga"
    variables = [integer(0, 2)] * 6 if discrete else [continuous()] * 6
    handle = build_optimizer(spec, RunContext(DomainSpec(variables), budget=60, num_workers=3, master_seed=11))
    handle._ask_many(3)
    assert (handle.num_asks, handle.pending) == (0, {})
    handle.ask_many(3)
    assert handle.num_asks == 3


@pytest.mark.parametrize("n", [1, 7, 19, 64])
def test_ask_many_equals_asks_with_one_cma_decomposition_per_generation(n, monkeypatch):
    # at d=200 too, each generation's update decomposes the covariance once, and no
    # sample batch or wave wider than lambda decomposes it again
    decompositions = []
    decompose = CmaEs._decompose

    def logged(self):
        caller = sys._getframe(1).f_code.co_name
        decompositions.append((id(self), self._generations, caller))
        decompose(self)

    monkeypatch.setattr(CmaEs, "_decompose", logged)
    context = RunContext(DomainSpec([continuous()] * 200), budget=120 + 4 * n, num_workers=n, master_seed=11)
    many, single = build_optimizer("cma", context), build_optimizer("cma", context)
    assert many.lam == 19
    assert_waves_equal_asks(many, single, n)
    assert many._generations >= 6
    for handle in (many, single):
        logged_here = [(gen, where) for owner, gen, where in decompositions if owner == id(handle)]
        generations = range(1, handle._generations + 1)
        assert logged_here == [(gen, "_update_generation") for gen in generations]


@pytest.mark.parametrize("n", [1, 5, 70])
@pytest.mark.parametrize("spec", [*WAVE_SPECS, "de"])
def test_ask_many_beyond_the_budget_raises_and_changes_nothing(spec, n):
    handle, _ = twins(spec, n)
    handle.ask_many(handle.budget - 3 - n)  # leaves a part-used sample queue or normal block
    before = snapshot(handle, {})
    with pytest.raises(BudgetExceededError):
        handle.ask_many(n + 4)
    assert snapshot(handle, {}) == before
    assert len(handle.ask_many(3 + n)) == 3 + n


@pytest.mark.parametrize("spec", WAVE_SPECS)
def test_ask_many_of_no_candidates_changes_nothing(spec):
    handle, _ = twins(spec, 3)
    before = snapshot(handle, {})
    assert handle.ask_many(0) == []
    assert snapshot(handle, {}) == before


@pytest.mark.parametrize("spec", [*WAVE_SPECS, *DE_SPECS, "chain(de,cma;0.5,0.5)", "bet(de,tbpsa;0.2)"])
def test_free_asks_then_tells_equal_interleaved_ask_and_tell(spec):
    # free_asks() candidates asked at once, then told in order, as a serial wave
    context = RunContext(DomainSpec([continuous()] * 6), budget=400, master_seed=3)  # tbpsa survives the bet
    ahead, single = build_optimizer(spec, context), build_optimizer(spec, context)

    def tell_both(got):
        for cand in got:
            want = single.ask()
            assert (cand.id, cand.point.tobytes()) == (want.id, want.point.tobytes())
            loss = float(np.dot(cand.point, cand.point))
            ahead.tell(cand, loss)
            single.tell(want, loss)

    widths = []
    while ahead.num_asks < ahead.budget:
        free = ahead.free_asks()
        width = min(free, ahead.budget - ahead.num_asks)
        widths.append(width)
        got = ahead.ask_many(width // 2)
        assert ahead.free_asks() == max(1, free - width // 2)  # asks in flight are not free
        tell_both(got + ahead.ask_many(width - width // 2))
        assert snapshot(ahead, {}) == snapshot(single, {})
        # one or two single asks now and then, so the next wave starts inside a generation
        for _ in range(min(len(widths) % 3, ahead.budget - ahead.num_asks)):
            tell_both([ahead.ask()])
    assert max(widths) > 1


class CountsCalls:
    """An objective that counts its calls, a ``batch`` of many points being one."""

    def __init__(self, function):
        self.function, self.domain, self.calls = function, function.domain, 0

    def __call__(self, point):
        self.calls += 1
        return self.function(point)

    def batch(self, points):
        self.calls += 1
        return self.function.batch(points)


def test_serial_de_evaluates_its_free_trials_together():
    # NP = 50: one call for the initial samples, then about 11 per generation
    problem = next(p for p in get_suite("lsgo_lite").problems if p.problem_id == "lsgo-d50-ov")
    objective = CountsCalls(make_function(problem.spec))
    _rec, history = run_loop("de", objective, RunContext(objective.domain, budget=1000, master_seed=5))
    assert len(history) == 1000
    assert objective.calls <= 250


class Counting(Optimizer):
    """Asks the points (0, 0), (1, 1), ... in order."""

    def _ask(self):
        return np.full(2, float(self._next_id))


class FailsAt:
    """Raises on the point (bad, bad), in ``__call__`` and in ``batch`` alike."""

    def __init__(self, bad, with_batch):
        self.bad = bad
        if with_batch:
            self.batch = self._batch

    def __call__(self, point):
        if point[0] == self.bad:
            raise ValueError(f"no value at {point[0]:g}")
        return float(point[0])

    def _batch(self, points):
        return np.array([self(p) for p in points])


@pytest.mark.parametrize("bad", [0, 4, 5, 9])
def test_failing_batch_row_reports_that_evaluation(bad):
    context = RunContext(DomainSpec([continuous(), continuous()]), budget=12, num_workers=5)
    errors = []
    for with_batch in (True, False):
        with pytest.raises(EvaluationError) as err:
            run_loop(Counting(context), FailsAt(bad, with_batch), context)
        errors.append((str(err.value), err.value.history))
    assert errors[0] == errors[1]
    assert errors[0][0] == f"objective evaluation {bad + 1} failed: no value at {bad}"
    assert errors[0][1] == [(i + 1, float(i)) for i in range(bad)]


def test_batch_with_the_wrong_count_is_evaluated_row_by_row():
    context = RunContext(DomainSpec([continuous(), continuous()]), budget=12, num_workers=5)
    objective = FailsAt(bad=-1, with_batch=True)
    objective.batch = lambda points: [0.0]  # one loss for a whole wave
    _rec, history = run_loop(Counting(context), objective, context)
    assert history == [(i + 1, float(i)) for i in range(12)]


@pytest.mark.parametrize("spec", WAVE_SPECS)
def test_run_loop_batch_and_per_row_give_the_same_history(spec):
    fspec = FunctionSpec("lunacek", 6, TransformSpec(translation_std=1.0, rotate=True, noise_std=0.3,
                                                     transform_seed=4))
    context = RunContext(make_function(fspec).domain, budget=700, num_workers=50, noisy=True, master_seed=2)
    batched = make_function(fspec)
    called = make_function(fspec)
    rec_a, hist_a = run_loop(spec, batched, context)
    rec_b, hist_b = run_loop(spec, lambda x: called(x), context)  # no batch: per row
    assert [float.hex(v) for _, v in hist_a] == [float.hex(v) for _, v in hist_b]
    assert rec_a.point.tobytes() == rec_b.point.tobytes()
    assert all(isinstance(v, float) and math.isfinite(v) for _, v in hist_a)
