"""Cross-solver contract properties over fuzzed domains.

Every solver must emit only in-domain points, tolerate the full parallelism
contract, and keep a non-increasing incumbent in noise-free mode.  A state
machine also drives one handle through ask, tell, re-tell and recommend in
any order, which the wave-shaped ``run_loop`` never does.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from optbench import (
    BudgetExceededError,
    DomainSpec,
    RunContext,
    build_optimizer,
    categorical,
    continuous,
    integer,
    unbounded_integer,
)

CONTINUOUS_SOLVERS = [
    "cma",
    "diagcma",
    "de",
    "lhsde",
    "one-plus-one-es",
    "tbpsa",
    "naive-tbpsa",
    "powell",
    "linear-tr",
    "quadratic-tr",
    "oneshot",
    "meta(cma)",
]

DISCRETE_SOLVERS = [
    "discrete-fixed",
    "discrete-lineardecay",
    "discrete-adaptive",
    "discrete-portfolio",
    "discrete-optimistic",
    "fastga",
]


@st.composite
def scalar_domains(draw):
    variables = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["unbounded", "bounded", "half", "integer"]))
        if kind == "unbounded":
            variables.append(continuous(scale=draw(st.floats(0.1, 5.0))))
        elif kind == "bounded":
            lo = draw(st.floats(-5.0, 4.0))
            variables.append(continuous(lo, lo + draw(st.floats(0.5, 8.0))))
        elif kind == "half":
            variables.append(continuous(lower=draw(st.floats(-3.0, 3.0))))
        else:
            lo = draw(st.integers(-4, 4))
            variables.append(integer(lo, lo + draw(st.integers(0, 8))))
    return DomainSpec(variables)


@st.composite
def discrete_domains(draw):
    variables = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["integer", "categorical", "unbounded_integer"]))
        if kind == "integer":
            lo = draw(st.integers(-3, 3))
            variables.append(integer(lo, lo + draw(st.integers(1, 6))))
        elif kind == "categorical":
            variables.append(categorical(draw(st.integers(2, 5))))
        else:
            variables.append(unbounded_integer())
    return DomainSpec(variables)


def drive(handle, domain, budget, workers, rng):
    best = math.inf
    done = 0
    while done < budget:
        wave = min(workers, budget - done)
        cands = [handle.ask() for _ in range(wave)]
        for cand in cands:
            domain.validate(cand.point)  # the core in-domain property
            loss = float(rng.standard_normal())
            handle.tell(cand, loss)
            done += 1
            if not handle.noisy:
                best = min(best, loss)
                assert handle.incumbent_loss <= best + 1e-12
    domain.validate(handle.recommend().point)


@pytest.mark.parametrize("alg", CONTINUOUS_SOLVERS)
@given(dom=scalar_domains(), seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 7))
@settings(max_examples=12, deadline=None)
def test_continuous_solver_contract(alg, dom, seed, workers):
    budget = 40
    ctx = RunContext(dom, budget=budget, num_workers=min(workers, budget), master_seed=seed)
    handle = build_optimizer(alg, ctx)
    drive(handle, dom, budget, ctx.num_workers, np.random.default_rng(seed))


@pytest.mark.parametrize("alg", DISCRETE_SOLVERS)
@given(dom=discrete_domains(), seed=st.integers(0, 2**32 - 1), workers=st.integers(1, 7))
@settings(max_examples=12, deadline=None)
def test_discrete_solver_contract(alg, dom, seed, workers):
    budget = 40
    noisy = alg == "discrete-optimistic"
    ctx = RunContext(
        dom, budget=budget, num_workers=min(workers, budget), noisy=noisy, master_seed=seed
    )
    handle = build_optimizer(alg, ctx)
    drive(handle, dom, budget, ctx.num_workers, np.random.default_rng(seed))


@given(dom=discrete_domains(), seed=st.integers(0, 2**32 - 1), noisy=st.booleans())
@settings(max_examples=25, deadline=None)
def test_wizard_built_optimizer_contract_on_any_domain(dom, seed, noisy):
    budget = 40
    ctx = RunContext(dom, budget=budget, noisy=noisy, master_seed=seed)
    handle = build_optimizer("abbo", ctx)
    drive(handle, dom, budget, 1, np.random.default_rng(seed))


@given(dom=scalar_domains(), seed=st.integers(0, 2**32 - 1), noisy=st.booleans())
@settings(max_examples=25, deadline=None)
def test_wizard_built_optimizer_contract_on_scalar_domains(dom, seed, noisy):
    if all(v.num_values == 1 for v in dom.variables):
        return  # a single-point domain is a specced configuration error
    budget = 40
    ctx = RunContext(dom, budget=budget, noisy=noisy, master_seed=seed)
    handle = build_optimizer("abbo", ctx)
    drive(handle, dom, budget, 1, np.random.default_rng(seed))


class AskTellMachine(RuleBasedStateMachine):
    """One noise-free handle under arbitrary ask/tell/re-tell/recommend
    order, against a model of the pending set and the incumbent."""

    def __init__(self, alg):
        super().__init__()
        self.alg = alg

    @initialize(
        dom=scalar_domains(),
        seed=st.integers(0, 2**32 - 1),
        budget=st.integers(10, 60),
        workers=st.integers(1, 5),
    )
    def build(self, dom, seed, budget, workers):
        self.domain = dom
        self.handle = build_optimizer(self.alg, RunContext(dom, budget=budget, num_workers=workers, master_seed=seed))
        self.pending = {}
        self.told = []
        self.best = (math.inf, None)  # the first strictly lowest told loss and its candidate

    @rule()
    def ask(self):
        if self.handle.num_asks == self.handle.budget:
            with pytest.raises(BudgetExceededError):
                self.handle.ask()
            return
        cand = self.handle.ask()
        self.domain.validate(cand.point)
        self.pending[cand.id] = cand

    def _tell(self, cand, loss):
        self.handle.tell(cand, loss)
        self.pending.pop(cand.id, None)
        self.told.append(cand)
        if loss < self.best[0]:
            self.best = (loss, cand)

    @precondition(lambda self: self.pending)
    @rule(data=st.data(), loss=st.floats(-10.0, 10.0))
    def tell(self, data, loss):
        self._tell(self.pending[data.draw(st.sampled_from(sorted(self.pending)))], loss)

    @precondition(lambda self: self.told)
    @rule(data=st.data(), loss=st.floats(-10.0, 10.0))
    def retell(self, data, loss):
        self._tell(data.draw(st.sampled_from(self.told)), loss)

    @rule()
    def recommend(self):
        self.domain.validate(self.handle.recommend().point)

    @invariant()
    def contract_holds(self):
        handle = self.handle
        assert set(handle.pending) == set(self.pending)
        assert handle.num_asks <= handle.budget
        assert handle.incumbent is self.best[1]
        assert handle.incumbent_loss == self.best[0]


@pytest.mark.parametrize("alg", ["de", "cma", "tbpsa", "one-plus-one-es", "bet(tbpsa,de;0.2)"])
def test_ask_tell_in_any_order(alg):
    run_state_machine_as_test(
        lambda: AskTellMachine(alg),
        settings=settings(max_examples=20, stateful_step_count=50, deadline=None),
    )
