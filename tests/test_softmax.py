import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optbench import (
    DomainSpec,
    RunContext,
    categorical,
    continuous,
    integer,
    run_loop,
)
from optbench.solvers.softmax import logit_domain, softmax_probabilities
from optbench.wizard import build_optimizer


def test_logit_domain_dimension_accounting():
    dom = DomainSpec([categorical(3), categorical(3), continuous()])
    inner = logit_domain(dom)
    assert len(inner.variables) == 7
    assert all(v.kind == "continuous" for v in inner.variables)
    assert dom.dimension == 7  # encoded dimension matches


def test_softmax_probability_formula():
    probs = softmax_probabilities(np.array([10.0, 0.0, 0.0]))
    expected = math.exp(10.0) / (math.exp(10.0) + 2.0)
    assert probs[0] == pytest.approx(expected, rel=1e-12)
    assert probs[0] == pytest.approx(0.99991, abs=1e-5)


def test_zero_logits_sample_uniformly_and_decode_to_category_zero():
    dom = DomainSpec([categorical(4)])
    ctx = RunContext(dom, budget=4000, master_seed=0)
    bridge = build_optimizer("softmax(oneshot)", ctx)
    probs = softmax_probabilities(np.zeros(4))
    assert np.allclose(probs, 0.25)
    assert bridge.decode(np.zeros(4), stochastic=False)[0] == 0.0  # tie -> lowest index


def test_bridge_without_categoricals_is_a_pure_pass_through():
    # finite integer alphabets with arity >= 5 route here, so the bridge
    # must stay total: no categoricals means identity decode
    dom = DomainSpec([integer(0, 9), continuous()])
    ctx = RunContext(dom, budget=200, master_seed=3)

    def f(x):
        return float(abs(x[0] - 4) + x[1] ** 2)

    rec, _ = run_loop("softmax(cma)", f, ctx)
    dom.validate(rec.point)
    assert f(rec.point) < 0.5


def test_bridge_optimizes_mixed_domain():
    dom = DomainSpec([categorical(3), categorical(3), continuous()])

    def f(x):
        return float((x[0] - 2.0) ** 2 + (x[1] - 1.0) ** 2 + x[2] ** 2)

    # category realization is stochastic, so a single run may latch onto a
    # suboptimal category; require the majority of seeds to solve it exactly
    losses = []
    for seed in range(5):
        ctx = RunContext(dom, budget=800, master_seed=seed)
        rec, _ = run_loop("softmax(cma)", f, ctx)
        dom.validate(rec.point)
        losses.append(f(rec.point))
    assert sum(loss < 0.1 for loss in losses) >= 3
    assert min(losses) < 1e-6


def test_bridge_passes_integers_through():
    dom = DomainSpec([categorical(2), integer(0, 9)])
    ctx = RunContext(dom, budget=300, master_seed=2)

    def f(x):
        return float(x[0] + abs(x[1] - 7))

    rec, _ = run_loop("softmax(cma)", f, ctx)
    dom.validate(rec.point)
    assert f(rec.point) <= 1.0


@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_decode_totality(seed, arity, extra):
    # every ask and every recommendation is a valid domain point
    dom = DomainSpec([categorical(arity)] + [continuous() for _ in range(extra)])
    ctx = RunContext(dom, budget=20, master_seed=seed)
    bridge = build_optimizer("softmax(oneshot)", ctx)
    for _ in range(10):
        cand = bridge.ask()
        dom.validate(cand.point)
        bridge.tell(cand, float(np.sum(cand.point**2)))
    dom.validate(bridge.recommend().point)
