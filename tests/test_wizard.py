import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optbench import (
    ConfigurationError,
    DomainSpec,
    RegistryError,
    RunContext,
    SelectionContext,
    build_optimizer,
    canonical_text,
    categorical,
    continuous,
    explain_selection,
    integer,
    parse_algorithm,
    select_algorithm,
    unbounded_integer,
)
from optbench.domain import CATEGORICAL_NEEDS_BRIDGE
from optbench.solvers import REGISTRY
from optbench.solvers.cma import CmaEs
from optbench.wizard import validate_spec


def ctx(**kwargs):
    kwargs.setdefault("dimension", 10)
    kwargs.setdefault("budget", 1000)
    return SelectionContext(**kwargs)


# the enumerated dispatch examples: context -> (rule, canonical spec)
ENUMERATED = [
    (ctx(dimension=20, budget=1000, num_workers=600), 10, "oneshot"),
    (ctx(dimension=3, budget=80, num_workers=20), 11, "diagcma"),
    (ctx(dimension=10, budget=10000), 14, "chain(cma,powell;0.5,0.5)"),
    (ctx(dimension=50, budget=600), 15, "one-plus-one-es"),
    (ctx(dimension=4, budget=100), 16, "meta(cma)"),
    (ctx(dimension=10, budget=200), 17, "linear-tr"),
    (ctx(dimension=200, budget=1000, noisy=True), 6, "prog(de)"),
    (ctx(dimension=50, budget=500, noisy=True), 8, "quadratic-tr"),
    (ctx(dimension=25, budget=1000, noisy=True), 7, "tbpsa"),
    (
        ctx(dimension=20, budget=500, has_discrete=True, max_arity=2),
        2,
        "discrete-lineardecay",
    ),
    (
        ctx(dimension=10, budget=500, has_discrete=True, has_categorical=True, max_arity=10),
        4,
        "softmax(cma)",
    ),
]


@pytest.mark.parametrize("context,rule,expected", ENUMERATED)
def test_enumerated_dispatch_examples(context, rule, expected):
    fired, spec = explain_selection(context)
    assert fired == rule
    assert canonical_text(spec) == expected


RULE_WITNESSES = {
    1: ctx(dimension=6, budget=300, noisy=True, has_discrete=True, has_categorical=True, max_arity=3),
    2: ctx(dimension=20, budget=500, has_discrete=True, max_arity=2),
    3: ctx(dimension=20, budget=500, num_workers=4, has_discrete=True, max_arity=2),
    4: ctx(dimension=10, budget=500, has_discrete=True, has_categorical=True, max_arity=10),
    5: ctx(
        dimension=10,
        budget=500,
        has_discrete=True,
        has_unbounded_discrete=True,
        max_arity=math.inf,
    ),
    6: ctx(dimension=200, budget=1000, noisy=True),
    7: ctx(dimension=25, budget=1000, noisy=True),
    8: ctx(dimension=50, budget=500, noisy=True),
    9: ctx(dimension=50, budget=50, noisy=True),
    10: ctx(dimension=20, budget=1000, num_workers=600),
    11: ctx(dimension=3, budget=80, num_workers=20),
    12: ctx(dimension=3, budget=300, num_workers=100),
    13: ctx(dimension=10, budget=1000, num_workers=300),
    14: ctx(dimension=10, budget=10000),
    15: ctx(dimension=50, budget=600),
    16: ctx(dimension=4, budget=100),
    17: ctx(dimension=10, budget=200),
}


def test_every_rule_is_reachable():
    for rule, context in RULE_WITNESSES.items():
        fired, _spec = explain_selection(context)
        assert fired == rule, f"context for rule {rule} fired rule {fired}"


def test_fallback_rule_is_cma():
    fired, spec = explain_selection(ctx(dimension=10, budget=1000))
    assert fired == 18
    assert canonical_text(spec) == "cma"


def test_ordering_literalness():
    # noisy d=25 hits the dimension rule before the budget rule
    fired, spec = explain_selection(ctx(dimension=25, budget=1000, noisy=True))
    assert (fired, canonical_text(spec)) == (7, "tbpsa")
    fired, spec = explain_selection(ctx(dimension=50, budget=500, noisy=True))
    assert (fired, canonical_text(spec)) == (8, "quadratic-tr")


def test_rule12_chain_carries_absolute_ask_count():
    _fired, spec = explain_selection(ctx(dimension=3, budget=300, num_workers=100))
    assert canonical_text(spec) == "chain(diagcma,meta(cma);100a,1)"


def test_purity_and_determinism():
    c = ctx(dimension=7, budget=444, num_workers=3)
    assert select_algorithm(c) == select_algorithm(c)


def test_selection_reads_no_loss_values():
    # dispatch depends only on the a-priori context, so any objective
    # rescaling cannot change it: the spec for a context is a constant
    c = ctx(dimension=12, budget=900)
    specs = {canonical_text(select_algorithm(c)) for _ in range(5)}
    assert len(specs) == 1


@given(
    st.integers(1, 3000),
    st.integers(1, 100_000),
    st.integers(1, 2000),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(0, 50),
)
@settings(max_examples=2000, deadline=None)
def test_totality_fuzz(d, b, w, noisy, has_disc, has_cat, has_unb, arity):
    has_discrete = has_disc or has_cat or has_unb
    context = SelectionContext(
        dimension=d,
        budget=b,
        num_workers=min(w, b),
        noisy=noisy,
        has_discrete=has_discrete,
        has_categorical=has_cat,
        max_arity=math.inf if has_unb else (max(2, arity) if has_discrete else 0),
        has_unbounded_discrete=has_unb,
    )
    fired, spec = explain_selection(context)
    assert 1 <= fired <= 18
    assert canonical_text(spec)  # spec is renderable


def test_totality_over_1e5_random_contexts():
    rng = np.random.default_rng(0)
    for _ in range(100_000):
        b = int(rng.integers(1, 100_000))
        has_cat = bool(rng.random() < 0.3)
        has_unb = bool(rng.random() < 0.2)
        has_discrete = bool(rng.random() < 0.5) or has_cat or has_unb
        dimension = int(rng.integers(1, 2000))
        num_workers = int(rng.integers(1, b + 1))
        noisy = bool(rng.random() < 0.5)
        if has_discrete:
            rng.random()  # a draw the stream has always had here, so the same contexts are sampled
        context = SelectionContext(
            dimension=dimension,
            budget=b,
            num_workers=num_workers,
            noisy=noisy,
            has_discrete=has_discrete,
            has_categorical=has_cat,
            max_arity=math.inf if has_unb else (int(rng.integers(2, 60)) if has_discrete else 0),
            has_unbounded_discrete=has_unb,
        )
        fired, spec = explain_selection(context)
        assert 1 <= fired <= 18
        assert spec is not None


def test_from_problem_derives_features():
    dom = DomainSpec([categorical(4), integer(0, 2), continuous(), unbounded_integer()])
    run_ctx = RunContext(dom, budget=200, num_workers=5, noisy=True)
    sel = SelectionContext.from_problem(dom, run_ctx)
    assert sel.dimension == 4 + 1 + 1 + 1
    assert sel.budget == 200 and sel.num_workers == 5 and sel.noisy
    assert sel.has_categorical and sel.has_unbounded_discrete
    assert sel.max_arity == math.inf


def test_build_optimizer_registry_lookup_and_error():
    dom = DomainSpec([continuous(), continuous()])
    run_ctx = RunContext(dom, budget=50)
    handle = build_optimizer("cma", run_ctx)
    assert isinstance(handle, CmaEs)
    with pytest.raises(RegistryError) as err:
        build_optimizer("nonexistent", run_ctx)
    assert "cma" in str(err.value)  # the error lists known ids


def test_build_optimizer_derives_distinct_child_seeds():
    dom = DomainSpec([continuous() for _ in range(3)])
    run_ctx = RunContext(dom, budget=100, master_seed=5)
    handle = build_optimizer("chain(cma,cma;0.5,0.5)", run_ctx)
    first = handle.ask()
    handle.tell(first, 1.0)
    for _ in range(49):  # drive child 0 to the boundary
        cand = handle.ask()
        handle.tell(cand, 1.0)
    second_child_first_ask = handle.ask()
    assert not np.array_equal(first.point, second_child_first_ask.point)


def test_abbo_leaf_resolves_through_the_wizard():
    dom = DomainSpec([continuous() for _ in range(10)])
    run_ctx = RunContext(dom, budget=200, master_seed=1)
    handle = build_optimizer("abbo", run_ctx)
    from optbench.solvers.localsearch import TrustRegion

    assert isinstance(handle, TrustRegion)  # rule 17 for d=10, b=200
    assert not handle.quadratic


#: every keyword a spec leaf may set, per solver class; the README's spec grammar lists the same
SETTABLE_KEYWORDS = {
    "CmaEs": ["diagonal"],
    "DifferentialEvolution": ["crossover", "f_weight", "lhs_init", "population_size"],
    "DiscreteAdaptive": [],
    "DiscreteLinearDecay": [],
    "DiscreteOnePlusOne": [],
    "DiscreteOptimistic": [],
    "DiscretePortfolio": [],
    "FastGa": [],
    "OnePlusOneEs": [],
    "OneShotRecentering": [],
    "Powell": [],
    "Tbpsa": ["elite_fraction", "naive", "population_size"],
    "TrustRegion": ["quadratic"],
}


def test_solver_keywords_are_the_listed_ones():
    # a new option fails here until it is listed on purpose
    classes = {variant.func for variant in REGISTRY.values()}
    settable = {
        cls.__name__: sorted(inspect.signature(cls).parameters.keys() - {"context", "seed", "init_point"})
        for cls in classes
    }
    assert settable == SETTABLE_KEYWORDS
    assert sum(map(len, settable.values())) == 9
    fixed = {leaf_id: variant.keywords for leaf_id, variant in REGISTRY.items() if variant.keywords}
    assert fixed == {
        "diagcma": {"diagonal": True},
        "lhsde": {"lhs_init": True, "population_size": 30},
        "naive-tbpsa": {"naive": True},
        "linear-tr": {"quadratic": False},
        "quadratic-tr": {"quadratic": True},
    }


@pytest.mark.parametrize("leaf_id", sorted(REGISTRY))
def test_every_registry_id_passes_validation(leaf_id):
    assert validate_spec(leaf_id) == parse_algorithm(leaf_id)


@pytest.mark.parametrize(
    "spec, reason",
    [
        ("de[population_size=x]", "TypeError: "),
        ("de[f_weight=-1]", "differential weight F must lie in [0, 2]"),
        ("de[crossover=2]", "crossover rate CR must lie in [0, 1]"),
        ("meta(tbpsa[seed=x])", "TypeError: "),
    ],
)
def test_validation_builds_each_leaf_and_names_it(spec, reason):
    with pytest.raises(RegistryError) as err:
        validate_spec(spec)
    leaf = spec.removeprefix("meta(").removesuffix(")")
    assert str(err.value).startswith(f"bad parameter value in {leaf!r}: {reason}")


@pytest.mark.parametrize("spec", ["de", "cma", "meta(cma)"])
def test_scalar_leaf_check_builds_no_scalar_view(spec):
    dom = DomainSpec([continuous() for _ in range(6)])
    validate_spec(spec, RunContext(dom, budget=200))
    assert "scalar_view" not in dom.__dict__


@pytest.mark.parametrize("spec", ["de", "meta(cma)"])
def test_scalar_leaf_check_rejects_categorical_with_the_view_message(spec):
    dom = DomainSpec([categorical(3), continuous()])
    with pytest.raises(ConfigurationError) as view_err:
        dom.scalar_view
    with pytest.raises(ConfigurationError) as check_err:
        validate_spec(spec, RunContext(dom, budget=200))
    assert str(check_err.value) == str(view_err.value) == CATEGORICAL_NEEDS_BRIDGE
