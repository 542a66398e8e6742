import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optbench import (
    ConfigurationError,
    ContractError,
    DomainSpec,
    categorical,
    continuous,
    integer,
    unbounded_integer,
)


def test_variable_validation():
    with pytest.raises(ConfigurationError):
        continuous(lower=1.0, upper=0.0)
    with pytest.raises(ConfigurationError):
        continuous(scale=0.0)
    with pytest.raises(ConfigurationError):
        integer(3, 2)
    with pytest.raises(ConfigurationError):
        categorical(1)
    with pytest.raises(ConfigurationError):
        DomainSpec([])


@pytest.mark.parametrize(
    "make",
    [
        lambda: integer(0.7, 3.9),
        lambda: integer(0, 3.0),
        lambda: integer(True, 3),
        lambda: integer("0", 3),
        lambda: categorical("3"),
        lambda: categorical(3.0),
        lambda: categorical(True),
    ],
    ids=["fractional", "integral-float", "bool", "string", "string-arity", "float-arity", "bool-arity"],
)
def test_integer_fields_take_integers_only(make):
    with pytest.raises(ConfigurationError, match="must be an integer"):
        make()


def test_integer_fields_accept_numpy_integers():
    assert integer(np.int64(0), np.int32(3)) == integer(0, 3)
    assert categorical(np.int64(4)) == categorical(4)


def test_encoded_dimension_counts_categorical_arity():
    dom = DomainSpec([categorical(3), categorical(4), continuous(), integer(0, 5)])
    assert dom.dimension == 3 + 4 + 1 + 1
    assert dom.has_categorical and dom.has_discrete and not dom.all_continuous


def test_derived_flags():
    dom = DomainSpec([continuous(), continuous(0.0, 1.0)])
    assert dom.all_continuous
    assert dom.max_arity == 0
    dom = DomainSpec([integer(0, 1), unbounded_integer()])
    assert all(v.is_discrete for v in dom.variables) and dom.has_unbounded_discrete
    dom = DomainSpec([integer(0, 3), categorical(2)])
    assert dom.max_arity == 4  # integer range width counts as arity


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_init_box_uses_bounds_and_two_where_a_side_is_open_or_overflows():
    dom = DomainSpec([continuous(-3.0, 5.0, scale=2.0), continuous(lower=1.0), integer(0, 12),
                      unbounded_integer(), continuous(-1e308, 1e308, scale=1e-10)])
    lo, hi = dom.scalar_view.init_box()
    assert lo.tolist() == [-2.0, -1.0, -3.0, -2.0, -2.0]
    assert hi.tolist() == [2.0, 2.0, 3.0, 2.0, 2.0]


def test_center_rules():
    dom = DomainSpec(
        [
            continuous(),  # unbounded -> 0
            continuous(2.0, 6.0),  # bounded -> midpoint
            integer(0, 5),  # -> floor midpoint
            categorical(4),  # uniform logits decode -> category 0
            unbounded_integer(),
        ]
    )
    assert dom.center().tolist() == [0.0, 4.0, 2.0, 0.0, 0.0]


def test_validate_rejects_out_of_domain_points():
    dom = DomainSpec([continuous(0.0, 1.0), integer(0, 3)])
    dom.validate(np.array([0.5, 2.0]))
    with pytest.raises(ContractError):
        dom.validate(np.array([1.5, 2.0]))
    with pytest.raises(ContractError):
        dom.validate(np.array([0.5, 2.5]))  # non-integral integer variable
    with pytest.raises(ContractError):
        dom.validate(np.array([0.5]))


def test_scalar_view_decode_clips_and_rounds():
    dom = DomainSpec([continuous(-1.0, 1.0), integer(0, 10), continuous(scale=2.0)])
    view = dom.scalar_view
    x = view.decode(np.array([5.0, 5.0, 1.5]))
    dom.validate(x)
    assert x[0] == 1.0  # clipped to the upper bound
    assert x[1] == 10.0
    assert x[2] == 3.0  # center 0 + scale 2 * 1.5


def test_scalar_view_rejects_categorical():
    with pytest.raises(ConfigurationError):
        DomainSpec([categorical(3)]).scalar_view


def test_scalar_view_round_trip_continuous():
    dom = DomainSpec([continuous(scale=0.5), continuous(-2.0, 4.0)])
    view = dom.scalar_view
    z = np.array([0.3, -0.7])
    assert np.allclose(view.encode(view.decode(z)), z)


@st.composite
def domains(draw):
    n = draw(st.integers(1, 5))
    variables = []
    for _ in range(n):
        kind = draw(st.sampled_from(["continuous", "bounded", "integer", "categorical", "unbounded"]))
        if kind == "continuous":
            variables.append(continuous(scale=draw(st.floats(0.1, 10.0))))
        elif kind == "bounded":
            lo = draw(st.floats(-10.0, 9.0))
            variables.append(continuous(lo, lo + draw(st.floats(0.5, 10.0))))
        elif kind == "integer":
            lo = draw(st.integers(-5, 5))
            variables.append(integer(lo, lo + draw(st.integers(0, 10))))
        elif kind == "categorical":
            variables.append(categorical(draw(st.integers(2, 6))))
        else:
            variables.append(unbounded_integer())
    return DomainSpec(variables)


@given(domains())
@settings(max_examples=60, deadline=None)
def test_center_always_in_domain(dom):
    dom.validate(dom.center())


@given(domains(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_scalar_view_decode_always_valid(dom, seed):
    if dom.has_categorical:
        return
    view = dom.scalar_view
    rng = np.random.default_rng(seed)
    for _ in range(5):
        z = 3.0 * rng.standard_normal(view.dim)
        dom.validate(view.decode(z))
