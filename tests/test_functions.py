import math
import warnings

import numpy as np
import pytest

from optbench.bench import CompositeBlock, FunctionSpec, make_function
from optbench.bench.functions import (
    ackley,
    base_function_catalog,
    cigar,
    deceptive_multimodal,
    ellipsoid,
    get_base,
    griewank,
    hm,
    hm_rows,
    leadingones,
    lunacek,
    onemax,
    rosenbrock,
    sphere,
)
from optbench.errors import ConfigurationError


def test_standard_minima_at_zero():
    z = np.zeros(5)
    assert sphere(z) == 0.0
    assert ackley(z) == pytest.approx(0.0, abs=1e-12)  # exp(1) vs e: ulp noise
    assert griewank(z) == 0.0
    assert cigar(z) == 0.0
    assert ellipsoid(z) == 0.0
    assert hm(z) == 0.0
    assert deceptive_multimodal(z) == 0.0


def test_rosenbrock_minimum_at_ones():
    assert rosenbrock(np.ones(6)) == 0.0
    assert rosenbrock(np.zeros(6)) > 0.0


def test_lunacek_minimum_at_mu0():
    assert lunacek(np.full(4, 2.5)) == pytest.approx(0.0, abs=1e-12)
    assert lunacek(np.zeros(4)) > 0.0


def test_lunacek_below_two_variables_is_rejected_when_the_spec_is_built():
    # s = 1 - 1/(2 sqrt(21) - 8.2) < 0 at d = 1, so every call would fail
    with pytest.raises(ConfigurationError, match="'lunacek' needs dimension >= 2"):
        FunctionSpec("lunacek", 1)
    one_index = (CompositeBlock("lunacek", (0,), 1.0), CompositeBlock("sphere", (1, 2), 1.0))
    with pytest.raises(ConfigurationError, match="'lunacek' block needs at least 2 indices"):
        FunctionSpec("lsgo_composite", 3, blocks=one_index)
    assert math.isfinite(make_function(FunctionSpec("lunacek", 2))(np.zeros(2)))
    two_index = (CompositeBlock("lunacek", (0, 1), 1.0, seed=3), CompositeBlock("sphere", (2,), 1.0))
    assert math.isfinite(make_function(FunctionSpec("lsgo_composite", 3, blocks=two_index))(np.zeros(3)))


def test_every_base_evaluates_at_its_minimum_dimension():
    for name, base in base_function_catalog().items():
        f = make_function(FunctionSpec(name, base.min_dimension))
        assert math.isfinite(f(f.domain.center())), name


def test_cigar_weighting():
    e2 = np.zeros(4)
    e2[1] = 1.0
    assert cigar(e2) == 1e6
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert cigar(e1) == 1.0


def test_ellipsoid_condition_number():
    e_first = np.array([1.0, 0.0])
    e_last = np.array([0.0, 1.0])
    assert ellipsoid(e_last) / ellipsoid(e_first) == 1e6


def test_hm_zero_term_defined():
    assert hm(np.array([0.0, 1.0])) == pytest.approx(1.0 * (1.1 + math.cos(1.0)))


def test_hm_is_finite_where_one_over_y_overflows():
    # 1 / 1e-310 is inf and cos(inf) is NaN, but the term y^2 (...) is 0
    points = np.array([[1e-310, 1.0], [-5e-324, 1.0], [1e-200, 1.0], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hm(points[0]) == hm(points[3])
        assert hm_rows(points).tolist() == [hm(points[3])] * 4


def test_hm_nonnegative_and_multimodal_envelope():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-3, 3, size=(200, 3))
    values = [hm(x) for x in xs]
    assert all(v >= 0 for v in values)


def test_deceptive_multimodal_nonnegative_with_ring_minima():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.uniform(-5, 5, size=2)
        assert deceptive_multimodal(x) >= 0.0
    # value dips at geometric ring radii (cos term = -1)
    r_ring = 2.0 ** 0.5  # log2 r = 0.5 -> cos(pi) = -1
    x = np.array([r_ring, 0.0])
    assert deceptive_multimodal(x) == pytest.approx(0.1 * r_ring, rel=1e-9)


def test_discrete_bases():
    assert onemax(np.array([0.0, 0.0, 0.0])) == 3.0
    assert onemax(np.array([1.0, 0.0, 1.0])) == 1.0
    assert leadingones(np.array([1.0, 1.0, 0.0, 1.0])) == 2.0
    assert leadingones(np.ones(4)) == 0.0
    assert leadingones(np.array([0.0, 1.0, 1.0, 1.0])) == 4.0


def test_catalog_minimum_metadata():
    catalog = base_function_catalog()
    for name, entry in catalog.items():
        d = 4
        point = entry.minimum_point(d)
        value = entry.fn(point)
        assert value == pytest.approx(entry.minimum_value, abs=1e-12), name


def test_unknown_base_rejected():
    with pytest.raises(ConfigurationError):
        get_base("does_not_exist")


def test_default_domains():
    assert get_base("sphere").default_domain(3).all_continuous
    dom = get_base("onemax").default_domain(5)
    assert all(v.is_discrete for v in dom.variables) and dom.max_arity == 2


@pytest.mark.parametrize("d", [1, 2, 5, 7, 20, 31, 50, 120, 200, 1000])
def test_method_dot_and_norm_equal_the_dispatched_forms(d):
    # the kernels, transforms and solvers use ``a.dot(b)``, ``math.sqrt(v.dot(v))``
    # and ``np.multiply.outer`` for ``np.dot``, ``np.linalg.norm`` and ``np.outer``
    rng = np.random.default_rng(d)
    for scale in (1.0, 1e-160, 1e150):
        v, w = scale * rng.standard_normal(d), rng.standard_normal(d)
        m = rng.standard_normal((d, d))
        assert v.dot(w).tobytes() == np.dot(v, w).tobytes()
        assert m.dot(v).tobytes() == np.dot(m, v).tobytes()
        assert np.float64(math.sqrt(v.dot(v))).tobytes() == np.linalg.norm(v).tobytes()
        assert np.multiply.outer(v, w).tobytes() == np.outer(v, w).tobytes()
