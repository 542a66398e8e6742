"""Pinned random streams of the Gaussian solvers.

The solvers below draw their normals in blocks (``ScalarSolver`` hands out
rows of one ``standard_normal`` block; CMA decodes each sample batch at
once).  One ``(n, k)`` draw equals n sequential length-k draws bit for bit,
so a run's history and recommendation must equal those of per-ask drawing.
The digests were recorded with per-ask ``standard_normal`` calls and must
never be regenerated: a changed digest means a changed stream.  A rotated
d7 problem is run with one worker and with five, so that asks run ahead of
tells.

The second table pins the discrete (1+1) family and FastGA on a mixed
domain (bounded and unbounded integers, a categorical, a continuous and a
single-valued variable), noise-free and with seeded noise, at one and three
workers.  Those digests were recorded before the solvers became one class
per registry id and must not be regenerated either.

The ``de`` and ``lhsde`` digests, and those of ``LSGO_DIGESTS`` (a d50
overlapping composite, serial), were recorded while DE asked one candidate
per wave; a serial DE run that asks in waves must give the same history.
"""

import hashlib

import numpy as np
import pytest

from optbench import (
    DomainSpec,
    RunContext,
    categorical,
    continuous,
    integer,
    run_loop,
    unbounded_integer,
)
from optbench.bench import FunctionSpec, TransformSpec, get_suite, make_function

SPEC = FunctionSpec("ellipsoid", 7, TransformSpec(translation_std=1.0, rotate=True, transform_seed=5))

DIGESTS = {
    ("one-plus-one-es", 1): "e21e7a3bcbb2acf6",
    ("one-plus-one-es", 5): "192f43068c8f3ec5",
    ("tbpsa", 1): "377477d372b5168b",
    ("tbpsa", 5): "947c016ac56d9c8c",
    ("naive-tbpsa", 1): "61a2561d60e30d3a",
    ("naive-tbpsa", 5): "2d7715e5c775d9db",
    ("oneshot", 1): "1a18d79319b8d4c8",
    ("oneshot", 5): "1a18d79319b8d4c8",
    ("cma", 1): "46bc578dbdac128c",
    ("cma", 5): "c10563fb460eb6fa",
    ("diagcma", 1): "2bad9fce0cf2b876",
    ("diagcma", 5): "d9b3d8a103af0fd6",
    ("de", 1): "a6f40e1a482fd2b2",
    ("de", 5): "cfbc8f2129c10500",
    ("lhsde", 1): "40eb1f23ff677270",
    ("lhsde", 5): "4a33be2b40a6b45b",
}


def _digest(rec, history) -> str:
    text = ",".join(float.hex(loss) for _, loss in history)
    text += ";" + ",".join(float.hex(float(v)) for v in rec.point)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def history_digest(spec: str, workers: int) -> str:
    f = make_function(SPEC)
    ctx = RunContext(f.domain, budget=400, num_workers=workers, master_seed=11)
    return _digest(*run_loop(spec, f, ctx))


@pytest.mark.parametrize("spec,workers", sorted(DIGESTS))
def test_history_is_bit_identical_to_per_ask_draws(spec, workers):
    assert history_digest(spec, workers) == DIGESTS[spec, workers]


LSGO_DIGESTS = {"de": "5cd2e9c1704ed90c", "one-plus-one-es": "0ca52c245b888daa"}


@pytest.mark.parametrize("spec", sorted(LSGO_DIGESTS))
def test_serial_lsgo_history_is_pinned(spec):
    problem = next(p for p in get_suite("lsgo_lite").problems if p.problem_id == "lsgo-d50-ov")
    f = make_function(problem.spec)
    ctx = RunContext(f.domain, budget=400, master_seed=11)
    assert _digest(*run_loop(spec, f, ctx)) == LSGO_DIGESTS[spec]


MIXED = DomainSpec(
    [integer(0, 4), categorical(3), continuous(-1.0, 1.0), unbounded_integer(), integer(2, 2), integer(-3, 3)]
)
TARGET = np.array([3.0, 2.0, 0.25, 5.0, 2.0, -1.0])

DISCRETE_DIGESTS = {
    ("discrete-fixed", False, 1): "35ecedfbf6a76ea2",
    ("discrete-fixed", False, 3): "a41f30c52c45e42a",
    ("discrete-fixed", True, 1): "811b813ec38c33fa",
    ("discrete-fixed", True, 3): "4d74751a4e6633ad",
    ("discrete-lineardecay", False, 1): "62da911b960fac93",
    ("discrete-lineardecay", False, 3): "1394aa0b4394a354",
    ("discrete-lineardecay", True, 1): "5f5108fb8c497475",
    ("discrete-lineardecay", True, 3): "fdd6e87a9dc0eac8",
    ("discrete-adaptive", False, 1): "635fc3dc7a52fdfc",
    ("discrete-adaptive", False, 3): "078fe91e28aec63a",
    ("discrete-adaptive", True, 1): "13264367d8d28a4d",
    ("discrete-adaptive", True, 3): "a6f6c53a1b005ed2",
    ("discrete-portfolio", False, 1): "44591071ad55ad48",
    ("discrete-portfolio", False, 3): "7c03891158e5ed03",
    ("discrete-portfolio", True, 1): "30c00eeaf34068c1",
    ("discrete-portfolio", True, 3): "f4bc5c07892ee981",
    ("discrete-optimistic", False, 1): "e6b40b5d6b6d9549",
    ("discrete-optimistic", False, 3): "836b0300792bf44a",
    ("discrete-optimistic", True, 1): "d298b72d248ac046",
    ("discrete-optimistic", True, 3): "8c36be1905996968",
    ("fastga", False, 1): "0391448c72cfe53c",
    ("fastga", False, 3): "729b958007eac02b",
    ("fastga", True, 1): "5f688ae1de7540e2",
    ("fastga", True, 3): "90372404e329182b",
}


def discrete_digest(spec: str, noisy: bool, workers: int) -> str:
    noise = np.random.default_rng(7)

    def f(x):
        loss = float(np.sum(np.abs(x - TARGET)))
        return loss + float(noise.normal(0.0, 0.5)) if noisy else loss

    ctx = RunContext(MIXED, budget=300, num_workers=workers, noisy=noisy, master_seed=11)
    return _digest(*run_loop(spec, f, ctx))


@pytest.mark.parametrize("spec,noisy,workers", sorted(DISCRETE_DIGESTS))
def test_discrete_history_is_pinned(spec, noisy, workers):
    assert discrete_digest(spec, noisy, workers) == DISCRETE_DIGESTS[spec, noisy, workers]
