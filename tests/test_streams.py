"""Pinned random streams of the Gaussian solvers.

The solvers below draw their normals in blocks (``ScalarSolver`` hands out
rows of one ``standard_normal`` block; CMA decodes each sample batch at
once).  One ``(n, k)`` draw equals n sequential length-k draws bit for bit,
so a run's history and recommendation must equal those of per-ask drawing.
The digests were recorded with per-ask ``standard_normal`` calls and must
never be regenerated: a changed digest means a changed stream.  A rotated
d7 problem is run with one worker and with five, so that asks run ahead of
tells.
"""

import hashlib

import pytest

from optbench import RunContext, run_loop
from optbench.bench import FunctionSpec, TransformSpec, make_function

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
}


def history_digest(spec: str, workers: int) -> str:
    f = make_function(SPEC)
    ctx = RunContext(f.domain, budget=400, num_workers=workers, master_seed=11)
    rec, history = run_loop(spec, f, ctx)
    text = ",".join(float.hex(loss) for _, loss in history)
    text += ";" + ",".join(float.hex(float(v)) for v in rec.point)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("spec,workers", sorted(DIGESTS))
def test_history_is_bit_identical_to_per_ask_draws(spec, workers):
    assert history_digest(spec, workers) == DIGESTS[spec, workers]

