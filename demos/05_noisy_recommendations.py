"""Why recommend must differ from ask under noise.

With noisy evaluations, the best *observed* loss is mostly a lucky noise
draw: the point behind it is usually mediocre.  A proper noisy optimizer
aggregates evidence and recommends a point it never necessarily asked.
This demo measures both on the same runs.
"""

import numpy as np

from optbench import RunContext, build_optimizer, run_loop
from optbench.bench import FunctionSpec, TransformSpec, make_function

rec_regrets, naive_regrets = [], []
for seed in range(10):
    spec = FunctionSpec(
        "sphere", 10, TransformSpec(translation_std=1.0, noise_std=1.0, transform_seed=seed)
    )
    f = make_function(spec, noise_seed=seed)
    context = RunContext(f.domain, budget=5000, noisy=True, master_seed=seed)
    handle = build_optimizer("tbpsa", context)
    recommendation, _ = run_loop(handle, f, context)

    # the naive alternative: trust the single best observation, the handle's incumbent
    lucky = handle.incumbent

    rec_regrets.append(f.noise_free(recommendation.point))
    naive_regrets.append(f.noise_free(lucky.point))

print("seed  aggregated-rec   best-observation")
for seed, (a, b) in enumerate(zip(rec_regrets, naive_regrets)):
    marker = "  <- aggregation wins" if a < b else ""
    print(f"{seed:4d}  {a:14.4f}  {b:16.4f}{marker}")

print(f"\nmedian aggregated regret:  {np.median(rec_regrets):.4f}")
print(f"median best-observation:   {np.median(naive_regrets):.4f}")
