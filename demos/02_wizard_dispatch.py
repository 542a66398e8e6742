"""The selection wizard: a-priori features in, algorithm out.

The wizard only looks at what is knowable before any evaluation: dimension,
budget, parallelism, the noise flag, and the variable kinds.  Rules fire in
a fixed order; the first match wins.
"""

from optbench import SelectionContext, canonical_text, explain_selection

cases = {
    "small sequential, tiny budget": SelectionContext(dimension=4, budget=100),
    "sequential, mid budget": SelectionContext(dimension=10, budget=200),
    "big budget, d>7": SelectionContext(dimension=10, budget=10_000),
    "high-dim, starved budget": SelectionContext(dimension=50, budget=600),
    "massively parallel": SelectionContext(dimension=20, budget=1000, num_workers=600),
    "parallel, tiny d": SelectionContext(dimension=3, budget=80, num_workers=20),
    "noisy, moderate d": SelectionContext(dimension=25, budget=1000, noisy=True),
    "noisy, high d": SelectionContext(dimension=200, budget=1000, noisy=True),
    "binary strings": SelectionContext(dimension=20, budget=500, has_discrete=True, max_arity=2),
    "categorical, arity 10": SelectionContext(
        dimension=10, budget=500, has_discrete=True, has_categorical=True, max_arity=10,
    ),
}

for label, ctx in cases.items():
    rule, spec = explain_selection(ctx)
    print(f"{label:28s} -> rule {rule:2d}: {canonical_text(spec)}")

# the same information is available from the command line:
#   optbench explain --ctx d=25,b=1000,noisy=true
