"""Rule-based algorithm selection and optimizer construction.

``select_algorithm`` is a pure, total function from a-priori problem
features (dimension, budget, parallelism, noise flag, variable kinds) to an
algorithm spec tree.  Rules are checked in a fixed order and the first match
applies; ``explain_selection`` also returns the index of the rule that
fired.

``build_optimizer`` instantiates any spec tree against a run context,
deriving each tree node's RNG seed from the master seed and the node's path
so that sibling nodes get independent streams.  Leaves resolve against the
single solver registry in one place, which ``validate_spec`` also uses to
reject unknown ids and parameters, and parameter values the solver's
constructor rejects, before anything runs.  Given the run context, the same
walk follows every composite's child contexts and checks each leaf's solver
on its own, so a tree whose lazily built child could not cover its share or
run on its domain fails when the root is built, before the first
evaluation.
"""

from __future__ import annotations

import functools
import inspect
import itertools
from dataclasses import dataclass, replace

from .algospec import AlgorithmSpec, BetAndRun, Chain, Leaf, Wrap, canonical_text, parse_algorithm
from .combinators import BetAndRunOptimizer, ChainOptimizer, ProgressiveWidening
from .core import Optimizer, RunContext
from .domain import DomainSpec, continuous
from .errors import RegistryError, error_text
from .seeds import derive_seed
from .solvers import REGISTRY, MetamodelWrapper, SoftmaxBridge

WIZARD_ID = "abbo"


@dataclass(frozen=True)
class SelectionContext:
    """Everything the wizard may look at; nothing requires an evaluation."""

    dimension: int
    budget: int
    num_workers: int = 1
    noisy: bool = False
    has_discrete: bool = False
    has_categorical: bool = False
    max_arity: float = 0
    has_unbounded_discrete: bool = False

    @classmethod
    def from_problem(cls, domain: DomainSpec, context: RunContext) -> "SelectionContext":
        return cls(
            dimension=domain.dimension,
            budget=context.budget,
            num_workers=context.num_workers,
            noisy=context.noisy,
            has_discrete=domain.has_discrete,
            has_categorical=domain.has_categorical,
            max_arity=domain.max_arity,
            has_unbounded_discrete=domain.has_unbounded_discrete,
        )

    def continuous_counterpart(self) -> "SelectionContext":
        """The context seen through the softmax logit encoding."""
        return replace(
            self,
            has_discrete=False,
            has_categorical=False,
            max_arity=0,
            has_unbounded_discrete=False,
        )


def explain_selection(ctx: SelectionContext) -> tuple[int, AlgorithmSpec]:
    """Return ``(fired_rule_index, spec)``; rules match in listed order."""
    d, b, w = ctx.dimension, ctx.budget, ctx.num_workers
    if ctx.has_discrete:
        if ctx.noisy and ctx.has_categorical:
            return 1, Leaf("discrete-optimistic")
        if ctx.max_arity < 5 and w == 1:
            return 2, Leaf("discrete-lineardecay")
        if ctx.max_arity < 5 and w > 1:
            return 3, Leaf("discrete-adaptive")
        if not ctx.has_unbounded_discrete:
            _rule, inner = explain_selection(ctx.continuous_counterpart())
            return 4, Wrap("softmax", inner)
        return 5, Leaf("fastga")
    if ctx.noisy:
        if d > 100:
            return 6, Wrap("prog", Leaf("de"))
        if d <= 30:
            return 7, Leaf("tbpsa")
        if b > 100:
            return 8, Leaf("quadratic-tr")
        return 9, Leaf("tbpsa")
    if w > b / 2 or b < d:
        return 10, Leaf("oneshot")
    if w > b / 5 and d < 5 and b < 100:
        return 11, Leaf("diagcma")
    if w > b / 5 and d < 5 and b < 500:
        return 12, Chain(
            (Leaf("diagcma"), Wrap("meta", Leaf("cma"))),
            fractions=(None, 1.0),
            asks=(100, None),
        )
    if w > b / 5:
        return 13, Leaf("naive-tbpsa")
    if b > 6000 and d > 7:
        return 14, Chain((Leaf("cma"), Leaf("powell")), fractions=(0.5, 0.5))
    if b < 30 * d and d > 30:
        return 15, Leaf("one-plus-one-es")
    if d < 5 and b < 30 * d:
        return 16, Wrap("meta", Leaf("cma"))
    if b < 30 * d:
        return 17, Leaf("linear-tr")
    return 18, Leaf("cma")


def select_algorithm(ctx: SelectionContext) -> AlgorithmSpec:
    """Pure feature-based dispatch; see ``explain_selection`` for the rule."""
    return explain_selection(ctx)[1]


# ----------------------------------------------------------------------
# construction


def _leaf_factory(leaf: Leaf, seed: int = 0):
    """``factory(context, init_point=...)`` for a registry leaf, or None for
    the wizard id.

    The factory is the registry constructor with the leaf's params and
    ``seed`` bound; a leaf ``seed`` param overrides the derived one.  Unknown
    ids, unknown params and params the leaf repeats or its id already fixes
    raise RegistryError.
    """
    params = dict(leaf.params)
    if len(params) < len(leaf.params):
        raise RegistryError(f"repeated parameter in {canonical_text(leaf)!r}")
    if leaf.name == WIZARD_ID:
        if params:
            raise RegistryError(f"{WIZARD_ID!r} takes no parameters")
        return None
    variant = REGISTRY.get(leaf.name)
    if variant is None:
        raise RegistryError(
            f"unknown solver id {leaf.name!r}; known ids: "
            f"{', '.join(sorted(REGISTRY) + [WIZARD_ID])}"
        )
    if params:
        known = inspect.signature(variant).parameters.keys() - {"context", "init_point"}
        for key in params:
            if key in variant.keywords:
                raise RegistryError(f"{leaf.name!r} fixes parameter {key!r}")
            if key not in known:
                raise RegistryError(
                    f"unknown parameter {key!r} for {leaf.name!r}; "
                    f"known: {', '.join(sorted(known - variant.keywords.keys()))}"
                )
    return functools.partial(variant, **{"seed": seed, **params})


#: every leaf ``validate_spec`` checks is built once on this context, so the
#: solver's own constructor checks the leaf's parameter values
_PROBE_CONTEXT = RunContext(DomainSpec([continuous(), continuous()]), budget=100)

#: spec type, or wrapper kind, -> composite class
_COMPOSITES = {
    Chain: ChainOptimizer,
    BetAndRun: BetAndRunOptimizer,
    "meta": MetamodelWrapper,
    "prog": ProgressiveWidening,
    "softmax": SoftmaxBridge,
}


def _composite(spec):
    composite = _COMPOSITES.get(spec.kind if isinstance(spec, Wrap) else type(spec))
    if composite is None:
        raise RegistryError(f"not an algorithm spec: {spec!r}")
    return composite


def validate_spec(
    spec: "AlgorithmSpec | str", context: RunContext | None = None, _leaves_checked: bool = False
) -> AlgorithmSpec:
    """Check a spec tree (or its text form) the way ``build_optimizer``
    builds it; returns the tree.

    Every leaf resolves against the registry and is built once on a
    2-variable continuous context.  With a run ``context``, the walk also
    follows the contexts each composite gives its children, raising the
    ConfigurationError of any that cannot cover them, checks each leaf's
    solver class on every context the leaf meets (``check_context``, which
    builds nothing), and resolves nested ``abbo`` leaves for their own
    contexts.
    """
    if isinstance(spec, str):
        spec = parse_algorithm(spec)
    if context is not None and not _leaves_checked:
        validate_spec(spec)  # each leaf once, not once per context it meets
    if isinstance(spec, Leaf):
        if context is None:
            factory = _leaf_factory(spec)
            if factory is not None:
                try:
                    factory(_PROBE_CONTEXT)
                except Exception as exc:
                    raise RegistryError(f"bad parameter value in {canonical_text(spec)!r}: {error_text(exc)}") from None
        elif spec.name == WIZARD_ID:
            validate_spec(select_algorithm(SelectionContext.from_problem(context.domain, context)), context)
        else:
            REGISTRY[spec.name].func.check_context(context)
        return spec
    composite = _composite(spec)
    if context is None:
        for child in (spec.child,) if isinstance(spec, Wrap) else spec.children:
            validate_spec(child)
        return spec
    # a wrapper's one child spec may be built several times (prog, once per width)
    children = itertools.repeat(spec.child) if isinstance(spec, Wrap) else spec.children
    for child, child_context in zip(children, composite.child_contexts(spec, context)):
        if child_context is not None:  # None: a chain child with no evaluations
            validate_spec(child, child_context, _leaves_checked=True)
    return spec


def build_optimizer(
    spec: "AlgorithmSpec | str",
    context: RunContext,
    _path: tuple = ("alg",),
    _init_point=None,
) -> Optimizer:
    """Instantiate a spec tree (or its text form) for a run context.

    Node seeds come from ``derive_seed(master_seed, path)`` where the path
    lists child indices from the root; a leaf parameter ``seed=...``
    overrides the derived seed.  The root first checks the whole tree with
    ``validate_spec(spec, context)``.
    """
    if isinstance(spec, str):
        spec = parse_algorithm(spec)
    if _path == ("alg",):
        validate_spec(spec, context)
    seed = derive_seed(context.master_seed, list(_path))
    if isinstance(spec, Leaf):
        factory = _leaf_factory(spec, seed)
        if factory is not None:
            return factory(context, init_point=_init_point)
        resolved = select_algorithm(SelectionContext.from_problem(context.domain, context))
        return build_optimizer(resolved, context, _path + (WIZARD_ID,), _init_point)
    # the module attribute, looked up now, so a wrapped builder also builds every child
    return _composite(spec)(context, spec, build_optimizer, _path, seed, _init_point)
