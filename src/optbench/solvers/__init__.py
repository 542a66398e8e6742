"""Solver registry: canonical algorithm ids to constructors.

Each entry is the solver class with the parameters that define the id
bound, so each variant has exactly one id; ``optbench.wizard`` resolves
spec leaves against it.
"""

from __future__ import annotations

from functools import partial

from .cma import CmaEs
from .de import DifferentialEvolution
from .discrete import (
    DiscreteAdaptive,
    DiscreteLinearDecay,
    DiscreteOnePlusOne,
    DiscreteOptimistic,
    DiscretePortfolio,
    FastGa,
    strength_probabilities,
)
from .es import OnePlusOneEs
from .localsearch import Powell, TrustRegion
from .metamodel import MetamodelWrapper, metamodel_min_points, metamodel_propose
from .oneshot import OneShotRecentering, recentering_std
from .softmax import SoftmaxBridge, logit_domain, softmax_probabilities
from .tbpsa import Tbpsa


REGISTRY = {
    "cma": partial(CmaEs, diagonal=False),
    "diagcma": partial(CmaEs, diagonal=True),
    "de": partial(DifferentialEvolution, lhs_init=False),
    "lhsde": partial(DifferentialEvolution, lhs_init=True, population_size=30),
    "one-plus-one-es": partial(OnePlusOneEs),
    "tbpsa": partial(Tbpsa, naive=False),
    "naive-tbpsa": partial(Tbpsa, naive=True),
    "powell": partial(Powell),
    "linear-tr": partial(TrustRegion, quadratic=False),
    "quadratic-tr": partial(TrustRegion, quadratic=True),
    "oneshot": partial(OneShotRecentering),
    "discrete-fixed": partial(DiscreteOnePlusOne),
    "discrete-lineardecay": partial(DiscreteLinearDecay),
    "discrete-adaptive": partial(DiscreteAdaptive),
    "discrete-portfolio": partial(DiscretePortfolio),
    "discrete-optimistic": partial(DiscreteOptimistic),
    "fastga": partial(FastGa),
}


__all__ = [
    "CmaEs",
    "DifferentialEvolution",
    "DiscreteOnePlusOne",
    "FastGa",
    "MetamodelWrapper",
    "OnePlusOneEs",
    "OneShotRecentering",
    "Powell",
    "REGISTRY",
    "SoftmaxBridge",
    "Tbpsa",
    "TrustRegion",
    "logit_domain",
    "metamodel_min_points",
    "metamodel_propose",
    "recentering_std",
    "softmax_probabilities",
    "strength_probabilities",
]
