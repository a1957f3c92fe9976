"""Learning nondeterministic functional finite-state transducers by state
merging, with brute-force oracles for desk-scale verification."""

from .core import (
    Configuration,
    Path,
    Transducer,
    Transition,
    configuration_after,
    lcp,
    transduce,
    trim,
    validate,
)
from .infer import LearnedModel, LearnerConfig, infer, split_epsilon, state_order
from .ptree import SampleSet, build_prefix_tree, build_star, derivative

__all__ = [
    "Configuration",
    "LearnedModel",
    "LearnerConfig",
    "Path",
    "SampleSet",
    "Transducer",
    "Transition",
    "build_prefix_tree",
    "build_star",
    "configuration_after",
    "derivative",
    "infer",
    "lcp",
    "split_epsilon",
    "state_order",
    "transduce",
    "trim",
    "validate",
]
