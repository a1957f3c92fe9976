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
from .infer import LearnedModel, infer, split_epsilon, state_order
from .ptree import build_prefix_tree

__all__ = [
    "Configuration",
    "LearnedModel",
    "Path",
    "Transducer",
    "Transition",
    "build_prefix_tree",
    "configuration_after",
    "infer",
    "lcp",
    "split_epsilon",
    "state_order",
    "transduce",
    "trim",
    "validate",
]
