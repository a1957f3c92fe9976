"""Top-level learner: empty-input side channel, prefix tree, and the
length-lexicographic double loop of merge attempts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .ambiguity import QuotientView
from .core import Transducer, renumber, trim
from .errors import ConfigurationError, ConflictError
from .merge import try_merge
from .ptree import build_prefix_tree


@dataclass
class LearnedModel:
    """A learned machine plus the independently learned empty-input output."""

    machine: Transducer
    epsilon_output: Optional[str] = None


def split_epsilon(samples: Iterable[tuple[str, str]]) -> tuple[dict[str, str], Optional[str]]:
    """The samples as a dict from input to output, with the empty input's
    output diverted to a side value and the empty pair standing in for it, so
    that the machine part can be learned uniformly.  Two samples of one input
    with different outputs raise ``ConflictError``; this is the one conflict
    check of a learning run."""
    rest: dict[str, str] = {}
    for inp, out in samples:
        old = rest.setdefault(inp, out)
        if old != out:
            raise ConflictError(inp, old, out)
    eps = rest.pop("", None)
    if eps is not None:
        rest[""] = ""
    return rest, eps


def state_order(prefixes: list[tuple[str, str]]) -> list[int]:
    """Tree states sorted by input prefix (length first, then lexicographic),
    ties broken the same way on the output prefix."""
    keys = [(len(i), i, len(o), o) for i, o in prefixes]
    return sorted(range(len(keys)), key=keys.__getitem__)


def infer(
    samples: Iterable[tuple[str, str]],
    max_merge_passes: int = 1,
    trace: Optional[Callable[[dict], None]] = None,
) -> LearnedModel:
    """Learn a transducer consistent with every sample.

    The outer loop walks prefix-tree states in length-lexicographic order;
    for each, the inner loop retries every earlier surviving state until a
    merge commits.  A committed merge deletes the outer state (and any states
    the cascade folded), so the outer loop only ever visits survivors.  The
    hypothesis is one quotient view of the prefix tree: every attempt runs on
    it and reads only what it changes, and it is materialized once, at the
    end.  An attempt gives up after 200 + 20 × (prefix-tree edges) witnesses.
    The outer loop runs at most ``max_merge_passes`` times, and stops after a
    pass that commits nothing.  ``trace``, if given, gets one dict per attempt
    (see ``try_merge``).
    """
    if max_merge_passes < 1:
        raise ConfigurationError("max_merge_passes must be at least 1")
    rest, eps = split_epsilon(samples)
    tree, prefixes = build_prefix_tree(rest)
    order = state_order(prefixes)
    hypothesis = QuotientView(tree)
    parent = hypothesis.parent  # a state survives while it is its class's representative
    for _ in range(max_merge_passes):
        changed = False
        for outer in order:
            if parent[outer] != outer or outer == tree.initial:
                continue
            for inner in order:
                if inner >= outer:
                    break
                if parent[inner] != inner:
                    continue
                if try_merge(hypothesis, inner, outer, trace=trace) is not None:
                    changed = True
                    break
        if not changed:
            break
    machine = trim(hypothesis.materialize())
    final_order = [q for q in order if q in machine.states]
    return LearnedModel(renumber(machine, final_order), eps)
