"""Independent brute-force machinery: bounded equivalence and property
checks, path enumeration and informant generation.

Everything here is deliberately naive.  These functions are the yardstick the
clever constructions are measured against, so they must not share code paths
with them: evaluation goes through explicit path enumeration where the main
library propagates configurations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import Path, Transducer, Transition
from .errors import ToolkitError


@dataclass(frozen=True)
class BoundedCheckReport:
    property_name: str
    bound: int
    verdict: bool
    counterexample: Optional[tuple] = None

    def __bool__(self):
        return self.verdict


def words_up_to(alphabet: Iterable[str], max_len: int) -> list[str]:
    """All words of length <= max_len in length-lexicographic order."""
    syms = sorted(alphabet)
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(w) for w in itertools.product(syms, repeat=n))
    return out


def accepting_paths(t: Transducer, inp: str) -> list[Path]:
    """Every accepting run over ``inp``, by depth-first enumeration.

    The walk keeps its own stack, so the length of ``inp`` is not bounded by
    the interpreter's recursion limit; arcs are pushed in reverse so that runs
    come out in the order of ``arcs_from``."""
    results: list[Path] = []
    acc: list[Transition] = []
    stack: list[tuple[int, Transition]] = []
    state, k = t.initial, 0
    while True:
        if k == len(inp):
            if state in t.accepting:
                results.append(Path(tuple(acc)))
        else:
            for sym, dst, out in reversed(t.arcs_from(state, inp[k])):
                stack.append((k, Transition(state, sym, dst, out)))
        if not stack:
            return results
        k, arc = stack.pop()
        del acc[k:]
        acc.append(arc)
        state, k = arc.dst, k + 1


def all_paths(t: Transducer, max_len: int) -> list[Path]:
    """Every run from the initial state with at most ``max_len`` transitions,
    in depth-first order, walked with an explicit stack as in
    ``accepting_paths``."""
    results: list[Path] = []
    acc: list[Transition] = []
    stack: list[tuple[int, Transition]] = []
    state, depth = t.initial, 0
    while True:
        if depth < max_len:
            for sym, dst, out in reversed(t.arcs_from(state)):
                stack.append((depth, Transition(state, sym, dst, out)))
        if not stack:
            return results
        depth, arc = stack.pop()
        del acc[depth:]
        acc.append(arc)
        results.append(Path(tuple(acc)))
        state, depth = arc.dst, depth + 1


def path_outputs(t: Transducer, inp: str) -> frozenset:
    return frozenset(p.output_word for p in accepting_paths(t, inp))


def equivalent_up_to(a: Transducer, b: Transducer, max_len: int) -> BoundedCheckReport:
    """Do the two machines realize the same relation on every input of
    length <= max_len?  The least disagreeing input is reported."""
    alphabet = a.input_alphabet | b.input_alphabet
    for word in words_up_to(alphabet, max_len):
        outs_a = path_outputs(a, word) if _in_alphabet(a, word) else frozenset()
        outs_b = path_outputs(b, word) if _in_alphabet(b, word) else frozenset()
        if outs_a != outs_b:
            return BoundedCheckReport(
                "bounded_equivalence", max_len, False, (word, outs_a, outs_b)
            )
    return BoundedCheckReport("bounded_equivalence", max_len, True)


def _in_alphabet(t: Transducer, word: str) -> bool:
    return all(ch in t.input_alphabet for ch in word)


def check_functional_up_to(t: Transducer, max_len: int) -> BoundedCheckReport:
    """No input of length <= max_len may have two distinct outputs.  The
    least input with two is reported with its outputs, sorted."""
    for word in words_up_to(t.input_alphabet, max_len):
        outs = path_outputs(t, word)
        if len(outs) > 1:
            return BoundedCheckReport("functional", max_len, False, (word, tuple(sorted(outs))))
    return BoundedCheckReport("functional", max_len, True)


def check_ambiguous_up_to(t: Transducer, max_len: int) -> BoundedCheckReport:
    """Some input of length <= max_len with two distinct accepting runs?"""
    for word in words_up_to(t.input_alphabet, max_len):
        paths = accepting_paths(t, word)
        if len(paths) > 1:
            return BoundedCheckReport(
                "unambiguous", max_len, False, (word, len(paths))
            )
    return BoundedCheckReport("unambiguous", max_len, True)


def check_local_prefix_preservation_up_to(
    t: Transducer, max_len: int
) -> BoundedCheckReport:
    """For any two runs from the initial state whose inputs and outputs are
    both prefix-comparable, the shorter must be a prefix of the longer.

    ``all_paths`` lists every run after its prefixes, depth first, so the
    runs on the branch at hand are the prefixes of the last one; with one
    input character per transition, as ``validate`` demands, the runs whose
    input is a prefix of p2's are those sharing the input word of one of
    p2's prefixes.  Each run keeps the list of the runs that read its word,
    so no input word is sliced or hashed again, and p2's own prefix, which
    can break nothing, is passed over before any output is compared."""
    by_input: dict[str, list[tuple[Path, str]]] = {}
    entries = []
    for p in all_paths(t, max_len):  # each output word is joined once, not once per comparison
        runs = by_input.setdefault(p.input_word, [])
        runs.append((p, p.output_word))
        entries.append((p, runs[-1][1], runs))
    branch: list[tuple[Path, list]] = []  # p2 and its prefixes, shortest first
    for p2, out2, runs in entries:
        del branch[len(p2.transitions) - 1:]
        branch.append((p2, runs))
        for prefix, same_input in branch:
            for p1, out1 in same_input:
                if p1 is not prefix and out2.startswith(out1):
                    return BoundedCheckReport(
                        "locally_prefix_preserving", max_len, False, (p1, p2))
    return BoundedCheckReport("locally_prefix_preserving", max_len, True)


def generate_informant(t: Transducer, max_len: int) -> list[tuple[str, str]]:
    """Every (input, output) pair of the relation with input length <= max_len,
    in length-lexicographic input order."""
    out = []
    for word in words_up_to(t.input_alphabet, max_len):
        outs = path_outputs(t, word)
        if len(outs) > 1:
            raise ToolkitError(
                f"machine is not functional: input {word!r} maps to {sorted(outs)}"
            )
        if outs:
            out.append((word, next(iter(outs))))
    return out
