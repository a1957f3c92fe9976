"""Onward prefix-tree construction from sample sets.

The tree is built breadth-first.  A node's residual relation, the sample
pairs left after consuming its input/output prefix, is kept only until the
node is expanded; the tree keeps each node's pair of prefixes and nothing
else.  One pass over a residual buckets its pairs by first input symbol and
splits each bucket into branches: the exact single-symbol pair's branch,
which every pair whose output extends it rides, one branch per first output
symbol carrying the longest common prefix of its outputs, and a bare branch
for the rest, whose outputs are empty.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .core import Transducer, lcp
from .errors import ConflictError, InconsistencyError, ToolkitError


class SampleSet:
    """A finite functional relation from input strings to output strings.

    Insertion of an input with a conflicting output raises; re-inserting an
    identical pair is a no-op.  An empty input paired with a non-empty output
    is rejected: that datum lives on the learner's side channel.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Optional[Iterable[tuple[str, str]]] = None):
        self._pairs: dict[str, str] = {}
        if pairs is not None:
            for inp, out in pairs:
                self.insert(inp, out)

    def insert(self, inp: str, out: str) -> None:
        if inp == "" and out != "":
            raise ToolkitError(
                f"empty input with non-empty output {out!r} cannot be stored"
            )
        old = self._pairs.get(inp)
        if old is not None and old != out:
            raise ConflictError(inp, old, out)
        self._pairs[inp] = out

    def get(self, inp: str) -> Optional[str]:
        return self._pairs.get(inp)

    def __contains__(self, inp: str) -> bool:
        return inp in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self._pairs == other._pairs

    def __repr__(self):
        return f"SampleSet({sorted(self._pairs.items())!r})"

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self._pairs.items(), key=lambda p: (len(p[0]), p[0]))

    def inputs(self) -> list[str]:
        return sorted(self._pairs, key=lambda w: (len(w), w))

    def input_alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({ch for w in self._pairs for ch in w}))

    def output_alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({ch for w in self._pairs.values() for ch in w}))


def build_prefix_tree(s: SampleSet) -> tuple[Transducer, list[tuple[str, str]]]:
    """Build the onward canonical prefix tree for ``s``.

    Returns the tree and ``prefixes``, where ``prefixes[q]`` is the (input,
    output) prefix that leads from the root to node ``q``.  Nodes are
    expanded breadth-first; a node's residual lives only in its queue entry.
    Each residual is read once: its pairs are bucketed by first input symbol,
    and each bucket is split in one pass.  A pair rides the exact pair's
    branch when its output extends the exact pair's output; otherwise it
    joins the group of its first output symbol, whose branch carries the
    group's longest common output prefix, or the bare branch when its output
    is empty.  Branches are emitted in that order, the groups sorted by
    output symbol, so node ids follow it.
    """
    sigma = s.input_alphabet()
    gamma = s.output_alphabet()
    prefixes: list[tuple[str, str]] = [("", "")]
    accepting: set[int] = set()
    transitions: list[tuple[int, str, int, str]] = []
    queue: deque[tuple[int, dict[str, str]]] = deque([(0, s._pairs)])
    while queue:
        q, res = queue.popleft()
        in_prefix, out_prefix = prefixes[q]
        empty_out = res.get("")
        if empty_out == "":
            accepting.add(q)
        elif empty_out is not None:
            raise InconsistencyError(in_prefix, out_prefix + empty_out)
        buckets: dict[str, list[tuple[str, str]]] = {}
        for inp, out in res.items():
            if inp:
                buckets.setdefault(inp[0], []).append((inp[1:], out))
        for sym in sorted(buckets):
            exact = res.get(sym)
            ride: dict[str, str] = {}
            groups: dict[str, dict[str, str]] = {}
            bare: dict[str, str] = {}
            for tail, out in buckets[sym]:
                if exact is not None and out.startswith(exact):
                    ride[tail] = out[len(exact):]
                elif out:
                    groups.setdefault(out[0], {})[tail] = out
                elif tail:
                    bare[tail] = ""
                else:  # unreachable: (sym, "") is the exact pair, which rides
                    raise InconsistencyError(in_prefix + sym, out_prefix)
            branches = [(exact, ride)] if exact is not None else []
            for g in sorted(groups):
                p = lcp(groups[g].values())
                branches.append((p, {t: o[len(p):] for t, o in groups[g].items()}))
            if bare:
                branches.append(("", bare))
            for branch_out, rest in branches:
                new = len(prefixes)
                prefixes.append((in_prefix + sym, out_prefix + branch_out))
                transitions.append((q, sym, new, branch_out))
                queue.append((new, rest))
    tree = Transducer(
        range(len(prefixes)), sigma, gamma, 0, accepting, transitions
    )
    return tree, prefixes
