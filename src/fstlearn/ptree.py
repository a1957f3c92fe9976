"""Onward prefix-tree construction from a sample, a dict from each input
string to its output string.

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

from .core import Transducer, lcp
from .errors import InconsistencyError


def build_prefix_tree(samples: dict[str, str]) -> tuple[Transducer, list[tuple[str, str]]]:
    """Build the onward canonical prefix tree for ``samples``, a dict from
    each input to its output.

    Returns the tree and ``prefixes``, where ``prefixes[q]`` is the (input,
    output) prefix that leads from the root to node ``q``.  Nodes are
    expanded breadth-first; a node's residual lives only in its queue entry.
    Each residual is read once: its pairs are bucketed by first input symbol,
    and each bucket is split in one pass.  A pair rides the exact pair's
    branch when its output extends the exact pair's output; otherwise it
    joins the group of its first output symbol, whose branch carries the
    group's longest common output prefix, or the bare branch when its output
    is empty.  Branches are emitted in that order, the groups sorted by
    output symbol, so node ids follow it, and the tree does not depend on the
    order of ``samples``.  An empty input with a non-empty output, at the root
    or at any node, raises ``InconsistencyError``.
    """
    sigma = {ch for inp in samples for ch in inp}
    gamma = {ch for out in samples.values() for ch in out}
    prefixes: list[tuple[str, str]] = [("", "")]
    accepting: set[int] = set()
    transitions: list[tuple[int, str, int, str]] = []
    queue: deque[tuple[int, dict[str, str]]] = deque([(0, samples)])
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
