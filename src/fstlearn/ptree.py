"""Onward prefix-tree construction from a sample, a dict from each input
string to its output string.

The tree is built breadth-first.  A node's residual relation is a list of the
sample's own (input, output) pairs: every pair of it starts with the node's
input and output prefixes, so the build reads the pairs at the prefixes'
lengths and never copies a string.  The sample is sorted by input once, and
every residual keeps that order, so a residual's pairs with one next input
symbol form a run, headed by the exact pair, whose input ends with that
symbol, if there is one.  A residual is kept only until its node is expanded;
the tree keeps each node's pair of prefixes and nothing else.  One pass over
each run splits it into branches: the exact single-symbol pair's branch,
which every pair whose output extends it rides, one branch per next output
symbol carrying the longest common prefix of its outputs, and a bare branch
for the rest, whose outputs end at the node's output prefix.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque

from .core import Transducer, lcp
from .errors import InconsistencyError


def build_prefix_tree(samples: dict[str, str]) -> tuple[Transducer, list[tuple[str, str]]]:
    """Build the onward canonical prefix tree for ``samples``, a dict from
    each input to its output.

    Returns the tree and ``prefixes``, where ``prefixes[q]`` is the (input,
    output) prefix that leads from the root to node ``q``.  Nodes are
    expanded breadth-first; a node's residual, the sample pairs that pass
    through it sorted by input, lives only in its queue entry.  Every pair of
    a residual starts with the node's prefixes, of lengths d and m, so the
    pairs are read at those offsets and never sliced.  The pair that ends at
    the node sorts first; the pairs with one input symbol d follow as a run,
    found by bisection and split in one pass.  A pair rides the exact pair's
    branch when its output extends the exact pair's output; otherwise it
    joins the group of its output symbol m, whose branch carries the group's
    longest common output prefix, or the bare branch when its output has no
    symbol m.  Branches are emitted in that order, the groups sorted by
    output symbol, so node ids follow it, and the tree does not depend on the
    order of ``samples``.  A pair that ends at a node with a longer output
    than the node's, at the root or at any node, raises
    ``InconsistencyError``.  The alphabets are those of the tree's edges,
    which spell out every sample.
    """
    prefixes: list[tuple[str, str]] = [("", "")]
    accepting: set[int] = set()
    transitions: list[tuple[int, str, int, str]] = []
    queue: deque[tuple[int, list[tuple[str, str]]]] = deque([(0, sorted(samples.items()))])

    def next_symbol(pair: tuple[str, str]) -> str:
        return pair[0][d]  # d is the depth of the node being expanded

    while queue:
        q, res = queue.popleft()
        in_prefix, out_prefix = prefixes[q]
        d, m = len(in_prefix), len(out_prefix)
        lo, n = 0, len(res)
        if n and len(res[0][0]) == d:
            if len(res[0][1]) != m:
                raise InconsistencyError(*res[0])
            accepting.add(q)
            lo = 1
        while lo < n:
            sym = res[lo][0][d]
            hi = bisect_right(res, sym, lo + 1, n, key=next_symbol)
            exact_out = res[lo][1] if len(res[lo][0]) == d + 1 else None
            ride: list[tuple[str, str]] = []
            groups: dict[str, list[tuple[str, str]]] = {}
            bare: list[tuple[str, str]] = []
            for pair in res[lo:hi]:
                out = pair[1]
                if exact_out is not None and out.startswith(exact_out):
                    ride.append(pair)
                elif len(out) > m:
                    groups.setdefault(out[m], []).append(pair)
                else:
                    bare.append(pair)
            lo = hi
            branches = [(exact_out, ride)] if exact_out is not None else []
            if groups:  # sorting an empty dict per run cost 10 % on small samples
                for g in sorted(groups):
                    members = groups[g]
                    branches.append((lcp([out for _, out in members]), members))
            if bare:
                branches.append((out_prefix, bare))
            branch_in = in_prefix + sym
            for full, part in branches:
                new = len(prefixes)
                prefixes.append((branch_in, full))
                transitions.append((q, sym, new, full[m:]))
                queue.append((new, part))
    sigma = {t[1] for t in transitions}
    gamma = set("".join(t[3] for t in transitions))
    tree = Transducer(
        range(len(prefixes)), sigma, gamma, 0, accepting, transitions
    )
    return tree, prefixes
