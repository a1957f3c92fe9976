"""Closure constructions: the partial-to-total reduction with a reject
symbol, and the reduction from functional to unambiguous form.

Both are subset constructions (Rabin & Scott 1959) over one table of the
destinations of each (state, symbol), walked breadth first by ``_walk``.
Their edges are cut to the live states before a machine is built, so each
builds its result once.
"""

from __future__ import annotations

from collections import deque

from .core import Transducer, live_part
from .errors import ConfigurationError


def _destinations(t: Transducer) -> dict[tuple[int, str], set[int]]:
    """The destinations of each (state, symbol) of ``t``."""
    step: dict[tuple[int, str], set[int]] = {}
    for tr in t.transitions:
        step.setdefault((tr.src, tr.symbol), set()).add(tr.dst)
    return step


def _trimmed(
    input_alphabet: frozenset[str],
    output_alphabet: frozenset[str],
    accepting: set[int],
    edges: list[tuple[int, str, int, str]],
) -> Transducer:
    """The machine with initial state 0 that ``trim`` would make of
    ``edges``, built once: the edges are cut to the live part first."""
    states, accepting, edges = live_part(0, accepting, edges)
    return Transducer(states, input_alphabet, output_alphabet, 0, accepting, edges)


def _walk(start, successors):
    """Number the nodes reachable from ``start`` in discovery order, where
    ``successors(node)`` yields ``(symbol, node, output)``; return the ids and
    the edges ``(src id, symbol, dst id, output)``."""
    ids = {start: 0}
    queue = deque([start])
    edges = []
    while queue:
        node = queue.popleft()
        for sym, nxt, out in successors(node):
            if nxt not in ids:
                ids[nxt] = len(ids)
                queue.append(nxt)
            edges.append((ids[node], sym, ids[nxt], out))
    return ids, edges


def complement_dfa(t: Transducer) -> Transducer:
    """Deterministic complete acceptor of the complement of the input
    language of ``t``; every output is empty.

    Subset construction over reachable subsets (the empty subset acts as the
    sink), acceptance flipped.  State ids follow discovery order.
    """
    alphabet = sorted(t.input_alphabet)
    step = _destinations(t)

    def successors(subset):
        for sym in alphabet:
            yield sym, frozenset().union(*(step.get((q, sym), ()) for q in subset)), ""

    ids, edges = _walk(frozenset([t.initial]), successors)
    accepting = {sid for subset, sid in ids.items() if not (subset & t.accepting)}
    return Transducer(range(len(ids)), t.input_alphabet, (), 0, accepting, edges)


def totalize(t: Transducer, reject: str) -> Transducer:
    """Extend a partial functional relation to a total one over all non-empty
    inputs, mapping every previously rejected input to the reject symbol.

    The rejected inputs are those ``complement_dfa(t)`` accepts.  A fresh
    start, state 0, copies the first step of ``t`` and of the complement, the
    complement's copies emitting ``reject``; its later steps emit nothing.
    Acceptance of the empty input is whatever ``t`` had.  The states of ``t``
    are numbered from 1 in sorted order, the complement's from
    ``2 + len(t.states)`` in discovery order; the one id between the blocks
    stays unused, which keeps the numbering, and every output, of earlier
    versions byte for byte.
    """
    if len(reject) != 1:
        raise ConfigurationError("reject symbol must be a single character")
    if reject in t.output_alphabet:
        raise ConfigurationError(f"reject symbol {reject!r} already in output alphabet")
    comp = complement_dfa(t)
    ids = {q: 1 + i for i, q in enumerate(sorted(t.states))}
    off = 2 + len(t.states)
    transitions = [(ids[tr.src], tr.symbol, ids[tr.dst], tr.out) for tr in t.transitions]
    transitions += [(off + tr.src, tr.symbol, off + tr.dst, "") for tr in comp.transitions]
    transitions += [(0, sym, ids[dst], out) for sym, dst, out in t.arcs_from(t.initial)]
    transitions += [(0, sym, off + dst, reject) for sym, dst, _ in comp.arcs_from(comp.initial)]
    accepting = {ids[q] for q in t.accepting} | {off + q for q in comp.accepting}
    if t.initial in t.accepting:
        accepting.add(0)
    return _trimmed(t.input_alphabet, t.output_alphabet | {reject}, accepting, transitions)


def disambiguate(t: Transducer) -> Transducer:
    """Reduce a functional transducer to an unambiguous one with the same
    relation.

    States are reachable (base state, context subset) pairs.  Among incoming
    transitions that share a source context, symbol, and target, only the one
    from the least base state survives; among accepting states sharing a
    context, only the least accepting base keeps acceptance.
    """
    alphabet = sorted(t.input_alphabet)
    step = _destinations(t)

    def successors(node):
        base, context = node
        members = sorted(context)
        for sym in alphabet:
            # each target's owner is the least context member with an edge to
            # it; the base is in its context, so it owns its targets unless a
            # smaller member reaches them too
            owner: dict[int, int] = {}
            for q in members:
                for dst in step.get((q, sym), ()):
                    owner.setdefault(dst, q)
            after = frozenset(owner)
            for _, dst, out in t.arcs_from(base, sym):
                if owner[dst] == base:
                    yield sym, (dst, after), out

    ids, edges = _walk((t.initial, frozenset([t.initial])), successors)
    accepting = {sid for (base, context), sid in ids.items()
                 if base == min(context & t.accepting, default=None)}
    return _trimmed(t.input_alphabet, t.output_alphabet, accepting, edges)
