"""Closure constructions: partial-to-total reduction with a reject symbol,
and the powerset-style reduction from functional to unambiguous form."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .core import Transducer, trim
from .errors import ConfigurationError


class PowersetState(NamedTuple):
    """A state of the unambiguity construction: a base state of the source
    machine together with the subset of states reachable on the same input."""

    base: int
    context: frozenset


def complement_dfa(t: Transducer) -> Transducer:
    """Deterministic complete acceptor of the complement of the input
    language of ``t``; every output is empty.

    Subset construction over reachable subsets (the empty subset acts as the
    sink), acceptance flipped.  State ids follow discovery order.
    """
    alphabet = sorted(t.input_alphabet)
    step: dict[tuple[int, str], set[int]] = {}
    for tr in t.transitions:
        step.setdefault((tr.src, tr.symbol), set()).add(tr.dst)
    start = frozenset([t.initial])
    ids: dict[frozenset, int] = {start: 0}
    queue = deque([start])
    transitions = []
    while queue:
        subset = queue.popleft()
        sid = ids[subset]
        for sym in alphabet:
            nxt = frozenset(set().union(*(step.get((q, sym), set()) for q in subset))
                            if subset else set())
            if nxt not in ids:
                ids[nxt] = len(ids)
                queue.append(nxt)
            transitions.append((sid, sym, ids[nxt], ""))
    accepting = {sid for subset, sid in ids.items() if not (subset & t.accepting)}
    return Transducer(range(len(ids)), t.input_alphabet, (), 0, accepting, transitions)


def union(a: Transducer, b: Transducer) -> Transducer:
    """Union of two relations via a fresh initial state that copies both
    machines' initial out-transitions; accepts the empty pair iff either
    operand does."""
    off_a = 1
    off_b = 1 + len(a.states)
    map_a = {q: off_a + i for i, q in enumerate(sorted(a.states))}
    map_b = {q: off_b + i for i, q in enumerate(sorted(b.states))}
    transitions = []
    for tr in a.transitions:
        transitions.append((map_a[tr.src], tr.symbol, map_a[tr.dst], tr.out))
    for tr in b.transitions:
        transitions.append((map_b[tr.src], tr.symbol, map_b[tr.dst], tr.out))
    for sym, dst, out in a.arcs_from(a.initial):
        transitions.append((0, sym, map_a[dst], out))
    for sym, dst, out in b.arcs_from(b.initial):
        transitions.append((0, sym, map_b[dst], out))
    accepting = {map_a[q] for q in a.accepting} | {map_b[q] for q in b.accepting}
    if a.initial in a.accepting or b.initial in b.accepting:
        accepting.add(0)
    return Transducer(
        range(off_b + len(b.states)),
        a.input_alphabet | b.input_alphabet,
        a.output_alphabet | b.output_alphabet,
        0,
        accepting,
        transitions,
    )


def totalize(t: Transducer, reject: str) -> Transducer:
    """Extend a partial functional relation to a total one over all non-empty
    inputs, mapping every previously rejected input to the reject symbol.

    The rejected inputs are recognized by complementing the input language;
    that acceptor becomes a transducer emitting ``reject`` on its first step
    and nothing afterwards (two layers keep the first step unique), and is
    united with the original machine.  Acceptance of the empty input is
    whatever ``t`` had.
    """
    if len(reject) != 1:
        raise ConfigurationError("reject symbol must be a single character")
    if reject in t.output_alphabet:
        raise ConfigurationError(f"reject symbol {reject!r} already in output alphabet")
    comp = complement_dfa(t)
    # layer 0 = fresh start (emits reject on the way out), layer 1 = body
    body = {q: 1 + q for q in comp.states}
    start = 0
    transitions = []
    for src, sym, dst, _ in comp.transitions:
        transitions.append((body[src], sym, body[dst], ""))
        if src == comp.initial:
            transitions.append((start, sym, body[dst], reject))
    rejector = Transducer(
        [start] + [body[q] for q in comp.states],
        t.input_alphabet,
        {reject},
        start,
        {body[q] for q in comp.accepting},  # layer 0 never accepts: no empty pair
        transitions,
    )
    return trim(union(t, rejector))


def disambiguate(t: Transducer) -> Transducer:
    """Reduce a functional transducer to an unambiguous one with the same
    relation.

    States are reachable (base state, context subset) pairs.  Among incoming
    transitions that share a source context, symbol, and target, only the one
    from the least base state survives; among accepting states sharing a
    context, only the least accepting base keeps acceptance.
    """
    images: dict[tuple[int, str], set[int]] = {}
    for tr in t.transitions:
        images.setdefault((tr.src, tr.symbol), set()).add(tr.dst)

    def image(context: frozenset, sym: str) -> frozenset:
        return frozenset(
            set().union(*(images.get((q, sym), set()) for q in context))
            if context
            else set()
        )

    start = PowersetState(t.initial, frozenset([t.initial]))
    ids: dict[PowersetState, int] = {start: 0}
    queue = deque([start])
    edges: list[tuple[int, str, int, str]] = []
    while queue:
        node = queue.popleft()
        sid = ids[node]
        for sym in sorted(t.input_alphabet):
            ctx2 = image(node.context, sym)
            if not ctx2:
                continue
            # keep one edge per (context, symbol, target): the least base wins,
            # and this node only emits it if no smaller context member could
            for _, dst, out in t.arcs_from(node.base, sym):
                smaller = [
                    q
                    for q in node.context
                    if q < node.base and dst in images.get((q, sym), set())
                ]
                if smaller:
                    continue
                node2 = PowersetState(dst, ctx2)
                if node2 not in ids:
                    ids[node2] = len(ids)
                    queue.append(node2)
                edges.append((sid, sym, ids[node2], out))
    accepting = set()
    for node, sid in ids.items():
        acc = sorted(q for q in node.context if q in t.accepting)
        if acc and node.base == acc[0]:
            accepting.add(sid)
    result = Transducer(
        range(len(ids)),
        t.input_alphabet,
        t.output_alphabet,
        0,
        accepting,
        edges,
    )
    return trim(result)
