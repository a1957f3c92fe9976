"""Closure constructions: the partial-to-total reduction with a reject
symbol, and the reduction from functional to unambiguous form.

Both are subset constructions (Rabin & Scott 1959) over the same reachable
subsets.  ``_subsets`` walks them once per machine, breadth first, into one
table: for each subset and symbol, the next subset's id and the least member
owning each destination.  The first construction called on a machine stores
the table on it (``_subset_table``), and later ones on the same machine read
it from there.  ``complement_dfa`` and ``totalize`` read the complement's
edges and acceptance from that table, and ``disambiguate`` walks its (base
state, subset id) nodes over it.  Their edges are cut to the live states
before a machine is built, so each builds its result once.
"""

from __future__ import annotations

from .core import Transducer, live_part
from .errors import ConfigurationError


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


def _subsets(t: Transducer) -> tuple[list[frozenset[int]], list[list[tuple]]]:
    """The subsets of states of ``t`` reachable from ``{t.initial}``, with
    ids in breadth-first discovery order over the sorted symbols, and for
    each subset id a row of ``(symbol, next subset id, owner)``, one per
    symbol in sorted order.  ``owner`` maps each destination to the least
    member with an edge to it on that symbol; its keys are the next subset.
    The empty subset, once reached, acts as a sink."""
    alphabet = sorted(t.input_alphabet)
    adj = t._adjacency()
    subsets = [frozenset([t.initial])]
    ids = {subsets[0]: 0}
    table = []
    for subset in subsets:  # appended to while walked: a breadth-first queue
        members = sorted(subset)
        row = []
        for sym in alphabet:
            owner: dict[int, int] = {}
            for q in members:
                for dst, _ in adj.get(q, {}).get(sym, ()):
                    owner.setdefault(dst, q)
            after = frozenset(owner)
            if after not in ids:
                ids[after] = len(subsets)
                subsets.append(after)
            row.append((sym, ids[after], owner))
        table.append(row)
    return subsets, table


def _subset_table(t: Transducer) -> tuple[list[frozenset[int]], list[list[tuple]]]:
    """``_subsets(t)``, walked on the first call for ``t`` and kept on it,
    like its adjacency; callers only read it."""
    table = t._subsets
    if table is None:
        table = _subsets(t)
        object.__setattr__(t, "_subsets", table)
    return table


def complement_dfa(t: Transducer) -> Transducer:
    """Deterministic complete acceptor of the complement of the input
    language of ``t``; every output is empty.

    Subset construction over reachable subsets (``_subset_table``; the empty
    subset acts as the sink), acceptance flipped.  State ids follow
    discovery order.
    """
    subsets, table = _subset_table(t)
    accepting = {sid for sid, subset in enumerate(subsets) if not subset & t.accepting}
    edges = [(sid, sym, nxt, "") for sid, row in enumerate(table) for sym, nxt, _ in row]
    return Transducer(range(len(subsets)), t.input_alphabet, (), 0, accepting, edges)


def totalize(t: Transducer, reject: str) -> Transducer:
    """Extend a partial functional relation to a total one over all non-empty
    inputs, mapping every previously rejected input to the reject symbol.

    The rejected inputs are those ``complement_dfa(t)`` accepts; its edges
    and acceptance are read from the subset table, not built as a machine.
    A fresh start, state 0, copies the first step of ``t`` and of the
    complement, the complement's copies emitting ``reject``; its later steps
    emit nothing.  Acceptance of the empty input is whatever ``t`` had.  The
    states of ``t`` are numbered from 1 in sorted order, the complement's
    from ``2 + len(t.states)`` in discovery order; the one id between the
    blocks stays unused, which keeps the numbering, and every output, of
    earlier versions byte for byte.
    """
    if len(reject) != 1:
        raise ConfigurationError("reject symbol must be a single character")
    if reject in t.output_alphabet:
        raise ConfigurationError(f"reject symbol {reject!r} already in output alphabet")
    subsets, table = _subset_table(t)
    ids = {q: 1 + i for i, q in enumerate(sorted(t.states))}
    off = 2 + len(t.states)
    transitions = [(ids[tr.src], tr.symbol, ids[tr.dst], tr.out) for tr in t.transitions]
    transitions += [(off + sid, sym, off + nxt, "")
                    for sid, row in enumerate(table) for sym, nxt, _ in row]
    transitions += [(0, sym, ids[dst], out) for sym, dst, out in t.arcs_from(t.initial)]
    transitions += [(0, sym, off + nxt, reject) for sym, nxt, _ in table[0]]
    accepting = {ids[q] for q in t.accepting}
    accepting |= {off + sid for sid, subset in enumerate(subsets) if not subset & t.accepting}
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
    subsets, table = _subset_table(t)
    adj = t._adjacency()
    least_accepting = [min(subset & t.accepting, default=None) for subset in subsets]
    nodes = [(t.initial, 0)]
    ids = {nodes[0]: 0}
    edges = []
    for src, (base, sid) in enumerate(nodes):  # a breadth-first queue
        arcs = adj.get(base, {})
        for sym, nxt, owner in table[sid]:
            # each target's owner is the least context member with an edge to
            # it; the base is in its context, so it owns its targets unless a
            # smaller member reaches them too
            for dst, out in arcs.get(sym, ()):
                if owner[dst] == base:
                    node = (dst, nxt)
                    if node not in ids:
                        ids[node] = len(nodes)
                        nodes.append(node)
                    edges.append((src, sym, ids[node], out))
    accepting = {i for i, (base, sid) in enumerate(nodes) if base == least_accepting[sid]}
    return _trimmed(t.input_alphabet, t.output_alphabet, accepting, edges)
