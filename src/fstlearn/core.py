"""Transducer data model, nondeterministic evaluation, trimming, validation.

A transducer here is a finite-state machine whose transitions each carry one
input symbol and an output string.  The same value type is used for learned
hypotheses, hand-built targets, and prefix trees.  Values are immutable after
construction and safe to share between threads.  Two facts derived from the
fields are filled later, each on its first use: the adjacency, by the first
walk, and the table of reachable subsets, by the first closure construction
of ``transform`` (which walks it once per machine, not once per call).  Each
is written once; threads that race to fill one build equal values, and
whichever is stored, every reader sees the same facts.  Neither is pickled or
copied: a machine is pickled and copied by its six public fields, so a copy
starts with both unfilled.

Evaluation (``configuration_after``, ``transduce``) folds the input through a
normalised configuration: the output prefix that every live run shares is
moved out into the emitted output, and each run keeps only its delay, the
rest of its pending output (the residual outputs of Mohri's determinisation,
1997).  Steps are memoised per call in a step table, a row per configuration
that maps a symbol to the chunk emitted, the next configuration and its row,
so a step already taken costs one dict lookup; the table is dropped whenever
what it holds outgrows the input.  For runs of bounded delay a call is thus
linear in the lengths of the input and the output.  The fold keeps every live
run, also one that cannot accept the rest of the input, so on a machine whose
delay grows without bound every step misses and a call is quadratic.

Construction removes duplicate transition records in input order, sorts once
and makes the records ``Transition`` values in C.  The closure constructions
and ``infer`` pass lists that are sorted or nearly so; kept in that order,
they are long sorted runs, which the sort merges in about one comparison per
record, where a set would scramble them first.

Trimming (``trim``) keeps the states found by one forward walk from the
initial state and one backward walk from the accepting states
(``live_part``, which the closure constructions also use to cut their edges
before they build a machine).  When it cuts nothing it returns its argument,
which is safe because values are immutable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import repeat
from typing import Collection, Iterable, NamedTuple, Optional

from .errors import AlphabetError


class Transition(NamedTuple):
    src: int
    symbol: str
    dst: int
    out: str


class Violation(NamedTuple):
    kind: str
    detail: str


@dataclass(frozen=True)
class Path:
    """A chained sequence of transitions starting at some designated state."""

    transitions: tuple[Transition, ...]

    @property
    def input_word(self) -> str:
        return "".join(t.symbol for t in self.transitions)

    @property
    def output_word(self) -> str:
        return "".join(t.out for t in self.transitions)


class Transducer:
    """Immutable nondeterministic finite-state transducer.

    ``transitions`` is kept as a sorted tuple of unique records; at most one
    record per (src, symbol, dst) triple is legal (checked by ``validate``,
    not enforced on construction so that malformed machines can be reported).
    Construction canonicalises the records it is given: duplicates collapse,
    and their order and type (tuple, list or ``Transition``) do not matter.
    ``dict.fromkeys`` drops the duplicates in input order, one sort orders
    what is left, and ``tuple.__new__`` mapped over it makes the
    ``Transition`` records without a Python call per record.  A record
    without exactly four fields raises ``TypeError``.

    Two facts derived from the fields are filled later, each by its first
    use, not on construction, since most machines the closures and
    ``infer`` build are never walked:

    - ``_adj``, the adjacency that ``arcs_from``, ``configuration_after``
      and the subset walk of ``transform`` read, built by the first walk;
    - ``_subsets``, the table of reachable subsets that ``disambiguate``,
      ``totalize`` and ``complement_dfa`` read, built by the first of them
      (``transform._subset_table``), so the three share one walk.  It
      holds one entry per reachable subset and member and one per subset,
      symbol and destination: the nodes and edges of ``disambiguate``'s
      walk before it trims them, no more than that call builds anyway.

    Each is written once through ``object.__setattr__``, like the fields,
    and only ever read after; a race builds it twice, equal both times, so
    a value stays safe to share between threads.  Equality and the hash
    read the fields alone, so a machine with both facts filled equals a
    fresh one.  ``__reduce__`` pickles and copies a machine by its six
    public fields, so neither fact is serialized or shared by a copy, and
    each dies with its machine.
    """

    __slots__ = (
        "states",
        "input_alphabet",
        "output_alphabet",
        "initial",
        "accepting",
        "transitions",
        "_adj",
        "_subsets",
    )

    def __init__(
        self,
        states: Iterable[int],
        input_alphabet: Iterable[str],
        output_alphabet: Iterable[str],
        initial: int,
        accepting: Iterable[int],
        transitions: Iterable[tuple],
    ):
        records = list(dict.fromkeys(map(tuple, transitions)))
        if set(map(len, records)) - {4}:
            raise TypeError("a transition record has four fields: src, symbol, dst, out")
        records.sort()
        records = tuple(map(tuple.__new__, repeat(Transition), records))
        object.__setattr__(self, "states", frozenset(states))
        object.__setattr__(self, "input_alphabet", frozenset(input_alphabet))
        object.__setattr__(self, "output_alphabet", frozenset(output_alphabet))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", frozenset(accepting))
        object.__setattr__(self, "transitions", records)
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_subsets", None)

    def __setattr__(self, name, value):
        raise AttributeError("Transducer is immutable")

    def __reduce__(self):
        return type(self), (self.states, self.input_alphabet, self.output_alphabet,
                            self.initial, self.accepting, self.transitions)

    def __eq__(self, other):
        if not isinstance(other, Transducer):
            return NotImplemented
        return (
            self.states == other.states
            and self.input_alphabet == other.input_alphabet
            and self.output_alphabet == other.output_alphabet
            and self.initial == other.initial
            and self.accepting == other.accepting
            and self.transitions == other.transitions
        )

    def __hash__(self):
        return hash((self.initial, self.accepting, self.transitions))

    def __repr__(self):
        return (
            f"Transducer(states={len(self.states)}, "
            f"transitions={len(self.transitions)}, "
            f"accepting={sorted(self.accepting)})"
        )

    def _adjacency(self) -> dict[int, dict[str, list[tuple[int, str]]]]:
        """The (dst, out) pairs of each state and symbol, built on the first
        call from the sorted ``transitions``, so each state's symbols are
        inserted, and iterated, in sorted order; never changed once stored."""
        adj = self._adj
        if adj is None:
            adj = {}
            for src, sym, dst, out in self.transitions:
                adj.setdefault(src, {}).setdefault(sym, []).append((dst, out))
            object.__setattr__(self, "_adj", adj)
        return adj

    def arcs_from(self, state: int, symbol: Optional[str] = None):
        """Outgoing (symbol, dst, out) triples of a state, sorted."""
        by_sym = (self._adj or self._adjacency()).get(state, {})
        if symbol is not None:
            return [(symbol, d, o) for d, o in by_sym.get(symbol, [])]
        return [(sym, d, o) for sym, arcs in by_sym.items() for d, o in arcs]


Configuration = frozenset  # of (state, pending output) pairs


def lcp(strings: Collection[str]) -> str:
    """Longest common prefix of a nonempty collection of strings.

    It is the common prefix of the lexicographically least and greatest
    members, so only those two are compared character by character.
    """
    if not strings:
        raise ValueError("lcp of an empty set is undefined")
    lo, hi = min(strings), max(strings)
    k = 0
    while k < len(lo) and lo[k] == hi[k]:
        k += 1
    return lo[:k]


# ``configuration_after`` joins its emitted chunks once per block of this
# many input symbols, so that a list of one chunk per symbol never lives
# longer than a block.
_BLOCK = 1024


def configuration_after(t: Transducer, inp: str) -> Configuration:
    """Set of (state, pending output) pairs reachable over ``inp``.

    Starts from {(initial, "")} and folds each input symbol through every
    matching transition.  The fold keeps the configuration normalised: after
    each symbol the longest common prefix of the live runs' pending outputs
    is moved into the emitted output, and only each run's delay (the rest of
    its pending output) stays in a frozenset of (state, suffix) pairs.
    Deduplicating on (state, suffix) is the same as deduplicating on (state,
    full output), since every run shares the emitted prefix, which is joined
    back onto each suffix at the end.

    Steps are memoised for the duration of the call in a step table: a row
    per normalised configuration maps an input symbol to the step taken from
    that configuration on it, (emitted chunk, next configuration, next row).
    A hit is one dict lookup on the row that the last step returned, a
    subscript that raises ``KeyError`` on a miss, and the append of its
    chunk; only a miss hashes a configuration.  The chunks are joined once
    per block of the input.  A machine whose live runs keep a bounded delay
    revisits a few configurations: the call is linear in the lengths of the
    input and the output.  ``held`` counts the pairs and delay characters of
    the configurations that have rows, and the table is dropped on a miss
    once it exceeds ``len(inp)``.  Every live run is kept, also one that
    cannot accept the rest of a longer word, so on a machine whose delay
    grows without bound every step misses: the call is then quadratic, but
    keeps memory at O(|input| + |output|).

    Raises ``AlphabetError`` naming the first symbol of ``inp`` outside the
    input alphabet, even where the runs have already died before it.
    """
    if not t.input_alphabet.issuperset(inp):
        bad = next(sym for sym in inp if sym not in t.input_alphabet)
        raise AlphabetError(f"symbol {bad!r} not in input alphabet")
    adj = t._adjacency()
    conf = frozenset({(t.initial, "")})
    row: dict = {}
    rows = {conf: row}
    held = 1
    blocks = []
    for start in range(0, len(inp), _BLOCK):
        emitted = []
        for sym in inp[start:start + _BLOCK]:
            try:
                chunk, conf, row = row[sym]
            except KeyError:
                if held > len(inp):
                    # rows refer to each other, in cycles where configurations
                    # recur: emptying each frees them now, not at a collection
                    for r in rows.values():
                        r.clear()
                    rows.clear()
                    held = 0
                nxt = set()
                for state, pending in conf:
                    for dst, out in adj.get(state, {}).get(sym, ()):
                        nxt.add((dst, pending + out))
                if not nxt:
                    return frozenset()
                chunk = lcp([pending for _, pending in nxt])
                if chunk:
                    k = len(chunk)
                    nxt = {(state, pending[k:]) for state, pending in nxt}
                conf = frozenset(nxt)
                after = rows.get(conf)
                if after is None:
                    after = rows[conf] = {}
                    held += len(conf) + sum(len(pending) for _, pending in conf)
                row[sym] = (chunk, conf, after)
                row = after
            if chunk:
                emitted.append(chunk)
        blocks.append("".join(emitted))
    prefix = "".join(blocks)
    return frozenset((state, prefix + pending) for state, pending in conf)


def transduce(t: Transducer, inp: str) -> frozenset:
    """All outputs of accepting runs over ``inp`` (empty set if rejected)."""
    conf = configuration_after(t, inp)
    return frozenset(out for state, out in conf if state in t.accepting)


def live_part(
    initial: int, accepting: Collection[int], transitions: Collection[tuple]
) -> tuple[set[int], set[int], list]:
    """The states, accepting states and transitions of the part of a machine
    that lies on some path from ``initial`` to a member of ``accepting``;
    ``transitions`` are records (src, symbol, dst, out).  If no such path
    exists, the part is ``initial`` alone, accepting nothing.

    The live states are found by a forward walk from ``initial``, then a
    backward walk from the accepting states it reached that stays among the
    states it reached.
    """
    succ: defaultdict[int, list[int]] = defaultdict(list)
    pred: defaultdict[int, list[int]] = defaultdict(list)
    for src, _, dst, _ in transitions:
        succ[src].append(dst)
        pred[dst].append(src)
    fwd = {initial}
    stack = [initial]
    while stack:
        for dst in succ[stack.pop()]:
            if dst not in fwd:
                fwd.add(dst)
                stack.append(dst)
    final = fwd.intersection(accepting)
    if not final:
        return {initial}, set(), []
    live = set(final)
    stack = list(final)
    while stack:
        for src in pred[stack.pop()]:
            if src in fwd and src not in live:
                live.add(src)
                stack.append(src)
    kept = [tr for tr in transitions if tr[0] in live and tr[2] in live]
    return live, final, kept


def trim(t: Transducer) -> Transducer:
    """Restrict to states lying on some path from the initial state to an
    accepting state (``live_part``).  If nothing is accepted, the
    single-state empty-relation machine over the same alphabets is returned.
    If nothing is cut, ``t`` itself is returned."""
    states, accepting, kept = live_part(t.initial, t.accepting, t.transitions)
    if states == t.states and accepting == t.accepting and len(kept) == len(t.transitions):
        return t
    return Transducer(states, t.input_alphabet, t.output_alphabet, t.initial, accepting, kept)


def validate(t: Transducer) -> list[Violation]:
    """Structural well-formedness report; empty list means no violations."""
    report: list[Violation] = []
    if t.initial not in t.states:
        report.append(Violation("initial", f"initial state {t.initial} not in states"))
    for q in sorted(t.accepting - t.states):
        report.append(Violation("accepting", f"accepting state {q} not in states"))
    for sym in sorted(t.input_alphabet | {tr.symbol for tr in t.transitions}):
        if len(sym) != 1:
            report.append(Violation("alphabet", f"input symbol {sym!r} is not one character"))
    seen: dict[tuple[int, str, int], str] = {}
    for tr in t.transitions:
        if tr.src not in t.states:
            report.append(Violation("endpoint", f"source {tr.src} not in states"))
        if tr.dst not in t.states:
            report.append(Violation("endpoint", f"target {tr.dst} not in states"))
        if tr.symbol not in t.input_alphabet:
            report.append(
                Violation("alphabet", f"symbol {tr.symbol!r} not in input alphabet")
            )
        for ch in tr.out:
            if ch not in t.output_alphabet:
                report.append(
                    Violation(
                        "alphabet", f"output character {ch!r} not in output alphabet"
                    )
                )
        key = (tr.src, tr.symbol, tr.dst)
        if key in seen and seen[key] != tr.out:
            report.append(
                Violation(
                    "delta",
                    f"delta not a function: {key} maps to both "
                    f"{seen[key]!r} and {tr.out!r}",
                )
            )
        seen[key] = tr.out
    return report


def renumber(t: Transducer, order: list[int]) -> Transducer:
    """Relabel states as 0..n-1 following ``order``."""
    mapping = {q: i for i, q in enumerate(order)}
    return Transducer(
        range(len(order)),
        t.input_alphabet,
        t.output_alphabet,
        mapping[t.initial],
        [mapping[q] for q in t.accepting],
        [(mapping[a.src], a.symbol, mapping[a.dst], a.out) for a in t.transitions],
    )
