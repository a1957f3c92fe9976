"""Transducer data model, nondeterministic evaluation, trimming, validation.

A transducer here is a finite-state machine whose transitions each carry one
input symbol and an output string.  The same value type is used for learned
hypotheses, hand-built targets, and prefix trees.  Values are immutable after
construction and safe to share between threads; the one field filled later,
the adjacency built on the first walk, is a cache that every thread would
fill alike.

Evaluation (``configuration_after``, ``transduce``) folds the input through a
normalised configuration: the output prefix that every live run shares is
moved out into the emitted output, and each run keeps only its delay, the
rest of its pending output (the residual outputs of Mohri's determinisation,
1997).  Steps are memoised per call on (configuration, symbol); the memo is
dropped whenever what it holds outgrows the input.  For runs of bounded delay
a call is thus linear in the lengths of the input and the output.

Trimming (``trim``) keeps the states found by one forward walk from the
initial state and one backward walk from the accepting states
(``live_part``, which the closure constructions also use to cut their edges
before they build a machine).  When it cuts nothing it returns its argument,
which is safe because values are immutable.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
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

    The adjacency that ``arcs_from``, ``configuration_after`` and the subset
    walk of ``transform`` read is built on the first such walk, not on
    construction: most machines the closures and ``infer`` build are never
    walked.  It is written once through ``object.__setattr__``, like the
    fields, and only ever read after; a race builds it twice, equal both
    times, so a value stays safe to share between threads.
    """

    __slots__ = (
        "states",
        "input_alphabet",
        "output_alphabet",
        "initial",
        "accepting",
        "transitions",
        "_adj",
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
        records = tuple(map(Transition._make, sorted(set(map(tuple, transitions)))))
        object.__setattr__(self, "states", frozenset(states))
        object.__setattr__(self, "input_alphabet", frozenset(input_alphabet))
        object.__setattr__(self, "output_alphabet", frozenset(output_alphabet))
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "accepting", frozenset(accepting))
        object.__setattr__(self, "transitions", records)
        object.__setattr__(self, "_adj", None)

    def __setattr__(self, name, value):
        raise AttributeError("Transducer is immutable")

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


def configuration_after(t: Transducer, inp: str) -> Configuration:
    """Set of (state, pending output) pairs reachable over ``inp``.

    Starts from {(initial, "")} and folds each input symbol through every
    matching transition.  The fold keeps the configuration normalised: after
    each symbol the longest common prefix of the live runs' pending outputs
    is moved into a list of emitted chunks, and only each run's delay (the
    rest of its pending output) stays in a frozenset of (state, suffix)
    pairs.  Deduplicating on (state, suffix) is the same as deduplicating on
    (state, full output), since every run shares the emitted prefix, which is
    joined back onto each suffix at the end.

    Steps are memoised for the duration of the call, keyed on (normalised
    configuration, symbol), so a machine whose live runs keep a bounded delay
    revisits a few configurations and pays one dict lookup per symbol: the
    call is linear in the lengths of the input and the output.  The memo is
    dropped whenever the pairs and characters of the configurations it stores
    exceed ``len(inp)``, so on a machine whose delay grows without bound it
    always misses but keeps memory at O(|input| + |output|).

    Raises ``AlphabetError`` naming the first symbol of ``inp`` outside the
    input alphabet, even where the runs have already died before it.
    """
    if not t.input_alphabet.issuperset(inp):
        bad = next(sym for sym in inp if sym not in t.input_alphabet)
        raise AlphabetError(f"symbol {bad!r} not in input alphabet")
    adj = t._adjacency()
    emitted = []
    conf = frozenset({(t.initial, "")})
    memo: dict = {}
    held = 0
    for sym in inp:
        step = memo.get((conf, sym))
        if step is None:
            nxt = set()
            for state, pending in conf:
                for dst, out in adj.get(state, {}).get(sym, ()):
                    nxt.add((dst, pending + out))
            if not nxt:
                return frozenset()
            suffixes = [pending for _, pending in nxt]
            chunk = lcp(suffixes)
            if chunk:
                k = len(chunk)
                nxt = {(state, pending[k:]) for state, pending in nxt}
            if held > len(inp):
                memo.clear()
                held = 0
            held += len(suffixes) + sum(map(len, suffixes))
            step = memo[conf, sym] = (chunk, frozenset(nxt))
        chunk, conf = step
        if chunk:
            emitted.append(chunk)
    prefix = "".join(emitted)
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


def renumber(t: Transducer, order: Optional[list[int]] = None) -> Transducer:
    """Relabel states as 0..n-1 following ``order`` (default: sorted ids)."""
    if order is None:
        order = sorted(t.states)
    mapping = {q: i for i, q in enumerate(order)}
    return Transducer(
        range(len(order)),
        t.input_alphabet,
        t.output_alphabet,
        mapping[t.initial],
        [mapping[q] for q in t.accepting],
        [(mapping[a.src], a.symbol, mapping[a.dst], a.out) for a in t.transitions],
    )
