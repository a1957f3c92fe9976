"""Ambiguity detection on (possibly merge-aliased) transducers.

The search walks unordered state pairs of the machine squared with itself
(Béal, Carton, Prieur & Sakarovitch, "Squaring transducers", 2003).
Pending merges are kept in a class map, from each state to its class's least
member, and consulted when transitions are expanded, so states identified by
a merge are interchangeable without rewriting the machine.  Two kinds of
witness event are collected: a pair of distinct same-symbol edges
reconverging on one state class, and a reachable pair of two distinct
accepting classes.

``QuotientView`` keeps each class's sorted edge list and its acceptance up to
date, and reads the raw transitions into a class through its members.  Every
class has an edge list from the moment the view opens.  A union joins the
lists of the two classes into the surviving one's and marks it stale, along
with the list of every class with an edge into the one folded away; a stale
list is re-keyed to the current classes when it is next read.  A batch of
output writes, which only a push-back makes, rewrites the entries of each
written edge's source class in place and leaves its stale mark as it is: a
push-back keeps every list's order and fused groups (see below).  Unions and
output writes go only through the view's ``union`` and ``set_outs``, so no
list outlives the facts it was built from, and the view can undo them all
(``QuotientView.rollback``), so one view serves a learner's every merge
attempt.

The search is breadth-first and runs on the fly (Allauzen & Mohri,
"Efficient algorithms for testing the twins property", 2003): pairs are
expanded in the order they were discovered, and an expansion pauses after each
step that appends an event, so a caller that wants one witness pays only for
the steps before it.  The pause matters because a merge attempt mostly wants
the next witness, not the whole search: running each expansion to its end
learns the same machines, but on the benchmark's ``learn_ladder`` workload
(2-CPU host, Python 3.11) it raised the median operation time from 14.3 to
30.1 ms and the work time from 0.25 to 0.42 s.  A union keeps the part of the
search that a search restarted from the root pair would repeat exactly, and
cuts the rest.

Why the kept part is exact.  An expansion reads the edges of its pair's two
classes (symbol, destination class and representative raw key, never the
output), whether each child pair is already reached, and the acceptance of a
child's classes when it is discovered.  A union changes the edge lists of the
two classes and of every class with an edge into the folded-away one, and, if
only the folded-away class accepted, the acceptance of the surviving one,
which is read only by an expansion that follows an edge into it.
``QuotientView.union`` returns all of these classes: the ones whose lists
change, and, on a gain of acceptance, the ones with an edge into the
survivor.  Until the earliest expansion of a pair that holds one of them, a
restarted search reads the same facts in the same order: it discovers the
same pairs with the same back-pointers and appends the same events.  None of
those pairs holds the folded-away class, since only an expansion that follows
an edge into it can discover one.  ``merge_update`` cuts the search back to
that expansion, and the events are read again from the first, as after a
restart.  A push-back needs no cut: it only runs when its target class has
one incoming quotient edge, so the edge it rewrites is the only one of its
class with that symbol and destination, and it prepends one string to every
output leaving the target, which keeps any two of those outputs equal or in
the order they were.  Neither changes the order of an edge list, which edges
it folds together, or their representative raw keys: every raw key into the
target stands for the one edge it rewrites and takes one output, and every
member arc out of the target takes the same prefix.

Why a kept reconverge event still holds two quotient edges.  Its two edges
are distinct entries of the edge lists of its pair's classes, with one symbol
and one destination class, so they leave different classes or differ in
output.  A union cuts every event of an expansion whose pair holds a merged
class, so the classes a kept event's edges leave stay as they were.  A
push-back rewrites only the edges into and out of its target, and it is
refused when the target has two incoming quotient edges, as the event's
destination class has; otherwise it prepends one string to every output
leaving the target, which keeps two different outputs of one class different.
So a witness built from a kept event is never one quotient path;
``merge.unify_paths`` raises ``InvariantError`` on one.

Why the back-pointers stay a tree.  Every kept pair is canonical in the
current view, and its back-pointer points to the pair whose expansion
discovered it, which has a smaller index in discovery order.  A walk up from
any pair therefore reaches the root pair.  A witness is rebuilt along that
tree as the two sides' raw keys; a caller reads classes and outputs through
the view when it uses them, so push-backs applied after discovery are
reflected faithfully.

Why a session's witness can start at the fork.  The fork of a witness is the
first step of its walk down from the root pair whose two raw keys differ;
every step before it takes one raw key twice, from a diagonal pair.  Every
witness has a fork, since its last step takes two distinct edges.
``next_witness`` drops the steps before the fork, which on the learner's
workloads are most of a witness, and ``merge.unify_paths`` would do nothing
at any of them: the two sides leave and reach the same classes with the same
output, so no push-back is made, no pair is queued, the root-asymmetry check
cannot fire, and the position is already one quotient path.  Its other
decisions compare a position only with the last one, which the shorter
witness keeps, so every union and push-back it makes is the same.
``find_ambiguity`` keeps the whole walk, since its paths must read a whole
accepted input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Path, Transducer, Transition
from .errors import InvariantError

RawKey = tuple  # (src, symbol, dst) of the underlying machine


class QuotientView:
    """The machine seen through an alias map and one output table.

    The base transducer is never mutated.  ``outs`` maps every raw (src,
    symbol, dst) key to its current output, the base machine's until a
    push-back rewrites it, so ``out`` is one lookup.  ``parent`` maps every
    state to its class's representative, the class's least member, so
    ``find`` is one lookup too, and ``members`` maps each representative to
    its class's states.  ``union`` re-points the states of the class it folds,
    the list it moves into the survivor's ``members``.  ``incoming_keys``
    reads the raw keys entering a class through ``members``, from an index of
    the keys entering each state that is built once from the base machine and
    never changes.  It answers ``incoming_edges`` and gives a push-back the
    raw keys it rewrites; ``union`` reads the index the same way, inline on
    its hot path, to find the classes it marks stale.  Every change goes
    through ``union`` or ``set_outs``, which keep two per-class facts current
    instead of recomputing them on each call:

    - the sorted edge list of ``edges_from``.  Every class has one: a state's
      starts as its run of the base machine's sorted transitions, read in the
      pass that builds ``outs`` and the index of entering keys.  ``union``
      joins the lists of the two classes into the survivor's and marks it
      stale, along with the list of every class with an edge into the dropped
      one.  A read re-keys a stale list: it maps each destination to its
      class, keeps the least raw key of each group of equal edges, and sorts.
      A union never changes an output, and the least key of a merged group is
      the least of the groups' least keys, so this equals a build from the
      members.  ``set_outs`` writes the new outputs into the entries of each
      written class's list, once per call, and leaves its stale mark as it is:
      a push-back's writes keep every group of equal edges equal, so the key
      that stands for a group still does, and keep each sorted list in order.
    - the set of accepting classes, updated by ``union``.

    Rollback.  ``rollback`` returns the view to its state when it was built
    or last called ``keep`` or ``rollback``; ``keep`` makes the changes since
    then permanent.  For this the view saves, before the first change since
    then to each class's facts, five fields: the class's edge list and stale
    mark, its ``members`` list and that list's length, and whether it
    accepts; ``set_outs`` saves the output each key had before its first
    write, which ``rollback`` writes back into ``outs``.  Between two calls a
    member list only grows in place, so its saved length restores it.
    ``union`` finds the classes it changes before it changes any, and saves
    them first.
    A folded class's restored member list names every state that a union
    re-pointed away from it, so ``rollback`` re-points those lists; a state
    of a class that survived was never re-pointed.  A class whose list a
    union only marks stale is saved too, with its stale mark: a re-key under
    the union can fuse two of its entries.  A stale list of a class that no
    change touched can be re-keyed before a rollback: it has no edge into a
    folded class, so it reads as it would after.  The saved state grows with
    the classes changed, not with the unions: a long cascade holds one old
    edge list per class, and ``changed`` names the surviving ones.
    """

    __slots__ = (
        "base", "parent", "members", "find", "outs", "out", "_into",
        "_edges", "_stale", "_accepting", "_saved", "_saved_out")

    def __init__(self, base: Transducer):
        self.base = base
        self.parent = {q: q for q in base.states}
        self.members = {q: [q] for q in base.states}
        self.find = self.parent.__getitem__
        self.outs: dict[RawKey, str] = {}
        self.out = self.outs.__getitem__
        self._into: dict[int, list[RawKey]] = {q: [] for q in base.states}
        runs: dict[int, list[tuple]] = {q: [] for q in base.states}
        for src, sym, dst, out in base.transitions:
            key = (src, sym, dst)
            self.outs[key] = out
            self._into[dst].append(key)
            runs[src].append((sym, dst, out, key))
        self._edges: dict[int, Sequence[tuple]] = {q: tuple(run) for q, run in runs.items()}
        self._stale: set[int] = set()
        self._accepting = set(base.accepting)
        self._saved: dict[int, tuple] = {}
        self._saved_out: dict[RawKey, str] = {}

    def _save(self, cls: int) -> None:
        members = self.members[cls]
        self._saved[cls] = (self._edges[cls], cls in self._stale,
                            members, len(members), cls in self._accepting)

    def union(self, a: int, b: int) -> set[int]:
        """Merge the classes of ``a`` and ``b``.  Returns the classes whose
        edge lists this changes and, if the survivor has just become
        accepting, the classes with an edge into it (none if ``a`` and ``b``
        were one class already)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return set()
        keep, drop = (ra, rb) if ra < rb else (rb, ra)
        find, edges, into = self.find, self._edges, self._into
        touched = {keep, drop, *(find(key[0]) for q in self.members[drop] for key in into[q])}
        for cls in touched:
            if cls not in self._saved:
                self._save(cls)
        folded = self.members.pop(drop)
        for q in folded:
            self.parent[q] = keep
        self.members[keep] += folded
        edges[keep] = [*edges[keep], *edges.pop(drop)]
        self._stale |= touched
        self._stale.discard(drop)
        if drop in self._accepting:
            self._accepting.discard(drop)
            if keep not in self._accepting:
                self._accepting.add(keep)
                touched.update(find(src) for src, _, _ in self.incoming_keys(keep))
        return touched

    def set_outs(self, writes: dict[RawKey, str]) -> None:
        """Record new outputs for raw transitions, then write them into the
        entries of each written class's edge list once.

        Precondition: the writes keep equal edges equal and unequal ones
        unequal, and each sorted list in order.  A push-back's writes meet
        it (see the module docstring); then a sorted list stays sorted and
        fused, a stale list stays stale, and every raw key that a list
        fused away takes the output of the entry that stands for it."""
        outs, saved_out, edges = self.outs, self._saved_out, self._edges
        for key, out in writes.items():
            saved_out.setdefault(key, outs[key])
            outs[key] = out
        for cls in {self.find(key[0]) for key in writes}:
            if cls not in self._saved:
                self._save(cls)
            edges[cls] = tuple((sym, dst, outs[key], key) for sym, dst, _, key in edges[cls])

    def changed(self) -> list[int]:
        """The surviving classes changed since the last ``keep`` or ``rollback``."""
        return [cls for cls in self._saved if cls in self.members]

    def keep(self) -> None:
        """Make every change since the last ``keep`` or ``rollback``
        permanent."""
        self._saved.clear()
        self._saved_out.clear()

    def rollback(self) -> None:
        """Undo every change since the last ``keep`` or ``rollback``."""
        self.outs.update(self._saved_out)
        parent, members = self.parent, self.members
        stale, accepting = self._stale, self._accepting
        for cls, (edges, was_stale, mine, n_mine, accepts) in self._saved.items():
            self._edges[cls] = edges
            (stale.add if was_stale else stale.discard)(cls)
            del mine[n_mine:]
            if cls not in members:
                for q in mine:
                    parent[q] = cls
            members[cls] = mine
            (accepting.add if accepts else accepting.discard)(cls)
        self.keep()

    def class_accepting(self, cls: int) -> bool:
        return cls in self._accepting

    def edges_from(self, cls: int) -> tuple[tuple[str, int, str, RawKey], ...]:
        """Distinct quotient edges (symbol, dst class, output, representative
        raw key) leaving a class, sorted."""
        edges = self._edges[cls]
        if cls in self._stale:
            self._stale.remove(cls)
            find = self.find
            seen: dict[tuple[str, int, str], RawKey] = {}
            for sym, dst, out, key in edges:
                edge = (sym, find(dst), out)
                if edge not in seen or key < seen[edge]:
                    seen[edge] = key
            edges = self._edges[cls] = tuple(sorted(e + (k,) for e, k in seen.items()))
        return edges

    def incoming_keys(self, cls: int) -> list[RawKey]:
        """The raw keys entering a class: those entering each of its members."""
        into = self._into
        return [key for q in self.members[cls] for key in into[q]]

    def incoming_edges(self, cls: int) -> set[tuple[int, str, str]]:
        """Distinct quotient edges (src class, symbol, output) entering a class."""
        return {(self.find(key[0]), key[1], self.out(key)) for key in self.incoming_keys(cls)}

    def initial_class(self) -> int:
        return self.find(self.base.initial)

    def materialize(self) -> Transducer:
        """Collapse aliases and current outputs into a fresh transducer."""
        classes = sorted(self.members)
        transitions = []
        for cls in classes:
            for sym, dst, out, _ in self.edges_from(cls):
                transitions.append((cls, sym, dst, out))
        accepting = [cls for cls in classes if self.class_accepting(cls)]
        return Transducer(
            classes,
            self.base.input_alphabet,
            self.base.output_alphabet,
            self.initial_class(),
            accepting,
            transitions,
        )


@dataclass(frozen=True)
class AmbiguousPathPair:
    """Two distinct same-input transition sequences from the initial state."""

    path_a: Path
    path_b: Path

    def __post_init__(self):
        if self.path_a.input_word != self.path_b.input_word:
            raise InvariantError("witness paths read different inputs")
        if self.path_a.transitions == self.path_b.transitions:
            raise InvariantError("witness paths are identical")


class PairSearchState:
    """Reachable unordered class pairs of the squared machine and pending
    witness events.

    ``reached`` maps each pair to its back-pointer: (parent pair, raw key of
    the edge from the parent's first class, raw key of the edge from its
    second), or None for the root pair; a raw key holds its symbol.  A
    reconverge event is ("reconverge", pair, raw key, raw key), a
    back-pointer's fields after its tag, and an accept event is ("accept",
    pair).  Pairs are expanded in the order they were discovered, so the
    k-th expansion is of the k-th key of ``reached``; ``_marks[k]`` holds
    the sizes of ``reached`` and ``events`` when it started.  An expansion
    pauses after each step that appends an event and is resumed when more
    events are needed.

    Invariant: ``reached`` and ``events`` are prefixes of those of a search
    of the current view started from the root pair and explored to the end,
    and the expansions started are the first ``len(_marks)`` of that search.
    A union breaks it only from the first expansion that reads a fact the
    union changed, so ``merge_update`` cuts the search back to there (see the
    module docstring).  Every back-pointer of a kept pair points to a pair
    with a smaller index, so the back-pointers form a tree and a walk up from
    any pair reaches the root in at most ``len(reached)`` steps.
    """

    def __init__(self, view: QuotientView):
        self.view = view
        self._restart()

    def _restart(self) -> None:
        root = (self.view.initial_class(),) * 2
        self.reached: dict[tuple[int, int], Optional[tuple]] = {root: None}
        self.events: list[tuple] = []
        self._cursor = 0
        self._keys = [root]  # the keys of ``reached``, by index
        self._first = {root[0]: 0}  # class -> index of the first pair holding it
        self._marks: list[tuple[int, int]] = []
        self._paused = None  # the started expansion, until it has run out

    # -- exploration ------------------------------------------------------

    def expand_one(self) -> None:
        """Start expanding the next discovered pair; run it to its first
        event."""
        pair = self._keys[len(self._marks)]
        self._marks.append((len(self._keys), len(self.events)))
        steps = self._expansion(pair)
        self._paused = steps if next(steps, False) else None

    def _advance(self) -> bool:
        """Run the search on to its next event or to the end of a pair's
        expansion; False when it is explored to the end."""
        if self._paused is not None:
            if not next(self._paused, False):
                self._paused = None
        elif len(self._marks) < len(self._keys):
            self.expand_one()
        else:
            return False
        return True

    def _expansion(self, pair):
        """Every same-symbol edge pair of ``pair``'s classes, in edge order;
        yields True after each step that appended an event.

        Each edge of the first class scans the second class's list from its
        head (a self pair from the edge itself) and stops past its symbol.
        The lists hold a few edges each, and a merge-join that moves one
        index forward through the second list did not read faster: on the
        24 machines of a ``library`` pass (2-CPU host, Python 3.11) the
        exploration took 0.3 % longer with a slice per edge, and 7 to 19 %
        longer with index loops or ``islice``."""
        view, reached, events, keys, first = (
            self.view, self.reached, self.events, self._keys, self._first)
        accepting = view.class_accepting
        p, q = pair
        edges_p = view.edges_from(p)
        edges_q = edges_p if p == q else view.edges_from(q)
        for i, e1 in enumerate(edges_p):
            sym, d1, _, raw1 = e1
            # edges are sorted by symbol; a self pair takes each edge pair once
            for e2 in edges_p[i:] if p == q else edges_q:
                if e2[0] != sym:
                    if e2[0] > sym:
                        break
                    continue
                _, d2, _, raw2 = e2
                emitted = False
                if d1 == d2 and e2 != e1:
                    events.append(("reconverge", pair, raw1, raw2))
                    emitted = True
                child = (d1, d2) if d1 <= d2 else (d2, d1)
                if child not in reached:
                    reached[child] = (pair, raw1, raw2)
                    first.setdefault(d1, len(keys))
                    first.setdefault(d2, len(keys))
                    keys.append(child)
                    if d1 != d2 and accepting(d1) and accepting(d2):
                        events.append(("accept", child))
                        emitted = True
                if emitted:
                    yield True

    def explore(self) -> None:
        """Run the search to the end: finish the paused expansion, then start
        each later one and run it to its end in a plain loop, with no pause
        per event."""
        marks, keys = self._marks, self._keys
        while True:
            if self._paused is not None:
                for _ in self._paused:
                    pass
                self._paused = None
            if len(marks) == len(keys):
                return
            self.expand_one()

    def merge_update(self, a: int, b: int) -> None:
        """Merge the classes of ``a`` and ``b`` and cut the search back to the
        first expansion that reads a fact the union changed; exploration is
        resumed lazily (call ``explore`` or ``next_witness``)."""
        first = self._first
        touched = self.view.union(a, b)
        cut = min((first[c] for c in touched if c in first), default=len(self._keys))
        self._cursor = 0  # a restart reads every event again
        if cut == 0:
            self._restart()
        elif cut < len(self._marks):
            self._cut(cut)

    def _cut(self, k: int) -> None:
        """Drop the k-th expansion and every later one, with what they
        discovered and the events they appended."""
        size, n_events = self._marks[k]
        reached, keys, first = self.reached, self._keys, self._first
        for index in range(len(keys) - 1, size - 1, -1):
            pair = keys[index]
            del reached[pair]
            for c in pair:
                if first.get(c) == index:
                    del first[c]
        del keys[size:]
        del self.events[n_events:]
        del self._marks[k:]
        self._paused = None

    # -- witness extraction -------------------------------------------------

    def _thread(self, step: tuple, whole: bool = False) -> tuple[list, list]:
        """The raw keys of the two sides of the walk down the back-pointer
        tree from the root pair that ends with ``step``, a back-pointer
        (parent pair, raw key, raw key).  Unless ``whole``, the walk
        starts at its fork: the leading steps that take one raw key on both
        sides are dropped."""
        steps = []
        reached = self.reached
        while step is not None:
            steps.append(step)
            step = reached[step[0]]
        if not whole:
            while steps[-1][1] == steps[-1][2]:
                steps.pop()
        find = self.view.find
        sa = find(steps[-1][1][0])  # the first step leaves one class twice
        side_a, side_b = [], []
        for _, raw1, raw2 in reversed(steps):
            if find(raw1[0]) != sa:
                raw1, raw2 = raw2, raw1
            side_a.append(raw1)
            side_b.append(raw2)
            sa = find(raw1[2])
        return side_a, side_b

    def _acceptance_extension(self, cls: int) -> Optional[list[RawKey]]:
        """The raw keys of a shortest quotient path from ``cls`` to an
        accepting class; breadth-first, ties by edge order."""
        view = self.view
        if view.class_accepting(cls):
            return []
        prev: dict[int, tuple] = {cls: None}
        queue = deque([cls])
        goal = None
        while queue and goal is None:
            cur = queue.popleft()
            for _, dst, _, raw in view.edges_from(cur):
                if dst in prev:
                    continue
                prev[dst] = (cur, raw)
                if view.class_accepting(dst):
                    goal = dst
                    break
                queue.append(dst)
        if goal is None:
            return None
        ext = []
        node = goal
        while prev[node] is not None:
            node, raw = prev[node]
            ext.append(raw)
        ext.reverse()
        return ext

    def _build_witness(self, event, whole: bool = False) -> Optional[tuple[list, list]]:
        if event[0] == "accept":
            return self._thread(self.reached[event[1]], whole)
        ext = self._acceptance_extension(self.view.find(event[2][2]))
        if ext is None:
            return None
        # (pair, raw key, raw key), a back-pointer: the step the event's edges take
        side_a, side_b = self._thread(event[1:], whole)
        return side_a + ext, side_b + ext

    def next_witness(self) -> Optional[tuple[list, list]]:
        """Consume events (expanding as needed) until a valid witness, as the
        raw keys of its two sides, or exhaustion.  The sides start where the
        two runs fork: at a common class that one raw path reaches from the
        initial class, not necessarily the initial class itself."""
        while True:
            while self._cursor < len(self.events):
                event = self.events[self._cursor]
                self._cursor += 1
                witness = self._build_witness(event)
                if witness is not None:
                    return witness
            if not self._advance():
                return None


def square_reach(t: Transducer) -> PairSearchState:
    """Fully explored pair search over ``t``, on a view with no merges."""
    st = PairSearchState(QuotientView(t))
    st.explore()
    return st


def find_ambiguity(t: Transducer, st: PairSearchState) -> Optional[AmbiguousPathPair]:
    """First valid witness of ambiguity in discovery order, if any.

    Explores ``st`` to the end first; the scan does not consume events and,
    like the search, only reads the view.
    """
    view = st.view

    def path(keys) -> Path:
        find = view.find
        return Path(tuple(Transition(find(k[0]), k[1], find(k[2]), view.out(k)) for k in keys))

    st.explore()
    for event in st.events:
        witness = st._build_witness(event, whole=True)
        if witness is not None:
            return AmbiguousPathPair(*map(path, witness))
    return None
