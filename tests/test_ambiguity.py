"""Squared-automaton reachability, witnesses, merge updates."""

import random
from collections import Counter

import pytest

from fstlearn.ambiguity import (
    AmbiguousPathPair,
    PairSearchState,
    QuotientView,
    find_ambiguity,
    square_reach,
)
from fstlearn.core import Path, Transducer, Transition, transduce, trim, validate
from fstlearn.errors import InvariantError
from fstlearn.infer import infer
from fstlearn.merge import open_session, push_back, run_session
from fstlearn.oracle import accepting_paths, check_ambiguous_up_to, words_up_to
from fstlearn.ptree import build_prefix_tree

from machines import random_machine
from reference import edges_by_scan, square_reach_after, square_reach_by_scan


def test_deterministic_chain_reaches_only_diagonal():
    t = Transducer(
        [0, 1, 2], "a", "x", 0, [2], [(0, "a", 1, "x"), (1, "a", 2, "x")]
    )
    st = square_reach(t)
    assert set(st.reached) == {(0, 0), (1, 1), (2, 2)}


def test_divergence_reaches_offdiagonal_pair():
    t = Transducer(
        [0, 1, 2], "a", "xy", 0, [1], [(0, "a", 1, "x"), (0, "a", 2, "y")]
    )
    st = square_reach(t)
    assert (1, 2) in st.reached


def test_aliases_let_pairs_jump():
    t = trim(Transducer(
        [0, 1, 2, 3, 4],
        "abc",
        "wxyz",
        0,
        [3, 4],
        [
            (0, "a", 1, "x"),
            (0, "b", 2, "y"),
            (1, "c", 3, "z"),
            (2, "c", 4, "w"),
        ],
    ))
    st = square_reach_after(t, [(1, 2)])
    assert (3, 4) in st.reached


def test_no_ambiguity_in_deterministic_machine():
    t = Transducer(
        [0, 1], "ab", "xy", 0, [0, 1], [(0, "a", 1, "x"), (1, "b", 0, "y")]
    )
    assert find_ambiguity(t, square_reach(t)) is None


def test_two_accepting_paths_witnessed():
    t = Transducer(
        [0, 1, 2], "a", "xy", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "y")]
    )
    w = find_ambiguity(t, square_reach(t))
    assert w is not None
    assert w.path_a.input_word == "a" == w.path_b.input_word
    ends = {w.path_a.transitions[-1].dst, w.path_b.transitions[-1].dst}
    assert ends == {1, 2}


def test_reconvergence_witnessed():
    t = Transducer(
        [0, 1, 2, 3],
        "ab",
        "wxyz",
        0,
        [3],
        [
            (0, "a", 1, "x"),
            (0, "a", 2, "y"),
            (1, "b", 3, "z"),
            (2, "b", 3, "w"),
        ],
    )
    w = find_ambiguity(t, square_reach(t))
    assert w is not None
    assert w.path_a.input_word == "ab" == w.path_b.input_word
    assert len(w.path_a.transitions) == 2


# Two runs of ab fork at 0 and meet again in 3, from which no accepting state
# is reached; 0 itself accepts.  The second machine adds two runs of ba that
# fork at 0 and meet in the accepting 6.
DEAD_RECONVERGENCE = [(0, "a", 1, "x"), (0, "a", 2, "y"), (1, "b", 3, "x"), (2, "b", 3, "y")]
LIVE_RECONVERGENCE = [(0, "b", 4, "x"), (0, "b", 5, "y"), (4, "a", 6, "x"), (5, "a", 6, "y")]


def test_a_reconvergence_that_reaches_no_accepting_class_is_no_witness():
    dead = Transducer(range(4), "ab", "xy", 0, [0], DEAD_RECONVERGENCE)
    mixed = Transducer(range(7), "ab", "xy", 0, [0, 6], DEAD_RECONVERGENCE + LIVE_RECONVERGENCE)
    assert validate(dead) == [] and validate(mixed) == []
    assert find_ambiguity(dead, square_reach(dead)) is None
    assert check_ambiguous_up_to(dead, 4).verdict
    # the scan passes over the dead event, which the search appends first
    st = square_reach(mixed)
    assert st.events == [
        ("reconverge", (1, 2), (1, "b", 3), (2, "b", 3)),
        ("reconverge", (4, 5), (4, "a", 6), (5, "a", 6)),
    ]
    w = find_ambiguity(mixed, st)
    assert w.path_a.input_word == "ba" == w.path_b.input_word
    assert {w.path_a.output_word, w.path_b.output_word} == {"xx", "yy"}
    assert check_ambiguous_up_to(mixed, 4).counterexample == ("ba", 2)


def test_witnesses_start_at_initial():
    rng = random.Random(43)
    found = 0
    while found < 20:
        t = random_machine(rng, max_states=5)
        w = find_ambiguity(t, square_reach(t))
        if w is None:
            continue
        found += 1
        assert w.path_a.transitions[0].src == t.initial
        assert w.path_b.transitions[0].src == t.initial
        assert w.path_a.input_word == w.path_b.input_word
        assert w.path_a.transitions != w.path_b.transitions


def test_merge_update_adds_sibling_pairs():
    # reached pair {0,0},{1,3}; merging 1 and 2 must surface {2,3} territory
    t = trim(Transducer(
        [0, 1, 2, 3, 4, 5],
        "abc",
        "wxyz",
        0,
        [4, 5],
        [
            (0, "a", 1, "x"),
            (0, "a", 3, "y"),
            (0, "b", 2, "z"),
            (1, "c", 4, "w"),
            (3, "c", 5, "w"),
            (2, "c", 5, "x"),
        ],
    ))
    st = square_reach(t)
    assert (1, 3) in st.reached
    st.merge_update(1, 2)
    st.explore()
    # 2 folded into 1, so the pair {1,3} now also explores 2's edges
    canon = {(min(a, b), max(a, b)) for a, b in st.reached}
    assert (4, 5) in canon


def test_merge_update_of_untouched_states_changes_nothing(monkeypatch):
    # The root's expansion pauses at the accept event of {1,2}.  Classes 4
    # and 5, and 3 and 4 with edges into 5, are held by no reached pair, so
    # the union cuts nothing: every reached pair, every event and the paused
    # expansion stay, and exploring on expands each pair once.
    t = Transducer(
        [0, 1, 2, 3, 4, 5],
        "ab",
        "xy",
        0,
        [1, 2, 5],
        [
            (0, "a", 1, "x"),
            (0, "a", 2, "y"),
            (1, "b", 3, "x"),
            (3, "b", 4, "x"),
            (4, "b", 5, "x"),
            (3, "a", 5, "y"),
        ],
    )
    expanded = []
    expand_one = PairSearchState.expand_one

    def counted(self):
        expanded.append(self._keys[len(self._marks)])
        expand_one(self)

    monkeypatch.setattr(PairSearchState, "expand_one", counted)
    st = PairSearchState(QuotientView(t))
    assert st.next_witness() is not None
    before = (list(st.reached.items()), list(st.events), list(st._marks), st._paused)
    assert before[0] == [((0, 0), None), ((1, 1), ((0, 0), (0, "a", 1), (0, "a", 1))),
                         ((1, 2), ((0, 0), (0, "a", 1), (0, "a", 2)))]
    st.merge_update(4, 5)
    assert (list(st.reached.items()), st.events, st._marks, st._paused) == before
    st.explore()
    assert len(expanded) == len(set(expanded)) == len(st.reached)
    assert list(st.reached.items()) == list(square_reach_after(t, [(4, 5)]).reached.items())


def _canonical_reached(st):
    find = st.view.find
    return {(min(find(a), find(b)), max(find(a), find(b))) for (a, b) in st.reached}


def test_incremental_equals_from_scratch_on_random_machines():
    rng = random.Random(47)
    for _ in range(40):
        t = random_machine(rng, max_states=8)
        states = sorted(t.states)
        if len(states) < 2:
            continue
        merges = []
        incremental = square_reach(t)
        for _ in range(rng.randint(1, 3)):
            a, b = rng.sample(states, 2)
            merges.append((a, b))
            incremental.merge_update(a, b)
            incremental.explore()
            scratch = square_reach_after(t, merges)
            assert _canonical_reached(incremental) == _canonical_reached(scratch)


def _scanned_incoming(view, cls):
    return {
        (view.find(tr.src), tr.symbol, view.out((tr.src, tr.symbol, tr.dst)))
        for tr in view.base.transitions
        if view.find(tr.dst) == cls
    }


def _samples_of(t, max_len):
    """``t``'s relation up to length ``max_len``, one output per input."""
    samples = {}
    for word in words_up_to(t.input_alphabet, max_len):
        outs = transduce(t, word)
        if outs:
            samples[word] = min(outs)
    return samples


def _view_after(base, unions, outs):
    """A view of ``base`` that makes ``unions`` and then writes ``outs``.

    No list of it has been read, so none has fused a group of equal edges:
    a list that a union marked stale holds every raw arc of its class, and
    any other is one state's run, sorted by symbol and destination alone.
    So any writes keep equal edges equal and each sorted list in order, as
    ``set_outs`` requires, and the view reads as one built from scratch."""
    view = QuotientView(base)
    for a, b in unions:
        view.union(a, b)
    view.set_outs(outs)
    return view


def _machine_and_its_tree(t):
    """``t``, and the prefix tree of its relation up to length 4: a cyclic
    base, and one where push-backs are legal."""
    tree, _ = build_prefix_tree(_samples_of(t, 4))
    return t, tree


def test_indexed_view_matches_a_fresh_view_under_unions_and_push_backs():
    # Every class's cached edges are compared after every step, so each later
    # union or push-back meets a full cache that it must keep current.  Random
    # machines give cyclic bases; prefix trees of their samples give bases
    # where push-backs are legal (one incoming edge, non-accepting target).
    rng = random.Random(59)
    pushed = 0
    for _ in range(30):
        t = random_machine(rng, max_states=6)
        for base in _machine_and_its_tree(t):
            states = sorted(base.states)
            session = open_session(QuotientView(base), states[0], states[0])
            view = session.view
            keys = [(tr.src, tr.symbol, tr.dst) for tr in base.transitions]
            unions = []
            for _ in range(10):
                if rng.random() < 0.3 and len(states) > 1:
                    a, b = rng.sample(states, 2)
                    view.union(a, b)
                    unions.append((a, b))
                else:
                    key = rng.choice(keys)
                    out = view.out(key)
                    if out:
                        pushed += push_back(session, key, out[rng.randrange(len(out)):])
                fresh = _view_after(base, unions, view.outs)
                for cls in sorted(view.members):
                    assert view.edges_from(cls) == fresh.edges_from(cls)
                    assert view.class_accepting(cls) == any(
                        q in base.accepting for q in view.members[cls]
                    )
                    assert view.incoming_edges(cls) == _scanned_incoming(view, cls)
    assert pushed >= 20


def test_cached_edges_match_a_scan_when_read_sparsely():
    # Only a random subset of classes is read between steps, so a stale list
    # can be joined again before it is re-keyed, and a push-back can write
    # into a stale list or into a group of equal edges that a re-key fused.
    # Every read and, at the end, every class must equal a scan of the base
    # machine's transitions.
    rng = random.Random(61)
    seen = Counter()
    for _ in range(60):
        t = random_machine(rng, max_states=7)
        for base in _machine_and_its_tree(t):
            states = sorted(base.states)
            session = open_session(QuotientView(base), states[0], states[0])
            view = session.view
            keys = [(tr.src, tr.symbol, tr.dst) for tr in base.transitions]
            for _ in range(12):
                step = rng.random()
                if step < 0.5 and len(states) > 1:
                    a, b = rng.sample(states, 2)
                    ra, rb = view.find(a), view.find(b)
                    if ra != rb:
                        seen["stale joined"] += ra in view._stale or rb in view._stale
                    view.union(a, b)
                else:
                    key = rng.choice(keys)
                    out = view.out(key)
                    if out:
                        seen["pushed"] += push_back(session, key, out[rng.randrange(len(out)):])
                classes = sorted(view.members)
                for cls in rng.sample(classes, rng.randrange(len(classes) // 2 + 1)):
                    seen["stale read"] += cls in view._stale
                    assert view.edges_from(cls) == edges_by_scan(view, cls)
            for cls in sorted(view.members):
                seen["stale read"] += cls in view._stale
                assert view.edges_from(cls) == edges_by_scan(view, cls)
    assert seen["stale joined"] >= 40
    assert seen["stale read"] >= 200
    assert seen["pushed"] >= 20


def _every_class(view):
    classes = sorted(view.members)
    return (
        [view.find(q) for q in sorted(view.base.states)],
        [view.edges_from(cls) for cls in classes],
        [view.incoming_edges(cls) for cls in classes],
        [view.class_accepting(cls) for cls in classes],
        view.members,
        view.outs,
    )


def test_rollback_returns_a_view_read_sparsely_to_its_last_keep():
    # Unions and push-backs with a random subset of classes read between
    # steps, so a change can meet a stale list; now and then the view keeps
    # or rolls back.  After a rollback every state and every class reads as
    # in a view that made only the kept changes.
    rng = random.Random(73)
    seen = Counter()
    for _ in range(80):
        t = random_machine(rng, max_states=7)
        for base in _machine_and_its_tree(t):
            states = sorted(base.states)
            session = open_session(QuotientView(base), states[0], states[0])
            view = session.view
            keys = [(tr.src, tr.symbol, tr.dst) for tr in base.transitions]
            kept, unions, kept_outs = [], [], {}
            for _ in range(24):
                step = rng.random()
                if step < 0.4 and len(states) > 1:
                    a, b = rng.sample(states, 2)
                    view.union(a, b)
                    unions.append((a, b))
                elif step < 0.75:
                    key = rng.choice(keys)
                    out = view.out(key)
                    if out:
                        push_back(session, key, out[rng.randrange(len(out)):])
                elif step < 0.85:
                    view.keep()
                    kept += unions
                    unions, kept_outs = [], dict(view.outs)
                else:
                    seen["stale saved"] += sum(state[1] for state in view._saved.values())
                    seen["rollbacks"] += bool(unions)
                    view.rollback()
                    unions = []
                    assert _every_class(view) == _every_class(_view_after(base, kept, kept_outs))
                classes = sorted(view.members)
                for cls in rng.sample(classes, rng.randrange(len(classes) // 3 + 1)):
                    view.edges_from(cls)
    assert seen["rollbacks"] >= 250
    assert seen["stale saved"] >= 50


def _fresh_search(base, unions, outs):
    st = PairSearchState(_view_after(base, unions, outs))
    st.explore()
    return st


def test_merge_update_keeps_an_exact_prefix_of_a_fresh_search():
    # Random witness reads, unions and push-backs on one session.  After each
    # step the search must be a prefix, in order and with the same
    # back-pointers and events, of a fresh search of the same view explored to
    # the end; push-backs change outputs only, which the search never reads.
    rng = random.Random(67)
    outcomes = Counter()
    for _ in range(40):
        t = random_machine(rng, max_states=6)
        for base in _machine_and_its_tree(t):
            states = sorted(base.states)
            session = open_session(QuotientView(base), states[0], states[0])
            st, view = session.search, session.view
            keys = [(tr.src, tr.symbol, tr.dst) for tr in base.transitions]
            unions = []
            for _ in range(12):
                for _ in range(rng.randrange(4)):
                    st.next_witness()
                if rng.random() < 0.6 and len(states) > 1:
                    a, b = rng.sample(states, 2)
                    started = len(st._marks) if view.find(a) != view.find(b) else 0
                    st.merge_update(a, b)
                    unions.append((a, b))
                    if started:
                        kept = len(st._marks)
                        outcomes["restart" if kept == 0 else "kept" if kept == started else "cut"] += 1
                else:
                    key = rng.choice(keys)
                    out = view.out(key)
                    if out:
                        outcomes["pushed"] += push_back(session, key, out[rng.randrange(len(out)):])
                fresh = _fresh_search(base, unions, view.outs)
                reached = list(st.reached.items())
                assert reached == list(fresh.reached.items())[: len(reached)]
                assert st.events == fresh.events[: len(st.events)]
    assert outcomes["restart"] >= 70
    assert outcomes["cut"] >= 70
    assert outcomes["kept"] >= 30
    assert outcomes["pushed"] >= 20


def test_pair_search_reads_edge_pairs_in_product_scan_order():
    """The search, with its paused expansions, reaches the pairs of a plain
    product scan, in its order and with its back-pointers, and appends its
    events; on machines over three symbols where some classes lack some
    symbols, with and without unions.  A faster scan of the edge lists must
    keep this order."""
    rng = random.Random(71)
    skipped = self_pairs = 0
    for _ in range(80):
        t = random_machine(rng, max_states=7, sigma="abc")
        states = sorted(t.states)
        unions = [tuple(rng.sample(states, 2)) for _ in range(rng.randint(1, 3))
                  if len(states) > 1]
        for st in (square_reach(t), square_reach_after(t, unions)):
            reached, events = square_reach_by_scan(st.view)
            assert list(st.reached.items()) == list(reached.items())
            assert st.events == events
            for p, q in st.reached:
                syms_p = {e[0] for e in st.view.edges_from(p)}
                syms_q = {e[0] for e in st.view.edges_from(q)}
                skipped += p != q and any(s < max(syms_p, default="") for s in syms_q - syms_p)
                self_pairs += p == q and len(st.view.edges_from(p)) > len(syms_p)
    # the second class has an edge on a symbol the first lacks, below one it
    # has, which a scan must skip; a self pair has two edges on one symbol
    assert skipped >= 100
    assert self_pairs >= 100


def brute_force_ambiguous(t: Transducer, max_len: int) -> bool:
    return any(
        len(accepting_paths(t, w)) > 1 for w in words_up_to(t.input_alphabet, max_len)
    )


def test_oracle_agreement_on_random_machines():
    rng = random.Random(53)
    agree = 0
    for _ in range(100):
        t = random_machine(rng, max_states=5)
        verdict = find_ambiguity(t, square_reach(t)) is None
        brute = not brute_force_ambiguous(t, 2 * len(t.states))
        assert verdict == brute, t
        agree += 1
    assert agree == 100


def test_witness_with_identical_paths_is_an_invariant_error():
    path = Path((Transition(0, "a", 1, "x"),))
    with pytest.raises(InvariantError):
        AmbiguousPathPair(path, path)


def test_witness_paths_of_different_inputs_are_an_invariant_error():
    with pytest.raises(InvariantError, match="different inputs"):
        AmbiguousPathPair(Path((Transition(0, "a", 1, "x"),)), Path((Transition(0, "b", 1, "x"),)))


def _quotient_path(view, keys):
    return Path(tuple(
        Transition(view.find(k[0]), k[1], view.find(k[2]), view.out(k)) for k in keys))


def _from_the_fork(witness):
    """A witness without its longest leading run of equal raw keys."""
    raw_a, raw_b = witness
    k = 0
    while k < len(raw_a) and raw_a[k] == raw_b[k]:
        k += 1
    return raw_a[k:], raw_b[k:]


def _whole_witness(st):
    """The witness of the event ``next_witness`` consumed last, walked from
    the root pair."""
    return st._build_witness(st.events[st._cursor - 1], whole=True)


def test_session_witnesses_are_two_raw_paths_of_one_accepted_input(monkeypatch):
    # Every witness a session's search hands out, after the unions and
    # push-backs that earlier witnesses caused, is the part from the fork of
    # a whole witness: two sequences of raw keys that read one input, each
    # chaining from the initial class to an accepting class through the view,
    # and not one quotient path.
    next_witness = PairSearchState.next_witness
    seen = Counter()

    def checked(self):
        witness = next_witness(self)
        if witness is not None:
            view = self.view
            whole = _whole_witness(self)
            raw_a, raw_b = whole
            assert [k[1] for k in raw_a] == [k[1] for k in raw_b]
            for side in whole:
                cls = view.initial_class()
                for key in side:
                    assert key in view.outs  # a transition of the base
                    assert view.find(key[0]) == cls
                    cls = view.find(key[2])
                assert view.class_accepting(cls)
            assert _quotient_path(view, raw_a) != _quotient_path(view, raw_b)
            assert witness == _from_the_fork(whole)
            seen["witnesses"] += 1
            seen["from a fork past the root"] += len(witness[0]) < len(raw_a)
            seen["from the root pair"] += len(witness[0]) == len(raw_a)
            seen["after a push-back"] += any(
                view.out(tr[:3]) != tr.out for tr in view.base.transitions)
        return witness

    monkeypatch.setattr(PairSearchState, "next_witness", checked)
    rng = random.Random(67)
    for _ in range(30):
        t = random_machine(rng, max_states=6)
        states = sorted(t.states)
        before = seen["witnesses"]
        for _ in range(4):
            a, b = sorted(rng.sample(states, 2)) if len(states) > 1 else (states[0],) * 2
            run_session(open_session(QuotientView(t), a, b))
        seen["on a cyclic base"] += seen["witnesses"] - before
        infer(_samples_of(t, 5).items())  # the learner's sessions on a prefix tree
    assert seen["witnesses"] >= 5000
    assert seen["on a cyclic base"] >= 100
    assert seen["after a push-back"] >= 25
    assert seen["from a fork past the root"] >= 3000
    assert seen["from the root pair"] >= 1000


def test_first_witness_mapped_through_the_view_is_find_ambiguitys():
    rng = random.Random(71)
    ambiguous = 0
    for _ in range(60):
        t = random_machine(rng, max_states=6)
        states = sorted(t.states)
        aliases = [tuple(rng.sample(states, 2)) for _ in range(rng.randint(0, 2))
                   if len(states) > 1]
        st = square_reach_after(t, aliases)
        expected = find_ambiguity(t, st)
        witness = st.next_witness()
        if expected is None:
            assert witness is None
            continue
        ambiguous += 1
        whole = _whole_witness(st)
        assert AmbiguousPathPair(*(_quotient_path(st.view, side) for side in whole)) == expected
        assert witness == _from_the_fork(whole)
    assert ambiguous >= 20
