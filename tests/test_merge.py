"""Merge sessions: unification, push-backs, rollback, commitment."""

import importlib
import random
from collections import Counter

import pytest

from fstlearn.ambiguity import PairSearchState, QuotientView
from fstlearn.core import Transducer, transduce, trim
from fstlearn.errors import InvariantError, ToolkitError
from fstlearn.infer import infer, split_epsilon, state_order
from fstlearn.merge import (
    OUTPUT_CONFLICT,
    ROOT_ASYMMETRY,
    commit,
    open_session,
    push_back,
    run_session,
    try_merge,
    unify_paths,
)
from fstlearn.oracle import generate_informant, words_up_to
from fstlearn.ptree import build_prefix_tree

from machines import BATTERY, random_machine, random_mostly_deterministic
from reference import edges_by_scan, explore

merge_module = importlib.import_module("fstlearn.merge")


def tree_of(pairs):
    return build_prefix_tree(dict(pairs))


def merged_machine(h, a, b, trace=None):
    """The hypothesis after merging ``a`` and ``b`` on a view of ``h``, or
    None when the merge is rejected."""
    view = QuotientView(h)
    return None if try_merge(view, a, b, trace=trace) is None else view.materialize()


def test_merge_conflicting_outputs_fails():
    tree, _ = tree_of([("a", "x"), ("aa", "y")])
    assert merged_machine(tree, 0, 1) is None


def test_merge_loop_succeeds():
    tree, _ = tree_of([("a", "x"), ("aa", "xx"), ("aaa", "xxx")])
    merged = merged_machine(tree, 0, 1)
    assert merged is not None
    assert len(merged.states) == 1
    assert merged.accepting == {0}
    for n in range(1, 5):
        assert transduce(merged, "a" * n) == {"x" * n}


def test_merge_of_compatible_disjoint_states():
    # two leaves with empty residual conflicts merge without push-backs
    tree, _ = tree_of([("a", "x"), ("b", "y")])
    trace = []
    merged = merged_machine(tree, 1, 2, trace=trace.append)
    assert merged is not None
    assert len(trace) == 1
    assert trace[-1]["kind"] == "merge_committed"
    assert trace[-1]["push_backs"] == 0
    assert transduce(merged, "a") == {"x"}
    assert transduce(merged, "b") == {"y"}


def test_failed_merge_leaves_hypothesis_untouched():
    tree, _ = tree_of([("a", "x"), ("aa", "y")])
    snapshot = (tree.states, tree.transitions, tree.accepting)
    view = QuotientView(tree)
    assert try_merge(view, 0, 1) is None
    assert (tree.states, tree.transitions, tree.accepting) == snapshot
    assert view.materialize() == tree


def test_committed_merges_preserve_accepted_inputs():
    for name, target, m in BATTERY[:4]:
        informant = generate_informant(trim(target), 2 * m)
        tree, _ = build_prefix_tree(dict(informant))
        max_len = max(len(i) for i, _ in informant)
        order = sorted(tree.states)
        view = QuotientView(tree)
        h = tree
        committed = 0
        for outer in order:
            if outer not in h.states or outer == h.initial:
                continue
            for inner in order:
                if inner >= outer:
                    break
                if inner not in h.states:
                    continue
                if try_merge(view, inner, outer) is not None:
                    merged = view.materialize()
                    for word in words_up_to(h.input_alphabet, max_len + 2):
                        before = transduce(h, word)
                        if before:
                            assert transduce(merged, word) == before
                    h = merged
                    committed += 1
                    break
        assert committed > 0


def test_committed_merge_strictly_shrinks_state_count():
    tree, _ = tree_of([("a", "x"), ("aa", "xx"), ("aaa", "xxx")])
    merged = merged_machine(tree, 0, 1)
    assert merged is not None
    assert len(merged.states) < len(tree.states)


# -- unify_paths on hand-crafted witnesses -----------------------------------


def _session_for(machine, a, b):
    session = open_session(QuotientView(machine), a, b)
    # apply the root union the way run_session would
    x, y = session.pending.popleft()
    session.search.merge_update(min(x, y), max(x, y))
    return session


def test_unify_pushes_suffix_back():
    # two parallel arms; outputs ("xy", "z") vs ("x", "yz") unify by moving
    # "y" one edge down on the first arm
    t = Transducer(
        [0, 1, 2, 3, 4],
        "ab",
        "xyz",
        0,
        [3, 4],
        [
            (0, "a", 1, "xy"),
            (1, "b", 3, "z"),
            (0, "a", 2, "x"),
            (2, "b", 4, "yz"),
        ],
    )
    session = _session_for(t, 3, 4)
    assert unify_paths(session, [(0, "a", 1), (1, "b", 3)], [(0, "a", 2), (2, "b", 4)])
    view = session.view
    assert view.out((0, "a", 1)) == "x"
    assert view.out((1, "b", 3)) == "yz"
    assert list(session.pending) == [(1, 2)]


def test_unify_total_output_conflict():
    t = Transducer(
        [0, 1, 2], "a", "xyz", 0, [1, 2], [(0, "a", 1, "xy"), (0, "a", 2, "xz")]
    )
    session = _session_for(t, 1, 2)
    assert not unify_paths(session, [(0, "a", 1)], [(0, "a", 2)])
    assert session.failure == OUTPUT_CONFLICT


def test_unify_root_asymmetry():
    # interior position pairs one merged state with an unrelated state
    t = trim(Transducer(
        [0, 1, 2, 3, 4],
        "ab",
        "xyz",
        0,
        [3, 4],
        [
            (0, "a", 1, "x"),
            (0, "a", 2, "x"),
            (1, "b", 3, "y"),
            (2, "b", 4, "y"),
        ],
    ))
    session = _session_for(t, 0, 1)  # root pair is (0, 1)
    assert not unify_paths(session, [(0, "a", 1), (1, "b", 3)], [(0, "a", 2), (2, "b", 4)])
    assert session.failure == ROOT_ASYMMETRY


@pytest.mark.parametrize(
    "raw_a, raw_b",
    [
        ([(0, "a", 1), (1, "b", 3)], [(0, "a", 1), (1, "b", 3)]),  # identical
        ([(0, "a", 1)], [(0, "a", 2)]),  # distinct keys, one quotient edge
        ([(0, "a", 1), (1, "b", 3)], [(0, "a", 2), (2, "c", 4)]),  # symbols differ
        ([(0, "a", 1), (1, "b", 3)], [(0, "a", 2)]),  # lengths differ
    ],
    ids=["identical", "one-quotient-path", "other-symbols", "other-length"],
)
def test_unify_refuses_a_pair_that_is_no_witness(raw_a, raw_b):
    t = Transducer(
        [0, 1, 2, 3, 4],
        "abc",
        "x",
        0,
        [3, 4],
        [(0, "a", 1, "x"), (0, "a", 2, "x"), (1, "b", 3, "x"), (2, "c", 4, "x")],
    )
    session = _session_for(t, 1, 2)
    with pytest.raises(InvariantError):
        unify_paths(session, raw_a, raw_b)


def test_pushback_simple():
    t = Transducer(
        [0, 1, 2], "ab", "xyz", 0, [2], [(0, "a", 1, "xy"), (1, "b", 2, "z")]
    )
    session = open_session(QuotientView(t), 0, 0)
    session.pending.clear()
    assert push_back(session, (0, "a", 1), "y")
    assert session.view.out((0, "a", 1)) == "x"
    assert session.view.out((1, "b", 2)) == "yz"
    assert session.push_backs == 1


def test_pushback_of_a_suffix_the_output_lacks_is_an_invariant_error():
    t = Transducer([0, 1, 2], "ab", "xyz", 0, [2], [(0, "a", 1, "xy"), (1, "b", 2, "z")])
    session = open_session(QuotientView(t), 0, 0)
    session.pending.clear()
    with pytest.raises(InvariantError, match="push-back of 'x' off output 'xy'"):
        push_back(session, (0, "a", 1), "x")
    assert session.view.out((0, "a", 1)) == "xy" and session.push_backs == 0


def test_pushback_empty_suffix_is_noop():
    t = Transducer([0, 1], "a", "x", 0, [1], [(0, "a", 1, "x")])
    session = open_session(QuotientView(t), 0, 0)
    session.pending.clear()
    assert push_back(session, (0, "a", 1), "")
    assert session.view.out((0, "a", 1)) == "x"
    assert session.push_backs == 0


def test_pushback_blocked_on_accepting_target():
    t = Transducer([0, 1], "a", "xy", 0, [1], [(0, "a", 1, "xy")])
    session = open_session(QuotientView(t), 0, 0)
    session.pending.clear()
    assert not push_back(session, (0, "a", 1), "y")
    assert session.view.out((0, "a", 1)) == "xy"


def test_pushback_blocked_on_multiple_incoming():
    t = Transducer(
        [0, 1, 2],
        "ab",
        "xyz",
        0,
        [2],
        [(0, "a", 1, "xy"), (0, "b", 1, "z"), (1, "a", 2, "z")],
    )
    session = open_session(QuotientView(t), 0, 0)
    session.pending.clear()
    assert not push_back(session, (0, "a", 1), "y")


def test_pushback_blocked_on_the_initial_class():
    # Tree: 0 -a/xyy-> 1 -b-> 3 -a-> 5 and 0 -a/yy-> 2 -a-> 4 -a-> 6.  With 0
    # and 2 one class, the edge into 2 is the class's one incoming edge, but
    # pushing its "yy" onto every edge leaving the class would make aba read
    # yyxyy: the run of aba starts in the class without taking that edge.
    tree, _ = tree_of([("aaa", "yy"), ("aba", "xyy")])
    assert (0, "a", 2, "yy") in tree.transitions
    session = _session_for(tree, 0, 2)
    view = session.view
    assert len(view.incoming_edges(view.find(2))) == 1
    assert not push_back(session, (0, "a", 2), "yy")
    assert session.push_backs == 0
    aba = [(0, "a", 1), (1, "b", 3), (3, "a", 5)]
    assert "".join(view.out(key) for key in aba) == "xyy"
    assert view.outs == {key[:3]: key[3] for key in tree.transitions}


def test_a_push_back_that_prefixes_the_other_sides_edge_is_a_conflict(monkeypatch):
    # In one attempt of this learn, side a of a witness takes (1, a, 4) into
    # class 4 where side b takes (4, a, 8) out of it.  Cutting "x" off side a's
    # edge prefixes side b's, so the two read "x" against "xx": the push-back
    # applies, and the witness is still an output conflict.
    samples = [("ab", "xx"), ("aba", "xxyxx"), ("aaaa", "xxxxx"), ("abab", "xxyxx"),
               ("abba", "xxyxx"), ("baab", "xxx"), ("bbaa", "yxxx")]
    real_unify_paths = merge_module.unify_paths
    conflicts = []

    def spy(session, raw_a, raw_b):
        push_backs = session.push_backs
        unified = real_unify_paths(session, raw_a, raw_b)
        if not unified and session.push_backs > push_backs:
            find, out = session.view.find, session.view.out
            conflicts.extend((session.failure, out(ka), out(kb)) for ka, kb in zip(raw_a, raw_b)
                             if find(ka[2]) == find(kb[0]) and out(ka) != out(kb))
        return unified

    monkeypatch.setattr(merge_module, "unify_paths", spy)
    model = infer(samples)
    assert (OUTPUT_CONFLICT, "x", "xx") in conflicts
    assert all(transduce(model.machine, w) == {o} for w, o in samples)


def test_a_push_back_that_undoes_an_earlier_position_is_a_conflict(monkeypatch):
    # On this cyclic base, side a of the session's witness goes round the
    # cycle 0 -a-> 1 -b-> 0 and enters class 1 twice by its one incoming edge,
    # while side b takes 0 -a-> 2 -b-> 3 -a-> 4.  At the second entry "xy"
    # meets "x": cutting "y" off the edge into 1 also cuts side a's first
    # edge, which agreed with side b's when it was read, and prefixes its
    # second.  Only the closing re-check of unify_paths sees it.
    t = Transducer(range(7), "abc", "wxyz", 0, [5, 6], [
        (0, "a", 1, "xy"), (1, "b", 0, "z"), (1, "c", 5, "w"),
        (0, "a", 2, "xy"), (2, "b", 3, "z"), (3, "a", 4, "x"), (4, "c", 6, "yw")])
    view = QuotientView(t)
    session = open_session(view, 5, 6)
    real_unify_paths = merge_module.unify_paths
    witnesses = []

    def spy(session, raw_a, raw_b):
        witnesses.append((list(raw_a), list(raw_b)))
        return real_unify_paths(session, raw_a, raw_b)

    monkeypatch.setattr(merge_module, "unify_paths", spy)
    assert not run_session(session)
    assert witnesses == [([(0, "a", 1), (1, "b", 0), (0, "a", 1), (1, "c", 5)],
                          [(0, "a", 2), (2, "b", 3), (3, "a", 4), (4, "c", 6)])]
    assert session.failure == OUTPUT_CONFLICT and session.push_backs == 1
    assert [[view.out(key) for key in side] for side in witnesses[0]] == [
        ["x", "yz", "x", "yw"], ["xy", "z", "x", "yw"]]


# -- one view across attempts --------------------------------------------------


def _partial_informants(seed, per_kind):
    """80 % and 60 % subsets of the informants of seeded nondeterministic
    targets, drawn as in the pinned digest of ``test_infer``: their learns run
    push-backs and reject merges after them."""
    rng = random.Random(seed)
    for make in (random_mostly_deterministic, random_machine):
        drawn = 0
        while drawn < per_kind:
            try:
                informant = generate_informant(make(rng), rng.randint(3, 5))
            except ToolkitError:
                continue
            for keep in (0.8, 0.6):
                subset = [p for p in informant if rng.random() < keep]
                if subset:
                    yield subset
            drawn += 1


def _undo_state(view):
    return view._saved, view._saved_out


def _facts(view):
    classes = sorted(view.members)
    return (
        view.materialize(),
        [view.edges_from(cls) for cls in classes],
        [set(view.incoming_keys(cls)) for cls in classes],
        [cls for cls in classes if view.class_accepting(cls)],
        view.members,
        view.outs,
    )


def test_a_rejected_attempt_leaves_the_view_as_a_view_that_never_made_it(monkeypatch):
    # The learner's loop on one view, next to a view that makes only the
    # attempts that commit: after every rejection the two hold the same facts.
    # Every attempt, and a search that is only explored and read for
    # witnesses, leave no undo state behind.
    sessions = []
    real_run_session = merge_module.run_session

    def spy(session):
        sessions.append(session)
        return real_run_session(session)

    monkeypatch.setattr(merge_module, "run_session", spy)
    seen = Counter()
    for samples in _partial_informants(seed=29, per_kind=40):
        tree, prefixes = build_prefix_tree(split_epsilon(samples)[0])
        order = state_order(prefixes)
        view, reference = QuotientView(tree), QuotientView(tree)
        parent = view.parent
        for outer in order:
            if parent[outer] != outer or outer == tree.initial:
                continue
            for inner in order:
                if inner >= outer:
                    break
                if parent[inner] != inner:
                    continue
                merged = try_merge(view, inner, outer) is not None
                assert _undo_state(view) == ({}, {})
                if merged:
                    assert try_merge(reference, inner, outer) is not None
                    seen["committed"] += 1
                    break
                session = sessions[-1]
                seen["rejected"] += 1
                seen["after a cascade"] += session.forced > 1
                seen["after a push-back"] += session.push_backs > 0
                assert _facts(view) == _facts(reference)
        states = sorted(tree.states)
        # (n-2, n-1), (n-3, n-2), ...: each union folds the chain so far into
        # a new least member, which every state of the chain maps straight to
        chain = list(zip(states[-2:0:-1], states[-1:1:-1]))
        search = PairSearchState(QuotientView(tree))
        explore(search)
        assert _undo_state(search.view) == ({}, {})
        view = QuotientView(tree)
        for a, b in chain:
            view.union(a, b)
        assert view.parent == {q: min(cls) for cls in view.members.values() for q in cls}
        view.keep()
        search = PairSearchState(view)
        while search.next_witness() is not None:
            pass
        assert _undo_state(view) == ({}, {})
    assert seen["committed"] >= 400
    assert seen["rejected"] >= 1000
    assert seen["after a cascade"] >= 150
    assert seen["after a push-back"] >= 100


def test_a_push_back_writes_each_written_class_list_in_place(monkeypatch):
    # A push-back writes the edges into its target and every edge leaving it.
    # It reads the arcs of each of the target's members once, to find the
    # edges leaving it, and writes the new outputs into the lists the view
    # holds: no list is rebuilt from its members' arcs and no stale mark
    # changes, and every class it wrote still reads as a scan of the base.
    arcs_read = 0
    arcs_from = Transducer.arcs_from

    def counted(self, *args):
        nonlocal arcs_read
        arcs_read += 1
        return arcs_from(self, *args)

    real_push_back = merge_module.push_back
    seen = Counter()

    def checked(session, raw_key, suffix):
        nonlocal arcs_read
        view = session.view
        target = view.find(raw_key[2])
        written = {view.find(key[0]) for key in view.incoming_keys(target)}
        leaving = sum(len(arcs_from(view.base, q)) for q in view.members[target])
        if leaving:
            written.add(target)
        stale = set(view._stale)
        arcs_read = 0
        applied = real_push_back(session, raw_key, suffix)
        if applied and suffix:
            assert arcs_read == len(view.members[target])
            assert view._stale == stale
            for cls in written:
                assert view.edges_from(cls) == edges_by_scan(view, cls)
            seen["push-backs"] += 1
            seen["more writes than classes"] += (
                len(view.incoming_keys(target)) + leaving > len(written))
        return applied

    monkeypatch.setattr(Transducer, "arcs_from", counted)
    monkeypatch.setattr(merge_module, "push_back", checked)
    for samples in _partial_informants(seed=31, per_kind=40):
        infer(samples)
    assert seen["push-backs"] >= 200
    assert seen["more writes than classes"] >= 100


def test_a_session_refuses_a_witness_that_makes_no_progress(monkeypatch):
    # Every witness that unify_paths accepts must make a push-back or queue a
    # union; that bounds a session's witnesses, so the first one that does
    # neither stops the session instead of looping.
    tree, _ = tree_of([("a", "x"), ("aa", "xx"), ("aaa", "xxx"), ("b", "y"), ("ba", "yx")])
    view = QuotientView(tree)
    witnesses = 0

    def one_witness(self):
        nonlocal witnesses
        witnesses += 1
        return [(0, "b", 4)], [(0, "b", 4)]

    monkeypatch.setattr(PairSearchState, "next_witness", one_witness)
    monkeypatch.setattr(merge_module, "unify_paths", lambda session, raw_a, raw_b: True)
    session = open_session(view, 0, 4)
    with pytest.raises(InvariantError, match="no push-back and queued no union"):
        run_session(session)
    assert witnesses == 1


def _psi_weights(tree):
    """For each edge of the prefix tree ``tree``, its depth times the number
    of samples whose path takes it: Ψ of the merge module's bound is the sum
    of weight times current output length over the edges."""
    depth, below = {tree.initial: 0}, {q: int(q in tree.accepting) for q in tree.states}
    edges = sorted(tree.transitions, key=lambda t: t[2])  # a child's id exceeds its parent's
    for src, _, dst, _ in edges:
        depth[dst] = depth[src] + 1
    for src, _, dst, _ in reversed(edges):
        below[src] += below[dst]
    return {(src, sym, dst): depth[dst] * below[dst] for src, sym, dst, _ in edges}


def test_a_session_reads_no_more_witnesses_than_the_bound_allows(monkeypatch):
    # The bound of the merge module's docstring, step by step, on learns that
    # push back: a session's witnesses number at most its unions plus its
    # push-backs plus one, every applied push-back raises Ψ, and Ψ stays
    # within Σ|w|·|f(w)|.
    real_run, real_unify, real_push = (
        merge_module.run_session, merge_module.unify_paths, merge_module.push_back)
    tree, weights, budget, witnesses = None, {}, 0, 0
    seen = Counter()

    def psi(view):
        return sum(weight * len(view.out(key)) for key, weight in weights.items())

    def counted(session, raw_a, raw_b):
        nonlocal witnesses
        witnesses += 1
        return real_unify(session, raw_a, raw_b)

    def checked_push(session, raw_key, suffix):
        before = psi(session.view)
        applied = real_push(session, raw_key, suffix)
        if applied and suffix:
            assert before < psi(session.view) <= budget
        return applied

    def checked_run(session):
        nonlocal tree, weights, witnesses
        if session.view.base is not tree:
            tree = session.view.base
            weights = _psi_weights(tree)
            assert psi(session.view) <= budget
        witnesses = 0
        merged = real_run(session)
        assert witnesses <= session.forced + session.push_backs + 1
        seen["sessions"] += 1
        seen["push-backs"] += session.push_backs
        seen["most push-backs"] = max(seen["most push-backs"], session.push_backs)
        # the root union comes with no witness, so the bound is nearly tight
        seen["one below the bound"] += witnesses == session.forced + session.push_backs
        return merged

    monkeypatch.setattr(merge_module, "run_session", checked_run)
    monkeypatch.setattr(merge_module, "unify_paths", counted)
    monkeypatch.setattr(merge_module, "push_back", checked_push)
    for samples in _partial_informants(seed=23, per_kind=40):
        budget = sum(len(w) * len(out) for w, out in split_epsilon(samples)[0].items())
        infer(samples)
    assert seen["sessions"] >= 1500
    assert seen["push-backs"] >= 150
    assert seen["most push-backs"] >= 4
    assert seen["one below the bound"] >= 1000


def _parallel_edges(edges):
    return [(sym, dst) for (sym, dst, _, _), (sym2, dst2, _, _) in zip(edges, edges[1:])
            if (sym, dst) == (sym2, dst2)]


def test_a_commit_refuses_parallel_edges_that_a_union_made():
    # Two a-edges of class 0 with different outputs become parallel when a
    # union joins their destinations; the union changed class 0's edge list,
    # so the commit reads it.
    machine = Transducer([0, 1, 2], "a", "xy", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "y")])
    view = QuotientView(machine)
    session = open_session(view, 1, 2)
    view.union(1, 2)
    assert _parallel_edges(view.edges_from(0)) == [("a", 1)]
    with pytest.raises(InvariantError, match="unresolved parallel edges"):
        commit(session)


def test_a_commit_reads_every_class_whose_edge_list_the_attempt_changed(monkeypatch):
    # A commit reads only the classes the attempt changed.  Every class whose
    # edge list differs from the one it had before the attempt is among them,
    # and a scan of every class, the reference for this narrowed check, finds
    # no parallel edge after it.
    real_open, real_commit = merge_module.open_session, merge_module.commit
    real_edges_from = QuotientView.edges_from
    before = {}
    read = None  # the classes the running commit reads, while it runs
    seen = Counter()

    def edge_lists(view):
        return {cls: view.edges_from(cls) for cls in sorted(view.members)}

    def opened(view, a, b):
        before.clear()
        before.update(edge_lists(view))
        return real_open(view, a, b)

    def recorded(self, cls):
        if read is not None:
            read.add(cls)
        return real_edges_from(self, cls)

    def checked(session):
        nonlocal read
        read = set()
        real_commit(session)
        checked_classes, read = read, None
        after = edge_lists(session.view)
        changed = {cls for cls, edges in after.items() if before.get(cls) != edges}
        assert changed <= checked_classes
        assert not any(_parallel_edges(edges) for edges in after.values())
        seen["commits"] += 1
        seen["more than the survivor changed"] += len(changed) > 1
        seen["after a push-back"] += session.push_backs > 0
        seen["fewer classes read than a full scan"] += len(checked_classes) < len(after)

    monkeypatch.setattr(merge_module, "open_session", opened)
    monkeypatch.setattr(merge_module, "commit", checked)
    monkeypatch.setattr(QuotientView, "edges_from", recorded)
    for samples in _partial_informants(seed=37, per_kind=20):
        infer(samples)
    assert seen["commits"] >= 200
    assert seen["more than the survivor changed"] >= 50
    assert seen["after a push-back"] >= 20
    assert seen["fewer classes read than a full scan"] >= 150
