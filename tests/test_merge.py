"""Merge sessions: unification, push-backs, rollback, commitment."""

import importlib
import random
from collections import Counter

import pytest

from fstlearn.ambiguity import PairSearchState, QuotientView, find_ambiguity, square_reach
from fstlearn.core import Transducer, transduce, trim
from fstlearn.errors import InvariantError, ToolkitError
from fstlearn.infer import infer, split_epsilon, state_order
from fstlearn.merge import (
    OUTPUT_CONFLICT,
    ROOT_ASYMMETRY,
    SESSION_CAP,
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
        [set(view.incoming[cls]) for cls in classes],
        [cls for cls in classes if view.class_accepting(cls)],
        view.members,
        view.outs,
    )


def test_a_rejected_attempt_leaves_the_view_as_a_view_that_never_made_it(monkeypatch):
    # The learner's loop on one view, next to a view that makes only the
    # attempts that commit: after every rejection the two hold the same facts.
    # Every attempt, and square_reach and find_ambiguity, which only read,
    # leave no undo state behind.
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
        assert _undo_state(square_reach(tree).view) == ({}, {})
        view = QuotientView(tree)
        for a, b in chain:
            view.union(a, b)
        assert view.parent == {q: min(cls) for cls in view.members.values() for q in cls}
        view.keep()
        find_ambiguity(tree, PairSearchState(view))
        assert _undo_state(view) == ({}, {})
    assert seen["committed"] >= 400
    assert seen["rejected"] >= 1000
    assert seen["after a cascade"] >= 150
    assert seen["after a push-back"] >= 100


def test_a_push_back_rebuilds_each_written_class_list_once(monkeypatch):
    # A push-back writes the edges into its target and every edge leaving it,
    # then rebuilds the edge list of each class it wrote from its members
    # once, however many of the class's edges it wrote.
    rebuilds = 0
    member_edges = QuotientView._member_edges

    def counted(self, cls):
        nonlocal rebuilds
        rebuilds += 1
        return member_edges(self, cls)

    real_push_back = merge_module.push_back
    seen = Counter()

    def checked(session, raw_key, suffix):
        nonlocal rebuilds
        view = session.view
        target = view.find(raw_key[2])
        written = {view.find(key[0]) for key in view.incoming[target]}
        leaving = sum(len(view.base.arcs_from(q)) for q in view.members[target])
        if leaving:
            written.add(target)
        rebuilds = 0
        applied = real_push_back(session, raw_key, suffix)
        if applied and suffix:
            assert rebuilds == len(written)
            seen["push-backs"] += 1
            seen["more writes than classes"] += (
                len(view.incoming[target]) + leaving > len(written))
        return applied

    monkeypatch.setattr(QuotientView, "_member_edges", counted)
    monkeypatch.setattr(merge_module, "push_back", checked)
    for samples in _partial_informants(seed=31, per_kind=40):
        infer(samples)
    assert seen["push-backs"] >= 200
    assert seen["more writes than classes"] >= 100


def test_a_session_gives_up_after_the_witness_cap_of_its_hypothesis(monkeypatch):
    # The cap counts the edges of the prefix tree, which bounds every
    # hypothesis: an earlier commit that made the hypothesis smaller than the
    # tree leaves it as it was.
    tree, _ = tree_of([("a", "x"), ("aa", "xx"), ("aaa", "xxx"), ("b", "y"), ("ba", "yx")])
    view = QuotientView(tree)
    assert try_merge(view, 0, 1) is not None
    edges = len(view.materialize().transitions)
    assert edges < len(tree.transitions)
    witnesses = 0

    def one_witness(self):
        nonlocal witnesses
        witnesses += 1
        return [(0, "b", 4)], [(0, "b", 4)]

    monkeypatch.setattr(PairSearchState, "next_witness", one_witness)
    monkeypatch.setattr(merge_module, "unify_paths", lambda session, raw_a, raw_b: True)
    session = open_session(view, 0, 4)
    assert not run_session(session)
    assert session.failure == SESSION_CAP
    assert witnesses == 201 + 20 * len(tree.transitions)


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
