"""Merge sessions: unification, push-backs, rollback, commitment."""

import pytest

from fstlearn.core import Transducer, transduce, trim
from fstlearn.errors import InvariantError
from fstlearn.merge import (
    OUTPUT_CONFLICT,
    PUSHBACK_BLOCKED,
    ROOT_ASYMMETRY,
    open_session,
    push_back,
    run_session,
    try_merge,
    unify_paths,
)
from fstlearn.oracle import generate_informant, words_up_to
from fstlearn.ptree import SampleSet, build_prefix_tree

from machines import BATTERY


def tree_of(pairs):
    return build_prefix_tree(SampleSet(pairs))


def test_merge_conflicting_outputs_fails():
    tree, _ = tree_of([("a", "x"), ("aa", "y")])
    assert try_merge(tree, 0, 1) is None


def test_merge_loop_succeeds():
    tree, _ = tree_of([("a", "x"), ("aa", "xx"), ("aaa", "xxx")])
    merged = try_merge(tree, 0, 1)
    assert merged is not None
    assert len(merged.states) == 1
    assert merged.accepting == {0}
    for n in range(1, 5):
        assert transduce(merged, "a" * n) == {"x" * n}


def test_merge_of_compatible_disjoint_states():
    # two leaves with empty residual conflicts merge without push-backs
    tree, _ = tree_of([("a", "x"), ("b", "y")])
    trace = []
    merged = try_merge(tree, 1, 2, trace=trace.append)
    assert merged is not None
    assert len(trace) == 1
    assert trace[-1]["kind"] == "merge_committed"
    assert trace[-1]["push_backs"] == 0
    assert transduce(merged, "a") == {"x"}
    assert transduce(merged, "b") == {"y"}


def test_failed_merge_leaves_hypothesis_untouched():
    tree, _ = tree_of([("a", "x"), ("aa", "y")])
    snapshot = (tree.states, tree.transitions, tree.accepting)
    assert try_merge(tree, 0, 1) is None
    assert (tree.states, tree.transitions, tree.accepting) == snapshot


def test_committed_merges_preserve_accepted_inputs():
    for name, target, m in BATTERY[:4]:
        informant = generate_informant(trim(target), 2 * m)
        tree, _ = build_prefix_tree(SampleSet(informant))
        max_len = max(len(i) for i, _ in informant)
        order = sorted(tree.states)
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
                merged = try_merge(h, inner, outer)
                if merged is not None:
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
    merged = try_merge(tree, 0, 1)
    assert merged is not None
    assert len(merged.states) < len(tree.states)


# -- unify_paths on hand-crafted witnesses -----------------------------------


def _session_for(machine, a, b):
    session = open_session(machine, a, b)
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
    session = open_session(t, 0, 0)
    session.pending.clear()
    assert push_back(session, (0, "a", 1), "y")
    assert session.view.out((0, "a", 1)) == "x"
    assert session.view.out((1, "b", 2)) == "yz"
    assert session.push_backs == 1


def test_pushback_empty_suffix_is_noop():
    t = Transducer([0, 1], "a", "x", 0, [1], [(0, "a", 1, "x")])
    session = open_session(t, 0, 0)
    session.pending.clear()
    assert push_back(session, (0, "a", 1), "")
    assert session.view.out((0, "a", 1)) == "x"
    assert session.push_backs == 0


def test_pushback_blocked_on_accepting_target():
    t = Transducer([0, 1], "a", "xy", 0, [1], [(0, "a", 1, "xy")])
    session = open_session(t, 0, 0)
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
    session = open_session(t, 0, 0)
    session.pending.clear()
    assert not push_back(session, (0, "a", 1), "y")

