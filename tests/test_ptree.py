"""Prefix-tree construction, checked against the derivatives and the star
baseline of ``reference``."""

import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fstlearn.core import Transducer, transduce
from fstlearn.errors import InconsistencyError
from fstlearn.oracle import (
    check_ambiguous_up_to,
    equivalent_up_to,
    generate_informant,
    words_up_to,
)
from fstlearn.ptree import build_prefix_tree, lcp

from machines import BATTERY, NONDET_EXAMPLE, random_deterministic_total
from reference import alphabets, build_star, derivative


def test_derivative_definition():
    s = {"ab": "xy", "ac": "xz", "b": "w"}
    d = derivative(s, "a", "x")
    assert d == {"b": "y", "c": "z"}


def test_derivative_consumes_whole_pair():
    assert derivative({"a": "x"}, "a", "x") == {"": ""}


def test_derivative_empty():
    assert derivative({"a": "x"}, "b", "") == {}


def test_lcp_basic():
    assert lcp({"abc", "abd"}) == "ab"


def test_lcp_singleton():
    assert lcp({"x"}) == "x"


def test_lcp_disjoint():
    assert lcp({"x", "y"}) == ""


def test_lcp_empty_set_is_an_error():
    with pytest.raises(ValueError):
        lcp(set())


def test_sample_set_rejects_empty_input_with_output():
    with pytest.raises(InconsistencyError) as info:
        build_prefix_tree({"": "z"})
    assert info.value.pair == ("", "z")


def test_tree_chain():
    tree, prefixes = build_prefix_tree({"a": "x", "aa": "xx"})
    assert tree.transitions == (
        (0, "a", 1, "x"),
        (1, "a", 2, "x"),
    )
    assert tree.accepting == {1, 2}
    assert prefixes[2] == ("aa", "xx")


def test_tree_nondeterministic_branch():
    tree, _ = build_prefix_tree({"a": "x", "ab": "yz"})
    # exact branch a/x to an accepting state, and a second branch a/yz
    # continuing with b/<empty> to an accepting state
    outs = sorted((t.symbol, t.out) for t in tree.transitions)
    assert outs == [("a", "x"), ("a", "yz"), ("b", "")]
    assert transduce(tree, "a") == {"x"}
    assert transduce(tree, "ab") == {"yz"}


def test_tree_of_empty_pair_only():
    tree, prefixes = build_prefix_tree({"": ""})
    assert len(tree.states) == 1
    assert prefixes == [("", "")]
    assert tree.accepting == {0}
    assert not tree.transitions


def test_star_single_pair():
    star = build_star({"ab": "xyz"})
    assert star.transitions == ((0, "a", 1, "xyz"), (1, "b", 2, ""))
    assert star.accepting == {2}


def test_star_two_arms():
    star = build_star({"a": "x", "b": "y"})
    assert len(star.states) == 3
    assert transduce(star, "a") == {"x"}
    assert transduce(star, "b") == {"y"}


def test_star_empty():
    star = build_star({})
    assert len(star.states) == 1
    assert not star.accepting


def _sibling_groups(tree):
    groups = {}
    for tr in tree.transitions:
        groups.setdefault((tr.src, tr.symbol), []).append(tr)
    return groups.values()


def assert_ab_property(tree):
    """Same-symbol siblings: exactly one accepting target, or neither and
    output lcp empty."""
    for group in _sibling_groups(tree):
        for i, t1 in enumerate(group):
            for t2 in group[i + 1:]:
                acc1 = t1.dst in tree.accepting
                acc2 = t2.dst in tree.accepting
                if acc1 or acc2:
                    assert acc1 != acc2, (t1, t2)
                else:
                    assert lcp({t1.out, t2.out}) == "", (t1, t2)


def _conforming_sample_sets(count, seed):
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        target = random_deterministic_total(rng)
        informant = generate_informant(target, rng.randint(2, 4))
        if not informant:
            continue
        sets.append(dict(informant))
        # also a random nonempty subset of the informant
        subset = [p for p in informant if rng.random() < 0.6]
        if subset and len(sets) < count:
            sets.append(dict(subset))
    return sets


def test_tree_reproduces_relation_exactly():
    for s in _conforming_sample_sets(40, seed=23):
        tree, _ = build_prefix_tree(s)
        max_len = max(map(len, s), default=0)
        for word in words_up_to(tree.input_alphabet, max_len + 1):
            expected = s.get(word)
            got = transduce(tree, word)
            assert got == ({expected} if expected is not None else frozenset())


def test_tree_is_unambiguous():
    for s in _conforming_sample_sets(20, seed=29):
        tree, _ = build_prefix_tree(s)
        max_len = max(map(len, s), default=0)
        assert check_ambiguous_up_to(tree, max_len).verdict


def subtree_relation(tree, q):
    """The (input, output) pairs of the paths from ``q`` to acceptance in a
    tree-shaped machine."""
    pairs = {("", "")} if q in tree.accepting else set()
    for sym, dst, out in tree.arcs_from(q):
        pairs |= {(sym + i, out + o) for i, o in subtree_relation(tree, dst)}
    return pairs


def test_annotation_residuals_are_pair_derivatives_of_the_root():
    for s in _conforming_sample_sets(15, seed=31):
        tree, prefixes = build_prefix_tree(s)
        for state in tree.states:
            i, o = prefixes[state]
            expected = {
                (inp[len(i):], out[len(o):])
                for inp, out in s.items()
                if inp.startswith(i) and out.startswith(o)
            }
            assert subtree_relation(tree, state) == expected, (state, i, o)


def test_ab_property_on_random_trees():
    for s in _conforming_sample_sets(40, seed=37):
        tree, _ = build_prefix_tree(s)
        assert_ab_property(tree)


def test_star_and_tree_agree():
    for s in _conforming_sample_sets(25, seed=41):
        tree, _ = build_prefix_tree(s)
        star = build_star(s)
        max_len = max(map(len, s), default=0)
        assert equivalent_up_to(tree, star, max_len + 1).verdict


def test_tree_edges_converge_to_target_edges():
    """With the full informant over Sigma^{<=2m}, every tree state whose input
    prefix is shorter than m carries exactly the out-edges of the target state
    it corresponds to."""
    for name, target, m in BATTERY:
        informant = generate_informant(target, 2 * m)
        tree, prefixes = build_prefix_tree(dict(informant))
        # walk tree and target in lockstep
        pairs = {(0, target.initial)}
        seen = set()
        while pairs:
            tree_q, tgt_q = pairs.pop()
            if (tree_q, tgt_q) in seen:
                continue
            seen.add((tree_q, tgt_q))
            i, _ = prefixes[tree_q]
            if len(i) >= m:
                continue
            tree_edges = sorted(
                (t.symbol, t.out) for t in tree.transitions if t.src == tree_q
            )
            tgt_edges = sorted(
                (t.symbol, t.out) for t in target.transitions if t.src == tgt_q
            )
            assert tree_edges == tgt_edges, (name, i, tree_edges, tgt_edges)
            for te in tree.transitions:
                if te.src != tree_q:
                    continue
                for ge in target.transitions:
                    if (
                        ge.src == tgt_q
                        and ge.symbol == te.symbol
                        and ge.out == te.out
                    ):
                        pairs.add((te.dst, ge.dst))


def test_tree_handles_epsilon_output_continuations():
    # a conforming informant whose '#' arm continues with all-empty outputs
    informant = generate_informant(NONDET_EXAMPLE, 5)
    tree, _ = build_prefix_tree(dict(informant))
    for word, out in informant:
        assert transduce(tree, word) == {out}


def test_tree_states_are_numbered_in_order():
    tree, prefixes = build_prefix_tree({"a": "x", "ab": "yz", "b": "w"})
    assert sorted(tree.states) == list(range(len(prefixes)))
    keys = [(len(i), i, len(o), o) for i, o in prefixes]
    assert keys == sorted(keys)


def test_tree_keeps_no_residuals():
    # everything the build returns stays alive while the memory is read: the
    # tree and the prefixes cost a few hundred bytes per node, while keeping
    # every node's residual relation would cost about 1.6 kB per node here
    rotation = next(t for name, t, _ in BATTERY if name == "rotation")
    s = dict(generate_informant(rotation, 8))
    tracemalloc.start()
    try:
        built = build_prefix_tree(s)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1000 * len(built[0].states)


def test_tree_does_not_depend_on_the_order_of_the_samples():
    rng = random.Random(43)
    for s in _conforming_sample_sets(20, seed=43):
        pairs = list(s.items())
        rng.shuffle(pairs)
        assert build_prefix_tree(dict(pairs)) == build_prefix_tree(s)


def test_root_with_empty_input_and_nonempty_output_is_inconsistent():
    residual = derivative({"a": "x"}, "a", "")
    with pytest.raises(InconsistencyError) as info:
        build_prefix_tree(residual)
    assert info.value.pair == ("", "x")


def reference_prefix_tree(s):
    """The builder that per node and input symbol takes one ``derivative`` per
    output symbol and checks afterwards that some branch carries every pair.
    The reference for ``build_prefix_tree``."""
    sigma, gamma = alphabets(s)
    prefixes = [("", "")]
    accepting = set()
    transitions = []
    queue = deque([(0, s)])
    while queue:
        q, res = queue.popleft()
        in_prefix, out_prefix = prefixes[q]
        empty_out = res.get("")
        if empty_out == "":
            accepting.add(q)
        elif empty_out is not None:
            raise InconsistencyError(in_prefix, out_prefix + empty_out)
        for sym in sigma:
            exact = res.get(sym)
            branches = []
            if exact is not None:
                branches.append((exact, derivative(res, sym, exact)))
            rest = {
                inp: out
                for inp, out in res.items()
                if inp.startswith(sym) and inp != ""
                and (exact is None or not out.startswith(exact))
            }
            for g in gamma:
                d = derivative(rest, sym, g)
                if not d:
                    continue
                p = g + lcp(d.values())
                branches.append((p, derivative(rest, sym, p)))
            bare = {
                inp[1:]: ""
                for inp, out in rest.items()
                if len(inp) > 1 and out == ""
            }
            if bare:
                branches.append(("", bare))
            for inp, out in res.items():
                if not inp.startswith(sym) or inp == "":
                    continue
                if not any(inp[1:] in d and d.get(inp[1:]) == out[len(b):]
                           for b, d in branches if out.startswith(b)):
                    raise InconsistencyError(in_prefix + inp, out_prefix + out)
            for branch_out, rest in branches:
                new = len(prefixes)
                prefixes.append((in_prefix + sym, out_prefix + branch_out))
                transitions.append((q, sym, new, branch_out))
                queue.append((new, rest))
    tree = Transducer(
        range(len(prefixes)), sigma, gamma, 0, accepting, transitions
    )
    return tree, prefixes


@st.composite
def functional_sample_sets(draw):
    """A random functional relation over 2-3 input and 2-4 output symbols.
    Outputs are drawn as extensions of earlier outputs half of the time, so
    that exact pairs with riders and shared output prefixes are common; an
    empty input may carry a non-empty output, which the root rejects."""
    sigma = "abc"[: draw(st.integers(2, 3))]
    gamma = "wxyz"[: draw(st.integers(2, 4))]
    inputs = draw(st.lists(st.text(sigma, max_size=5), max_size=14, unique=True))
    raw = {}
    for inp in inputs:
        stem = ""
        if raw and draw(st.booleans()):
            stem = draw(st.sampled_from(sorted(raw.values())))
        raw[inp] = stem + draw(st.text(gamma, max_size=3))
    return raw


def _build(builder, s):
    try:
        return builder(s), None
    except InconsistencyError as exc:
        return None, exc.pair


@settings(max_examples=300, deadline=None)
@given(functional_sample_sets())
def test_prefix_tree_matches_the_reference_builder(s):
    (got, error), (expected, expected_error) = (
        _build(build_prefix_tree, s), _build(reference_prefix_tree, s)
    )
    assert error == expected_error
    if expected is None:
        return
    (tree, prefixes), (ref, ref_prefixes) = got, expected
    assert tree.states == ref.states
    assert tree.transitions == ref.transitions
    assert tree.accepting == ref.accepting
    # a node's residual is the relation of its subtree, so equal trees with
    # equal prefixes have equal residuals too
    assert prefixes == ref_prefixes
