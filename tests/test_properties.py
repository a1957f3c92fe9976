"""Property tests for the string and relation primitives."""

from hypothesis import given, settings
from hypothesis import strategies as st

from fstlearn.core import Transducer, lcp, transduce, trim
from fstlearn.oracle import words_up_to

from reference import derivative

words = st.text(alphabet="xy", max_size=6)
inputs = st.text(alphabet="ab", min_size=1, max_size=5)


@given(st.sets(words, min_size=1, max_size=8))
def test_lcp_prefixes_every_element(strings):
    prefix = lcp(strings)
    assert all(s.startswith(prefix) for s in strings)


@given(st.sets(words, min_size=1, max_size=8))
def test_lcp_is_longest(strings):
    prefix = lcp(strings)
    longer = {s[: len(prefix) + 1] for s in strings}
    if all(len(s) > len(prefix) for s in strings):
        assert len(longer) > 1  # extending by one symbol already disagrees


@given(
    st.dictionaries(inputs, words, min_size=1, max_size=8),
    st.sampled_from("ab"),
    words,
)
def test_derivative_matches_definition(pairs, sigma, gamma):
    d = derivative(pairs, sigma, gamma)
    expected = {
        inp[1:]: out[len(gamma):]
        for inp, out in pairs.items()
        if inp.startswith(sigma) and out.startswith(gamma)
    }
    assert d == expected


@given(
    st.dictionaries(inputs, words, min_size=1, max_size=6),
    st.sampled_from("ab"),
)
def test_derivative_round_trip_through_concatenation(pairs, sigma):
    d = derivative(pairs, sigma, "")
    for rest, out in d.items():
        assert pairs[sigma + rest] == out


@st.composite
def machines(draw):
    n = draw(st.integers(1, 4))
    arcs = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.sampled_from("ab"),
                st.integers(0, n - 1),
                st.text(alphabet="xy", max_size=2),
            ),
            max_size=10,
        )
    )
    accepting = draw(st.sets(st.integers(0, n - 1)))
    return Transducer(range(n), "ab", "xy", 0, accepting, arcs)


@given(machines())
@settings(max_examples=60, deadline=None)
def test_trim_preserves_relation_property(t):
    trimmed = trim(t)
    for word in words_up_to("ab", 4):
        assert transduce(t, word) == transduce(trimmed, word)


@given(machines())
@settings(max_examples=60, deadline=None)
def test_trim_result_is_trim(t):
    trimmed = trim(t)
    # every state reachable and co-reachable, or the single-state empty machine
    if len(trimmed.states) == 1 and not trimmed.accepting:
        return
    reach = {trimmed.initial}
    frontier = [trimmed.initial]
    while frontier:
        q = frontier.pop()
        for _, dst, _ in trimmed.arcs_from(q):
            if dst not in reach:
                reach.add(dst)
                frontier.append(dst)
    assert reach == trimmed.states
