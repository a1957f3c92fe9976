"""Totalization, complement, disambiguation."""

import hashlib
import random

import pytest

from fstlearn.cli import serialize_machine

from fstlearn.core import Transducer, transduce, trim
from fstlearn.errors import ConfigurationError
from fstlearn.oracle import (
    check_ambiguous_up_to,
    check_functional_up_to,
    equivalent_up_to,
    path_outputs,
    words_up_to,
)
from fstlearn.transform import complement_dfa, disambiguate, totalize

from machines import (
    BATTERY,
    NONDET_EXAMPLE,
    PARITY_HASH,
    fresh_copy,
    random_machine,
    random_mostly_deterministic,
)


def language(t: Transducer, max_len: int) -> set:
    """The inputs up to ``max_len`` that ``t`` accepts."""
    return {w for w in words_up_to(t.input_alphabet, max_len) if transduce(t, w)}


def test_complement_reads_inputs_and_emits_nothing():
    t = Transducer([0, 1], "a", "xy", 0, [1], [(0, "a", 1, "xy")])
    comp = complement_dfa(t)
    assert not comp.output_alphabet
    assert {tr.out for tr in comp.transitions} == {""}
    assert language(comp, 3) == {"", "aa", "aaa"}


def test_complement_of_two_words():
    t = Transducer(
        [0, 1, 2, 3],
        "ab",
        "xyz",
        0,
        [1, 3],
        [(0, "a", 1, "x"), (0, "a", 2, "y"), (2, "b", 3, "z")],
    )
    assert language(complement_dfa(t), 3) == set(words_up_to("ab", 3)) - {"a", "ab"}


def test_complement_of_the_empty_relation_is_everything():
    t = Transducer([0], "a", "x", 0, [], [])
    assert language(complement_dfa(t), 3) == set(words_up_to("a", 3))


def test_complement_simple():
    t = Transducer([0, 1], "a", "", 0, [1], [(0, "a", 1, "")])
    comp = complement_dfa(t)
    assert language(comp, 3) == {"", "aa", "aaa"}


def test_complement_involution():
    rng = random.Random(3)
    for _ in range(10):
        t = random_machine(rng, max_states=4)
        twice = complement_dfa(complement_dfa(t))
        assert language(twice, 6) == language(t, 6)


def test_complement_of_everything_is_empty():
    t = Transducer([0], "ab", "", 0, [0], [(0, "a", 0, ""), (0, "b", 0, "")])
    assert language(complement_dfa(t), 4) == set()


def test_totalize_partial_machine():
    t = Transducer([0, 1], "ab", "x", 0, [1], [(0, "a", 1, "x")])
    total = totalize(t, "#")
    # verify by brute force over all short inputs
    for word in words_up_to("ab", 4):
        got = transduce(total, word)
        if word == "a":
            assert got == {"x"}
        elif word == "":
            assert got == frozenset()
        else:
            assert got == {"#"}


def test_totalize_already_total():
    t = Transducer([0], "ab", "xy", 0, [0], [(0, "a", 0, "x"), (0, "b", 0, "y")])
    total = totalize(t, "#")
    for word in words_up_to("ab", 4):
        if word:
            assert transduce(total, word) == transduce(t, word)
            assert "#" not in next(iter(transduce(total, word)))
    assert transduce(total, "") == transduce(t, "")


def test_totalize_empty_relation():
    t = trim(Transducer([0], "ab", "x", 0, [], []))
    total = totalize(t, "#")
    for word in words_up_to("ab", 3):
        assert transduce(total, word) == ({"#"} if word else frozenset())


def test_totalize_rejects_used_symbol():
    t = Transducer([0], "a", "x#", 0, [0], [(0, "a", 0, "#")])
    with pytest.raises(ConfigurationError):
        totalize(t, "#")


def test_totalize_rejects_a_reject_string_of_two_characters():
    t = Transducer([0], "a", "x", 0, [0], [(0, "a", 0, "x")])
    with pytest.raises(ConfigurationError, match="single character"):
        totalize(t, "##")


def test_totalize_random_functional_machines():
    rng = random.Random(5)
    done = 0
    while done < 12:
        t = random_mostly_deterministic(rng, max_states=3)
        if not check_functional_up_to(t, 6).verdict:
            continue
        done += 1
        total = totalize(t, "#")
        for word in words_up_to(t.input_alphabet, 5):
            before = transduce(t, word)
            after = transduce(total, word)
            if word == "":
                assert after == before
            elif before:
                assert after == before
            else:
                assert after == {"#"}


def test_disambiguate_two_identical_paths():
    t = Transducer(
        [0, 1, 2], "a", "x", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "x")]
    )
    d = disambiguate(t)
    assert len(path_outputs(t, "a")) == 1
    paths_after = [p for p in _accepting_paths(d, "a")]
    assert len(paths_after) == 1
    assert transduce(d, "a") == {"x"}


def test_disambiguate_deterministic_is_noop_on_relation():
    t = Transducer([0, 1], "ab", "xy", 0, [0, 1], [(0, "a", 1, "x"), (1, "b", 0, "y")])
    d = disambiguate(t)
    assert equivalent_up_to(t, d, 6).verdict
    assert check_ambiguous_up_to(d, 6).verdict


def test_disambiguate_length_two_duplicate():
    t = Transducer(
        [0, 1, 2, 3],
        "ab",
        "xy",
        0,
        [3],
        [
            (0, "a", 1, "x"),
            (0, "a", 2, "x"),
            (1, "b", 3, "y"),
            (2, "b", 3, "y"),
        ],
    )
    d = disambiguate(t)
    assert len(_accepting_paths(d, "ab")) == 1
    assert transduce(d, "ab") == {"xy"}


def test_disambiguate_preserves_context_split_relation():
    # two c-edges into one target from different determinization contexts:
    # both inputs must survive
    t = Transducer(
        [0, 1, 2, 3],
        "abc",
        "xyz",
        0,
        [3],
        [
            (0, "a", 1, "x"),
            (0, "b", 2, "y"),
            (1, "c", 3, "z"),
            (2, "c", 3, "z"),
        ],
    )
    d = disambiguate(t)
    assert transduce(d, "ac") == {"xz"}
    assert transduce(d, "bc") == {"yz"}


def test_disambiguate_random_functional():
    rng = random.Random(7)
    done = 0
    while done < 12:
        t = random_mostly_deterministic(rng, max_states=3)
        if not check_functional_up_to(t, 6).verdict:
            continue
        done += 1
        d = disambiguate(t)
        assert check_ambiguous_up_to(d, 6).verdict, t
        assert equivalent_up_to(t, d, 6).verdict, t


def _pinned_machines():
    rng = random.Random(13)
    machines = [t for _, t, _ in BATTERY] + [NONDET_EXAMPLE, PARITY_HASH]
    machines += [random_machine(rng) for _ in range(150)]
    machines += [random_mostly_deterministic(rng) for _ in range(150)]
    return machines


def test_transform_outputs_are_pinned():
    # The benchmark's digest covers only total split machines; this one hashes
    # every construction on partial and non-functional machines too, so a
    # rewrite of the constructions that changes one byte shows here.
    digest = hashlib.sha256()
    built = 0
    for t in _pinned_machines():
        reject = "%" if "#" in t.output_alphabet else "#"
        for out in (disambiguate(t), totalize(t, reject), complement_dfa(t)):
            digest.update(serialize_machine(out).encode())
            built += 1
    assert built == 924
    assert digest.hexdigest() == (
        "f4f2667b88727129851730840f8fcbe2c306b51ebc6bc6a4eb0bc62e074dc982"
    )


def test_call_order_makes_no_difference():
    # The first construction on a machine stores its subset table on it and
    # the later ones read it from there; each must build, byte for byte, what
    # it builds on a fresh machine, whichever ran first.
    for t in _pinned_machines():
        reject = "%" if "#" in t.output_alphabet else "#"
        calls = [disambiguate, lambda m: totalize(m, reject), complement_dfa]
        alone = [serialize_machine(call(fresh_copy(t))) for call in calls]
        shared = fresh_copy(t)
        in_reverse = [serialize_machine(call(shared)) for call in reversed(calls)]
        assert in_reverse[::-1] == alone
        # both facts filled, and still equal to a fresh machine
        assert shared._subsets is not None and shared._adj is not None
        assert shared == fresh_copy(t) and hash(shared) == hash(fresh_copy(t))


def _accepting_paths(t, word):
    from fstlearn.oracle import accepting_paths

    return accepting_paths(t, word)
