"""Transducer model, evaluation, trimming, validation."""

import os
import random
import tracemalloc

import pytest

from fstlearn.core import (
    Transducer,
    configuration_after,
    renumber,
    transduce,
    trim,
    validate,
)
from fstlearn.errors import AlphabetError
from fstlearn.oracle import accepting_paths, path_outputs, words_up_to

from machines import LAST_LETTER, random_machine, random_mostly_deterministic


def test_transduce_single_path():
    t = Transducer([0, 1], "a", "x", 0, [1], [(0, "a", 1, "x")])
    assert transduce(t, "a") == {"x"}


def test_transduce_rejects_unreachable_word():
    t = Transducer([0, 1], "ab", "x", 0, [1], [(0, "a", 1, "x")])
    assert transduce(t, "b") == frozenset()


def test_transduce_two_step_nondeterministic():
    t = Transducer(
        [0, 1, 2, 3],
        "ab",
        "xyz",
        0,
        [1, 3],
        [(0, "a", 1, "x"), (0, "a", 2, "y"), (2, "b", 3, "z")],
    )
    # cross-check against brute-force path enumeration
    assert path_outputs(t, "ab") == {"yz"}
    assert transduce(t, "ab") == {"yz"}


def test_transduce_unknown_symbol():
    t = Transducer([0], "a", "x", 0, [0], [])
    with pytest.raises(AlphabetError):
        transduce(t, "q")


def test_alphabet_error_names_the_first_foreign_symbol_after_the_runs_die():
    t = Transducer([0, 1], "ab", "x", 0, [1], [(0, "a", 1, "x")])
    # "bb" leaves no live run before the two foreign symbols
    with pytest.raises(AlphabetError, match="'q'"):
        configuration_after(t, "bbqz")
    with pytest.raises(AlphabetError, match="'z'"):
        configuration_after(t, "bbzq")


def test_configuration_empty_input_is_initial_singleton():
    t = Transducer([0, 1], "a", "x", 0, [1], [(0, "a", 1, "x")])
    assert configuration_after(t, "") == {(0, "")}


def test_configuration_single_step():
    t = Transducer([0, 1], "a", "x", 0, [], [(0, "a", 1, "x")])
    assert configuration_after(t, "a") == {(1, "x")}


def test_configuration_branches():
    t = Transducer(
        [0, 1, 2], "a", "xy", 0, [], [(0, "a", 1, "x"), (0, "a", 2, "y")]
    )
    assert configuration_after(t, "a") == {(1, "x"), (2, "y")}


def test_trim_drops_unreachable():
    t = Transducer(
        [0, 1, 9], "a", "x", 0, [1], [(0, "a", 1, "x"), (9, "a", 1, "x")]
    )
    trimmed = trim(t)
    assert 9 not in trimmed.states
    assert trimmed.states == {0, 1}


def test_trim_drops_dead_end():
    t = Transducer(
        [0, 1, 5], "a", "x", 0, [1], [(0, "a", 1, "x"), (0, "a", 5, "x")]
    )
    trimmed = trim(t)
    assert 5 not in trimmed.states
    assert len(trimmed.transitions) == 1


def test_trim_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        t = random_machine(rng)
        assert trim(trim(t)) == trim(t)


def test_trim_empty_result_is_single_state():
    t = Transducer([0, 1], "a", "x", 0, [], [(0, "a", 1, "x")])
    trimmed = trim(t)
    assert trimmed.states == {0}
    assert not trimmed.accepting
    assert not trimmed.transitions


def test_validate_clean():
    t = Transducer([0, 1], "a", "x", 0, [1], [(0, "a", 1, "x")])
    assert validate(t) == []


def test_validate_duplicate_triple():
    t = Transducer([0, 1], "a", "xy", 0, [1], [(0, "a", 1, "x"), (0, "a", 1, "y")])
    kinds = [v.kind for v in validate(t)]
    assert "delta" in kinds


def test_validate_alphabet_violation():
    t = Transducer([0, 1], "a", "x", 0, [1], [(0, "q", 1, "x")])
    kinds = [v.kind for v in validate(t)]
    assert "alphabet" in kinds


def test_configuration_agrees_with_transduce_on_random_machines():
    rng = random.Random(11)
    for _ in range(30):
        t = random_machine(rng, max_states=4)
        for word in words_up_to(t.input_alphabet, 4):
            conf = configuration_after(t, word)
            at_accepting = frozenset(o for q, o in conf if q in t.accepting)
            assert at_accepting == transduce(t, word)
            # and both agree with explicit path enumeration
            assert at_accepting == path_outputs(t, word)


def test_functional_machines_have_at_most_one_output():
    rng = random.Random(13)
    found = 0
    while found < 15:
        t = random_mostly_deterministic(rng)
        words = words_up_to(t.input_alphabet, 6)
        if any(len(path_outputs(t, w)) > 1 for w in words):
            continue
        found += 1
        for w in words:
            assert len(transduce(t, w)) <= 1


def test_trim_preserves_relation():
    rng = random.Random(17)
    for _ in range(20):
        t = random_machine(rng, max_states=5)
        trimmed = trim(t)
        for word in words_up_to(t.input_alphabet, 8 if len(t.states) < 4 else 5):
            assert transduce(t, word) == transduce(trimmed, word)


def test_renumber_preserves_relation():
    rng = random.Random(19)
    for _ in range(10):
        t = random_machine(rng, max_states=4)
        r = renumber(t)
        assert r.states == frozenset(range(len(t.states)))
        for word in words_up_to(t.input_alphabet, 4):
            assert transduce(t, word) == transduce(r, word)


def reference_configurations(t, inp):
    """Configurations after each prefix of ``inp``, by the plain fold that
    appends each transition's output to every run's whole pending output.
    The reference for ``configuration_after``; it uses nothing of ``core``
    but the machine's arcs."""
    cur = {(t.initial, "")}
    yield frozenset(cur)
    for sym in inp:
        nxt = set()
        for state, pending in cur:
            for _, dst, out in t.arcs_from(state, sym):
                nxt.add((dst, pending + out))
        cur = nxt
        yield frozenset(cur)


def test_configuration_after_matches_the_concatenating_fold_on_long_words():
    """Random words of 20-60 symbols, so that normalised configurations with
    a non-empty delay repeat within a word and the step memo is hit.  A
    non-functional machine's configuration can double with every symbol;
    words whose configuration passes 200 pairs are left out, as both
    evaluators are exponential there."""
    rng = random.Random(29)
    alive = delayed_repeats = nonfunctional = 0
    for make in (random_machine, random_mostly_deterministic):
        for _ in range(40):
            t = make(rng)
            for _ in range(10):
                n = rng.randint(20, 60)
                word = "".join(rng.choice("ab") for _ in range(n))
                seen = set()
                for i, conf in enumerate(reference_configurations(t, word)):
                    if len(conf) > 200:
                        break
                    k = len(os.path.commonprefix([p for _, p in conf]))
                    delays = frozenset((q, p[k:]) for q, p in conf)
                    if i < n and any(p for _, p in delays):
                        delayed_repeats += (delays, word[i]) in seen
                        seen.add((delays, word[i]))
                else:
                    assert configuration_after(t, word) == conf, (t, word)
                    alive += bool(conf)
                    outputs = {p for q, p in conf if q in t.accepting}
                    nonfunctional += len(outputs) > 1
    assert alive >= 200
    assert delayed_repeats >= 300
    assert nonfunctional >= 50


def test_unbounded_delay_is_exact_and_memory_stays_linear():
    """LAST_LETTER's two live runs never share a prefix, so every step misses
    the memo; the memo must not keep all the configurations it has seen,
    which would hold |w|^2 characters."""
    rng = random.Random(5)
    n = 20_000
    word = "".join(rng.choice("ab") for _ in range(n - 1))
    assert transduce(LAST_LETTER, word + "b") == {"y" * n}
    tracemalloc.start()
    try:
        outputs = transduce(LAST_LETTER, word + "a")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outputs == {"x" * n}
    assert peak < 16 * n
