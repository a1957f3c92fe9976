"""Transducer model, evaluation, trimming, validation."""

import copy
import os
import pickle
import random
import sys
import threading
import tracemalloc
from collections import deque

import pytest

from fstlearn.core import (
    Transducer,
    Transition,
    Violation,
    configuration_after,
    renumber,
    transduce,
    trim,
    validate,
)
from fstlearn import ambiguity, core, transform
from fstlearn.errors import AlphabetError
from fstlearn.infer import infer
from fstlearn.oracle import generate_informant, path_outputs, words_up_to

from reference import reference_configurations
from machines import (
    BATTERY,
    LAST_LETTER,
    NONDET_EXAMPLE,
    PARITY_HASH,
    fresh_copy,
    random_machine,
    random_mostly_deterministic,
)


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


def test_construction_canonicalises_its_transition_records():
    """Duplicates collapse, record order and record type do not matter,
    ``transitions`` is a sorted tuple of ``Transition``, and ``arcs_from``
    reads the same arcs as a scan of ``transitions``."""
    rng = random.Random(23)
    for _ in range(100):
        t = random_machine(rng)
        records = [tuple(tr) for tr in t.transitions]
        args = (t.states, t.input_alphabet, t.output_alphabet, t.initial, t.accepting)
        again = rng.sample(records, rng.randint(1, len(records)))
        # the shape the closures pass in: sorted, with duplicates further on
        nearly_sorted = sorted(records) + sorted(again)
        doubled = records + again
        rng.shuffle(doubled)
        variants = [
            doubled,
            [list(r) for r in doubled],
            [Transition(*r) for r in doubled],
            iter(doubled),
            tuple(reversed(doubled)),
            nearly_sorted,
        ]
        for variant in variants:
            built = Transducer(*args, variant)
            assert built == t
            assert type(built.transitions) is tuple
            assert all(type(tr) is Transition for tr in built.transitions)
            assert list(built.transitions) == sorted(set(records))
            for tr, r in zip(built.transitions, sorted(set(records))):
                assert tr == Transition(*r)
                assert (tr.src, tr.symbol, tr.dst, tr.out) == r
        for q in t.states | {max(t.states) + 1}:
            scan = [(tr.symbol, tr.dst, tr.out) for tr in t.transitions if tr.src == q]
            assert t.arcs_from(q) == scan
            for sym in t.input_alphabet:
                assert t.arcs_from(q, sym) == [a for a in scan if a[0] == sym]
    for bad in [(0, "a", 1), (0, "a", 1, "x", "y"), ()]:
        with pytest.raises(TypeError):
            Transducer([0, 1], "a", "x", 0, [1], [(0, "a", 1, "x"), bad])


def test_threads_racing_to_the_first_walk_read_every_arc():
    """The adjacency is built on a machine's first walk; threads that walk
    fresh machines at once each read every arc, whichever of them stores it."""
    rng = random.Random(29)
    machines = [random_machine(rng, max_states=8) for _ in range(200)]
    want = [[t.arcs_from(q) for q in sorted(t.states)] for t in machines]
    fresh = [Transducer(t.states, t.input_alphabet, t.output_alphabet, t.initial,
                        t.accepting, t.transitions) for t in machines]
    threads = 4  # more than the cores of a small host
    barrier = threading.Barrier(threads)
    got: list[list] = [[] for _ in range(threads)]

    def walk(k):
        barrier.wait(timeout=10)
        for t in fresh:
            got[k].append([t.arcs_from(q) for q in sorted(t.states)])

    workers = [threading.Thread(target=walk, args=(k,)) for k in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert got == [want] * threads


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


def reference_reach(t):
    """The states reachable from the initial state and the states that reach
    an accepting state, by a breadth-first walk over ``arcs_from`` and a
    reverse walk over a set of predecessors per state."""
    fwd = {t.initial}
    queue = deque([t.initial])
    while queue:
        q = queue.popleft()
        for _, dst, _ in t.arcs_from(q):
            if dst not in fwd:
                fwd.add(dst)
                queue.append(dst)
    rev = {}
    for tr in t.transitions:
        rev.setdefault(tr.dst, set()).add(tr.src)
    bwd = set(t.accepting)
    queue = deque(t.accepting)
    while queue:
        q = queue.popleft()
        for src in rev.get(q, ()):
            if src not in bwd:
                bwd.add(src)
                queue.append(src)
    return fwd, bwd


def reference_trim(t):
    """The reference for ``trim``: the live states are those both walks of
    ``reference_reach`` find, and the result is rebuilt through the public
    constructor."""
    fwd, bwd = reference_reach(t)
    keep = fwd & bwd
    if t.initial not in keep:
        return Transducer([t.initial], t.input_alphabet, t.output_alphabet, t.initial, [], [])
    return Transducer(
        keep,
        t.input_alphabet,
        t.output_alphabet,
        t.initial,
        t.accepting & keep,
        [tr for tr in t.transitions if tr.src in keep and tr.dst in keep],
    )


def raw_machine(rng):
    """A random machine that need not be trim: it may accept nothing, and
    any state, the initial one included, may be unreachable or a dead end.
    State ``n``, if present, has no outgoing transition; it may be accepting,
    and it may be left out of ``states`` (a malformed machine that ``trim``
    still handles)."""
    n = rng.randint(1, 7)
    size = n + rng.randint(0, 1)
    density = rng.choice((0.05, 0.15, 0.3))
    transitions = [
        (src, sym, dst, rng.choice(("", "x", "y", "xy")))
        for src in range(n)
        for sym in "ab"
        for dst in range(size)
        if rng.random() < density
    ]
    share = rng.choice((0.0, 0.15, 0.3, 1.0))
    accepting = [q for q in range(size) if rng.random() < share]
    listed = rng.choice((n, size))
    return Transducer(range(listed), "ab", "xy", rng.randrange(n), accepting, transitions)


def test_trim_matches_the_reference_on_random_machines():
    rng = random.Random(31)
    seen = dict.fromkeys(
        ("accepts nothing", "initial reaches no accepting state", "dead end",
         "unreachable state", "already trim"), 0)
    for _ in range(400):
        t = raw_machine(rng)
        ref = reference_trim(t)
        got = trim(t)
        assert got == ref, t
        for q in t.states | ref.states:
            assert got.arcs_from(q) == ref.arcs_from(q)
            for sym in t.input_alphabet:
                assert got.arcs_from(q, sym) == ref.arcs_from(q, sym)
        assert (got is t) == (ref == t)
        assert trim(got) is got
        fwd, bwd = reference_reach(t)
        seen["accepts nothing"] += not t.accepting
        seen["initial reaches no accepting state"] += bool(t.accepting) and t.initial not in bwd
        seen["dead end"] += t.initial in bwd and bool(fwd - bwd)
        seen["unreachable state"] += bool(t.states - fwd)
        seen["already trim"] += got is t and bool(t.transitions)
    assert min(seen.values()) >= 20, seen


def test_each_call_builds_each_machine_once(monkeypatch):
    """``disambiguate``, ``totalize`` and ``complement_dfa`` each build their
    result alone and never walk what they built, so its adjacency stays
    unbuilt; the three calls on one machine share one subset walk, in either
    order; ``infer`` builds the prefix tree, the materialized hypothesis,
    which is already trim, and the renumbered model."""
    built = walks = 0
    init = Transducer.__init__
    subsets = transform._subsets

    def counted_init(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    def counted_subsets(t):
        nonlocal walks
        walks += 1
        return subsets(t)

    def builds(call, *args):
        nonlocal built
        built = 0
        out = call(*args)
        if call is not infer:
            assert out._adj is None
        return built

    materialized = []
    materialize = ambiguity.QuotientView.materialize

    def kept_materialize(self):
        materialized.append(materialize(self))
        return materialized[-1]

    rng = random.Random(37)
    machines = [t for _, t, _ in BATTERY] + [NONDET_EXAMPLE, PARITY_HASH]
    machines += [t for t in (raw_machine(rng) for _ in range(60)) if not validate(t)]
    # fresh copies: a machine keeps its subset table from earlier calls
    forward = [fresh_copy(t) for t in machines]
    backward = [fresh_copy(t) for t in machines]
    informants = [generate_informant(t, 5) for _, t, _ in BATTERY]
    monkeypatch.setattr(Transducer, "__init__", counted_init)
    monkeypatch.setattr(transform, "_subsets", counted_subsets)
    monkeypatch.setattr(ambiguity.QuotientView, "materialize", kept_materialize)
    for step, copies in ((1, forward), (-1, backward)):
        for t in copies:
            calls = [(transform.disambiguate,),
                     (transform.totalize, "%" if "#" in t.output_alphabet else "#"),
                     (transform.complement_dfa,)]
            walks = 0
            for call, *args in calls[::step]:
                assert builds(call, t, *args) == 1
            assert walks == 1
    for informant in informants:
        assert builds(infer, informant) == 3
        assert trim(materialized[-1]) is materialized[-1]


def test_a_machine_pickles_and_copies_by_its_fields():
    """A pickled, copied or deep-copied machine is equal, hashes the same and
    starts with neither its adjacency nor its subset table filled, even
    when the original has both."""
    rng = random.Random(41)
    machines = [t for _, t, _ in BATTERY] + [NONDET_EXAMPLE, PARITY_HASH]
    machines += [random_machine(rng) for _ in range(40)]
    for t in map(fresh_copy, machines):
        transform.disambiguate(t)
        assert t._adj is not None and t._subsets is not None
        copies = [copy.copy(t), copy.deepcopy(t)]
        copies += [pickle.loads(pickle.dumps(t, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for again in copies:
            assert again is not t
            assert again == t and hash(again) == hash(t)
            assert again._adj is None and again._subsets is None
            assert all(type(tr) is Transition for tr in again.transitions)
            word = "".join(sorted(t.input_alphabet)) * 2
            assert transduce(again, word) == transduce(t, word)


def test_validate_clean():
    t = Transducer([0, 1], "a", "x", 0, [1], [(0, "a", 1, "x")])
    assert validate(t) == []


def test_validate_duplicate_triple():
    t = Transducer([0, 1], "a", "xy", 0, [1], [(0, "a", 1, "x"), (0, "a", 1, "y")])
    kinds = [v.kind for v in validate(t)]
    assert "delta" in kinds


def test_validate_names_what_lies_outside_the_machine():
    cases = [
        (2, [(0, "a", 1, "x")], Violation("initial", "initial state 2 not in states")),
        (0, [(2, "a", 1, "x")], Violation("endpoint", "source 2 not in states")),
        (0, [(0, "a", 1, "y")], Violation("alphabet", "output character 'y' not in output alphabet")),
    ]
    for initial, transitions, violation in cases:
        assert validate(Transducer([0, 1], "a", "x", initial, [1], transitions)) == [violation]


def test_a_machine_is_an_immutable_value():
    t = Transducer([0, 1], "a", "x", 0, [1], [(0, "a", 1, "x")])
    with pytest.raises(AttributeError, match="immutable"):
        t.initial = 1
    assert t.initial == 0
    assert t.__eq__(t.transitions) is NotImplemented and t != t.transitions
    assert repr(t) == "Transducer(states=2, transitions=1, accepting=[1])"


def test_validate_alphabet_violation():
    # a symbol outside the alphabet, or an input symbol of other than one
    # character, which transduce, reading one character a step, never reads
    for alphabet, symbol in ("a", "q"), (["ab"], "ab"), ("a", ""):
        t = Transducer([0, 1], alphabet, "x", 0, [1], [(0, symbol, 1, "x")])
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
        order = sorted(t.states)
        rng.shuffle(order)
        r = renumber(t, order)
        assert r.states == frozenset(range(len(t.states)))
        assert r.initial == order.index(t.initial)
        assert r.accepting == {order.index(q) for q in t.accepting}
        for word in words_up_to(t.input_alphabet, 4):
            assert transduce(t, word) == transduce(r, word)


def test_configuration_after_matches_the_concatenating_fold_on_long_words():
    """Random words of 20-60 symbols, so that normalised configurations with
    a non-empty delay repeat within a word and the step table is hit.  A
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
                    assert transduce(t, word) == outputs, (t, word)
                    nonfunctional += len(outputs) > 1
    assert alive >= 200
    assert delayed_repeats >= 300
    assert nonfunctional >= 50


def test_unbounded_delay_is_exact_and_memory_stays_linear():
    """LAST_LETTER's two live runs never share a prefix, so every step
    misses the step table; the table must not keep all the configurations
    it has seen, which would hold |w|^2 characters.  ``configuration_after``
    keeps both runs, and ``transduce`` the one that accepts."""
    rng = random.Random(5)
    n = 20_000
    word = "".join(rng.choice("ab") for _ in range(n - 1))
    assert transduce(LAST_LETTER, word + "b") == {"y" * n}
    assert configuration_after(LAST_LETTER, word + "b") == {(2, "x" * n), (4, "y" * n)}
    for call, want in ((transduce, {"x" * n}),
                       (configuration_after, {(1, "x" * n), (3, "y" * n)})):
        tracemalloc.start()
        try:
            got = call(LAST_LETTER, word + "a")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 16 * n, call.__name__


@pytest.mark.parametrize("name", ["rotation", "ostia_twist"])
def test_bounded_delay_output_is_joined_in_blocks(name):
    """Every symbol of these machines emits a chunk.  Joined in blocks, the
    output is held as the block strings, the joined prefix and the result,
    a few bytes per character; a list of one chunk per symbol would add
    eight bytes per symbol."""
    t = fresh_copy({n: m for n, m, _ in BATTERY}[name])
    t._adjacency()
    rng = random.Random(5)
    word = "".join(rng.choice("ab") for _ in range(20_000))
    tracemalloc.start()
    try:
        (output,) = transduce(t, word)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(output), (peak, len(output))


@pytest.mark.parametrize("name, most", [
    ("rotation", 6),
    ("ostia_twist", 4),
    ("nondet_reject", 4),
    ("NONDET_EXAMPLE", 5),
])
def test_transduce_is_linear_by_its_count_of_steps(monkeypatch, name, most):
    """Each step computed, as against read from the step table, takes one
    ``lcp`` of the next runs' pending outputs, so counting its calls counts
    the steps.  On a machine of bounded delay the count stays under a bound
    that does not depend on the input: one step per configuration and
    symbol reached.  The words span several blocks of emitted chunks, and
    the outputs must equal the plain fold's."""
    steps = 0
    lcp = core.lcp

    def counted(strings):
        nonlocal steps
        steps += 1
        return lcp(strings)

    machine = {"NONDET_EXAMPLE": NONDET_EXAMPLE, **{n: t for n, t, _ in BATTERY}}[name]
    monkeypatch.setattr(core, "lcp", counted)
    rng = random.Random(23)
    counts = []
    for n in (2_500, 5_000, 10_000, 20_000):
        word = "".join(rng.choice("ab") for _ in range(n))
        *_, last = reference_configurations(machine, word)
        steps = 0
        assert transduce(machine, word) == {p for q, p in last if q in machine.accepting}
        counts.append(steps)
    assert max(counts) <= most, counts
