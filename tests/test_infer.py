"""The learner: side channel, ordering, the merge loop end to end."""

import hashlib
import importlib
import random

import pytest

from fstlearn import ambiguity
from fstlearn.cli import _echo_attempt, serialize_machine
from fstlearn.core import Transducer, transduce, trim
from fstlearn.errors import ConfigurationError, ConflictError, ToolkitError
from fstlearn.infer import infer, split_epsilon, state_order
from fstlearn.oracle import equivalent_up_to, generate_informant
from fstlearn.ptree import build_prefix_tree

from machines import (
    BATTERY,
    NONDET_EXAMPLE,
    PARITY_HASH,
    random_deterministic_total,
    random_machine,
    random_mostly_deterministic,
)


def test_split_epsilon_diverts_empty_input():
    rest, eps = split_epsilon([("", "z"), ("a", "x")])
    assert eps == "z"
    assert rest == {"": "", "a": "x"}


def test_split_epsilon_absent():
    rest, eps = split_epsilon([("a", "x")])
    assert eps is None
    assert rest == {"a": "x"}


def test_split_epsilon_conflict():
    with pytest.raises(ConflictError):
        split_epsilon([("", "z"), ("", "w")])


def test_split_epsilon_conflict_on_nonempty_input():
    with pytest.raises(ConflictError) as info:
        split_epsilon([("a", "x"), ("b", "y"), ("a", "z")])
    assert (info.value.input, info.value.outputs) == ("a", ("x", "z"))


def test_state_order_is_length_lexicographic():
    _, prefixes = build_prefix_tree({"a": "x", "b": "y", "aa": "xx"})
    idents = [prefixes[q][0] for q in state_order(prefixes)]
    assert idents == ["", "a", "b", "aa"]


def test_state_order_breaks_ties_on_output():
    _, prefixes = build_prefix_tree({"a": "x", "ab": "yz"})
    ordered = [prefixes[q] for q in state_order(prefixes)]
    assert ordered.index(("a", "x")) < ordered.index(("a", "yz"))


def test_state_order_singleton():
    _, prefixes = build_prefix_tree({"": ""})
    assert state_order(prefixes) == [0]


def test_infer_loop_target():
    model = infer([("a", "x"), ("aa", "xx"), ("aaa", "xxx"), ("aaaa", "xxxx")])
    assert len(model.machine.states) == 1
    assert model.machine.accepting == {0}
    for n in range(1, 6):
        assert transduce(model.machine, "a" * n) == {"x" * n}


def test_infer_parity_hash_encoding():
    # accept -> empty output, reject -> '#', for the even-length language
    informant = generate_informant(PARITY_HASH, 6)
    model = infer(informant)
    assert equivalent_up_to(PARITY_HASH, model.machine, 8).verdict


def test_infer_nondeterministic_example():
    informant = generate_informant(NONDET_EXAMPLE, 5)
    model = infer(informant)
    assert equivalent_up_to(NONDET_EXAMPLE, model.machine, 7).verdict


def test_infer_consistency_on_battery():
    for name, target, m in BATTERY:
        informant = generate_informant(target, 2 * m)
        model = infer(informant)
        for inp, out in informant:
            assert transduce(model.machine, inp) == {out}, (name, inp)


def test_infer_epsilon_output_side_channel():
    model = infer([("", ""), ("a", "x"), ("aa", "xx")])
    assert model.epsilon_output == ""
    assert transduce(model.machine, "") == {""}


def commit_snapshots(monkeypatch):
    """A list that receives (before, after) machines for every merge that
    ``infer`` commits: a wrapper around ``fstlearn.infer.try_merge``
    materializes the view around each attempt, for the test alone."""
    infer_module = importlib.import_module("fstlearn.infer")  # not the function
    real_try_merge = infer_module.try_merge
    snapshots = []

    def snapshot(view, a, b, trace=None):
        before = view.materialize()
        session = real_try_merge(view, a, b, trace=trace)
        if session is not None:
            snapshots.append((before, view.materialize()))
        return session

    monkeypatch.setattr(infer_module, "try_merge", snapshot)
    return snapshots


def test_infer_monotone_state_count(monkeypatch):
    commits = commit_snapshots(monkeypatch)
    trace = []
    infer(
        [("a", "x"), ("aa", "xx"), ("aaa", "xxx")],
        trace=trace.append,
    )
    sizes = [(len(before.states), len(after.states)) for before, after in commits]
    assert len(sizes) == sum(e["kind"] == "merge_committed" for e in trace)
    assert sizes
    for before, after in sizes:
        assert after < before


def test_echoed_trace_drops_each_event_unless_the_caller_keeps_it(
    monkeypatch, capsys
):
    """The learner holds no trace events of its own: the CLI echo prints each
    event and keeps none; a callback that appends to a list keeps every
    event."""
    infer_module = importlib.import_module("fstlearn.infer")  # not the function
    sinks = []
    real_try_merge = infer_module.try_merge

    def spy(view, a, b, trace=None):
        sinks.append(trace)
        return real_try_merge(view, a, b, trace=trace)

    monkeypatch.setattr(infer_module, "try_merge", spy)
    samples = [("a", "x"), ("aa", "xx"), ("aaa", "xxx"), ("b", "y")]
    infer(samples, trace=_echo_attempt)
    echoed = capsys.readouterr().err.splitlines()
    assert len(sinks) > 1 and all(sink is _echo_attempt for sink in sinks)
    assert len(echoed) == len(sinks)

    kept = []
    infer(samples, trace=kept.append)
    assert capsys.readouterr().err == ""
    assert len(kept) == len(echoed)
    for line, entry in zip(echoed, kept):
        a, b = entry["pair"]
        assert line.startswith(f"merge {a}+{b}: ")


def test_infer_deterministic_runs():
    informant = generate_informant(BATTERY[2][1], 4)
    a = infer(informant)
    b = infer(informant)
    assert a.machine == b.machine
    assert a.epsilon_output == b.epsilon_output


def test_infer_random_conforming_sample_sets_stay_consistent():
    rng = random.Random(61)
    for _ in range(40):
        target = random_deterministic_total(rng)
        informant = generate_informant(target, rng.randint(2, 4))
        subset = [p for p in informant if rng.random() < 0.7]
        if not subset:
            continue
        model = infer(subset)
        for inp, out in subset:
            if inp == "":
                assert model.epsilon_output == out
            else:
                assert transduce(model.machine, inp) == {out}, (target, subset, inp)


def test_learner_config_validation():
    # a ToolkitError, so callers that catch the toolkit's errors see it
    with pytest.raises(ConfigurationError):
        infer([("a", "x")], max_merge_passes=0)


def test_second_merge_pass_reaches_the_minimal_parity_machine():
    # one pass leaves 4 states here; the second pass merges down to 3
    informant = generate_informant(PARITY_HASH, 6)
    model = infer(informant, max_merge_passes=2)
    assert len(model.machine.states) == 3
    assert equivalent_up_to(PARITY_HASH, model.machine, 8).verdict


def test_learns_from_partial_informants_of_nondeterministic_targets_are_pinned():
    # Subsets of informants leave the learner free to merge where a full one
    # forbids it, so witness order, and with it every learned machine, shows
    # in this digest; the benchmark's digests come from full informants or
    # deterministic targets and cannot see it.  Non-functional targets have
    # no informant and are drawn again.
    rng = random.Random(7)
    digest = hashlib.sha256()
    learned = 0
    for make in (random_mostly_deterministic, random_machine):
        drawn = 0
        while drawn < 100:
            try:
                informant = generate_informant(make(rng), rng.randint(3, 5))
            except ToolkitError:
                continue
            for keep in (0.8, 0.6):
                subset = [p for p in informant if rng.random() < keep]
                if not subset:
                    continue
                model = infer(subset)
                for inp, out in subset:
                    if inp == "":
                        assert model.epsilon_output == out
                    else:
                        assert transduce(model.machine, inp) == {out}
                # a quotient of the trim prefix tree is trim, and push-backs
                # change only outputs: the trim in infer never cuts
                assert trim(model.machine) is model.machine
                digest.update(serialize_machine(model.machine, model.epsilon_output).encode())
                learned += 1
            drawn += 1
    assert learned == 396
    assert digest.hexdigest() == (
        "0d37a16483b569fa163f95b0723ad1b3631a5fd77047b0b72e1f206d1f5ca698"
    )


def test_nondet_reject_learns_without_re_expanding_the_pair_search(monkeypatch):
    # A union keeps the part of the pair search that a restart would repeat,
    # and an expansion stops at its first event, so learning the full
    # informant of nondet_reject at L=8 starts about 1,300 pair expansions.
    # Restarting the search on every union and expanding eagerly took 15,048.
    calls = 0
    expand_one = ambiguity.PairSearchState.expand_one

    def counted(self):
        nonlocal calls
        calls += 1
        return expand_one(self)

    monkeypatch.setattr(ambiguity.PairSearchState, "expand_one", counted)
    target = dict((name, t) for name, t, _ in BATTERY)["nondet_reject"]
    model = infer(generate_informant(target, 8))
    assert len(model.machine.states) == 4
    assert calls <= 2500


def test_nondet_reject_learns_without_rebuilding_edge_lists_from_members(monkeypatch):
    # A view takes every state's edge list from the base machine's sorted
    # transitions, and a union joins the two classes' lists and re-keys the
    # lists that point into the folded class, so learning the full informant
    # of nondet_reject at L=8 reads arcs only in the final trim, of 4 states.
    # Building each list from its members' arcs on first read took 1,330
    # calls; dropping each list on a union and rebuilding it took 10,546.
    calls = 0
    arcs_from = Transducer.arcs_from

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return arcs_from(self, *args)

    target = dict((name, t) for name, t, _ in BATTERY)["nondet_reject"]
    informant = generate_informant(target, 8)
    monkeypatch.setattr(Transducer, "arcs_from", counted)
    model = infer(informant)
    assert len(model.machine.states) == 4
    assert calls <= 100


def test_infer_holds_one_hypothesis_view_and_materializes_it_once(monkeypatch):
    # Every merge attempt runs on one view of the prefix tree: a rejected one
    # rolls back, a committed one keeps its changes, and the learned machine
    # is materialized once, at the end, whether or not a trace callback
    # watches the attempts.
    built = materialized = 0
    init, materialize = ambiguity.QuotientView.__init__, ambiguity.QuotientView.materialize

    def counted_init(self, base):
        nonlocal built
        built += 1
        init(self, base)

    def counted_materialize(self):
        nonlocal materialized
        materialized += 1
        return materialize(self)

    monkeypatch.setattr(ambiguity.QuotientView, "__init__", counted_init)
    monkeypatch.setattr(ambiguity.QuotientView, "materialize", counted_materialize)
    target = dict((name, t) for name, t, _ in BATTERY)["nondet_reject"]
    informant = generate_informant(target, 6)
    kept = []
    for trace in (None, _echo_attempt, kept.append):
        built = materialized = 0
        model = infer(informant, trace=trace)
        assert len(model.machine.states) == 4
        assert (built, materialized) == (1, 1)
    assert kept
