"""Brute-force machinery: bounded checks and informants, and the enumeration
learner of ``reference``."""

import random

import pytest

from fstlearn.core import Transducer, trim
from fstlearn.errors import ToolkitError
from fstlearn.oracle import (
    check_functional_up_to,
    check_local_prefix_preservation_up_to,
    equivalent_up_to,
    generate_informant,
    path_outputs,
)

from machines import random_deterministic_total, random_machine, random_mostly_deterministic
from reference import enumerate_minimal_consistent, local_prefix_preservation_up_to


def test_enumeration_single_pair():
    machine = enumerate_minimal_consistent({"a": "x"}, 2)
    assert machine is not None
    assert len(machine.states) <= 2
    assert path_outputs(machine, "a") == {"x"}


def test_enumeration_empty_sample_set():
    machine = enumerate_minimal_consistent({}, 1)
    assert machine is not None
    assert len(machine.states) == 1
    assert not machine.accepting


def test_enumeration_respects_state_budget():
    # x and y share no prefix, so no 1- or 2-state machine fits; three do
    s = {"a": "x", "aa": "y"}
    assert enumerate_minimal_consistent(s, 1) is None
    assert enumerate_minimal_consistent(s, 2) is None
    bigger = enumerate_minimal_consistent(s, 3)
    assert bigger is not None
    assert path_outputs(bigger, "a") == {"x"}
    assert path_outputs(bigger, "aa") == {"y"}


def test_equivalence_reflexive():
    t = Transducer([0, 1], "ab", "x", 0, [1], [(0, "a", 1, "x")])
    assert equivalent_up_to(t, t, 5).verdict


def test_equivalence_detects_single_difference():
    t1 = Transducer(
        [0, 1, 2, 3],
        "a",
        "xy",
        0,
        [3],
        [(0, "a", 1, "x"), (1, "a", 2, "x"), (2, "a", 3, "x")],
    )
    t2 = Transducer(
        [0, 1, 2, 3],
        "a",
        "xy",
        0,
        [3],
        [(0, "a", 1, "x"), (1, "a", 2, "x"), (2, "a", 3, "y")],
    )
    report = equivalent_up_to(t1, t2, 5)
    assert not report.verdict
    assert report.counterexample[0] == "aaa"


def test_equivalence_with_trim():
    rng = random.Random(67)
    for _ in range(10):
        t = random_machine(rng, max_states=4)
        assert equivalent_up_to(t, trim(t), 6).verdict


def test_functional_check_deterministic():
    t = Transducer([0, 1], "ab", "xy", 0, [0, 1], [(0, "a", 1, "x"), (1, "b", 0, "y")])
    report = check_functional_up_to(t, 6)
    assert report.verdict and report


def test_functional_check_counterexample():
    t = Transducer(
        [0, 1, 2], "a", "xy", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "y")]
    )
    report = check_functional_up_to(t, 6)
    assert not report.verdict and not report
    assert report.counterexample[0] == "a"


def test_lpp_single_chain():
    t = Transducer(
        [0, 1, 2], "a", "x", 0, [2], [(0, "a", 1, "x"), (1, "a", 2, "x")]
    )
    assert check_local_prefix_preservation_up_to(t, 6).verdict


def test_lpp_empty_prefix_violation():
    t = Transducer(
        [0, 1, 2], "ab", "x", 0, [2, 1], [(0, "a", 1, ""), (0, "a", 2, "x")]
    )
    report = check_local_prefix_preservation_up_to(trim(t), 4)
    assert not report.verdict


def test_lpp_check_agrees_with_the_reference_check():
    # same verdict and same counterexample as the check it replaced, on
    # machines that break LPP at various depths and on machines that keep it
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for i in range(300):
        make = (random_machine, random_mostly_deterministic, random_deterministic_total)[i % 3]
        t = make(rng)
        bound = rng.randint(1, 5)
        report = check_local_prefix_preservation_up_to(t, bound)
        assert report == local_prefix_preservation_up_to(t, bound), (t, bound)
        verdicts[report.verdict] += 1
    assert min(verdicts.values()) >= 50, verdicts


def test_lpp_holds_on_prefix_trees():
    from fstlearn.ptree import build_prefix_tree

    rng = random.Random(71)
    for _ in range(15):
        target = random_deterministic_total(rng)
        informant = generate_informant(target, 3)
        if not informant:
            continue
        tree, _ = build_prefix_tree(dict(informant))
        assert check_local_prefix_preservation_up_to(tree, 4).verdict


def test_informant_of_loop():
    t = Transducer([0], "a", "x", 0, [0], [(0, "a", 0, "x")])
    assert generate_informant(t, 3) == [
        ("", ""),
        ("a", "x"),
        ("aa", "xx"),
        ("aaa", "xxx"),
    ]


def test_informant_of_empty_machine():
    t = trim(Transducer([0], "a", "x", 0, [], []))
    assert generate_informant(t, 3) == []


def test_informant_of_total_machine_counts():
    t = Transducer([0], "ab", "xy", 0, [0], [(0, "a", 0, "x"), (0, "b", 0, "y")])
    pairs = generate_informant(t, 2)
    assert len([p for p in pairs if p[0]]) == 6  # |Sigma| + |Sigma|^2


def test_informant_rejects_nonfunctional():
    t = Transducer(
        [0, 1, 2], "a", "xy", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "y")]
    )
    with pytest.raises(ToolkitError):
        generate_informant(t, 2)
