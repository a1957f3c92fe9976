"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance and bound is fixed here; nothing is deferred to later
calibration.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

from fstlearn.ambiguity import find_ambiguity, square_reach
from fstlearn.core import transduce, trim
from fstlearn.infer import infer
from fstlearn.oracle import (
    accepting_paths,
    check_functional_up_to,
    check_local_prefix_preservation_up_to,
    equivalent_up_to,
    generate_informant,
    words_up_to,
)
from fstlearn.ptree import SampleSet, build_prefix_tree

from machines import (
    BATTERY,
    PARITY_HASH,
    random_deterministic_total,
    random_machine,
    random_mostly_deterministic,
)
from reference import build_star, enumerate_minimal_consistent, square_reach_after
from test_infer import commit_snapshots
from test_ptree import assert_ab_property


def report(criterion: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {verdict}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_identification_battery():
    assert len(BATTERY) >= 6
    assert {m for _, _, m in BATTERY} == {1, 2, 3, 4}
    details = []
    for name, target, m in BATTERY:
        target = trim(target)
        assert len(target.states) == m
        assert target.input_alphabet == {"a", "b"}
        assert len(target.output_alphabet) <= 3 and "#" in target.output_alphabet
        bound = 2 * m + 2
        assert check_functional_up_to(target, bound).verdict, name
        assert find_ambiguity(target, square_reach(target)) is None, name
        assert check_local_prefix_preservation_up_to(target, bound).verdict, name
        start = time.monotonic()
        informant = generate_informant(target, 2 * m)
        model = infer(informant)
        verdict = equivalent_up_to(target, model.machine, bound)
        elapsed = time.monotonic() - start
        ok = verdict.verdict and elapsed < 60.0
        details.append(f"{name}:{elapsed:.1f}s")
        if not ok:
            report("1 (identification battery)", False, f"{name} {verdict}")
    report("1 (identification battery)", True, " ".join(details))


def test_criterion_2_rpni_special_case():
    # even-length-a language encoded accept -> empty output, reject -> '#';
    # the hypothesis must realize exactly that relation (no transducer in
    # this model with 2 states does, so the minimal 3-state realization is
    # the reference)
    start = time.monotonic()
    informant = generate_informant(PARITY_HASH, 6)
    model = infer(informant)
    verdict = equivalent_up_to(PARITY_HASH, model.machine, 8)
    elapsed = time.monotonic() - start
    report(
        "2 (RPNI special case)",
        verdict.verdict and elapsed < 10.0,
        f"{len(model.machine.states)} states, {elapsed:.1f}s",
    )


def test_criterion_3_ostia_special_case():
    name, target, m = next(t for t in BATTERY if t[0] == "ostia_twist")
    assert m == 2
    start = time.monotonic()
    informant = generate_informant(target, 4)
    model = infer(informant)
    verdict = equivalent_up_to(target, model.machine, 6)
    elapsed = time.monotonic() - start
    report(
        "3 (OSTIA special case)",
        verdict.verdict and elapsed < 10.0,
        f"{elapsed:.1f}s",
    )


def test_criterion_4_ambiguity_oracle_agreement():
    rng = random.Random(401)
    start = time.monotonic()
    agreements = 0
    for _ in range(100):
        t = random_machine(rng, max_states=5)
        witness = find_ambiguity(t, square_reach(t))
        brute = any(
            len(accepting_paths(t, w)) > 1
            for w in words_up_to(t.input_alphabet, 6)
        )
        if (witness is not None) != brute:
            report(
                "4 (ambiguity oracle agreement)",
                False,
                f"disagreement on {t}",
            )
        agreements += 1
    elapsed = time.monotonic() - start
    report(
        "4 (ambiguity oracle agreement)",
        agreements == 100 and elapsed < 60.0,
        f"100/100, {elapsed:.1f}s",
    )


def test_criterion_5_incremental_squaring():
    rng = random.Random(501)
    start = time.monotonic()
    checked = 0
    while checked < 50:
        t = random_machine(rng, max_states=8)
        states = sorted(t.states)
        if len(states) < 2:
            continue
        merges = []
        incremental = square_reach(t)
        for _ in range(rng.randint(1, 4)):
            a, b = rng.sample(states, 2)
            merges.append((a, b))
            incremental.merge_update(a, b)
            incremental.explore()
            scratch = square_reach_after(t, merges)
            find = incremental.view.find
            canon_inc = {
                (min(find(x), find(y)), max(find(x), find(y)))
                for x, y in incremental.reached
            }
            if canon_inc != set(scratch.reached):
                report("5 (incremental squaring)", False, f"mismatch on {t}")
        checked += 1
    elapsed = time.monotonic() - start
    report(
        "5 (incremental squaring)",
        checked == 50 and elapsed < 60.0,
        f"{checked} machines, {elapsed:.1f}s",
    )


def test_criterion_6_pushback_soundness(monkeypatch):
    violations = 0
    sessions = 0
    commits = commit_snapshots(monkeypatch)
    for name, target, m in BATTERY:
        informant = generate_informant(trim(target), 2 * m)
        max_len = max(len(i) for i, _ in informant)
        commits.clear()
        infer(informant)
        for before, after in commits:
            sessions += 1
            for word in words_up_to(before.input_alphabet, max_len + 2):
                outs = transduce(before, word)
                if outs and transduce(after, word) != outs:
                    violations += 1
    report(
        "6 (push-back soundness)",
        violations == 0 and sessions > 0,
        f"{sessions} committed sessions, {violations} violations",
    )


def test_criterion_7_prefix_tree_laws():
    rng = random.Random(701)
    start = time.monotonic()
    built = 0
    while built < 200:
        target = random_deterministic_total(rng)
        informant = generate_informant(target, rng.randint(2, 4))
        if rng.random() < 0.5:
            informant = [p for p in informant if rng.random() < 0.7]
        if not informant:
            continue
        s = SampleSet(informant)
        tree, _ = build_prefix_tree(s)
        max_len = max(len(i) for i, _ in informant)
        for word in words_up_to(tree.input_alphabet, max_len + 1):
            expected = s.get(word)
            got = transduce(tree, word)
            if got != ({expected} if expected is not None else frozenset()):
                report("7 (prefix tree laws)", False, f"relation off at {word!r}")
        assert_ab_property(tree)
        star = build_star(s)
        if not equivalent_up_to(tree, star, max_len + 1).verdict:
            report("7 (prefix tree laws)", False, "star disagreement")
        built += 1
    elapsed = time.monotonic() - start
    report(
        "7 (prefix tree laws)",
        built == 200 and elapsed < 60.0,
        f"200 sample sets, {elapsed:.1f}s",
    )


def test_criterion_8_totalize_disambiguate():
    from fstlearn.transform import disambiguate, totalize

    rng = random.Random(801)
    start = time.monotonic()
    done = 0
    while done < 50:
        t = random_mostly_deterministic(rng, max_states=4)
        if "#" in t.output_alphabet:
            continue
        if not check_functional_up_to(t, 6).verdict:
            continue
        total = totalize(t, "#")
        for word in words_up_to(t.input_alphabet, 6):
            outs = transduce(total, word)
            before = transduce(t, word)
            if word == "":
                ok = outs == before
            elif before:
                ok = outs == before
            else:
                ok = outs == {"#"}
            if not ok:
                report("8 (totalize/disambiguate)", False, f"totalize at {word!r}")
        d = disambiguate(t)
        if find_ambiguity(d, square_reach(trim(d))) is not None:
            report("8 (totalize/disambiguate)", False, "ambiguity left")
        if not equivalent_up_to(t, d, 6).verdict:
            report("8 (totalize/disambiguate)", False, "relation changed")
        done += 1
    elapsed = time.monotonic() - start
    report(
        "8 (totalize/disambiguate)",
        done == 50 and elapsed < 120.0,
        f"50 machines, {elapsed:.1f}s",
    )


def test_criterion_9_enumeration_cross_check():
    start = time.monotonic()
    checked = 0
    for name, target, m in BATTERY:
        if m > 2:
            continue
        informant = generate_informant(trim(target), 2 * m)
        model = infer(informant)
        enumerated = enumerate_minimal_consistent(SampleSet(informant), m)
        ok = (
            enumerated is not None
            and len(enumerated.states) <= m
            and equivalent_up_to(enumerated, model.machine, 2 * m + 2).verdict
        )
        if not ok:
            report("9 (enumeration cross-check)", False, name)
        checked += 1
    elapsed = time.monotonic() - start
    report(
        "9 (enumeration cross-check)",
        checked >= 2 and elapsed < 300.0,
        f"{checked} targets, {elapsed:.1f}s",
    )


def test_criterion_10_consistency_guarantee():
    violations = 0
    runs = 0

    def run(pairs):
        nonlocal violations, runs
        runs += 1
        model = infer(pairs)
        for inp, out in pairs:
            if inp == "":
                if model.epsilon_output != out:
                    violations += 1
            elif transduce(model.machine, inp) != {out}:
                violations += 1

    for name, target, m in BATTERY:
        run(generate_informant(trim(target), 2 * m))
    run(generate_informant(PARITY_HASH, 6))
    rng = random.Random(1001)
    done = 0
    while done < 100:
        target = random_deterministic_total(rng)
        informant = generate_informant(target, rng.randint(2, 4))
        subset = [p for p in informant if rng.random() < 0.7]
        if not subset:
            continue
        run(subset)
        done += 1
    report(
        "10 (consistency guarantee)",
        violations == 0 and runs == 107,
        f"{runs} runs, {violations} violations",
    )
