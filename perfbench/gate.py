"""Correctness gate: every output is checked against the independent
``oracle`` module (and, for ``transduce``, against an evaluator of the
benchmark's own), outside the timed region.

``learned``, ``transduced`` and ``transformed`` take the job that was sent
to the worker and the result it gave; every check returns ``None`` when the
result is right or a one-line reason when it is not.
"""

from __future__ import annotations

from typing import Optional

from fstlearn import oracle
from fstlearn.core import Transducer

from worker import machine_from

# Word length of the brute-force checks on the library workload's machines.
BOUND = 4


def learned(job, result, target: Optional[Transducer] = None,
            bound: int = 0) -> Optional[str]:
    """The model reproduces every sample and, when a target is given, equals
    it on every input of length <= ``bound``."""
    machine, eps = machine_from(result[0]), result[1]
    for inp, out in job[1]:
        if inp == "":
            got = frozenset() if eps is None else frozenset([eps])
        else:
            got = oracle.path_outputs(machine, inp)
        if got != {out}:
            return f"sample {inp!r} -> {out!r} gives {sorted(got)}"
    if target is not None:
        report = oracle.equivalent_up_to(machine, target, bound)
        if not report:
            return f"differs from the target up to length {bound}: {report.counterexample}"
    return None


def evaluate(t: Transducer, word: str) -> frozenset:
    """Outputs of the accepting runs over ``word``, by an iterative walk that
    keeps each run's output as a linked list of chunks, so that inputs of
    10^5 symbols neither recurse nor copy outputs per step."""
    step: dict[tuple[int, str], list[tuple[int, str]]] = {}
    for tr in t.transitions:
        step.setdefault((tr.src, tr.symbol), []).append((tr.dst, tr.out))
    runs = [(t.initial, None)]
    for sym in word:
        runs = [
            (dst, (out, chunks) if out else chunks)
            for state, chunks in runs
            for dst, out in step.get((state, sym), ())
        ]
    outputs = set()
    for state, chunks in runs:
        if state in t.accepting:
            parts = []
            while chunks is not None:
                parts.append(chunks[0])
                chunks = chunks[1]
            outputs.add("".join(reversed(parts)))
    return frozenset(outputs)


def transduced(job, result) -> Optional[str]:
    machine, word = machine_from(job[1]), job[2]
    if frozenset(result) != evaluate(machine, word):
        return f"outputs on {len(word)} symbols differ from the reference evaluator"
    return None


def transformed(job, result) -> Optional[str]:
    """Check the four results of a ``transform`` job on a split machine."""
    src, reject = machine_from(job[1]), job[2]
    unambiguous, total = machine_from(result[0]), machine_from(result[1])
    return (disambiguated(src, unambiguous)
            or totalized(src, total, reject)
            or ambiguity_verdict(src, result[2], ambiguous=True)
            or ambiguity_verdict(unambiguous, result[3], ambiguous=False))


def disambiguated(src: Transducer, out: Transducer) -> Optional[str]:
    """Same relation as the input, and unambiguous, up to ``BOUND``."""
    report = oracle.equivalent_up_to(src, out, BOUND)
    if not report:
        return f"disambiguate changed the relation: {report.counterexample}"
    report = oracle.check_ambiguous_up_to(out, BOUND)
    if not report:
        return f"disambiguate left ambiguity: {report.counterexample}"
    return None


def totalized(src: Transducer, out: Transducer, reject: str) -> Optional[str]:
    """Functional, unchanged where the input accepted, and the reject
    symbol on every non-empty input the input rejected, up to ``BOUND``."""
    report = oracle.check_functional_up_to(out, BOUND)
    if not report:
        return f"totalize is not functional: {report.counterexample}"
    for word in oracle.words_up_to(src.input_alphabet, BOUND):
        want = oracle.path_outputs(src, word)
        if not want and word:
            want = frozenset([reject])
        got = oracle.path_outputs(out, word)
        if got != want:
            return f"totalize maps {word!r} to {sorted(got)}, expected {sorted(want)}"
    return None


def ambiguity_verdict(t: Transducer, word: Optional[str], ambiguous: bool) -> Optional[str]:
    """The verdict equals the known answer, and a reported witness word has
    at least two accepting runs."""
    if not ambiguous:
        return None if word is None else f"find_ambiguity reported {word!r} on an unambiguous machine"
    if word is None:
        return "find_ambiguity found nothing on an ambiguous machine"
    runs = len(oracle.accepting_paths(t, word))
    if runs < 2:
        return f"find_ambiguity witness {word!r} has {runs} accepting runs"
    return None
