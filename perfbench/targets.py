"""Targets and inputs owned by the benchmark.

``BATTERY``, ``NONDET_EXAMPLE``, ``PARITY_HASH`` and
``random_deterministic_total`` are verbatim copies of the test suite's
machines, kept here so that an edit to the tests cannot change what the
benchmark measures.  ``test_perfbench`` checks that the copies still agree.
"""

import random

from fstlearn.core import Transducer, trim

# Conforming identification targets: functional, unambiguous, trim, total for
# non-empty inputs, locally prefix-preserving, and accepting the empty pair.
# Each entry: (name, machine, state count m).

BATTERY = [
    (
        "loop_mark",  # m=1: copy a's to x, mark b's
        Transducer([0], "ab", "x#", 0, [0], [(0, "a", 0, "x"), (0, "b", 0, "#")]),
        1,
    ),
    (
        "loop_erase",  # m=1: erase a's, mark b's
        Transducer([0], "ab", "x#", 0, [0], [(0, "a", 0, ""), (0, "b", 0, "#")]),
        1,
    ),
    (
        "parity_outputs",  # m=2: output depends on a-parity
        Transducer(
            [0, 1],
            "ab",
            "xy#",
            0,
            [0, 1],
            [(0, "a", 1, "x"), (0, "b", 0, "#"), (1, "a", 0, "y"), (1, "b", 1, "#")],
        ),
        2,
    ),
    (
        "ostia_twist",  # m=2: deterministic onward target with output growth
        Transducer(
            [0, 1],
            "ab",
            "xy#",
            0,
            [0, 1],
            [(0, "a", 1, "x"), (0, "b", 0, "yy"), (1, "a", 0, "x"), (1, "b", 1, "y")],
        ),
        2,
    ),
    (
        "rotation",  # m=3: three-state a-cycle
        Transducer(
            [0, 1, 2],
            "ab",
            "xy#",
            0,
            [0, 1, 2],
            [
                (0, "a", 1, "x"),
                (0, "b", 0, "#"),
                (1, "a", 2, "y"),
                (1, "b", 1, "x"),
                (2, "a", 0, "xy"),
                (2, "b", 2, "y"),
            ],
        ),
        3,
    ),
    (
        "nondet_reject",  # m=4: genuinely nondeterministic; a -> x, rest -> #
        Transducer(
            [0, 1, 2, 3],
            "ab",
            "x#",
            0,
            [0, 1, 3],
            [
                (0, "a", 1, "x"),
                (0, "a", 2, "#"),
                (0, "b", 3, "#"),
                (2, "a", 3, ""),
                (2, "b", 3, ""),
                (3, "a", 3, ""),
                (3, "b", 3, ""),
            ],
        ),
        4,
    ),
]

# The nondeterministic example machine with totalizing continuations:
# a -> x, ab -> yz, every other non-empty input -> '#'.
NONDET_EXAMPLE = trim(
    Transducer(
        range(7),
        "ab",
        "xyz#",
        0,
        [0, 1, 3, 6],
        [
            (0, "a", 1, "x"),
            (0, "a", 2, "yz"),
            (2, "b", 3, ""),
            (0, "b", 6, "#"),
            (6, "a", 6, ""),
            (6, "b", 6, ""),
            (0, "a", 4, "#"),
            (4, "a", 6, ""),
            (4, "b", 5, ""),
            (5, "a", 6, ""),
            (5, "b", 6, ""),
        ],
    )
)

# Minimal realization of the parity relation eps/a^even -> eps, a^odd -> '#'
# (the accept->eps / reject->'#' encoding of the even-length-a language).
PARITY_HASH = Transducer(
    [0, 1, 2],
    "a",
    "#",
    0,
    [0, 2],
    [(0, "a", 2, "#"), (0, "a", 1, ""), (1, "a", 0, "")],
)


def random_deterministic_total(rng: random.Random, max_states=3, sigma="ab",
                               gamma="xy", max_out=2) -> Transducer:
    """Random deterministic machine, total over the alphabet, all states
    accepting; such machines are conforming targets by construction."""
    n = rng.randint(1, max_states)
    transitions = []
    for src in range(n):
        for sym in sigma:
            dst = rng.randrange(n)
            out = "".join(rng.choice(gamma) for _ in range(rng.randint(0, max_out)))
            transitions.append((src, sym, dst, out))
    return trim(Transducer(range(n), sigma, gamma, 0, range(n), transitions))


# A two-state deterministic total target on which ``infer`` does not return
# at the time this benchmark was written: witness reconstruction loops while
# memory grows.  ``learn_random`` learns it at L = 4.
HANG_REPRO = Transducer(
    [0, 2], "ab", "xy", 0, [0, 2],
    [(0, "a", 0, ""), (0, "b", 2, ""), (2, "a", 2, ""), (2, "b", 0, "yx")],
)


def split_machine(rng: random.Random, n: int, k: int) -> Transducer:
    """A deterministic total machine over ``abc``/``xyz`` with every state
    copied ``k`` times and each transition sent to a random non-empty set of
    the copies of its target.

    The result realizes the same relation as the deterministic machine, so it
    is functional, and it is ambiguous: the initial copy sends its ``a``
    transition to every copy of an accepting state, so the input ``a`` has
    ``k`` accepting runs.
    """
    delta = {
        (q, sym): (rng.randrange(n), "".join(
            rng.choice("xyz") for _ in range(rng.randint(0, 2))))
        for q in range(n)
        for sym in "abc"
    }
    accepting = {q for q in range(n) if rng.random() < 0.5}
    accepting.add(delta[0, "a"][0])
    transitions = []
    for (q, sym), (dst, out) in delta.items():
        for c in range(k):
            if (q, c, sym) == (0, 0, "a"):
                copies = list(range(k))
            else:
                copies = [d for d in range(k) if rng.random() < 0.5]
                copies = copies or [rng.randrange(k)]
            transitions.extend((q * k + c, sym, dst * k + d, out) for d in copies)
    return trim(Transducer(
        range(n * k), "abc", "xyz", 0,
        [q * k + c for q in accepting for c in range(k)], transitions,
    ))
