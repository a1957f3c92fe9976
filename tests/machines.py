"""Shared hand-built targets and random generators for the test suite."""

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


# Two-state deterministic total target whose informant of length 4 once made
# the learner loop forever in witness reconstruction.
HANG_REPRO = Transducer(
    [0, 2],
    "ab",
    "xy",
    0,
    [0, 2],
    [(0, "a", 0, ""), (0, "b", 2, ""), (2, "a", 2, ""), (2, "b", 0, "yx")],
)


# Functional and unambiguous but not subsequential: a word goes to x^|w| if it
# ends in a and to y^|w| otherwise.  Both branches stay live to the end, so
# their pending outputs x^k and y^k share no prefix and the delay is |w|.
LAST_LETTER = Transducer(
    range(5),
    "ab",
    "xy",
    0,
    [0, 1, 4],
    [
        (0, "a", 1, "x"),
        (0, "b", 2, "x"),
        (1, "a", 1, "x"),
        (1, "b", 2, "x"),
        (2, "a", 1, "x"),
        (2, "b", 2, "x"),
        (0, "a", 3, "y"),
        (0, "b", 4, "y"),
        (3, "a", 3, "y"),
        (3, "b", 4, "y"),
        (4, "a", 3, "y"),
        (4, "b", 4, "y"),
    ],
)


def random_machine(rng: random.Random, max_states=5, sigma="ab", gamma="xy",
                   max_out=2) -> Transducer:
    """Random trim transducer; retries until the trim result is nonempty."""
    while True:
        n = rng.randint(1, max_states)
        transitions = []
        for src in range(n):
            for sym in sigma:
                for dst in range(n):
                    if rng.random() < 0.35:
                        out = "".join(
                            rng.choice(gamma)
                            for _ in range(rng.randint(0, max_out))
                        )
                        transitions.append((src, sym, dst, out))
        accepting = [q for q in range(n) if rng.random() < 0.4]
        t = trim(Transducer(range(n), sigma, gamma, 0, accepting, transitions))
        if t.transitions:
            return t


def random_mostly_deterministic(rng: random.Random, max_states=4, sigma="ab",
                                gamma="xy", max_out=2) -> Transducer:
    """Random trim machine with at most occasional nondeterminism, which makes
    the functionality filter cheap to satisfy."""
    while True:
        n = rng.randint(1, max_states)
        transitions = []
        for src in range(n):
            for sym in sigma:
                if rng.random() < 0.25:
                    continue
                fanout = 2 if rng.random() < 0.15 else 1
                for dst in rng.sample(range(n), min(fanout, n)):
                    out = "".join(
                        rng.choice(gamma) for _ in range(rng.randint(0, max_out))
                    )
                    transitions.append((src, sym, dst, out))
        accepting = [q for q in range(n) if rng.random() < 0.5]
        t = trim(Transducer(range(n), sigma, gamma, 0, accepting, transitions))
        if t.transitions:
            return t


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


def fresh_copy(t: Transducer) -> Transducer:
    """An equal machine with neither its adjacency nor its subset table
    filled: the shared machines above keep what earlier tests filled."""
    return Transducer(t.states, t.input_alphabet, t.output_alphabet, t.initial,
                      t.accepting, t.transitions)
