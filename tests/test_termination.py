"""The learner returns on conforming targets, each call under a time limit so
that a hang fails the test instead of stalling the suite."""

import random
import signal
from contextlib import contextmanager

from fstlearn.ambiguity import find_ambiguity, square_reach
from fstlearn.core import transduce
from fstlearn.infer import infer
from fstlearn.oracle import (
    check_ambiguous_up_to,
    check_functional_up_to,
    equivalent_up_to,
    generate_informant,
)

from machines import HANG_REPRO, random_deterministic_total

LIMIT_S = 3  # the slowest of these learns takes under 0.1 s


@contextmanager
def time_limit(seconds, what):
    def expire(signum, frame):
        raise TimeoutError(f"{what}: no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def reproduces(model, samples) -> bool:
    return all(
        model.epsilon_output == out if inp == "" else transduce(model.machine, inp) == {out}
        for inp, out in samples
    )


def test_hang_repro_returns_the_target():
    with time_limit(LIMIT_S, "hang repro"):
        model = infer(generate_informant(HANG_REPRO, 4))
    assert equivalent_up_to(model.machine, HANG_REPRO, 6).verdict


def test_random_deterministic_targets_learn_unambiguous_models():
    rng = random.Random(7)
    for i in range(150):
        target = random_deterministic_total(rng, max_states=4)
        length = rng.randint(3, 6)
        samples = generate_informant(target, length)
        with time_limit(LIMIT_S, f"target {i}"):
            model = infer(samples)
        machine = model.machine
        assert reproduces(model, samples), i
        assert find_ambiguity(machine, square_reach(machine)) is None, i
        assert check_ambiguous_up_to(machine, 6).verdict, i
        assert check_functional_up_to(machine, 6).verdict, i
