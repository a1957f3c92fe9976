"""Benchmark of the fstlearn learner and of its library calls.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

Workloads (README.md says why each was chosen):

    learn_ladder   battery targets at growing informant lengths
    learn_random   150 small random conforming targets and a two-state target that hangs
    library        transduce, disambiguate, totalize and the ambiguity check

Every operation runs in a worker child with a time limit (``worker.py``), at
most one child at a time, and every output is checked by the correctness
gate (``gate.py``) outside the timed region.  A timeout, a ``MemoryError``,
an exception or a failed check is a failed operation: it is counted, charged
at its time limit in the per-operation percentiles, and never dropped.
Operation and set-up times are CPU seconds, scaled to a nominal host speed
measured by calibration units run between them (``worker.calibrate``).

The workload's operations are run in whole passes until ``--seconds`` is
spent (at least one).  With ``--trace 1`` the run makes one untraced and one
traced pass and reports per-layer metrics (``layers.py``) instead.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
from collections import Counter
from functools import partial
from pathlib import Path
from random import Random
from time import perf_counter
from typing import Callable, NamedTuple

from checkout import import_fstlearn

import_fstlearn()

from fstlearn import oracle  # noqa: E402
from fstlearn.cli import serialize_machine  # noqa: E402

import gate  # noqa: E402
import targets  # noqa: E402
from layers import layer_metrics  # noqa: E402
from worker import (  # noqa: E402
    CALIBRATION_SHARE, CLOCK, Reply, Worker, calibrate, machine_from, machine_tuple, speed_scale,
)

RUN_SECONDS = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["run_seconds"]

# Set-up is repeated at least this often and for at least this long, and
# the median is reported.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0

# Rungs of learn_ladder: (battery target, informant lengths).  With |Σ| = 2
# each step of L doubles the number of sample pairs.  The next rung of each
# target takes 6 to 12 s, over which the host's speed drifts more than the
# calibration around the operation can follow; up to about 2 s it follows.
LADDER = (
    ("nondet_reject", (6, 7, 8)),
    ("loop_mark", (5, 6, 7)),
    ("rotation", (7, 8, 9)),
    ("ostia_twist", (8,)),
    ("parity_outputs", (8,)),
    ("PARITY_HASH", (10,)),
)
LADDER_LIMIT_S = 60.0

# learn_random always learns the target set drawn from seed 7, the set that
# exposed the witness-reconstruction hang; ``--seed`` does not change it.
# Across target sets drawn from seeds 1-10 the median learn time ranged from
# 7 to 15 ms, too wide for any regression bound.
RANDOM_TARGET_SEED = 7
RANDOM_TARGETS = 150
RANDOM_LIMIT_S = 0.6  # the slowest call that returns takes about 0.25 s

# Times of these kinds of call are not scaled by the calibration.  A long
# transduce mostly copies long strings, which a busy host slows in another
# way than the calibration units: scaling doubled the spread of its times,
# while it halved that of learning.
UNSCALED_KINDS = {"transduce"}

LONG_INPUTS = (30_000, 100_000)
SPLIT_MACHINES = 12
SPLIT_STATES = 200
SPLIT_COPIES = 3
REJECT = "#"
LIBRARY_LIMIT_S = 30.0


class Op(NamedTuple):
    """One timed operation: the job sent to the worker, its time limit, and
    the gate check for its result."""

    label: str
    job: tuple
    limit: float
    check: Callable


def learn_op(label, target, length, limit, bound=None) -> Op:
    samples = oracle.generate_informant(target, length)
    check = gate.learned if bound is None else partial(gate.learned, target=target, bound=bound)
    return Op(label, ("learn", samples), limit, check)


def setup_learn_ladder(seed: int) -> list[Op]:
    """The seed is not used: the informants are fixed by the targets."""
    machines = {name: machine for name, machine, _ in targets.BATTERY}
    machines["PARITY_HASH"] = targets.PARITY_HASH
    return [
        learn_op(f"{name} L={length}", machines[name], length, LADDER_LIMIT_S,
                 bound=length + 2)
        for name, lengths in LADDER
        for length in lengths
    ]


def setup_learn_random(seed: int) -> list[Op]:
    """The seed is not used: the targets are those of RANDOM_TARGET_SEED."""
    gen = Random(RANDOM_TARGET_SEED)
    ops = []
    for i in range(RANDOM_TARGETS):
        target = targets.random_deterministic_total(gen, max_states=4)
        length = gen.randint(3, 6)
        ops.append(learn_op(f"random[{i}] L={length}", target, length, RANDOM_LIMIT_S))
    ops.append(learn_op("hang_repro L=4", targets.HANG_REPRO, 4, RANDOM_LIMIT_S))
    return ops


def setup_library(seed: int) -> list[Op]:
    rng = Random(seed)
    words = ["".join(rng.choice("ab") for _ in range(n)) for n in LONG_INPUTS]
    battery = {name: machine for name, machine, _ in targets.BATTERY}
    ops = []
    for name, machine in (
        ("rotation", battery["rotation"]),
        ("ostia_twist", battery["ostia_twist"]),
        ("nondet_reject", battery["nondet_reject"]),
        ("NONDET_EXAMPLE", targets.NONDET_EXAMPLE),
    ):
        for word in words:
            ops.append(Op(f"transduce {name} n={len(word)}",
                          ("transduce", machine_tuple(machine), word),
                          LIBRARY_LIMIT_S, gate.transduced))
    for i in range(SPLIT_MACHINES):
        split = machine_tuple(targets.split_machine(rng, SPLIT_STATES, SPLIT_COPIES))
        ops.append(Op(f"transform split[{i}]", ("transform", split, REJECT),
                      LIBRARY_LIMIT_S, gate.transformed))
    # interleave the kinds, so that each is sampled across the whole pass
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "learn_ladder": setup_learn_ladder,
    "learn_random": setup_learn_random,
    "library": setup_library,
}


def run_pass(worker: Worker, ops: list[Op]) -> list[Reply]:
    """Run every operation once, in order."""
    return [worker.call(op.job, op.limit) for op in ops]


def judge(ops: list[Op], passes: list[list[Reply]]) -> tuple[set, list[str], bool]:
    """Gate every result.  Returns the failed (pass, op) positions, a line
    per failure, and whether every returned result was correct.  A result
    equal to one that already passed is not checked again; one that differs
    from it fails."""
    accepted: dict[int, object] = {}
    failed, lines, correct = set(), [], True
    for p, replies in enumerate(passes):
        for i, (op, reply) in enumerate(zip(ops, replies)):
            if reply.status != "ok":
                why = reply.status
            elif i in accepted:
                if reply.result == accepted[i]:
                    continue
                why = "result differs from an earlier pass"
                correct = False
            else:
                why = op.check(op.job, reply.result)
                if why is None:
                    accepted[i] = reply.result
                    continue
                correct = False
            failed.add((p, i))
            lines.append(f"  FAIL pass {p} {op.label}: {why}")
    return failed, lines, correct


def digest(ops: list[Op], replies: list[Reply]) -> str:
    """SHA-256 of the serialized learned models and transform outputs."""
    h = hashlib.sha256()
    for op, reply in zip(ops, replies):
        kind = op.job[0]
        if kind == "transduce":
            continue
        if reply.status != "ok":
            h.update(b"failed\n")
        elif kind == "learn":
            h.update(serialize_machine(machine_from(reply.result[0]), reply.result[1]).encode())
        else:
            for machine in reply.result[:2]:
                h.update(serialize_machine(machine_from(machine)).encode())
    return h.hexdigest()


def charged(ops: list[Op], passes: list[list[Reply]], failed: set) -> list[list[dict]]:
    """Per pass and operation, the seconds per kind of library call, scaled
    to the nominal host speed measured by the calibration units run just
    before and just after the operation, except for ``UNSCALED_KINDS``; a
    failed operation counts at its time limit."""
    rows = []
    for p, replies in enumerate(passes):
        calibrations = [reply.calibration for reply in replies]
        row = []
        for i, (op, reply) in enumerate(zip(ops, replies)):
            if (p, i) in failed:
                row.append({op.job[0]: op.limit})
                continue
            scale = speed_scale(calibrations[max(i - 1, 0):i + 1])
            row.append({kind: s if kind in UNSCALED_KINDS else scale * s
                        for kind, s in reply.parts.items()})
        rows.append(row)
    return rows


def percentiles_ms(seconds: list[float]) -> tuple[float, float]:
    """Median and p90 in milliseconds."""
    return 1000 * statistics.median(seconds), 1000 * statistics.quantiles(seconds, n=10)[-1]


def end_to_end_metrics(setup_times: list[float], times: list[list[float]],
                       failed: set, ok_replies: list[Reply]) -> dict:
    """The end-to-end metrics of the untraced passes, as name -> (value,
    unit).  ``times`` holds the charged seconds of each operation per pass.
    ``work_s`` sums the operations that completed: a failure counted there
    at its time limit would be a constant that hides changes in the rest,
    and ``ok_share`` already counts it."""
    flat = [t for row in times for t in row]
    completed = [sum(t for i, t in enumerate(row) if (p, i) not in failed)
                 for p, row in enumerate(times)]
    p50, p90 = percentiles_ms(flat)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "work_s": (statistics.median(completed), "s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_share": (1 - len(failed) / len(flat), "ratio"),
        "peak_rss_mb": (max((r.maxrss_kb for r in ok_replies), default=0) / 1024, "MB"),
    }


def print_report(ops: list[Op], parts: list[list[dict]], failures: int) -> None:
    """Figures per kind of library call (summed time per pass, median and
    p90 per call), the failed share, and the growth per doubling of each
    target learned at several informant lengths."""
    for kind in sorted({kind for row in parts for d in row for kind in d}):
        per_pass = [[d[kind] for d in row if kind in d] for row in parts]
        p50, p90 = percentiles_ms([t for col in per_pass for t in col])
        print(f"  {kind}_s {statistics.median(map(sum, per_pass)):.4f} s  "
              f"{kind}_p50_ms {p50:.2f} ms  {kind}_p90_ms {p90:.2f} ms  "
              f"({len(per_pass[0])} calls per pass)")
    print(f"  fail_share {failures / (len(ops) * len(parts)):.4f} ratio")
    rungs: dict[str, list[tuple[str, float]]] = {}
    for i, op in enumerate(ops):
        name, _, length = op.label.partition(" L=")
        seconds = statistics.median(sum(row[i].values()) for row in parts)
        rungs.setdefault(name, []).append((length, seconds))
    for name, steps in rungs.items():
        if len(steps) > 1:
            text = [f"L={steps[0][0]} {steps[0][1]:.3f} s"] + [
                f"L={b[0]} {b[1]:.3f} s (x{b[1] / a[1]:.2f})" for a, b in zip(steps, steps[1:])]
            print(f"  growth per doubling {name}: " + ", ".join(text))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_times, calibrations = [], []
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        start = CLOCK()
        ops = WORKLOADS[args.workload](args.seed)
        setup_times.append(CLOCK() - start)
        calibrations.append(calibrate(CALIBRATION_SHARE * setup_times[-1]))
    scale = speed_scale(calibrations)
    setup_times = [scale * t for t in setup_times]

    passes = []
    start = perf_counter()
    with Worker() as worker:
        while True:
            passes.append(run_pass(worker, ops))
            spent = perf_counter() - start
            if args.trace or spent + spent / len(passes) > args.seconds:
                break
    if args.trace:
        with Worker(trace=True) as worker:
            passes.append(run_pass(worker, ops))
    untraced = len(passes) - args.trace

    failed, fail_lines, correct = judge(ops, passes)
    parts = charged(ops, passes, failed)
    times = [[sum(d.values()) for d in row] for row in parts]
    untraced_failures = sum(p < untraced for p, _ in failed)
    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"ops/pass={len(ops)} trace={args.trace}")
    for line in fail_lines:
        print(line)
    print_report(ops, parts[:untraced], untraced_failures)
    print(f"  digest sha256 {digest(ops, passes[0])}")

    if args.trace:
        calls, self_s, counts = Counter(), Counter(), Counter()
        for reply in passes[-1]:
            if reply.status == "ok":
                calls.update(reply.layers[0])
                self_s.update(reply.layers[1])
                counts.update(reply.layers[2])
        overhead = sum(times[-1]) - sum(times[0])
        metrics = layer_metrics(calls, self_s, counts, overhead)
    else:
        ok_replies = [reply for replies in passes for reply in replies if reply.status == "ok"]
        metrics = end_to_end_metrics(setup_times, times, failed, ok_replies)
    for name, (value, unit) in metrics.items():
        print(f"  metric {name} {value} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops) * len(passes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
