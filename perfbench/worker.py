"""Run benchmark operations one at a time in a child process that can be
stopped.

``Worker`` is the parent's handle.  It starts ``python3 worker.py [--trace]``,
sends each operation as a length-prefixed pickle on the child's stdin and
waits at most the operation's time limit for the reply on the child's stdout.
On a timeout it kills the child; the next call starts a fresh one.  The child
caps its own address space with ``setrlimit``, signals that it is ready,
times each operation around the library call only, in CPU time, runs
calibration units after it, and reports its peak RSS with every reply.
With ``--trace`` it installs the per-layer ``Tracer`` and returns the spans
of each operation.

Operations are tuples, and machines travel as ``machine_tuple`` values:

    ("learn", samples)                -> (machine, epsilon output)
    ("transduce", machine, word)      -> sorted outputs
    ("transform", machine, reject)    -> (disambiguated machine,
                                          totalized machine,
                                          witness word of the machine,
                                          witness word of the disambiguated one)

A witness word is ``None`` when ``find_ambiguity`` finds no ambiguity.
"""

from __future__ import annotations

import os
import pickle
import resource
import select
import struct
import subprocess
import sys
import time
from importlib import import_module
from pathlib import Path
from typing import NamedTuple, Optional

from checkout import import_fstlearn

import_fstlearn()

from fstlearn.core import Transducer  # noqa: E402

from layers import Tracer  # noqa: E402

ADDRESS_SPACE_CAP = 1 << 30
HEADER = struct.Struct("!Q")
READY = b"R"  # sent by a child once it can take operations
START_LIMIT_S = 60.0
CLOCK = time.process_time
# After each operation the child runs calibration units for at least this
# share of the operation's time; see ``calibrate``.
CALIBRATION_SHARE = 0.15
CALIBRATION_UNIT_S = 0.001  # the nominal time of one calibration unit
# Read at random by the calibration units.  At 5 MB it outgrows a core's L2
# cache, as the learner's state does, so the units slow down when the host's
# memory is contended, as the learner does.
CALIBRATION_KEYS = 40_000
CALIBRATION_TABLE = {(i, i % 7): i for i in range(CALIBRATION_KEYS)}


def machine_tuple(t: Transducer) -> tuple:
    return (
        sorted(t.states),
        "".join(sorted(t.input_alphabet)),
        "".join(sorted(t.output_alphabet)),
        t.initial,
        sorted(t.accepting),
        [tuple(tr) for tr in t.transitions],
    )


def machine_from(m: tuple) -> Transducer:
    return Transducer(*m)


def calibration_unit() -> int:
    """A fixed piece of dict and tuple work that does not use the library:
    random reads of ``CALIBRATION_TABLE`` and a small table built afresh,
    about a millisecond of CPU on a 2020s x86 server core."""
    n, j = 0, 12345
    for _ in range(2000):
        j = (j * 1103515245 + 12345) % CALIBRATION_KEYS
        n += CALIBRATION_TABLE[(j, j % 7)] & 1
    table: dict[tuple, list] = {}
    for i in range(400):
        table.setdefault((i % 97, i & 3), []).append(i)
    return n + len(table)


def calibrate(seconds: float) -> tuple[int, float]:
    """Run calibration units for at least ``seconds`` of CPU time, and at
    least one; returns how many ran and the CPU seconds they took.

    A shared host changes speed by up to half within a minute, in CPU time
    as much as in wall time.  Units run between operations sample that
    speed, so the parent can scale each operation's time to a fixed speed."""
    units, start = 0, CLOCK()
    while True:
        calibration_unit()
        units += 1
        spent = CLOCK() - start
        if spent >= seconds:
            return units, spent


def speed_scale(calibrations: list[tuple[int, float]]) -> float:
    """The factor that scales CPU seconds measured alongside these
    ``calibrate`` results to a host on which one unit takes
    ``CALIBRATION_UNIT_S``."""
    units = sum(n for n, _ in calibrations)
    seconds = sum(s for _, s in calibrations)
    return CALIBRATION_UNIT_S * units / seconds if seconds else 1.0


def run_op(job: tuple) -> tuple[object, dict[str, float]]:
    """Run one operation; returns its result and the CPU seconds spent in
    each kind of library call it made.  Names are looked up at call time, so
    a tracer installed on the modules sees the calls."""
    kind = job[0]
    if kind == "learn":
        infer = import_module("fstlearn.infer").infer
        start = CLOCK()
        model = infer(job[1])
        seconds = CLOCK() - start
        return (machine_tuple(model.machine), model.epsilon_output), {"learn": seconds}
    machine = machine_from(job[1])
    if kind == "transduce":
        transduce = import_module("fstlearn.core").transduce
        start = CLOCK()
        outputs = transduce(machine, job[2])
        seconds = CLOCK() - start
        return sorted(outputs), {"transduce": seconds}
    if kind == "transform":
        transform = import_module("fstlearn.transform")
        amb = import_module("fstlearn.ambiguity")
        start = CLOCK()
        unambiguous = transform.disambiguate(machine)
        mid = CLOCK()
        total = transform.totalize(machine, job[2])
        end = CLOCK()
        witnesses = [amb.find_ambiguity(m, amb.square_reach(m)) for m in (machine, unambiguous)]
        parts = {"disambiguate": mid - start, "totalize": end - mid,
                 "check_ambiguity": CLOCK() - end}
        words = [None if w is None else w.path_a.input_word for w in witnesses]
        return (machine_tuple(unambiguous), machine_tuple(total), *words), parts
    raise ValueError(f"unknown operation {kind!r}")


class Reply(NamedTuple):
    status: str  # "ok", "timeout", "memory", "crash" or "error: ..."
    result: object
    parts: dict  # seconds per kind of library call; empty when failed
    maxrss_kb: int
    layers: Optional[tuple]  # Tracer.snapshot() of the operation, when traced
    calibration: tuple  # calibrate() after the operation; (0, 0.0) when failed


def serve(trace: bool) -> None:
    """Child main loop: one reply per operation until stdin closes."""
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # the protocol owns stdout
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    out.write(READY)
    out.flush()
    while True:
        head = inp.read(HEADER.size)
        if len(head) < HEADER.size:
            return
        job = pickle.loads(inp.read(HEADER.unpack(head)[0]))
        if tracer is not None:
            tracer.reset()
        status, result, parts = "ok", None, {}
        try:
            result, parts = run_op(job)
        except MemoryError:
            # allocate nothing here: the frames that hold the memory are
            # released only when this handler ends
            status = "memory"
        except Exception as exc:  # reported to the parent as a failed op
            status = f"error: {type(exc).__name__}: {exc}"
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        layers = tracer.snapshot() if tracer is not None else None
        calibration = calibrate(CALIBRATION_SHARE * sum(parts.values())) if parts else (0, 0.0)
        data = pickle.dumps((status, result, parts, rss, layers, calibration))
        out.write(HEADER.pack(len(data)) + data)
        out.flush()


class Worker:
    """Parent-side handle on at most one worker child at a time."""

    def __init__(self, trace: bool = False):
        self.trace = trace
        self.proc: Optional[subprocess.Popen] = None

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def call(self, job: tuple, limit: float) -> Reply:
        """Run ``job`` in the child, waiting at most ``limit`` seconds.  The
        limit covers the operation only, not the start of a new child.
        After any failure the child is killed; the next call starts a new
        one."""
        data = pickle.dumps(job)
        try:
            if self.proc is None:
                self._start()
            deadline = time.monotonic() + limit
            self.proc.stdin.write(HEADER.pack(len(data)) + data)
            self.proc.stdin.flush()
            size = HEADER.unpack(self._read(HEADER.size, deadline))[0]
            reply = Reply(*pickle.loads(self._read(size, deadline)))
        except TimeoutError:
            reply = Reply("timeout", None, {}, 0, None, (0, 0.0))
        except (EOFError, BrokenPipeError):
            reply = Reply("crash", None, {}, 0, None, (0, 0.0))
        if reply.status != "ok":
            self._kill()
        return reply

    def _start(self) -> None:
        """Start a child and wait until it has imported the library."""
        argv = [sys.executable, str(Path(__file__).resolve())]
        self.proc = subprocess.Popen(
            argv + (["--trace"] if self.trace else []),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        if self._read(len(READY), time.monotonic() + START_LIMIT_S) != READY:
            raise EOFError

    def _read(self, n: int, deadline: float) -> bytes:
        fd = self.proc.stdout.fileno()
        buf = bytearray()
        while len(buf) < n:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError
            chunk = os.read(fd, n - len(buf))
            if not chunk:
                raise EOFError
            buf += chunk
        return bytes(buf)

    def _kill(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self._reap()

    def close(self) -> None:
        """Let the child finish on end of input; kill it if it does not."""
        if self.proc is None:
            return
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (BrokenPipeError, subprocess.TimeoutExpired):
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        proc, self.proc = self.proc, None
        proc.wait()
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except BrokenPipeError:
                pass


if __name__ == "__main__":
    serve(trace="--trace" in sys.argv[1:])
