"""Onward prefix-tree construction from sample sets.

The tree is grown with pair derivatives: each node owns the residual sample
set left after consuming its input/output prefix, and branches are created
per first output symbol with the longest common prefix of the remaining
outputs pushed onto the edge.  A naive "star" builder is kept alongside as an
independent baseline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import Transducer, lcp
from .errors import ConflictError, InconsistencyError, ToolkitError


class SampleSet:
    """A finite functional relation from input strings to output strings.

    Insertion of an input with a conflicting output raises; re-inserting an
    identical pair is a no-op.  Loading paths reject an empty input paired
    with a non-empty output (that datum lives on the learner's side channel),
    but residual sets produced by ``derivative`` may carry such pairs.
    """

    __slots__ = ("_pairs",)

    def __init__(self, pairs: Optional[Iterable[tuple[str, str]]] = None, _raw=None):
        self._pairs: dict[str, str] = dict(_raw) if _raw is not None else {}
        if pairs is not None:
            for inp, out in pairs:
                self.insert(inp, out)

    def insert(self, inp: str, out: str) -> None:
        if inp == "" and out != "":
            raise ToolkitError(
                f"empty input with non-empty output {out!r} cannot be stored"
            )
        old = self._pairs.get(inp)
        if old is not None and old != out:
            raise ConflictError(inp, old, out)
        self._pairs[inp] = out

    def get(self, inp: str) -> Optional[str]:
        return self._pairs.get(inp)

    def __contains__(self, inp: str) -> bool:
        return inp in self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other):
        if not isinstance(other, SampleSet):
            return NotImplemented
        return self._pairs == other._pairs

    def __repr__(self):
        return f"SampleSet({sorted(self._pairs.items())!r})"

    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self._pairs.items(), key=lambda p: (len(p[0]), p[0]))

    def inputs(self) -> list[str]:
        return sorted(self._pairs, key=lambda w: (len(w), w))

    def outputs(self) -> set[str]:
        return set(self._pairs.values())

    def input_alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({ch for w in self._pairs for ch in w}))

    def output_alphabet(self) -> tuple[str, ...]:
        return tuple(sorted({ch for w in self._pairs.values() for ch in w}))


def derivative(s: SampleSet, sigma: str, gamma: str) -> SampleSet:
    """Residual relation after consuming input symbol ``sigma`` and output
    prefix ``gamma``: {(i', o') : (sigma i', gamma o') in s}."""
    rest = {}
    for inp, out in s._pairs.items():
        if inp.startswith(sigma) and inp != "" and out.startswith(gamma):
            rest[inp[len(sigma):]] = out[len(gamma):]
    return SampleSet(_raw=rest)


@dataclass(frozen=True)
class NodeInfo:
    input_prefix: str
    output_prefix: str
    residual: SampleSet


@dataclass
class PTreeAnnotation:
    """Per-state identity and residual sample set of a prefix tree."""

    nodes: dict[int, NodeInfo]

    def identity(self, state: int) -> tuple[str, str]:
        info = self.nodes[state]
        return (info.input_prefix, info.output_prefix)

    def sort_key(self, state: int) -> tuple:
        i, o = self.identity(state)
        return (len(i), i, len(o), o)


def build_prefix_tree(s: SampleSet) -> tuple[Transducer, PTreeAnnotation]:
    """Build the onward canonical prefix tree for ``s``.

    Nodes are processed breadth-first; at each node the exact single-symbol
    pair (if any) gets its branch first, then each output symbol with a
    nonempty derivative gets one, unless the exact branch already subsumes
    it.  A sample that no branch can carry is reported as inconsistent.
    """
    sigma = s.input_alphabet()
    gamma = s.output_alphabet()
    infos: list[NodeInfo] = [NodeInfo("", "", s)]
    accepting: set[int] = set()
    transitions: list[tuple[int, str, int, str]] = []
    queue = deque([0])
    while queue:
        q = queue.popleft()
        info = infos[q]
        res = info.residual
        empty_out = res.get("")
        if empty_out == "":
            accepting.add(q)
        elif empty_out is not None:
            raise InconsistencyError(info.input_prefix, info.output_prefix + empty_out)
        for sym in sigma:
            exact = res.get(sym)
            branches: list[tuple[str, SampleSet]] = []
            if exact is not None:
                branches.append((exact, derivative(res, sym, exact)))
            # samples whose output extends the exact pair's ride its branch;
            # the remaining continuations split by first output symbol, with
            # an extra bare branch for those whose remaining output is empty
            rest = SampleSet(_raw={
                inp: out
                for inp, out in res.pairs()
                if inp.startswith(sym) and inp != ""
                and (exact is None or not out.startswith(exact))
            })
            for g in gamma:
                d = derivative(rest, sym, g)
                if len(d) == 0:
                    continue
                p = g + lcp(d.outputs())
                branches.append((p, derivative(rest, sym, p)))
            bare = {
                inp[1:]: ""
                for inp, out in rest.pairs()
                if len(inp) > 1 and out == ""
            }
            if bare:
                branches.append(("", SampleSet(_raw=bare)))
            for inp, out in res.pairs():
                if not inp.startswith(sym) or inp == "":
                    continue
                if not any(inp[1:] in d and d.get(inp[1:]) == out[len(b):]
                           for b, d in branches if out.startswith(b)):
                    raise InconsistencyError(
                        info.input_prefix + inp, info.output_prefix + out
                    )
            for branch_out, rest in branches:
                new = len(infos)
                infos.append(
                    NodeInfo(
                        info.input_prefix + sym,
                        info.output_prefix + branch_out,
                        rest,
                    )
                )
                transitions.append((q, sym, new, branch_out))
                queue.append(new)
    tree = Transducer(
        range(len(infos)), sigma, gamma, 0, accepting, transitions
    )
    ann = PTreeAnnotation({i: info for i, info in enumerate(infos)})
    return tree, ann


def build_star(s: SampleSet) -> Transducer:
    """One arm per sample pair, full output on the first transition."""
    sigma = s.input_alphabet()
    gamma = s.output_alphabet()
    accepting: set[int] = set()
    transitions: list[tuple[int, str, int, str]] = []
    next_state = 1
    for inp, out in s.pairs():
        if inp == "":
            accepting.add(0)
            continue
        src = 0
        for k, sym in enumerate(inp):
            dst = next_state
            next_state += 1
            transitions.append((src, sym, dst, out if k == 0 else ""))
            src = dst
        accepting.add(src)
    return Transducer(range(next_state), sigma, gamma, 0, accepting, transitions)
