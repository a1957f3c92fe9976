"""Merge attempts: unify ambiguous path pairs via push-backs, cascade forced
merges, and commit or roll back.

A session works on a quotient view of the hypothesis (alias map plus output
overlay), so failure simply discards the session; the hypothesis itself is
never touched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .ambiguity import PairSearchState, QuotientView, RawKey
from .core import Transducer
from .errors import InvariantError

ROOT_ASYMMETRY = "root_asymmetry"
PUSHBACK_BLOCKED = "pushback_blocked"
OUTPUT_CONFLICT = "output_conflict"
SESSION_CAP = "session_cap"


@dataclass
class MergeSession:
    """Private working state of one merge attempt."""

    view: QuotientView
    search: PairSearchState
    root: int
    pending: deque = field(default_factory=deque)
    push_backs: int = 0  # applied push-backs
    forced: int = 0  # unions made, the root pair's among them
    failure: Optional[str] = None

    @property
    def root_class(self) -> int:
        return self.view.find(self.root)


def push_back(session: MergeSession, raw_key: RawKey, suffix: str) -> bool:
    """Cut ``suffix`` off the edge's output and prepend it to every outgoing
    transition of the edge's target.  Refused when the target is accepting or
    has more than one incoming transition."""
    if suffix == "":
        return True
    view = session.view
    out = view.out(raw_key)
    if not out.endswith(suffix):
        raise InvariantError(f"push-back of {suffix!r} off output {out!r}")
    src_cls = view.find(raw_key[0])
    dst_cls = view.find(raw_key[2])
    sym = raw_key[1]
    if view.class_accepting(dst_cls):
        return False
    if len(view.incoming_edges(dst_cls)) != 1:
        return False
    for key in view.preimages(src_cls, sym, dst_cls, out):
        view.set_out(key, out[: -len(suffix)])
    for member in view.uf.members[dst_cls]:
        for s, dst, _ in view.base.arcs_from(member):
            key = (member, s, dst)
            view.set_out(key, suffix + view.out(key))
    session.push_backs += 1
    return True


def unify_paths(
    session: MergeSession, raw_a: Sequence[RawKey], raw_b: Sequence[RawKey]
) -> bool:
    """Make the two sides of a witness, given as raw keys, one quotient path:
    equalize outputs position by position with push-backs and schedule every
    state pair for merging.  Sets ``session.failure`` and returns False when
    unification is illegal."""
    view = session.view
    find, out = view.find, view.out

    def edge(key):  # the quotient edge that a raw key stands for
        return find(key[0]), key[1], find(key[2]), out(key)

    if [ka[1] for ka in raw_a] != [kb[1] for kb in raw_b]:
        raise InvariantError("witness paths read different inputs")
    if all(ka == kb or edge(ka) == edge(kb) for ka, kb in zip(raw_a, raw_b)):
        raise InvariantError("witness paths are one quotient path")
    n = len(raw_a)
    root_cls = session.root_class
    for k, (ka, kb) in enumerate(zip(raw_a, raw_b)):
        da, db = find(ka[2]), find(kb[2])
        if k < n - 1 and (da == root_cls) != (db == root_cls):
            session.failure = ROOT_ASYMMETRY
            return False
        ga, gb = out(ka), out(kb)
        if ga != gb:
            if k == n - 1:
                session.failure = OUTPUT_CONFLICT
                return False
            if ga.startswith(gb):
                ok = push_back(session, ka, ga[len(gb):])
            elif gb.startswith(ga):
                ok = push_back(session, kb, gb[len(ga):])
            else:
                session.failure = OUTPUT_CONFLICT
                return False
            if not ok:
                session.failure = PUSHBACK_BLOCKED
                return False
            if out(ka) != out(kb):
                session.failure = OUTPUT_CONFLICT  # self-loop cannot equalize
                return False
        if da != db:
            session.pending.append((da, db))
    for ka, kb in zip(raw_a, raw_b):
        if out(ka) != out(kb):
            session.failure = OUTPUT_CONFLICT  # a later push-back undid it
            return False
    return True


def open_session(h: Transducer, a: int, b: int) -> MergeSession:
    view = QuotientView(h)
    session = MergeSession(view, PairSearchState(view), a)
    session.pending.append((a, b))
    return session


def run_session(session: MergeSession) -> bool:
    """Drive a session to its fixpoint.  True means the merge is consistent
    and the session can be committed; False leaves ``session.failure`` set."""
    view = session.view
    witness_cap = 200 + 20 * len(view.base.transitions)
    seen = 0
    while True:
        while session.pending:
            x, y = session.pending.popleft()
            cx, cy = view.find(x), view.find(y)
            if cx == cy:
                continue
            keep, drop = (cx, cy) if cx < cy else (cy, cx)
            session.forced += 1
            session.search.merge_update(keep, drop)
        witness = session.search.next_witness()
        if witness is None:
            return True
        seen += 1
        if seen > witness_cap:
            session.failure = SESSION_CAP
            return False
        if not unify_paths(session, *witness):
            return False


def commit(session: MergeSession) -> Transducer:
    machine = session.view.materialize()
    # the fixpoint guarantees one output per (src, symbol, dst)
    seen = {}
    for tr in machine.transitions:
        key = (tr.src, tr.symbol, tr.dst)
        if key in seen:
            raise InvariantError(f"unresolved parallel edges at {key}")
        seen[key] = tr.out
    return machine


def try_merge(
    h: Transducer,
    a: int,
    b: int,
    trace: Optional[Callable[[dict], None]] = None,
) -> Optional[Transducer]:
    """Attempt to identify states ``a`` and ``b`` (a < b) of ``h``.

    Returns the merged hypothesis on success and None on failure; ``h`` is
    never modified.  ``trace``, if given, is called once with a dict that
    describes the attempt.
    """
    session = open_session(h, a, b)
    if not run_session(session):
        if trace is not None:
            trace({"kind": "merge_rejected", "pair": (a, b), "reason": session.failure})
        return None
    machine = commit(session)
    if trace is not None:
        trace(
            {
                "kind": "merge_committed",
                "pair": (a, b),
                "before": h,
                "after": machine,
                "push_backs": session.push_backs,
                "forced": session.forced,
            }
        )
    return machine
