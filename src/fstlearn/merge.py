"""Merge attempts: unify ambiguous path pairs via push-backs, cascade forced
merges, and commit or roll back.

A session works on a quotient view of the hypothesis (alias map plus output
overlay), so failure simply discards the session; the hypothesis itself is
never touched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .ambiguity import AmbiguousPathPair, PairSearchState, QuotientView, RawKey
from .core import Transducer
from .errors import InvariantError

ROOT_ASYMMETRY = "root_asymmetry"
PUSHBACK_BLOCKED = "pushback_blocked"
OUTPUT_CONFLICT = "output_conflict"
SESSION_CAP = "session_cap"


@dataclass
class PushBack:
    """One applied push-back: ``suffix`` moved off ``edge`` onto the outgoing
    transitions of its target class."""

    edge: tuple[int, str, int, str]  # (src class, symbol, dst class, output before)
    suffix: str
    target_was_accepting: bool
    target_incoming_count: int


@dataclass
class MergeSession:
    """Private working state of one merge attempt."""

    view: QuotientView
    search: PairSearchState
    root: int
    pending: deque = field(default_factory=deque)
    push_log: list = field(default_factory=list)
    forced_log: list = field(default_factory=list)
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
    incoming = view.incoming_edges(dst_cls)
    if len(incoming) != 1:
        return False
    for key in view.preimages(src_cls, sym, dst_cls, out):
        view.set_out(key, out[: -len(suffix)])
    for member in view.uf.members[dst_cls]:
        for s, dst, _ in view.base.arcs_from(member):
            key = (member, s, dst)
            view.set_out(key, suffix + view.out(key))
    session.push_log.append(
        PushBack((src_cls, sym, dst_cls, out), suffix, False, len(incoming))
    )
    return True


def unify_paths(session: MergeSession, witness: AmbiguousPathPair) -> bool:
    """Make the two paths of a witness identical: equalize outputs position
    by position with push-backs and schedule every state pair for merging.
    Sets ``session.failure`` and returns False when unification is illegal."""
    view = session.view
    n = len(witness.path_a.transitions)
    root_cls = session.root_class
    for k in range(n):
        ea = witness.path_a.transitions[k]
        eb = witness.path_b.transitions[k]
        ka = witness.raw_a[k]
        kb = witness.raw_b[k]
        da, db = ea.dst, eb.dst
        if k < n - 1 and (da == root_cls) != (db == root_cls):
            session.failure = ROOT_ASYMMETRY
            return False
        ga, gb = view.out(ka), view.out(kb)
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
            if view.out(ka) != view.out(kb):
                session.failure = OUTPUT_CONFLICT  # self-loop cannot equalize
                return False
        if da != db:
            session.pending.append((da, db))
    for k in range(n):
        if view.out(witness.raw_a[k]) != view.out(witness.raw_b[k]):
            session.failure = OUTPUT_CONFLICT  # a later push-back undid position k
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
            session.forced_log.append((keep, drop))
            session.search.merge_update(keep, drop)
        witness = session.search.next_witness()
        if witness is None:
            return True
        seen += 1
        if seen > witness_cap:
            session.failure = SESSION_CAP
            return False
        if not unify_paths(session, witness):
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
    trace: Optional[list] = None,
) -> Optional[Transducer]:
    """Attempt to identify states ``a`` and ``b`` (a < b) of ``h``.

    Returns the merged hypothesis on success and None on failure; ``h`` is
    never modified.  ``trace``, if given, collects structured events.
    """
    session = open_session(h, a, b)
    if run_session(session):
        machine = commit(session)
        if trace is not None:
            trace.append(
                {
                    "kind": "merge_committed",
                    "pair": (a, b),
                    "before": h,
                    "after": machine,
                    "push_log": list(session.push_log),
                    "forced": list(session.forced_log),
                }
            )
        return machine
    if trace is not None:
        trace.append(
            {"kind": "merge_rejected", "pair": (a, b), "reason": session.failure}
        )
    return None
