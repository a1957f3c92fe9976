"""Merge attempts: unify ambiguous path pairs via push-backs, cascade forced
merges, and commit or roll back.

The hypothesis is a quotient view of the prefix tree (a class map and one
table of current outputs) that lasts the whole run.  An attempt unions classes and writes
outputs on it directly; a rejection rolls the view back to where the attempt
began (``QuotientView.rollback``), and a commit checks and keeps what it
changed; no step reads the whole hypothesis.  An attempt gives up after
200 + 20 × E witnesses, E being the number of prefix-tree edges, at most the
total input length of the samples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .ambiguity import PairSearchState, QuotientView, RawKey
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
    has more than one incoming quotient edge."""
    if suffix == "":
        return True
    view = session.view
    out = view.out(raw_key)
    if not out.endswith(suffix):
        raise InvariantError(f"push-back of {suffix!r} off output {out!r}")
    dst_cls = view.find(raw_key[2])
    if view.class_accepting(dst_cls):
        return False
    if len(view.incoming_edges(dst_cls)) != 1:
        return False
    # that one quotient edge is raw_key's, so every raw key into the target
    # stands for it; a self-loop on the target is cut, then prefixed
    writes = dict.fromkeys(view.incoming[dst_cls], out[: -len(suffix)])
    for member in view.members[dst_cls]:
        for s, dst, _ in view.base.arcs_from(member):
            key = (member, s, dst)
            writes[key] = suffix + writes.get(key, view.out(key))
    view.set_outs(writes)
    session.push_backs += 1
    return True


def unify_paths(
    session: MergeSession, raw_a: Sequence[RawKey], raw_b: Sequence[RawKey]
) -> bool:
    """Make the two sides of a witness, given as raw keys, one quotient path:
    equalize outputs position by position with push-backs and schedule every
    state pair for merging.  The sides start at one common class, which need
    not be the initial class.  Sets ``session.failure`` and returns False
    when unification is illegal."""
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


def open_session(view: QuotientView, a: int, b: int) -> MergeSession:
    """Start an attempt to identify states ``a`` and ``b`` on ``view``, whose
    changes since its last ``keep`` or ``rollback`` the attempt will own."""
    session = MergeSession(view, PairSearchState(view), a)
    session.pending.append((a, b))
    return session


def run_session(session: MergeSession) -> bool:
    """Drive a session to its fixpoint.  True means the merge is consistent
    and the session can be committed; False leaves ``session.failure`` set.

    A session gives up after 200 + 20 × E witnesses, E being the number of
    edges of the view's base machine, the prefix tree in learning."""
    view = session.view
    witness_cap = 200 + 20 * len(view.base.transitions)
    seen = 0
    while True:
        while session.pending:
            x, y = session.pending.popleft()
            if view.find(x) != view.find(y):
                session.forced += 1
                session.search.merge_update(x, y)
        witness = session.search.next_witness()
        if witness is None:
            return True
        seen += 1
        if seen > witness_cap:
            session.failure = SESSION_CAP
            return False
        if not unify_paths(session, *witness):
            return False


def commit(session: MergeSession) -> None:
    """Keep the session's changes to its view, after checking that every
    class they changed has one output per (symbol, dst class).  Any other
    class keeps the edge list the previous commit checked, or its base
    machine's: a prefix tree has no parallel edges."""
    view = session.view
    for cls in view.changed():
        edges = view.edges_from(cls)
        # the fixpoint guarantees one output per (src, symbol, dst); the
        # sorted list puts the edges of one (symbol, dst) side by side
        for (sym, dst, _, _), (sym2, dst2, _, _) in zip(edges, edges[1:]):
            if sym == sym2 and dst == dst2:
                raise InvariantError(f"unresolved parallel edges at {(cls, sym, dst)}")
    view.keep()


def try_merge(
    view: QuotientView,
    a: int,
    b: int,
    trace: Optional[Callable[[dict], None]] = None,
) -> Optional[MergeSession]:
    """Attempt to identify states ``a`` and ``b`` (a < b) of the hypothesis
    ``view``.

    Returns the committed session on success, with ``view`` holding the
    merged hypothesis, and None on failure, with ``view`` rolled back to the
    hypothesis it held before.  ``trace``, if given, is called once with a
    dict that describes the attempt: ``kind`` (``"merge_committed"`` or
    ``"merge_rejected"``), ``pair`` (a, b), and either ``reason``, the
    rejection's, or ``push_backs`` and ``forced``, the commit's counts.
    """
    session = open_session(view, a, b)
    if not run_session(session):
        view.rollback()
        if trace is not None:
            trace({"kind": "merge_rejected", "pair": (a, b), "reason": session.failure})
        return None
    commit(session)
    if trace is not None:
        trace(
            {
                "kind": "merge_committed",
                "pair": (a, b),
                "push_backs": session.push_backs,
                "forced": session.forced,
            }
        )
    return session
