"""Merge attempts: unify ambiguous path pairs via push-backs, cascade forced
merges, and commit or roll back.

The hypothesis is a quotient view of the prefix tree (a class map and one
table of current outputs) that lasts the whole run.  An attempt unions classes
and writes outputs on it directly; a rejection rolls the view back to where
the attempt began (``QuotientView.rollback``), and a commit checks and keeps
what it changed; no step reads the whole hypothesis.

Why a session ends.  On a prefix-tree base with states Q, built from samples
(w, f(w)), a session reads at most |Q| + Σ|w|·|f(w)| witnesses:

- Every witness that ``unify_paths`` accepts makes a union or a push-back.
  Its two sides start at one class and are not one quotient path, so at the
  first position where their quotient edges differ they leave one class on
  one symbol and differ in output or in destination class.  A different
  output is a push-back or a rejection.  A different destination queues a
  pair of distinct classes; the queue is empty when a witness is read, so the
  first pair it queued is still distinct when it is popped, and is unioned.
  ``run_session`` checks this step on every witness, and raises
  ``InvariantError`` on one that did neither.
- Unions per session are at most |Q| − 1: each one lowers the number of
  classes.
- Push-backs per session are at most Σ|w|·|f(w)|.  Every tree edge lies on
  the path of some sample, since the tree grows a node only where a sample
  runs, and each sample's path reads f(w) in the current outputs: a
  push-back moves its suffix off every edge into its target class onto the
  front of every edge out of it, and a sample's path that enters the class
  leaves it again, since the class is not accepting, and does not start in
  it, since the class does not hold the root.  Let Ψ be the sum, over the
  samples, of the tree depth of the edge that carries each character of f(w)
  on w's path.  A push-back moves the characters of its suffix one edge
  deeper on every path through the edge it cuts, and there is at least one,
  so it raises Ψ by at least 1; a union changes no output.  No edge of w's
  path is deeper than |w|, so Ψ never exceeds Σ|w|·|f(w)|.

So the witnesses of a session number at most its unions plus its push-backs
plus one, the last, which ``unify_paths`` may reject.  This is the
termination argument of OSTIA's onward merges, where every push moves output
away from the root (Oncina, García & Vidal, IEEE PAMI 15(5), 1993).
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
    transition of the edge's target.  Refused when the target is accepting,
    holds the base machine's initial state, or has more than one incoming
    quotient edge.  A push-back into the initial class would prepend
    ``suffix`` to every output of the hypothesis: a run starts in that class
    without taking an edge that the push-back cuts."""
    if suffix == "":
        return True
    view = session.view
    out = view.out(raw_key)
    if not out.endswith(suffix):
        raise InvariantError(f"push-back of {suffix!r} off output {out!r}")
    dst_cls = view.find(raw_key[2])
    if view.class_accepting(dst_cls) or dst_cls == view.initial_class():
        return False
    if len(view.incoming_edges(dst_cls)) != 1:
        return False
    # that one quotient edge is raw_key's, so every raw key into the target
    # stands for it.  On a prefix-tree base it comes from outside the target,
    # which does not hold the root; on another, a self-loop is cut, then prefixed
    writes = dict.fromkeys(view.incoming_keys(dst_cls), out[: -len(suffix)])
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
    when unification is illegal.

    Every position is compared again at the end.  A push-back rewrites every
    edge into and out of its target, so on a cyclic base it can undo an
    earlier position on one side only: when that side already entered the
    target by the same edge (``test_merge`` pins such a witness).  No learn
    from a prefix tree has been seen to reach this check."""
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
                # on a prefix-tree base: the other side's edge leaves the
                # push-back's target, so it took the suffix too
                session.failure = OUTPUT_CONFLICT
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

    Every witness that ``unify_paths`` accepts must make a push-back or queue
    a pair of distinct classes, else ``InvariantError``: this is the step of
    the module docstring's bound that a witness can break."""
    view = session.view
    while True:
        while session.pending:
            x, y = session.pending.popleft()
            if view.find(x) != view.find(y):
                session.forced += 1
                session.search.merge_update(x, y)
        witness = session.search.next_witness()
        if witness is None:
            return True
        push_backs = session.push_backs
        if not unify_paths(session, *witness):
            return False
        if session.push_backs == push_backs and not session.pending:
            raise InvariantError("a witness made no push-back and queued no union")


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
