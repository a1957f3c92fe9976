"""Per-layer tracing: wrappers on the names fstlearn looks up across module
boundaries, with call counts, self time and a few counts of useful work.

The layers are the modules of ``fstlearn``: ``ptree`` (prefix-tree build),
``infer`` (merge-order driver), ``merge`` (sessions, push-backs, commit),
``ambiguity`` (``QuotientView`` and ``PairSearchState``), ``core`` and
``transform``.  A wrapper is installed where the caller looks the name up:
the ``fstlearn.infer`` and ``fstlearn.merge`` module globals, the methods of
the two ambiguity classes, and the module attributes the library workload
calls.  ``oracle`` and ``cli`` are never wrapped.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.
"""

from __future__ import annotations

from collections import Counter
from importlib import import_module
from time import perf_counter


# Spans reported as "<span>.calls" and "<span>.s" (self time) ...
TIMED_WITH_CALLS = (
    "ambiguity.edges_from",
    "ambiguity.merge_update",
    "ambiguity.expand_one",
    "ambiguity.next_witness",
    "ambiguity.materialize",
    "ambiguity.incoming_edges",
    "ptree.build_prefix_tree",
)
# ... and spans reported as "<span>.s" only.
TIMED = (
    "ambiguity.square_reach",
    "ambiguity.find_ambiguity",
    "merge.open_session",
    "merge.commit",
    "merge.unify_paths",
    "merge.push_back",
    "merge.run_session",
    "core.transduce",
    "transform.disambiguate",
    "transform.totalize",
    "transform.complement_dfa",
)
REJECT_REASONS = ("output_conflict", "root_asymmetry", "pushback_blocked", "session_cap")


class Tracer:
    """Installs span wrappers on fstlearn and accumulates what they see.

    ``calls``, ``self_s`` and ``counts`` are keyed by span or count name.
    ``install`` and ``uninstall`` patch and restore the same attributes, so
    an untraced run calls the original functions.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_s: list[float] = []
        self._saved: list[tuple] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def snapshot(self) -> tuple[dict, dict, dict]:
        return dict(self.calls), dict(self.self_s), dict(self.counts)

    def points(self) -> list[tuple]:
        """(owner, attribute, span name, hook) for every wrapped name."""
        mod = {m: import_module(f"fstlearn.{m}")
               for m in ("infer", "merge", "ambiguity", "core", "transform")}
        amb = mod["ambiguity"]
        return [
            (mod["infer"], "infer", "infer", None),
            (mod["infer"], "build_prefix_tree", "ptree.build_prefix_tree", self._on_tree),
            (mod["infer"], "try_merge", "merge.try_merge", self._on_attempt),
            (mod["infer"], "trim", "infer.trim_renumber", None),
            (mod["infer"], "renumber", "infer.trim_renumber", None),
            (mod["merge"], "open_session", "merge.open_session", None),
            (mod["merge"], "run_session", "merge.run_session", self._on_session),
            (mod["merge"], "unify_paths", "merge.unify_paths", None),
            (mod["merge"], "push_back", "merge.push_back", self._on_push_back),
            (mod["merge"], "commit", "merge.commit", None),
            (amb.QuotientView, "edges_from", "ambiguity.edges_from", None),
            (amb.QuotientView, "incoming_edges", "ambiguity.incoming_edges", None),
            (amb.QuotientView, "materialize", "ambiguity.materialize", None),
            (amb.PairSearchState, "merge_update", "ambiguity.merge_update", None),
            (amb.PairSearchState, "expand_one", "ambiguity.expand_one", None),
            (amb.PairSearchState, "next_witness", "ambiguity.next_witness", self._on_witness),
            (amb, "square_reach", "ambiguity.square_reach", self._on_reach),
            (amb, "find_ambiguity", "ambiguity.find_ambiguity", None),
            (mod["core"], "transduce", "core.transduce", self._on_transduce),
            (mod["transform"], "disambiguate", "transform.disambiguate", self._on_states),
            (mod["transform"], "totalize", "transform.totalize", self._on_states),
            (mod["transform"], "complement_dfa", "transform.complement_dfa", None),
        ]

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in self.points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, hook):
        stack = self._child_s

        def span(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self.self_s[name] += elapsed - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(name, args, result)
            return result

        span.__wrapped__ = fn
        return span

    # -- counts of useful work, read from arguments and results -------------

    def _on_tree(self, name, args, result):
        self.counts["ptree.nodes"] += len(result[0].states)

    def _on_attempt(self, name, args, result):
        self.counts["merge.commits"] += result is not None

    def _on_session(self, name, args, result):
        if result is False:
            self.counts["merge.reject." + args[0].failure] += 1

    def _on_push_back(self, name, args, result):
        if args[2] != "" and result:
            self.counts["merge.pushbacks"] += 1

    def _on_witness(self, name, args, result):
        self.counts["ambiguity.witnesses"] += result is not None

    def _on_reach(self, name, args, result):
        self.counts["ambiguity.reached_pairs"] += len(result.reached)

    def _on_transduce(self, name, args, result):
        self.counts["core.transduce.symbols"] += len(args[1])
        self.counts["core.transduce.output_chars"] += sum(map(len, result))

    def _on_states(self, name, args, result):
        self.counts[name + ".states_out"] += len(result.states)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(calls: dict, self_s: dict, counts: dict, overhead_s: float) -> dict:
    """The per-layer metrics of one traced run, as name -> (value, unit)."""
    calls, self_s, counts = Counter(calls), Counter(self_s), Counter(counts)
    out = {}
    for name in TIMED_WITH_CALLS:
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".s"] = (self_s[name], "s")
    for name in TIMED:
        out[name + ".s"] = (self_s[name], "s")
    out["ambiguity.witness_yield"] = (
        _ratio(counts["ambiguity.witnesses"], calls["ambiguity.next_witness"]), "ratio")
    out["ambiguity.reached_pairs"] = (counts["ambiguity.reached_pairs"], "count")
    out["merge.attempts"] = (calls["merge.try_merge"], "count")
    out["merge.commits"] = (counts["merge.commits"], "count")
    out["merge.commit_ratio"] = (
        _ratio(counts["merge.commits"], calls["merge.try_merge"]), "ratio")
    for reason in REJECT_REASONS:
        out["merge.reject." + reason] = (counts["merge.reject." + reason], "count")
    out["merge.witnesses_used"] = (calls["merge.unify_paths"], "count")
    out["merge.pushbacks"] = (counts["merge.pushbacks"], "count")
    out["ptree.nodes"] = (counts["ptree.nodes"], "count")
    out["infer.self_s"] = (self_s["infer"], "s")
    out["infer.trim_renumber_s"] = (self_s["infer.trim_renumber"], "s")
    for key in ("core.transduce.symbols", "core.transduce.output_chars",
                "transform.disambiguate.states_out", "transform.totalize.states_out"):
        out[key] = (counts[key], "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
