"""Reference constructions that only the tests use.

Like ``fstlearn.oracle``, these are deliberately naive and share no code path
with the learner: the pair derivative of a sample, the star machine with
one arm per sample pair, the pair search after a list of unions, run to its
end without reading its events, the same search by a plain product scan of
each pair's edges, a class's edge list by a scan of the base machine's
transitions, the configurations of a word by the plain fold that
``core.configuration_after`` normalises, a learner that enumerates every
machine structure and solves its outputs, and the first bounded LPP check,
against which the oracle's faster one is cross-checked.
"""

from typing import Iterable, Optional

from fstlearn.ambiguity import PairSearchState, QuotientView
from fstlearn.core import Path, Transducer
from fstlearn.oracle import BoundedCheckReport, all_paths, path_outputs


def length_lex(s: dict) -> list[tuple[str, str]]:
    """The pairs of the sample ``s`` sorted by input, length first."""
    return sorted(s.items(), key=lambda p: (len(p[0]), p[0]))


def alphabets(s: dict) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The sorted input and output symbols of the sample ``s``."""
    return (tuple(sorted({ch for inp in s for ch in inp})),
            tuple(sorted({ch for out in s.values() for ch in out})))


def derivative(s: dict, sigma: str, gamma: str) -> dict:
    """Residual relation after consuming input symbol ``sigma`` and output
    prefix ``gamma``: {(i', o') : (sigma i', gamma o') in s}.  It may carry an
    empty input with a non-empty output."""
    rest = {}
    for inp, out in s.items():
        if inp.startswith(sigma) and inp != "" and out.startswith(gamma):
            rest[inp[len(sigma):]] = out[len(gamma):]
    return rest


def build_star(s: dict) -> Transducer:
    """One arm per sample pair, full output on the first transition."""
    sigma, gamma = alphabets(s)
    accepting: set[int] = set()
    transitions: list[tuple[int, str, int, str]] = []
    next_state = 1
    for inp, out in length_lex(s):
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


def explore(st: PairSearchState) -> None:
    """Run the search ``st`` to the end without reading its events: finish
    the paused expansion, then start each later one and run it to its end."""
    while True:
        if st._paused is not None:
            for _ in st._paused:
                pass
            st._paused = None
        if len(st._marks) == len(st._keys):
            return
        st.expand_one()


def square_reach_after(t: Transducer, unions: Iterable[tuple[int, int]]) -> PairSearchState:
    """Fully explored pair search over ``t`` after merging each (a, b) pair
    of states in ``unions``, in order; its view keeps those unions
    (``QuotientView.keep``)."""
    view = QuotientView(t)
    for a, b in unions:
        view.union(a, b)
    st = PairSearchState(view)
    explore(st)
    view.keep()
    return st


def square_reach_by_scan(view: QuotientView) -> tuple[dict, list]:
    """The reached pairs, with their back-pointers, and the events of a pair
    search of ``view`` explored to the end, by the plain product scan: for
    each edge of a pair's first class, every edge of its second class (of
    the first, from that edge on, for a self pair) that has its symbol."""
    root = (view.initial_class(),) * 2
    reached = {root: None}
    events = []
    queue = [root]
    for pair in queue:  # appended to while walked: a breadth-first queue
        p, q = pair
        edges_p, edges_q = view.edges_from(p), view.edges_from(q)
        for i, e1 in enumerate(edges_p):
            sym, d1, _, raw1 = e1
            for e2 in edges_p[i:] if p == q else edges_q:
                if e2[0] != sym:
                    continue
                _, d2, _, raw2 = e2
                if d1 == d2 and e2 != e1:
                    events.append(("reconverge", pair, raw1, raw2))
                child = (min(d1, d2), max(d1, d2))
                if child not in reached:
                    reached[child] = (pair, raw1, raw2)
                    queue.append(child)
                    if d1 != d2 and view.class_accepting(d1) and view.class_accepting(d2):
                        events.append(("accept", child))
    return reached, events


def edges_by_scan(view: QuotientView, cls: int) -> tuple:
    """The edges ``view.edges_from(cls)`` should hold, by a scan of every
    transition of the base machine: each distinct (symbol, dst class,
    output) leaving ``cls`` with its least raw key, sorted."""
    least = {}
    for tr in view.base.transitions:
        key = (tr.src, tr.symbol, tr.dst)
        if view.find(tr.src) == cls:
            edge = (tr.symbol, view.find(tr.dst), view.out(key))
            least[edge] = min(least.get(edge, key), key)
    return tuple(sorted(edge + (key,) for edge, key in least.items()))


def reference_configurations(t: Transducer, inp: str):
    """Configurations after each prefix of ``inp``, by the plain fold that
    appends each transition's output to every run's whole pending output.
    The reference for ``configuration_after`` and ``transduce``; it uses
    nothing of ``core`` but the machine's arcs."""
    cur = {(t.initial, "")}
    yield frozenset(cur)
    for sym in inp:
        nxt = set()
        for state, pending in cur:
            for _, dst, out in t.arcs_from(state, sym):
                nxt.add((dst, pending + out))
        cur = nxt
        yield frozenset(cur)


# -- enumeration learner ----------------------------------------------------


def _solve_outputs(equations, var_order):
    """Assign strings to variables so that each concatenation equation
    var_1 ... var_k = constant holds.  Deterministic depth-first search over
    split points, shortest assignments first."""
    assignment: dict = {}

    def propagate(todo):
        # returns simplified list of (vars, const) or None on contradiction
        out = []
        for vars_, const in todo:
            rest = const
            pending = []
            for v in vars_:
                if v in assignment:
                    val = assignment[v]
                    if not rest.startswith(val) and not pending:
                        return None
                    if pending:
                        pending.append(v)
                    else:
                        rest = rest[len(val):]
                else:
                    pending.append(v)
            # strip assigned suffix variables
            while pending and pending[-1] in assignment:
                val = assignment[pending[-1]]
                if not rest.endswith(val):
                    return None
                rest = rest[: len(rest) - len(val)]
                pending.pop()
            if not pending:
                if rest != "":
                    return None
                continue
            out.append((tuple(pending), rest))
        return out

    def search(todo):
        todo = propagate(todo)
        if todo is None:
            return False
        todo = [eq for eq in todo if eq[0]]
        if not todo:
            return True
        vars_, const = todo[0]
        v = vars_[0]
        tail = vars_[1:]
        for cut in range(len(const) + 1):
            assignment[v] = const[:cut]
            rest_eq = [(tail, const[cut:])] if tail else (
                [] if cut == len(const) else None
            )
            if rest_eq is None:
                del assignment[v]
                continue
            if search(rest_eq + todo[1:]):
                return True
            del assignment[v]
        return False

    if not search(list(equations)):
        return None
    for v in var_order:
        assignment.setdefault(v, "")
    return assignment


def enumerate_minimal_consistent(
    s: dict, max_states: int
) -> Optional[Transducer]:
    """Smallest transducer consistent with every pair of ``s``, by exhaustive
    enumeration of machine structures with outputs solved per structure.

    Structures are visited states-ascending, then by transition-set mask,
    then by accepting-set mask; the first machine whose every accepting run
    over a sampled input can be made to yield the sampled output is returned.
    """
    sigma, gamma = alphabets(s)
    sigma = sigma or ("a",)
    pairs = length_lex(s)
    for n in range(1, max_states + 1):
        triples = [
            (src, sym, dst)
            for src in range(n)
            for sym in sigma
            for dst in range(n)
        ]
        for mask in range(1 << len(triples)):
            chosen = [triples[i] for i in range(len(triples)) if mask >> i & 1]
            step: dict[tuple[int, str], list[tuple[int, int]]] = {}
            for idx, (src, sym, dst) in enumerate(chosen):
                step.setdefault((src, sym), []).append((dst, idx))
            for acc_mask in range(1 << n):
                accepting = {q for q in range(n) if acc_mask >> q & 1}
                machine = _solve_structure(chosen, step, accepting, pairs, gamma, sigma, n)
                if machine is not None:
                    return machine
    return None


def _solve_structure(chosen, step, accepting, pairs, gamma, sigma, n):
    equations = []
    for inp, out in pairs:
        runs = _structure_runs(step, accepting, inp)
        if not runs:
            return None
        for run in runs:
            equations.append((tuple(run), out))
    solution = _solve_outputs(equations, list(range(len(chosen))))
    if solution is None:
        return None
    gamma = set(gamma).union(*solution.values())
    machine = Transducer(
        range(n),
        sigma,
        sorted(gamma),
        0,
        accepting,
        [
            (src, sym, dst, solution[idx])
            for idx, (src, sym, dst) in enumerate(chosen)
        ],
    )
    # the solver covered accepting runs; re-check end to end
    for inp, out in pairs:
        if path_outputs(machine, inp) != frozenset([out]):
            return None
    return machine


def _structure_runs(step, accepting, inp):
    """All accepting runs over ``inp`` as sequences of transition indices."""
    runs = []

    def walk(state, k, acc):
        if k == len(inp):
            if state in accepting:
                runs.append(list(acc))
            return
        for dst, idx in step.get((state, inp[k]), ()):
            acc.append(idx)
            walk(dst, k + 1, acc)
            acc.pop()

    walk(0, 0, [])
    return runs


def local_prefix_preservation_up_to(
    t: Transducer, max_len: int
) -> BoundedCheckReport:
    """``oracle.check_local_prefix_preservation_up_to`` as it first stood:
    for every run p2, every input prefix of p2 is sliced and looked up, and
    the transitions of every run p1 found there whose output p2's extends are
    compared with p2's own; cubic in the bound on a one-state loop."""
    paths = all_paths(t, max_len)
    by_input: dict[str, list[tuple[Path, str]]] = {}
    for p in paths:  # each output word is joined once, not once per comparison
        by_input.setdefault(p.input_word, []).append((p, p.output_word))
    for p2 in paths:
        word, out2 = p2.input_word, p2.output_word
        for k in range(len(word) + 1):
            for p1, out1 in by_input.get(word[:k], ()):
                if not out2.startswith(out1):
                    continue
                if p2.transitions[: len(p1.transitions)] != p1.transitions:
                    return BoundedCheckReport(
                        "locally_prefix_preserving",
                        max_len,
                        False,
                        (p1, p2),
                    )
    return BoundedCheckReport("locally_prefix_preserving", max_len, True)
