"""Self-tests of the benchmark: its copied targets, tracer, gate and worker.

    python3 -m pytest -q perfbench
"""

import importlib.util
import json
import random

import pytest

from checkout import SRC, import_fstlearn

import_fstlearn()

from fstlearn import oracle  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import targets  # noqa: E402
from layers import Tracer, layer_metrics  # noqa: E402
from worker import Reply, Worker, machine_tuple, run_op  # noqa: E402

ROOT = SRC.parent
BATTERY = {name: machine for name, machine, _ in targets.BATTERY}


def load_benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def traced_learn(samples):
    tracer = Tracer()
    tracer.install()
    try:
        run_op(("learn", samples))
    finally:
        tracer.uninstall()
    return tracer.snapshot()


def test_targets_are_the_test_suite_machines():
    path = ROOT / "tests" / "machines.py"
    if not path.exists():
        pytest.skip("the test suite's machines are not in this checkout")
    spec = importlib.util.spec_from_file_location("suite_machines", path)
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    assert targets.BATTERY == suite.BATTERY
    assert targets.NONDET_EXAMPLE == suite.NONDET_EXAMPLE
    assert targets.PARITY_HASH == suite.PARITY_HASH
    ours, theirs = random.Random(7), random.Random(7)
    for _ in range(run.RANDOM_TARGETS):
        assert (targets.random_deterministic_total(ours, max_states=4), ours.randint(3, 6)) \
            == (suite.random_deterministic_total(theirs, max_states=4), theirs.randint(3, 6))


def test_metric_names_and_units_match_benchmark_json():
    spec = load_benchmark_json()
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: u for k, (_, u) in layer_metrics({}, {}, {}, 0.0).items()} == per_layer
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    metrics = run.end_to_end_metrics([0.1], [[0.2, 0.3]], set(), [])
    assert {k: u for k, (_, u) in metrics.items()} == end_to_end
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert run.RUN_SECONDS == spec["run_seconds"]


def test_work_s_leaves_out_failed_operations():
    # the second operation of the one pass failed and is charged at 0.6 s
    metrics = run.end_to_end_metrics([0.1], [[0.2, 0.6]], {(0, 1)}, [])
    assert metrics["work_s"][0] == 0.2
    assert metrics["op_p50_ms"][0] == pytest.approx(400)
    assert metrics["ok_share"][0] == 0.5


def test_times_are_scaled_by_the_calibration_around_each_operation():
    def reply(seconds, calibration):
        return Reply("ok", None, {"learn": seconds}, 0, None, calibration)

    op = run.Op("op", ("learn", []), 0.6, gate.learned)
    # units of 2 ms, then of 0.5 ms; the third operation timed out
    replies = [reply(1.0, (10, 0.02)), reply(1.0, (10, 0.005)),
               Reply("timeout", None, {}, 0, None, (0, 0.0))]
    parts = run.charged([op] * 3, [replies], {(0, 2)})
    assert [d["learn"] for d in parts[0]] == pytest.approx([0.5, 0.8, 0.6])


def test_traced_counts_are_nonzero_and_exact():
    samples = oracle.generate_informant(BATTERY["nondet_reject"], 3)
    calls, _, counts = traced_learn(samples)
    metrics = {k: v for k, (v, _) in layer_metrics(calls, {}, counts, 0.0).items()}
    # counts fixed by the merge search itself: a change that moves them
    # changed the search
    assert {k: metrics[k] for k in (
        "merge.attempts", "merge.commits", "merge.reject.output_conflict",
        "merge.reject.root_asymmetry", "merge.reject.pushback_blocked",
        "merge.reject.session_cap", "merge.witnesses_used", "merge.pushbacks",
        "ptree.build_prefix_tree.calls", "ptree.nodes",
    )} == {
        "merge.attempts": 21, "merge.commits": 4, "merge.reject.output_conflict": 11,
        "merge.reject.root_asymmetry": 6, "merge.reject.pushback_blocked": 0,
        "merge.reject.session_cap": 0, "merge.witnesses_used": 25, "merge.pushbacks": 0,
        "ptree.build_prefix_tree.calls": 1, "ptree.nodes": 16,
    }
    for name in ("ambiguity.edges_from", "ambiguity.merge_update",
                 "ambiguity.expand_one", "ambiguity.next_witness",
                 "ambiguity.materialize"):
        assert metrics[name + ".calls"] > 0
    again_calls, _, again_counts = traced_learn(samples)
    assert (again_calls, again_counts) == (calls, counts)


def test_untraced_run_calls_the_original_functions():
    points = [(owner, attr) for owner, attr, _, _ in Tracer().points()]
    originals = [vars(owner)[attr] for owner, attr in points]
    assert not any(hasattr(fn, "__wrapped__") for fn in originals)
    tracer = Tracer()
    tracer.install()
    assert all(vars(owner)[attr] is not fn for (owner, attr), fn in zip(points, originals))
    tracer.uninstall()
    run_op(("learn", oracle.generate_informant(BATTERY["loop_mark"], 3)))
    assert all(vars(owner)[attr] is fn for (owner, attr), fn in zip(points, originals))
    assert not tracer.calls


def test_gate_rejects_a_corrupted_model():
    target = BATTERY["rotation"]
    job = ("learn", oracle.generate_informant(target, 4))
    (machine, eps), _ = run_op(job)
    assert gate.learned(job, (machine, eps), target=target, bound=6) is None
    transitions = [list(tr) for tr in machine[5]]
    transitions[-1][3] += "x"
    corrupted = machine[:5] + ([tuple(tr) for tr in transitions],)
    assert gate.learned(job, (corrupted, eps)) is not None


def test_gate_rejects_wrong_library_outputs():
    split = machine_tuple(targets.split_machine(random.Random(1), 6, 2))
    job = ("transform", split, "#")
    result, parts = run_op(job)
    assert set(parts) == {"disambiguate", "totalize", "check_ambiguity"}
    assert gate.transformed(job, result) is None
    unambiguous, total, word, none = result
    for wrong in [(split, total, word, none), (unambiguous, split, word, none),
                  (unambiguous, total, None, none), (unambiguous, total, word, word)]:
        assert gate.transformed(job, wrong) is not None
    job = ("transduce", machine_tuple(BATTERY["rotation"]), "ab" * 50)
    outputs, _ = run_op(job)
    assert gate.transduced(job, outputs) is None
    assert gate.transduced(job, [outputs[0] + "x"]) is not None


def test_reference_evaluator_agrees_with_the_oracle():
    for machine in [targets.NONDET_EXAMPLE, targets.PARITY_HASH, *BATTERY.values()]:
        for word in oracle.words_up_to(machine.input_alphabet, 5):
            assert gate.evaluate(machine, word) == oracle.path_outputs(machine, word)


def test_timeout_stops_the_hang_repro_and_the_next_call_runs():
    samples = oracle.generate_informant(targets.HANG_REPRO, 4)
    with Worker() as worker:
        reply = worker.call(("learn", samples), limit=0.3)
        assert (reply.status, reply.parts) == ("timeout", {})
        assert worker.proc is None
        reply = worker.call(("learn", oracle.generate_informant(BATTERY["loop_mark"], 3)), 30)
        assert reply.status == "ok"
    assert worker.proc is None
