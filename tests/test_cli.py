"""Command-line surface: formats, round trips, exit codes."""

import os
import re
import subprocess
import sys

import pytest

import fstlearn
from fstlearn.cli import (
    export_dot,
    main,
    parse_machine,
    parse_samples,
    serialize_machine,
    serialize_samples,
)
from fstlearn.core import Transducer, transduce
from fstlearn.errors import ConflictError, FormatError
from fstlearn.infer import infer
from fstlearn.oracle import equivalent_up_to

from machines import PARITY_HASH

LOOP = Transducer([0], "a", "x", 0, [0], [(0, "a", 0, "x")])


def test_machine_round_trip():
    text = serialize_machine(LOOP)
    machine, eps = parse_machine(text)
    assert eps is None
    assert equivalent_up_to(machine, LOOP, 5).verdict
    assert serialize_machine(machine) == text


def test_machine_round_trip_epsilon_sidecar():
    text = serialize_machine(LOOP, epsilon_output="zz")
    machine, eps = parse_machine(text)
    assert eps == "zz"


def test_machine_empty_output_encoded_as_dash():
    t = Transducer([0, 1], "a", "", 0, [1], [(0, "a", 1, "")])
    text = serialize_machine(t)
    assert "trans 0 a 1 -" in text
    machine, _ = parse_machine(text)
    assert transduce(machine, "a") == {""}


@pytest.mark.parametrize(
    "machine",
    [
        Transducer([0, 1], ["ab"], "x", 0, [1], [(0, "ab", 1, "x")]),
        Transducer([0, 1], "a", "x", 0, [1], [(0, "", 1, "x")]),
        Transducer([0, 1], "a", ["xy"], 0, [1], [(0, "a", 1, "xy")]),
    ],
    ids=["two-character-input", "empty-input", "two-character-output"],
)
def test_machine_symbols_of_other_than_one_character_are_refused(machine):
    with pytest.raises(FormatError, match="cannot be written"):
        serialize_machine(machine)


def test_parse_machine_rejects_garbage():
    with pytest.raises(FormatError):
        parse_machine("not a machine\n")


def test_parse_machine_rejects_invalid_structure():
    text = "fst a x 0\nstate 0\ntrans 0 a 7 x\n"
    with pytest.raises(FormatError):
        parse_machine(text)


def test_sample_round_trip():
    pairs = [("", ""), ("a", "x"), ("ab", "")]
    text = serialize_samples(pairs)
    assert parse_samples(text) == pairs


def test_sample_duplicate_conflict():
    # the parser keeps both lines; the learner's one conflict check refuses them
    pairs = parse_samples("a\tx\na\ty\n")
    assert pairs == [("a", "x"), ("a", "y")]
    with pytest.raises(ConflictError):
        infer(pairs)


def test_sample_parser_skips_blank_lines():
    assert parse_samples("a\tx\n\nb\ty\n") == [("a", "x"), ("b", "y")]


def test_sample_bad_line():
    with pytest.raises(FormatError):
        parse_samples("no tab here\n")


def test_dot_export_is_wellformed():
    text = export_dot(LOOP)
    assert text.startswith("digraph")
    assert text.count("{") == text.count("}")
    for line in text.splitlines()[1:-1]:
        assert re.fullmatch(
            r"\s*(rankdir=LR;|__start.*|q\d+ \[shape=\w+, label=\"\d+\"\];"
            r"|__start -> q\d+;|q\d+ -> q\d+ \[label=\".+\"\];)",
            line.strip(),
        ), line


def test_dot_export_empty_machine():
    t = Transducer([0], "a", "x", 0, [], [])
    text = export_dot(t)
    assert "q0" in text
    assert "->" not in text.replace("__start -> q0", "")


# -- end-to-end command tests -------------------------------------------------


def write(path, text):
    path.write_text(text, encoding="utf-8")


def test_cmd_learn_eval_round_trip(tmp_path):
    samples = tmp_path / "samples.tsv"
    out = tmp_path / "machine.fst"
    write(samples, "a\tx\naa\txx\naaa\txxx\n")
    assert main(["learn", str(samples), str(out)]) == 0
    assert main(["eval", str(out), "--input", "aa"]) == 0


def test_cmd_learn_conflicting_file(tmp_path, capsys):
    samples = tmp_path / "samples.tsv"
    write(samples, "a\tx\na\ty\n")
    assert main(["learn", str(samples), str(tmp_path / "out.fst")]) == 1
    assert "'a'" in capsys.readouterr().err


def test_cmd_learn_trace(tmp_path, capsys):
    # one line per merge attempt, as many as a list.append sink collects
    pairs = [("a", "x"), ("aa", "y"), ("b", "y")]
    samples = tmp_path / "samples.tsv"
    write(samples, serialize_samples(pairs))
    assert main(["learn", str(samples), str(tmp_path / "out.fst"), "--trace"]) == 0
    echoed = capsys.readouterr().err.splitlines()
    attempts = []
    infer(pairs, trace=attempts.append)
    assert {entry["kind"] for entry in attempts} == {"merge_committed", "merge_rejected"}
    assert len(echoed) == len(attempts)
    for line, entry in zip(echoed, attempts):
        a, b = entry["pair"]
        outcome = "committed" if entry["kind"] == "merge_committed" else "rejected"
        assert line.startswith(f"merge {a}+{b}: {outcome} (")


def test_cmd_eval_outputs(tmp_path, capsys):
    machine = tmp_path / "m.fst"
    write(machine, serialize_machine(LOOP))
    assert main(["eval", str(machine), "--input", "aa"]) == 0
    assert capsys.readouterr().out.strip() == "xx"
    assert main(["eval", str(machine), "--input", ""]) == 0  # loop accepts eps
    capsys.readouterr()
    ambiguous = Transducer(
        [0, 1, 2], "a", "xy", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "y")]
    )
    write(machine, serialize_machine(ambiguous))
    assert main(["eval", str(machine), "--input", "a"]) == 2
    assert capsys.readouterr().out.splitlines() == ["x", "y"]


def test_cmd_eval_reject(tmp_path, capsys):
    machine = tmp_path / "m.fst"
    t = Transducer([0, 1], "ab", "x", 0, [1], [(0, "a", 1, "x")])
    write(machine, serialize_machine(t))
    assert main(["eval", str(machine), "--input", "b"]) == 1
    assert capsys.readouterr().out.strip() == "REJECT"


def test_cmd_check_passes(tmp_path, capsys):
    machine = tmp_path / "m.fst"
    write(machine, serialize_machine(LOOP))
    code = main(
        ["check", str(machine), "--functional", "--ambiguity", "--lpp", "--max-len", "6"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 3


def test_cmd_check_flags_ambiguity(tmp_path, capsys):
    machine = tmp_path / "m.fst"
    ambiguous = Transducer(
        [0, 1, 2], "a", "xx", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "x")]
    )
    write(machine, serialize_machine(ambiguous))
    assert main(["check", str(machine), "--ambiguity"]) == 1
    assert "FAIL" in capsys.readouterr().out
    # two runs with different outputs: the line names both
    two_outputs = Transducer(
        [0, 1, 2], "a", "xy", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "y")]
    )
    write(machine, serialize_machine(two_outputs))
    assert main(["check", str(machine), "--ambiguity"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("ambiguity: FAIL input='a' ")
    assert sorted(re.findall(r"output_[ab]=('\w*')", out)) == ["'x'", "'y'"]


def test_cmd_check_zero_bound_vacuous(tmp_path, capsys):
    machine = tmp_path / "m.fst"
    write(machine, serialize_machine(LOOP))
    assert main(["check", str(machine), "--functional", "--max-len", "0"]) == 0


def test_cmd_check_without_a_property_is_an_argument_error(tmp_path, capsys):
    # with no property to check, printing nothing and exiting 0 would read
    # as a pass
    machine = tmp_path / "m.fst"
    write(machine, serialize_machine(LOOP))
    with pytest.raises(SystemExit) as exc:
        main(["check", str(machine), "--max-len", "3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--functional, --ambiguity, --lpp" in captured.err


def test_cmd_transform_totalize(tmp_path):
    machine = tmp_path / "m.fst"
    out = tmp_path / "total.fst"
    t = Transducer([0, 1], "ab", "x", 0, [1], [(0, "a", 1, "x")])
    write(machine, serialize_machine(t))
    assert main(["transform", str(machine), str(out), "--totalize", "#"]) == 0
    total, _ = parse_machine(out.read_text())
    assert transduce(total, "b") == {"#"}
    assert transduce(total, "a") == {"x"}


def test_cmd_transform_totalize_symbol_clash(tmp_path):
    machine = tmp_path / "m.fst"
    t = Transducer([0], "a", "#", 0, [0], [(0, "a", 0, "#")])
    write(machine, serialize_machine(t))
    assert main(["transform", str(machine), str(tmp_path / "o.fst"), "--totalize", "#"]) == 1


@pytest.mark.parametrize("reject", ["", "ab"])
def test_cmd_transform_totalize_refuses_a_bad_symbol_at_parse_time(tmp_path, reject, capsys):
    machine = tmp_path / "m.fst"
    out = tmp_path / "total.fst"
    t = Transducer([0, 1], "ab", "x", 0, [1], [(0, "a", 1, "x")])
    write(machine, serialize_machine(t))
    with pytest.raises(SystemExit) as exc:
        main(["transform", str(machine), str(out), "--totalize", reject])
    assert exc.value.code == 2
    assert "must be a single character" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "samples",
    ["a\t-\naa\t--\n", "a b\tx\n", "\t-\na\tx\n"],
    ids=["dash-output", "space-input", "dash-epsilon-output"],
)
def test_cmd_learn_refuses_symbols_the_format_reserves(tmp_path, samples, capsys):
    path = tmp_path / "samples.tsv"
    out = tmp_path / "out.fst"
    write(path, samples)
    assert main(["learn", str(path), str(out)]) == 2
    assert "cannot be written" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("reject", ["-", " "])
def test_cmd_transform_totalize_refuses_symbols_the_format_reserves(tmp_path, reject):
    machine = tmp_path / "m.fst"
    out = tmp_path / "total.fst"
    t = Transducer([0, 1], "ab", "x", 0, [1], [(0, "a", 1, "x")])
    write(machine, serialize_machine(t))
    assert main(["transform", str(machine), str(out), "--totalize", reject]) == 2
    assert not out.exists()


def test_cmd_transform_trim_idempotent(tmp_path):
    machine = tmp_path / "m.fst"
    first = tmp_path / "first.fst"
    second = tmp_path / "second.fst"
    t = Transducer(
        [0, 1, 5], "a", "x", 0, [1], [(0, "a", 1, "x"), (0, "a", 5, "x")]
    )
    write(machine, serialize_machine(t))
    assert main(["transform", str(machine), str(first), "--trim"]) == 0
    assert main(["transform", str(first), str(second), "--trim"]) == 0
    assert first.read_text() == second.read_text()


def test_cmd_transform_disambiguate(tmp_path):
    machine = tmp_path / "m.fst"
    out = tmp_path / "d.fst"
    ambiguous = Transducer(
        [0, 1, 2], "a", "x", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "x")]
    )
    write(machine, serialize_machine(ambiguous))
    assert main(["transform", str(machine), str(out), "--disambiguate"]) == 0
    result, _ = parse_machine(out.read_text())
    assert equivalent_up_to(result, ambiguous, 6).verdict


def test_cmd_gen_informant_and_relearn(tmp_path):
    machine = tmp_path / "m.fst"
    samples = tmp_path / "s.tsv"
    relearned = tmp_path / "m2.fst"
    write(machine, serialize_machine(LOOP))
    assert main(["gen-informant", str(machine), str(samples), "--max-len", "3"]) == 0
    lines = samples.read_text().splitlines()
    assert len(lines) == 4  # eps, a, aa, aaa
    assert main(["learn", str(samples), str(relearned)]) == 0
    m2, _ = parse_machine(relearned.read_text())
    assert equivalent_up_to(m2, LOOP, 5).verdict


@pytest.mark.parametrize("accepts_empty", [True, False])
def test_cmd_gen_informant_keeps_the_epsilon_output(tmp_path, capsys, accepts_empty):
    # the file's epsilon output is what ``eval --input ""`` prints, so the
    # informant pairs the empty input with it, also when the initial state
    # does not accept, and relearning keeps it
    machine = tmp_path / "m.fst"
    samples = tmp_path / "s.tsv"
    relearned = tmp_path / "m2.fst"
    if accepts_empty:
        write(samples, "\tx\na\ty\naa\tyy\n")
        assert main(["learn", str(samples), str(machine)]) == 0
    else:
        t = Transducer([0, 1], "a", "y", 0, [1], [(0, "a", 1, "y"), (1, "a", 1, "y")])
        write(machine, serialize_machine(t, epsilon_output="x"))
    assert main(["eval", str(machine), "--input", ""]) == 0
    assert capsys.readouterr().out == "x\n"
    assert main(["gen-informant", str(machine), str(samples), "--max-len", "2"]) == 0
    assert parse_samples(samples.read_text()) == [("", "x"), ("a", "y"), ("aa", "yy")]
    assert main(["learn", str(samples), str(relearned)]) == 0
    assert parse_machine(relearned.read_text())[1] == "x"


def test_parse_machine_duplicate_epsilon_output(tmp_path, capsys):
    text = "fst a xz 0\nstate 0 accept\nepsilon-output x\nepsilon-output z\n"
    with pytest.raises(FormatError, match="line 4: duplicate epsilon-output"):
        parse_machine(text)
    machine = tmp_path / "m.fst"
    write(machine, text)
    assert main(["eval", str(machine), "--input", ""]) == 2
    assert "duplicate epsilon-output" in capsys.readouterr().err


def test_cmd_gen_informant_nonfunctional(tmp_path, capsys):
    machine = tmp_path / "m.fst"
    bad = Transducer(
        [0, 1, 2], "a", "xy", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "y")]
    )
    write(machine, serialize_machine(bad))
    assert main(["gen-informant", str(machine), str(tmp_path / "s.tsv"), "--max-len", "2"]) == 2


def test_cmd_export_dot(tmp_path, capsys):
    machine = tmp_path / "m.fst"
    write(machine, serialize_machine(LOOP))
    assert main(["export-dot", str(machine)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert 'label="a/x"' in out


def test_cmd_export_dot_escapes_quotes_and_backslashes(tmp_path, capsys):
    samples = tmp_path / "samples.tsv"
    machine = tmp_path / "m.fst"
    write(samples, 'a"\tx\\\n')
    assert main(["learn", str(samples), str(machine)]) == 0
    assert main(["export-dot", str(machine)]) == 0
    labels = re.findall(r'-> q\d+ \[label=("(?:[^"\\]|\\.)*")\];$', capsys.readouterr().out, re.M)
    unquoted = {re.sub(r"\\(.)", r"\1", label[1:-1]) for label in labels}
    assert unquoted == {'"/ε', "a/x\\"}


def test_commands_are_deterministic(tmp_path):
    samples = tmp_path / "samples.tsv"
    write(samples, "a\tx\naa\txx\nb\ty\n")
    out1 = tmp_path / "a.fst"
    out2 = tmp_path / "b.fst"
    assert main(["learn", str(samples), str(out1)]) == 0
    assert main(["learn", str(samples), str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_failed_checks_print_the_same_counterexample_under_every_hash_seed(tmp_path, capsys):
    # a check's report is read by people and diffed by scripts: two runs of one
    # command print the same text, whatever order a set of outputs hashes into
    machine = tmp_path / "m.fst"
    two_outputs = Transducer([0, 1, 2], "a", "xy", 0, [1, 2], [(0, "a", 1, "x"), (0, "a", 2, "y")])
    write(machine, serialize_machine(two_outputs))
    argv = [sys.executable, "-m", "fstlearn.cli", "check", str(machine), "--functional", "--max-len", "2"]
    src = os.path.dirname(os.path.dirname(fstlearn.__file__))
    runs = set()
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        runs.add((run.returncode, run.stdout))
    assert runs == {(1, "functional: FAIL (bound 2) counterexample=('a', ('x', 'y'))\n")}
    write(machine, serialize_machine(PARITY_HASH))
    assert main(["check", str(machine), "--lpp", "--max-len", "2"]) == 1
    assert capsys.readouterr().out.startswith("locally_prefix_preserving: FAIL (bound 2) counterexample=")


def test_cmd_eval_symbol_outside_alphabet(tmp_path, capsys):
    machine = tmp_path / "m.fst"
    t = Transducer([0, 1], "ab", "x", 0, [1], [(0, "a", 1, "x")])
    write(machine, serialize_machine(t))
    assert main(["eval", str(machine), "--input", "ac"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cmd_missing_files(tmp_path, capsys):
    missing = str(tmp_path / "missing")
    assert main(["eval", missing, "--input", "a"]) == 2
    assert main(["learn", missing, str(tmp_path / "out.fst")]) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_cmd_undecodable_file(tmp_path, capsys):
    machine = tmp_path / "m.fst"
    machine.write_bytes(b"\xff\xfe\n")
    assert main(["eval", str(machine), "--input", "a"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "m.fst", "--functional", "--max-len", "-1"],
        ["gen-informant", "m.fst", "s.tsv", "--max-len", "-3"],
    ],
)
def test_cmd_rejects_out_of_range_bounds(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "must be at least" in capsys.readouterr().err


@pytest.mark.parametrize("record", ["epsilon-output", "state"])
def test_parse_machine_bare_record(record):
    with pytest.raises(FormatError, match=f"line 3: bad {record}"):
        parse_machine(f"fst a x 0\nstate 0 accept\n{record}\n")


def test_cmd_rejects_a_bound_that_is_no_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", "m.fst", "--functional", "--max-len", "two"])
    assert exc.value.code == 2
    assert "invalid integer value: 'two'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("fst a x 0\nstate 0\nfst a x 0\n", "line 3: duplicate header"),
        ("fst a x\nstate 0\n", "line 1: bad header"),
        ("fst a x 0\nstate 0 final\n", "line 2: bad state flag"),
        ("fst a x 0\nstate 0\nstate 0 accept\n", "line 3: duplicate state 0"),
        ("fst a x 0\nstate 0\nstate 1\ntrans 0 a 1\n", "line 4: bad transition"),
        ("fst a x 0\nstate 0\nstate one\n", "line 3: invalid literal for int"),
        ("fst a-b x 0\nstate 0\n", "line 1: '-' inside an alphabet"),
        ("state 0 accept\ntrans 0 a 0 x\n", "missing fst header line"),
    ],
    ids=["duplicate-header", "header-fields", "state-flag", "duplicate-state",
         "transition-fields", "non-integer-id", "dash-in-alphabet", "missing-header"],
)
def test_parse_machine_names_the_line_it_refuses(text, message):
    with pytest.raises(FormatError, match=re.escape(message)):
        parse_machine(text)


def test_parse_machine_skips_blank_lines():
    machine, _ = parse_machine("\nfst a x 0\n\n   \nstate 0 accept\n\t\ntrans 0 a 0 x\n")
    assert serialize_machine(machine) == serialize_machine(LOOP)


def test_cmd_refuses_a_dash_inside_an_alphabet(tmp_path, capsys):
    # '-' stands for an empty field only, so "a-b" is no alphabet of a, - and b
    machine = tmp_path / "m.fst"
    write(machine, "fst a-b xy 0\nstate 0 accept\ntrans 0 a 0 x\n")
    assert main(["eval", str(machine), "--input", "a"]) == 2
    assert main(["check", str(machine), "--functional"]) == 2
    assert capsys.readouterr().err.count("line 1: '-' inside an alphabet") == 2


def test_brute_force_checks_take_words_longer_than_the_recursion_limit(tmp_path, capsys):
    # the oracle's path walks keep their own stack: one run of 1,200 arcs is
    # no deeper for them than one of 12
    machine = tmp_path / "m.fst"
    samples = tmp_path / "s.tsv"
    write(machine, serialize_machine(LOOP))
    argv = ["check", str(machine), "--functional", "--lpp", "--max-len", "1200"]
    assert main(argv) == 0
    assert capsys.readouterr().out.count("pass (bound 1200)") == 2
    assert main(["gen-informant", str(machine), str(samples), "--max-len", "1200"]) == 0
    pairs = parse_samples(samples.read_text())
    assert len(pairs) == 1201
    assert pairs[-1] == ("a" * 1200, "x" * 1200)
