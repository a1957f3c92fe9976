"""Command-line surface and the text formats for machines and samples.

Machine files: a header ``fst <input chars> <output chars> <initial id>``
followed by ``state <id> [accept]`` lines and ``trans <src> <sym> <dst>
<output|->`` lines, where ``-`` stands for the empty string (also used for an
empty alphabet field).  Fields are separated by whitespace, so a machine
whose symbols include ``-`` or whitespace cannot be written.  Sample files:
one ``input TAB output`` pair per line, empty field meaning the empty string.

Exit codes: 0 success, 1 domain failure (rejected input, symbol outside the
alphabet, failed property, inconsistent data), 2 integrity failure (parse
error, unreadable file, bad argument, non-functional machine).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import ambiguity, oracle, transform
from .core import Transducer, transduce, trim, validate
from .errors import (
    AlphabetError,
    ConfigurationError,
    ConflictError,
    FormatError,
    InconsistencyError,
    ToolkitError,
)
from .infer import infer


def serialize_machine(t: Transducer, epsilon_output: Optional[str] = None) -> str:
    symbols = t.input_alphabet | {tr.symbol for tr in t.transitions}
    long = sorted(sym for sym in symbols | t.output_alphabet if len(sym) != 1)
    if long:
        raise FormatError(
            f"symbols {long!r} cannot be written to a machine file: "
            "a machine reads and writes one character at a time"
        )
    used = "".join(t.input_alphabet | t.output_alphabet) + (epsilon_output or "")
    reserved = sorted({ch for ch in used if ch == "-" or ch.isspace()})
    if reserved:
        raise FormatError(
            f"symbols {reserved!r} cannot be written to a machine file: "
            "'-' stands for the empty string and whitespace separates fields"
        )

    def chars(alphabet):
        return "".join(sorted(alphabet)) or "-"

    lines = [
        f"fst {chars(t.input_alphabet)} {chars(t.output_alphabet)} {t.initial}"
    ]
    for q in sorted(t.states):
        lines.append(f"state {q} accept" if q in t.accepting else f"state {q}")
    for tr in t.transitions:
        lines.append(f"trans {tr.src} {tr.symbol} {tr.dst} {tr.out or '-'}")
    if epsilon_output is not None:
        lines.append(f"epsilon-output {epsilon_output or '-'}")
    return "\n".join(lines) + "\n"


def parse_machine(text: str) -> tuple[Transducer, Optional[str]]:
    states: list[int] = []
    accepting: list[int] = []
    transitions: list[tuple] = []
    header = None
    epsilon_output = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        try:
            if fields[0] == "fst":
                if header is not None:
                    raise FormatError(f"line {lineno}: duplicate header")
                if len(fields) != 4:
                    raise FormatError(f"line {lineno}: bad header")
                header = (
                    set(fields[1]) - {"-"} if fields[1] != "-" else set(),
                    set(fields[2]) - {"-"} if fields[2] != "-" else set(),
                    int(fields[3]),
                )
            elif fields[0] == "state":
                if len(fields) not in (2, 3):
                    raise FormatError(f"line {lineno}: bad state")
                states.append(int(fields[1]))
                if len(fields) > 2:
                    if fields[2] != "accept":
                        raise FormatError(f"line {lineno}: bad state flag")
                    accepting.append(int(fields[1]))
            elif fields[0] == "trans":
                if len(fields) != 5:
                    raise FormatError(f"line {lineno}: bad transition")
                out = "" if fields[4] == "-" else fields[4]
                transitions.append((int(fields[1]), fields[2], int(fields[3]), out))
            elif fields[0] == "epsilon-output":
                if len(fields) != 2:
                    raise FormatError(f"line {lineno}: bad epsilon-output")
                if epsilon_output is not None:
                    raise FormatError(f"line {lineno}: duplicate epsilon-output")
                epsilon_output = "" if fields[1] == "-" else fields[1]
            else:
                raise FormatError(f"line {lineno}: unknown record {fields[0]!r}")
        except (ValueError, IndexError) as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    if header is None:
        raise FormatError("missing fst header line")
    machine = Transducer(states, header[0], header[1], header[2], accepting, transitions)
    problems = validate(machine)
    if problems:
        raise FormatError("; ".join(v.detail for v in problems))
    return machine, epsilon_output


def serialize_samples(pairs) -> str:
    return "".join(f"{inp}\t{out}\n" for inp, out in pairs)


def parse_samples(text: str) -> list[tuple[str, str]]:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        if raw == "":
            continue
        if raw.count("\t") != 1:
            raise FormatError(f"line {lineno}: expected exactly one tab")
        pairs.append(tuple(raw.split("\t")))
    return pairs


def _dot_string(text: str) -> str:
    """``text`` as a quoted DOT string."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(t: Transducer) -> str:
    lines = ["digraph fst {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in sorted(t.states):
        shape = "doublecircle" if q in t.accepting else "circle"
        lines.append(f'  q{q} [shape={shape}, label="{q}"];')
    lines.append(f"  __start -> q{t.initial};")
    for tr in t.transitions:
        out = tr.out if tr.out else "ε"
        lines.append(f"  q{tr.src} -> q{tr.dst} [label={_dot_string(tr.symbol + '/' + out)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- commands ----------------------------------------------------------------


def _load_machine(path: str) -> tuple[Transducer, Optional[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_machine(fh.read())


def _echo_attempt(entry: dict) -> None:
    """Print one line on stderr for a merge attempt of ``infer``'s trace."""
    a, b = entry["pair"]
    if entry["kind"] == "merge_committed":
        outcome = f"committed ({entry['forced']} forced, {entry['push_backs']} push-backs)"
    else:
        outcome = f"rejected ({entry['reason']})"
    print(f"merge {a}+{b}: {outcome}", file=sys.stderr)


def cmd_learn(args) -> int:
    with open(args.samples, "r", encoding="utf-8") as fh:
        pairs = parse_samples(fh.read())
    trace = _echo_attempt if args.trace else None
    model = infer(pairs, max_merge_passes=args.max_passes, trace=trace)
    text = serialize_machine(model.machine, model.epsilon_output)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def cmd_eval(args) -> int:
    machine, epsilon_output = _load_machine(args.machine)
    if args.input == "" and epsilon_output is not None:
        print(epsilon_output)
        return 0
    outputs = sorted(transduce(machine, args.input))
    if not outputs:
        print("REJECT")
        return 1
    if len(outputs) > 1:
        for out in outputs:
            print(out)
        return 2
    print(outputs[0])
    return 0


def cmd_check(args) -> int:
    machine, _ = _load_machine(args.machine)
    ok = True
    if args.functional:
        report = oracle.check_functional_up_to(machine, args.max_len)
        ok &= _print_report(report)
    if args.ambiguity:
        trimmed = trim(machine)
        witness = ambiguity.find_ambiguity(trimmed, ambiguity.square_reach(trimmed))
        if witness is None:
            print("ambiguity: pass")
        else:
            ok = False
            print(
                f"ambiguity: FAIL input={witness.path_a.input_word!r} "
                f"output_a={witness.path_a.output_word!r} "
                f"output_b={witness.path_b.output_word!r}"
            )
    if args.lpp:
        report = oracle.check_local_prefix_preservation_up_to(
            trim(machine), args.max_len
        )
        ok &= _print_report(report)
    return 0 if ok else 1


def _print_report(report: oracle.BoundedCheckReport) -> bool:
    if report.verdict:
        print(f"{report.property_name}: pass (bound {report.bound})")
    else:
        print(
            f"{report.property_name}: FAIL (bound {report.bound}) "
            f"counterexample={report.counterexample!r}"
        )
    return report.verdict


def cmd_transform(args) -> int:
    machine, epsilon_output = _load_machine(args.machine)
    if args.totalize is not None:
        result = transform.totalize(machine, args.totalize)
    elif args.disambiguate:
        result = transform.disambiguate(machine)
    else:
        result = trim(machine)
    text = serialize_machine(result, epsilon_output)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def cmd_gen_informant(args) -> int:
    machine, epsilon_output = _load_machine(args.machine)
    try:
        pairs = oracle.generate_informant(machine, args.max_len)
    except ToolkitError as exc:  # a non-functional machine
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if epsilon_output is not None:
        # the empty input maps to the file's epsilon output, as in ``eval``
        pairs = [("", epsilon_output)] + [pair for pair in pairs if pair[0] != ""]
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_samples(pairs))
    return 0


def cmd_export_dot(args) -> int:
    machine, _ = _load_machine(args.machine)
    sys.stdout.write(export_dot(machine))
    return 0


def _at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def integer(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _one_character(text: str) -> str:
    """An argparse type: a string of exactly one character."""
    if len(text) != 1:
        raise argparse.ArgumentTypeError(f"must be a single character, got {text!r}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fstlearn",
        description="Learn and manipulate nondeterministic functional transducers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn", help="learn a machine from a sample file")
    p.add_argument("samples")
    p.add_argument("output")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--max-passes", type=_at_least(1), default=1)
    p.set_defaults(fn=cmd_learn)

    p = sub.add_parser("eval", help="run a machine on one input")
    p.add_argument("machine")
    p.add_argument("--input", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("check", help="check machine properties")
    p.add_argument("machine")
    p.add_argument("--functional", action="store_true")
    p.add_argument("--ambiguity", action="store_true")
    p.add_argument("--lpp", action="store_true")
    p.add_argument("--max-len", type=_at_least(0), default=6)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("transform", help="apply a closure construction")
    p.add_argument("machine")
    p.add_argument("output")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--totalize", metavar="SYM", type=_one_character)
    group.add_argument("--disambiguate", action="store_true")
    group.add_argument("--trim", action="store_true")
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("gen-informant", help="dump the bounded relation")
    p.add_argument("machine")
    p.add_argument("output")
    p.add_argument("--max-len", type=_at_least(0), required=True)
    p.set_defaults(fn=cmd_gen_informant)

    p = sub.add_parser("export-dot", help="print a graph description")
    p.add_argument("machine")
    p.set_defaults(fn=cmd_export_dot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "check" and not (args.functional or args.ambiguity or args.lpp):
        parser.error("check: give at least one of --functional, --ambiguity, --lpp")
    try:
        return args.fn(args)
    except (FormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConflictError, InconsistencyError, ConfigurationError, AlphabetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
