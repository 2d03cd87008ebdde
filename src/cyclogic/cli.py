"""Command-line surface: table, classify, enumerate, tm, encode, experiment.

Exit codes follow one contract everywhere: 0 success, 1 domain error
(guards, validation violations, out-of-range values), 2 usage error
(malformed arguments or unparsable input files).  Usage errors never
produce partial domain output.

Every command prints human-readable text by default and a structured JSON
document under ``--json``; the JSON forms parse back into the library
types (see ``table_from_obj``, ``outcome_from_obj``,
``harness.report_from_obj``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from typing import IO, Iterable, Sequence

from . import harness, logic, radix
from .machinefile import MachineFileError, parse_machine_file
from .turing import (
    VERDICT_ACCEPTED,
    VERDICT_BOUND_EXCEEDED,
    VERDICT_DEAD_END,
    VERDICT_REJECTED,
    InstantaneousDescription,
    RunOutcome,
    accepts_within,
    accepts_within_space,
    run_deterministic,
    validate,
)


class UsageError(Exception):
    """Bad command usage; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# Structured forms

def table_to_obj(
    index: logic.UnaryIndex | logic.BinaryIndex,
    table: logic.UnaryTable | logic.BinaryTable,
) -> dict:
    """Structured document: {modulus, kind, index, outputs} (exponents only)."""
    if isinstance(table, logic.UnaryTable):
        return _table_doc(table.modulus, "unary", list(index.indices), list(table.outputs))
    return _table_doc(table.modulus, "binary", [list(row) for row in index.matrix],
                      [list(row) for row in table.outputs])


def _table_doc(n: int, kind: str, index, outputs) -> dict:
    """The one key layout of a table document; ``enumerate --json`` passes
    the family stream's tuples, which json writes as the same arrays."""
    return {"modulus": n, "kind": kind, "index": index, "outputs": outputs}


def table_from_obj(obj: dict) -> tuple[logic.UnaryIndex | logic.BinaryIndex,
                                       logic.UnaryTable | logic.BinaryTable]:
    """Parse a ``table_to_obj`` document.  Any other raises ValueError: an unknown kind, a
    non-integer exponent, lists nested to the wrong depth, outputs not of the index."""
    depth = 1 if obj["kind"] == "unary" else 2 if obj["kind"] == "binary" else None
    if depth is None:
        raise ValueError(f"table kind must be 'unary' or 'binary', got {obj['kind']!r}")
    for value, d in ((obj["modulus"], 0), (obj["index"], depth), (obj["outputs"], depth)):
        _check_exponents(value, d)
    n = obj["modulus"]
    if depth == 1:
        idx = logic.UnaryIndex(n, tuple(obj["index"]))
        table = logic.unary_from_index(idx)
    else:
        idx = logic.BinaryIndex(n, tuple(map(tuple, obj["index"])))
        table = logic.binary_from_index(idx)
    if table_to_obj(idx, table)["outputs"] != obj["outputs"]:
        raise ValueError(f"outputs {obj['outputs']} are not the table of index {obj['index']}")
    return idx, table


def _check_exponents(value: object, depth: int) -> None:
    """Refuse all but lists nested ``depth`` deep around integers (not floats or booleans)."""
    if depth and isinstance(value, list):
        for item in value:
            _check_exponents(item, depth - 1)
    elif depth or isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected {'a list' if depth else 'an integer'}, got {value!r}")


def id_to_obj(desc: InstantaneousDescription) -> dict:
    return {
        "state": desc.state,
        "tapes": [list(t) for t in desc.tapes],
        "heads": list(desc.heads),
    }


def id_from_obj(obj: dict) -> InstantaneousDescription:
    """Parse an ``id_to_obj`` document.  Any other raises ValueError: a state that
    is not a string, a tape that is not a list of strings, a head that is not an integer."""
    harness._check_type("state", obj["state"], (str,))
    for tape in _checked_list("tapes", obj["tapes"]):
        for symbol in _checked_list("a tape", tape):
            harness._check_type("a tape symbol", symbol, (str,))
    for head in _checked_list("heads", obj["heads"]):
        harness._check_integer("a head position", head)
    return InstantaneousDescription(
        obj["state"],
        tuple(tuple(t) for t in obj["tapes"]),
        tuple(obj["heads"]),
    )


def _checked_list(field: str, value: object) -> list:
    harness._check_type(field, value, (list,))
    return value


def outcome_to_obj(outcome: RunOutcome) -> dict:
    return {
        "verdict": outcome.verdict,
        "steps_used": outcome.steps_used,
        "max_head_position": outcome.max_head_position,
        "trace": None if outcome.trace is None else [id_to_obj(d) for d in outcome.trace],
    }


_VERDICTS = (VERDICT_ACCEPTED, VERDICT_REJECTED, VERDICT_DEAD_END, VERDICT_BOUND_EXCEEDED)


def outcome_from_obj(obj: dict) -> RunOutcome:
    """Parse an ``outcome_to_obj`` document.  Any other raises ValueError: an unknown
    verdict, a count that is not an integer, a trace that ``id_from_obj`` refuses."""
    if obj["verdict"] not in _VERDICTS:
        raise ValueError(f"verdict must be one of {_VERDICTS}, got {obj['verdict']!r}")
    harness._check_integer("steps_used", obj["steps_used"])
    harness._check_integer("max_head_position", obj["max_head_position"])
    trace = obj["trace"]
    return RunOutcome(
        obj["verdict"],
        obj["steps_used"],
        obj["max_head_position"],
        None if trace is None else tuple(id_from_obj(d) for d in _checked_list("trace", trace)),
    )


# ---------------------------------------------------------------------------
# Text rendering

def _value_grid(table: logic.UnaryTable | logic.BinaryTable) -> str:
    n = table.modulus
    if isinstance(table, logic.UnaryTable):
        header, rows = "a\tout", [(e,) for e in table.outputs]
    else:
        header = "a\\b\t" + "\t".join(f"z{n}^{b}" for b in range(n))
        rows = table.outputs
    lines = [header]
    for a, row in enumerate(rows):
        lines.append(f"z{n}^{a}\t" + "\t".join(f"z{n}^{e}" for e in row))
    return "\n".join(lines)


def _parse_index(kind: str, n: int, text: str):
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"malformed index {text!r}; expected comma-separated integers")
    expected = n if kind == "unary" else n * n
    if len(values) != expected:
        raise UsageError(
            f"{kind} index for n={n} needs {expected} entries, got {len(values)}"
        )
    try:
        if kind == "unary":
            return logic.UnaryIndex(n, values)
        rows = tuple(values[r * n : (r + 1) * n] for r in range(n))
        return logic.BinaryIndex(n, rows)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _build_table(args) -> tuple:
    idx = _parse_index(args.kind, args.n, args.index)
    if args.kind == "unary":
        return idx, logic.unary_from_index(idx)
    return idx, logic.binary_from_index(idx)


def _classification(args, idx, table) -> dict:
    """The classification fields that ``table`` (at n=2) and ``classify``
    print: the computed connective, the catalog label and whether the two
    agree.  Off arity 2 the classifier raises "not boolean" (exit 1)."""
    classify = logic.classify_unary if args.kind == "unary" else logic.classify_binary
    computed = classify(table, logic.TruthConvention(args.true_exponent))
    check = logic.check_label(args.kind, idx.flat, computed)
    return {
        "classification": computed,
        "catalog_label": None if check is None else check.catalog,
        "catalog_agrees": None if check is None else check.agrees,
    }


def _catalog_lines(fields: dict) -> list[str]:
    if fields["catalog_label"] is None:
        return []
    verdict = "agrees" if fields["catalog_agrees"] else "disagrees"
    return [f"catalog label: {fields['catalog_label']} ({verdict})"]


# ---------------------------------------------------------------------------
# Commands

def cmd_table(args) -> int:
    idx, table = _build_table(args)
    fields = _classification(args, idx, table) if table.modulus == 2 else {}
    if args.json:
        print(json.dumps({**table_to_obj(idx, table), **fields}))
        return 0
    print(f"{args.kind} table, n={args.n}, index {args.index}")
    print(_value_grid(table))
    if fields:
        print(f"classification: {fields['classification']}")
        for line in _catalog_lines(fields):
            print(line)
    return 0


def cmd_classify(args) -> int:
    idx, table = _build_table(args)
    fields = _classification(args, idx, table)
    if args.json:
        print(json.dumps(fields))
        return 0
    print(fields["classification"])
    for line in _catalog_lines(fields):
        print(line)
    return 0


def cmd_enumerate(args) -> int:
    # Everything that can fail (the size guard included) runs before the
    # output file is opened, so a failure leaves no file behind.
    if args.distinct_only:
        total, distinct = logic.distinctness_report(args.n, args.kind, args.allow_large)
        total, distinct = radix.decimal_text(total), radix.decimal_text(distinct)
        # framed by hand: json.dumps refuses counts past the int-to-str limit
        lines: Iterable[str] = [
            f'{{"total": {total}, "distinct": {distinct}}}' if args.json else f"{total} {distinct}"
        ]
    else:
        rows = logic._family_rows(args.kind, args.n, args.allow_large)
        if args.json:
            lines = [json.dumps([_table_doc(args.n, args.kind, idx, outs) for idx, outs in rows])]
        else:
            flat = itertools.chain.from_iterable if args.kind == "binary" else iter
            lines = (_enumeration_line(flat(idx), flat(outs)) for idx, outs in rows)
    sink = sys.stdout if args.output is None else _open_output(args.output)
    try:
        for line in lines:
            print(line, file=sink)
    finally:
        if sink is not sys.stdout:
            sink.close()
    return 0


def _open_output(path: str, newline: str | None = None) -> IO[str]:
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise UsageError(f"cannot write output file: {exc}") from None


def _enumeration_line(index: Iterable[int], outputs: Iterable[int]) -> str:
    """One text line of ``enumerate``: the flat index, a tab, the flat outputs."""
    return f"{','.join(map(str, index))}\t{','.join(map(str, outputs))}"


def cmd_tm(args) -> int:
    try:
        machine = parse_machine_file(args.machine)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read machine file: {exc}")
    except MachineFileError as exc:
        raise UsageError(str(exc))
    findings = validate(machine)
    errors = [v for v in findings if v.severity == "error"]
    if errors:
        for v in errors:
            print(f"violation: {v.message}", file=sys.stderr)
        return 1
    # Multi-character symbols need separators; otherwise each character is one.
    if any(len(s) > 1 for s in machine.input_alphabet):
        word = tuple(args.word.split())
    else:
        word = tuple(args.word)
    if args.mode == "run":
        outcome = run_deterministic(machine, word, args.steps, want_trace=args.trace)
    elif args.mode == "accept":
        outcome = accepts_within(machine, word, args.steps, want_trace=args.trace)
    else:  # accept-space
        if args.space is None:
            raise UsageError("mode accept-space needs --space")
        outcome = accepts_within_space(
            machine, word, args.steps, args.space, want_trace=args.trace
        )
    if args.json:
        print(json.dumps(outcome_to_obj(outcome)))
        return 0
    print(f"{outcome.verdict} {outcome.steps_used}")
    if outcome.trace is not None:
        for desc in outcome.trace:
            print(str(desc))
    return 0


def _parse_word_arg(text: str) -> radix.RadixWord:
    try:
        return radix.parse_word(text)
    except radix.WordSpecError as exc:
        raise UsageError(str(exc)) from None
    # digit-out-of-range ValueError propagates as a domain error (exit 1)


def cmd_encode(args) -> int:
    word = _parse_word_arg(args.word)
    action = args.action
    rest = args.args
    if action == "value":
        _expect_args(rest, 0, "value")
        result: object = radix.word_value(word)
    elif action == "rebase":
        _expect_args(rest, 1, "rebase <new-base>")
        result = radix.format_word(radix.rebase(word, _int_arg(rest[0])))
    elif action == "shift":
        _expect_args(rest, 2, "shift <digit-index> <amount>")
        result = radix.format_word(
            radix.symbol_shift(word, _int_arg(rest[0]), _int_arg(rest[1]))
        )
    else:  # check
        _expect_args(rest, 2, "check <other-word> <modulus>")
        other = _parse_word_arg(rest[0])
        result = radix.exponent_identity_check(word, other, _int_arg(rest[1]))
    # str and json.dumps refuse an integer past the interpreter's int-to-str
    # digit limit, so the value is written by radix.decimal_text and the
    # JSON object is framed here.
    literal = radix.decimal_text(result) if action == "value" else json.dumps(result)
    if args.json:
        print(f'{{"word": {json.dumps(radix.format_word(word))}, '
              f'"action": {json.dumps(action)}, "result": {literal}}}')
        return 0
    print(result if isinstance(result, str) else literal)
    return 0


def _expect_args(rest: list[str], count: int, usage: str) -> None:
    if len(rest) != count:
        raise UsageError(f"encode action usage: {usage}")


def _int_arg(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}") from None


def cmd_experiment(args) -> int:
    try:
        spec = harness.load_spec(args.spec)
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}")
    except (json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"bad experiment spec: {exc}")
    report = harness.run_experiment(spec)
    if args.output is not None:
        with _open_output(args.output, newline="") as fh:
            harness.emit_report(report, args.format, fh)
    else:
        harness.emit_report(report, args.format, sys.stdout)
    print(harness.summary_line(report))
    return 0


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclogic",
        description="roots-of-unity logic tables, Turing machine runs, "
                    "radix encodings, and step-count experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_table_args(p):
        p.add_argument("--n", type=int, required=True, help="logic arity")
        p.add_argument("--kind", choices=("unary", "binary"), required=True)
        p.add_argument("--index", required=True,
                       help="comma-separated index entries (n or n*n of them)")
        p.add_argument("--true-exponent", type=int, default=0, choices=(0, 1))
        p.add_argument("--json", action="store_true")

    p_table = sub.add_parser("table", help="print one generated truth table")
    add_table_args(p_table)
    p_table.set_defaults(func=cmd_table)

    p_classify = sub.add_parser("classify", help="classification only")
    add_table_args(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_enum = sub.add_parser("enumerate", help="stream a whole function family")
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--kind", choices=("unary", "binary"), required=True)
    p_enum.add_argument("--distinct-only", action="store_true",
                        help="print only the total and distinct counts")
    p_enum.add_argument("--allow-large", action="store_true",
                        help="override the enumeration size guard")
    p_enum.add_argument("--output", default=None, help="write to a file instead of stdout")
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(func=cmd_enumerate)

    p_tm = sub.add_parser("tm", help="run a machine from a description file")
    p_tm.add_argument("machine", help="machine description file")
    p_tm.add_argument("--word", default="",
                      help="input word: one character per symbol, or whitespace-separated "
                           "symbols if the machine has a multi-character input symbol")
    p_tm.add_argument("--mode", choices=("run", "accept", "accept-space"), default="run")
    p_tm.add_argument("-t", "--steps", type=int, default=10_000, help="step bound")
    p_tm.add_argument("-s", "--space", type=int, default=None, help="head-position bound")
    p_tm.add_argument("--trace", action="store_true", help="print the witness path")
    p_tm.add_argument("--json", action="store_true")
    p_tm.set_defaults(func=cmd_tm)

    p_enc = sub.add_parser("encode", help="radix word operations")
    p_enc.add_argument("word", help="word spec, e.g. b:16|3,10 (digits LSB first)")
    p_enc.add_argument("action", choices=("value", "rebase", "shift", "check"))
    p_enc.add_argument("args", nargs="*", help="action arguments")
    p_enc.add_argument("--json", action="store_true")
    p_enc.set_defaults(func=cmd_encode)

    p_exp = sub.add_parser("experiment", help="run a step-count experiment")
    p_exp.add_argument("spec", help="JSON experiment spec file")
    p_exp.add_argument("--format", choices=("csv", "json"), default="csv")
    p_exp.add_argument("--output", default=None, help="report file (default: stdout)")
    p_exp.set_defaults(func=cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
