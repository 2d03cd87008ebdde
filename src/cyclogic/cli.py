"""Command-line surface: table, classify, enumerate, tm, encode, experiment.

Exit codes follow one contract everywhere: 0 success, 1 domain error
(guards, validation violations, out-of-range values), 2 usage error
(malformed arguments or unparsable input files).  Usage errors never
produce partial domain output.

Every command prints human-readable text by default and a structured JSON
document under ``--json``; the JSON forms parse back into the library
types (see ``table_from_obj``, ``outcome_from_obj``,
``harness.report_from_obj``).  Each reader accepts exactly what its writer
writes and raises ValueError for any other document (``_readback.inverts``).

A call pays only for its subcommand: ``main`` builds a parser that holds
only the subcommand its first argument names, and ``logic`` and
``harness`` are imported by the commands that use them, so ``cyclogic tm``
and ``cyclogic encode`` load neither.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import stat
import sys
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Sequence

from . import radix
from ._readback import inverts
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

if TYPE_CHECKING:
    from . import logic


class UsageError(Exception):
    """Bad command usage; reported on stderr with exit code 2."""


# ---------------------------------------------------------------------------
# Structured forms

def table_to_obj(
    index: logic.UnaryIndex | logic.BinaryIndex,
    table: logic.UnaryTable | logic.BinaryTable,
) -> dict:
    """Structured document: {modulus, kind, index, outputs} (exponents only)."""
    from . import logic

    if isinstance(table, logic.UnaryTable):
        return _table_doc(table.modulus, "unary", list(index.indices), list(table.outputs))
    return _table_doc(table.modulus, "binary", [list(row) for row in index.matrix],
                      [list(row) for row in table.outputs])


def _table_doc(n: int, kind: str, index, outputs) -> dict:
    """The one key layout of a table document; ``enumerate --json`` writes
    its rendered arrays into this layout (``_document_frame``)."""
    return {"modulus": n, "kind": kind, "index": index, "outputs": outputs}


#: What ``table --json`` adds to ``table_to_obj``'s keys at n = 2 (see ``_classification``).
_CLASSIFICATION_KEYS = ("classification", "catalog_label", "catalog_agrees")


def table_from_obj(obj: dict) -> tuple[logic.UnaryIndex | logic.BinaryIndex,
                                       logic.UnaryTable | logic.BinaryTable]:
    """Parse a ``table_to_obj`` document; any other raises ValueError (see
    ``_readback.inverts``).  The outputs are computed from the index, not read.
    The classification keys that ``table --json`` adds at n = 2 are not read."""
    if not isinstance(obj, dict):
        raise ValueError(f"a table document is a JSON object, got {obj!r}")
    unread = _CLASSIFICATION_KEYS if obj.get("modulus") == 2 else ()
    return _table_from_doc({key: value for key, value in obj.items() if key not in unread})


@inverts(lambda pair: table_to_obj(*pair))
def _table_from_doc(doc: dict) -> tuple:
    from . import logic

    n = int(doc["modulus"])
    if doc["kind"] == "unary":
        idx = logic.UnaryIndex(n, tuple(map(int, doc["index"])))
        return idx, logic.unary_from_index(idx)
    if doc["kind"] == "binary":
        idx = logic.BinaryIndex(n, tuple(tuple(map(int, row)) for row in doc["index"]))
        return idx, logic.binary_from_index(idx)
    raise ValueError(f"table kind must be 'unary' or 'binary', got {doc['kind']!r}")


def id_to_obj(desc: InstantaneousDescription) -> dict:
    return {
        "state": desc.state,
        "tapes": [list(t) for t in desc.tapes],
        "heads": list(desc.heads),
    }


@inverts(id_to_obj)
def id_from_obj(obj: dict) -> InstantaneousDescription:
    """Parse an ``id_to_obj`` document; any other raises ValueError (see
    ``_readback.inverts``)."""
    return InstantaneousDescription(
        str(obj["state"]),
        tuple(tuple(map(str, tape)) for tape in obj["tapes"]),
        tuple(map(int, obj["heads"])),
    )


def outcome_to_obj(outcome: RunOutcome) -> dict:
    return {
        "verdict": outcome.verdict,
        "steps_used": outcome.steps_used,
        "max_head_position": outcome.max_head_position,
        "trace": None if outcome.trace is None else [id_to_obj(d) for d in outcome.trace],
    }


_VERDICTS = (VERDICT_ACCEPTED, VERDICT_REJECTED, VERDICT_DEAD_END, VERDICT_BOUND_EXCEEDED)


@inverts(outcome_to_obj)
def outcome_from_obj(obj: dict) -> RunOutcome:
    """Parse an ``outcome_to_obj`` document; any other raises ValueError (see
    ``_readback.inverts``), as does a verdict the engine never gives."""
    if obj["verdict"] not in _VERDICTS:
        raise ValueError(f"verdict must be one of {_VERDICTS}, got {obj['verdict']!r}")
    trace = obj["trace"]
    return RunOutcome(
        obj["verdict"],
        int(obj["steps_used"]),
        int(obj["max_head_position"]),
        None if trace is None else tuple(map(id_from_obj, trace)),
    )


# ---------------------------------------------------------------------------
# Text rendering

def _value_grid(table: logic.UnaryTable | logic.BinaryTable) -> str:
    from . import logic

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
    from . import logic

    logic._check_arity(n)  # a domain error (exit 1), as in enumerate, before the entry count
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
    from . import logic

    idx = _parse_index(args.kind, args.n, args.index)
    if args.kind == "unary":
        return idx, logic.unary_from_index(idx)
    return idx, logic.binary_from_index(idx)


def _classification(args, idx, table) -> dict:
    """The classification fields that ``table`` (at n=2) and ``classify``
    print: the computed connective, the catalog label and whether the two
    agree.  Off arity 2 the classifier raises "not boolean" (exit 1)."""
    from . import logic

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
    from . import logic

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
        if args.json:
            head, middle, tail = _document_frame(args.n, args.kind)
            tables = _rendered_family(args, json.dumps, ", ")
            lines = ["[" + ", ".join([head + idx + middle + outs + tail
                                      for idx, outs in tables]) + "]"]
        else:
            render = (lambda row: ",".join(map(str, row))) if args.kind == "binary" else str
            tables = _rendered_family(args, render, ",")
            lines = (_enumeration_line(idx, outs) for idx, outs in tables)
    out = contextlib.nullcontext(sys.stdout) if args.output is None else _open_output(args.output)
    with out as sink:
        for line in lines:
            print(line, file=sink)
    return 0


@contextlib.contextmanager
def _open_output(path: str, newline: str | None = None) -> Iterator[IO[str]]:
    """A file for the block to write to ``path``.

    Where a file renamed over ``path`` would differ from it in nothing but
    its bytes (``_replaceable``), the block writes beside ``path`` under a
    temporary name, renamed over it only when the block succeeds; a
    failure, an interrupt included, removes it and leaves ``path`` as it
    was.  The renamed file keeps the old one's mode, and a symbolic link is
    written through.  Anything else -- a device such as /dev/null, a pipe, a
    file with other links or owners, a directory, or a file whose directory
    takes no new file -- is opened in place as it stands, so a directory is
    refused before the block runs.
    """
    target = os.path.realpath(path)
    temporary = None
    if _replaceable(target):
        directory, name = os.path.split(target)
        temporary = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
        try:
            sink = open(temporary, "x", encoding="utf-8", newline=newline)
        except OSError:  # no new file there: written in place
            temporary = None
    if temporary is None:
        try:
            sink = open(path, "w", encoding="utf-8", newline=newline)
        except OSError as exc:
            raise _unwritable(path, exc) from None
    try:
        with sink:
            yield sink
        if temporary is not None:
            with contextlib.suppress(FileNotFoundError):
                os.chmod(temporary, stat.S_IMODE(os.stat(target).st_mode))
            os.replace(temporary, target)
    except BaseException as exc:
        if temporary is not None:
            os.remove(temporary)
        if isinstance(exc, OSError):
            raise _unwritable(path, exc) from None
        raise


def _replaceable(target: str) -> bool:
    """Whether a new file renamed over ``target`` would differ from it in
    nothing but its bytes: ``target`` is missing, or is a regular file with
    one link whose owner and group are this process's."""
    try:
        st = os.stat(target)
    except FileNotFoundError:
        return True
    except OSError:
        return False
    return (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
            and (st.st_uid, st.st_gid) == (os.geteuid(), os.getegid()))


def _unwritable(path: str, exc: OSError) -> UsageError:
    """The usage error for an output file that cannot be written, naming
    ``path`` rather than the temporary file."""
    return UsageError(f"cannot write output file: {OSError(exc.errno, exc.strerror, path)}")


def _rendered_family(args, render, sep: str) -> Iterator[tuple[str, str]]:
    """The (index, outputs) texts of every table of the family ``args``
    names, in lexicographic index order.

    Each piece of ``logic._family_positions`` is rendered once by
    ``render``, and a table's texts are its positions' texts joined by
    ``sep``.  Each position's pairs are replaced by their two lists of
    texts, so its output pieces are freed as the texts are made.  The checks
    and the rendering run at call time; only the joins are lazy.  The index
    and outputs texts come from two products over lists of the same
    lengths, which choose in the same order.
    """
    from . import logic

    positions = logic._family_positions(args.kind, args.n, args.allow_large)
    for a, pairs in enumerate(positions):
        positions[a] = [render(idx) for idx, _ in pairs], [render(out) for _, out in pairs]
    indexes, outputs = zip(*positions)
    return zip(map(sep.join, itertools.product(*indexes)),
               map(sep.join, itertools.product(*outputs)))


def _document_frame(n: int, kind: str) -> tuple[str, str, str]:
    """``_table_doc``'s layout around a table's rendered index and outputs
    array bodies: the document is head + index + middle + outputs + tail."""
    head, _, rest = json.dumps(_table_doc(n, kind, "\0", "\1")).partition('"\\u0000"')
    middle, _, tail = rest.partition('"\\u0001"')
    return head + "[", "]" + middle + "[", "]" + tail


def _enumeration_line(index: str, outputs: str) -> str:
    """One text line of ``enumerate``: the flat index, a tab, the flat outputs."""
    return f"{index}\t{outputs}"


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
    from . import harness

    try:
        spec = harness.load_spec(args.spec)
    except OSError as exc:
        raise UsageError(f"cannot read spec file: {exc}")
    except (json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"bad experiment spec: {exc}")
    report = harness.run_experiment(spec)
    out = (contextlib.nullcontext(sys.stdout) if args.output is None
           else _open_output(args.output, newline=""))
    with out as sink:
        harness.emit_report(report, args.format, sink)
    print(harness.summary_line(report))
    return 0


# ---------------------------------------------------------------------------
# Parser

def _add_table_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True, help="logic arity")
    p.add_argument("--kind", choices=("unary", "binary"), required=True)
    p.add_argument("--index", required=True,
                   help="comma-separated index entries (n or n*n of them)")
    p.add_argument("--true-exponent", type=int, default=0, choices=(0, 1))
    p.add_argument("--json", action="store_true")


def _add_enumerate_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--kind", choices=("unary", "binary"), required=True)
    p.add_argument("--distinct-only", action="store_true",
                   help="print only the total and distinct counts")
    p.add_argument("--allow-large", action="store_true",
                   help="override the enumeration size guard")
    p.add_argument("--output", default=None, help="write to a file instead of stdout")
    p.add_argument("--json", action="store_true")


def _add_tm_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("machine", help="machine description file")
    p.add_argument("--word", default="",
                   help="input word: one character per symbol, or whitespace-separated "
                        "symbols if the machine has a multi-character input symbol")
    p.add_argument("--mode", choices=("run", "accept", "accept-space"), default="run")
    p.add_argument("-t", "--steps", type=int, default=10_000, help="step bound")
    p.add_argument("-s", "--space", type=int, default=None, help="head-position bound")
    p.add_argument("--trace", action="store_true", help="print the witness path")
    p.add_argument("--json", action="store_true")


def _add_encode_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("word", help="word spec, e.g. b:16|3,10 (digits LSB first)")
    p.add_argument("action", choices=("value", "rebase", "shift", "check"))
    p.add_argument("args", nargs="*", help="action arguments")
    p.add_argument("--json", action="store_true")


def _add_experiment_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("spec", help="JSON experiment spec file")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="report file (default: stdout)")


#: Every subcommand, in help order: name -> (help, add its arguments, run it).
_COMMANDS = {
    "table": ("print one generated truth table", _add_table_args, cmd_table),
    "classify": ("classification only", _add_table_args, cmd_classify),
    "enumerate": ("stream a whole function family", _add_enumerate_args, cmd_enumerate),
    "tm": ("run a machine from a description file", _add_tm_args, cmd_tm),
    "encode": ("radix word operations", _add_encode_args, cmd_encode),
    "experiment": ("run a step-count experiment", _add_experiment_args, cmd_experiment),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The ``cyclogic`` parser with every subcommand, or with only the one
    named ``only``.

    A parser with one subcommand parses that subcommand's argv as the full
    parser does.  Its usage line, which an unknown flag prints, still lists
    every command; the full parser leaves the metavar unset, since it also
    names the command argument in the errors for a missing or unknown one.
    """
    parser = argparse.ArgumentParser(
        prog="cyclogic",
        description="roots-of-unity logic tables, Turing machine runs, "
                    "radix encodings, and step-count experiments",
    )
    names = _COMMANDS if only is None else (only,)
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_args, func = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
    try:
        code = main()
    except KeyboardInterrupt:  # 128 + SIGINT, as a shell reports it; no traceback
        code = 130
    sys.exit(code)
