"""Step-count experiments: wide-alphabet machines vs their binary twins.

For each sampled length-l base-b word the harness runs a pair of machines
built from the same family — one over an alphabet of b digit symbols, one
over {0, 1} fed the binary re-encoding of the word — and records the
minimal accepting step counts within the step cap.  Every word goes
through the untraced bounded search (``turing.accepts_within``), which
walks the set of reachable states as a finite automaton while every fired
transition moves right, one memo lookup per input symbol, and searches
breadth-first past the first one that does not.  The walk's memo lives as
long as the machine, so the words of one length share it.
A least-squares fit of log(steps_binary) against log(steps_wide) gives a
descriptive growth exponent for the slowdown.

Built-in machine families, all built by ``turing.scanner`` (each pair
accepts a word iff its twin accepts the rebased word):

* ``scan-accept``      — the wide machine accepts exactly the words of
  length l; its twin accepts every binary word it is fed.
* ``digit-sum-parity`` — accept iff the digit sum is even; the twin reads
  the low bit of each digit field, so the base must be a power of two.
* ``guessed-digit``    — nondeterministically guess a position and verify
  a nonzero digit there; a word has a nonzero digit iff its value is
  nonzero iff its binary form has a one bit, for every base.

The fitted exponent measures; it proves nothing.  The bound being probed
is itself stated inconsistently at the source (see BOUND_NOTE), and the
summary repeats that note verbatim rather than resolving it.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import asdict, dataclass, fields
from typing import IO, Iterable, Sequence

from ._readback import inverts
from .radix import RadixWord, format_word, parse_word, rebase
from .turing import (
    TuringMachine,
    VERDICT_ACCEPTED,
    VERDICT_BOUND_EXCEEDED,
    _check_integer,
    accepts_within,
    scanner,
)

#: Emitted verbatim in every summary.
BOUND_NOTE = (
    "Claimed bounds disagree at the source: the statement says time T^3 "
    "while the derivation concludes time T^6. The fitted exponent is a "
    "descriptive statistic over these samples, not a verification of "
    "either bound."
)

FAMILIES = ("scan-accept", "digit-sum-parity", "guessed-digit")

#: Wide alphabets larger than this are refused.
DEFAULT_SYMBOL_CAP = 2**10


class UnknownFamily(ValueError):
    """The requested machine family is not one of the built-ins."""


class AlphabetTooLarge(ValueError):
    """The wide alphabet would exceed the symbol cap."""


def _scan_accept_wide(l: int, digits: Sequence[str]) -> TuringMachine:
    steps = {f"w{i}": dict.fromkeys(digits, (f"w{i + 1}",)) for i in range(l)}
    return scanner("w0", digits, steps, {f"w{l}": "qA"})


def _accept_everything_binary() -> TuringMachine:
    return scanner("s", "01", {"s": dict.fromkeys("01", ("s",))}, {"s": "qA"})


def _parity_wide(digits: Sequence[str]) -> TuringMachine:
    nexts = (("p0",), ("p1",))
    steps = {f"p{p}": {s: nexts[(p + d) % 2] for d, s in enumerate(digits)} for p in (0, 1)}
    return scanner("p0", digits, steps, {"p0": "qA", "p1": "qR"})


def _parity_binary(b: int) -> TuringMachine:
    # Each base-b digit occupies log2(b) bits, least significant first, so
    # the digit's parity is the bit at field offset 0.  Track (offset, parity).
    m = b.bit_length() - 1
    steps, verdicts = {}, {}
    for j in range(m):
        for p in (0, 1):
            state = f"t{j}p{p}"
            steps[state] = {
                bit: (f"t{(j + 1) % m}p{p ^ (j == 0 and bit == '1')}",) for bit in "01"
            }
            verdicts[state] = "qR" if p else "qA"
    return scanner("t0p0", "01", steps, verdicts)


def _guessed_digit(digits: Sequence[str]) -> TuringMachine:
    row = dict.fromkeys(digits, ("g", "qA"))
    row["0"] = ("g",)
    return scanner("g", digits, {"g": row}, {})


def build_machine_pair(family: str, l: int, b: int) -> tuple[TuringMachine, TuringMachine]:
    """Build the (wide, binary) machine pair for a family at length l, base b."""
    if l < 1:
        raise ValueError(f"length must be >= 1, got {l}")
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if b > DEFAULT_SYMBOL_CAP:
        raise AlphabetTooLarge(f"alphabet of {b} symbols exceeds the cap {DEFAULT_SYMBOL_CAP}")
    digits = [str(d) for d in range(b)]  # digits >= 10 are multi-character symbols
    if family == "scan-accept":
        return _scan_accept_wide(l, digits), _accept_everything_binary()
    if family == "digit-sum-parity":
        if b & (b - 1) != 0:
            raise ValueError(
                f"digit-sum-parity needs a power-of-two base to align bit fields, got {b}"
            )
        return _parity_wide(digits), _parity_binary(b)
    if family == "guessed-digit":
        return _guessed_digit(digits), _guessed_digit("01")
    raise UnknownFamily(f"unknown machine family {family!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """What to run: lengths, base rule, sampling, family, and a step cap.

    ``base_rule`` is either a fixed integer base or the string "square",
    which derives b = 2**(l*l) from each length.
    """

    lengths: tuple[int, ...]
    base_rule: int | str
    words_per_length: int
    seed: int
    machine_family: str
    step_cap: int

    def __post_init__(self) -> None:
        # JSON types first (floats and booleans are not integers), then ranges
        if not isinstance(self.machine_family, str):
            raise ValueError(f"machine_family must be a string, got {self.machine_family!r}")
        if not isinstance(self.lengths, tuple):  # a list is unhashable
            raise ValueError(f"lengths must be a tuple, got {self.lengths!r}")
        for l in self.lengths:
            _check_integer("every length", l)
        if not isinstance(self.base_rule, str):
            _check_integer("base_rule", self.base_rule)
        _check_integer("words_per_length", self.words_per_length)
        _check_integer("seed", self.seed)
        _check_integer("step_cap", self.step_cap)
        if not self.lengths:
            raise ValueError("lengths must be nonempty")
        if any(l < 1 for l in self.lengths):
            raise ValueError("every length must be >= 1")
        if self.words_per_length < 1:
            raise ValueError("words_per_length must be >= 1")
        if self.step_cap < 1:
            raise ValueError("step_cap must be >= 1")
        if isinstance(self.base_rule, str):
            if self.base_rule != "square":
                raise ValueError(
                    f"base_rule must be an integer or 'square', got {self.base_rule!r}"
                )
        elif self.base_rule < 2:
            raise ValueError(f"fixed base must be >= 2, got {self.base_rule}")

    def base_for(self, l: int) -> int:
        if self.base_rule == "square":
            return 2 ** (l * l)
        return int(self.base_rule)


def spec_from_obj(obj: object) -> ExperimentSpec:
    """Build a spec from a parsed configuration document, an object with
    exactly the spec's fields; the spec checks the field values itself."""
    if not isinstance(obj, dict):
        raise ValueError(f"spec must be a JSON object, got {type(obj).__name__}")
    expected = {f.name for f in fields(ExperimentSpec)}
    missing = expected - obj.keys()
    if missing:
        raise ValueError(f"spec is missing fields: {sorted(missing)}")
    extra = obj.keys() - expected
    if extra:
        raise ValueError(f"spec has unknown fields: {sorted(extra)}")
    if not isinstance(obj["lengths"], list):
        raise ValueError(f"lengths must be a list, got {obj['lengths']!r}")
    return ExperimentSpec(**dict(obj, lengths=tuple(obj["lengths"])))


def spec_to_obj(spec: ExperimentSpec) -> dict:
    return dict(asdict(spec), lengths=list(spec.lengths))


def load_spec(path: str) -> ExperimentSpec:
    with open(path, encoding="utf-8") as fh:
        return spec_from_obj(json.load(fh))


@dataclass(frozen=True)
class StepRow:
    """One sampled word: accepting step counts on both machines."""

    length: int
    base: int
    word: RadixWord
    steps_wide: int | None
    steps_binary: int | None
    agree: bool
    capped: bool


@dataclass(frozen=True)
class StepSummary:
    fitted_exponent: float | None
    max_ratio: float | None
    exponent_at_most_3: bool | None
    exponent_at_most_6: bool | None
    note: str


@dataclass(frozen=True)
class StepReport:
    rows: tuple[StepRow, ...]
    summary: StepSummary


def fit_exponent(pairs: Iterable[tuple[int, int]]) -> float | None:
    """Least-squares slope of log(y) against log(x); None if degenerate."""
    points = [(x, y) for x, y in pairs if x > 0 and y > 0]
    if len({x for x, _ in points}) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    return statistics.linear_regression(xs, ys).slope


def run_experiment(spec: ExperimentSpec) -> StepReport:
    """Sample words, run both machines on each, and fit the growth exponent.

    Both machines of a length decide all its words through the untraced
    search, whose walk memo they keep across those words.  Rows where
    either machine hits the step cap are flagged as capped and excluded
    from the fit; they are never dropped from the report.
    """
    rng = random.Random(spec.seed)
    rows: list[StepRow] = []
    for l in spec.lengths:
        b = spec.base_for(l)
        wide, binary = build_machine_pair(spec.machine_family, l, b)
        for _ in range(spec.words_per_length):
            word = RadixWord(b, tuple(rng.randrange(b) for _ in range(l)))
            wide_input = tuple(str(d) for d in word.digits)
            binary_input = tuple(str(d) for d in rebase(word, 2).digits)
            wide_out = accepts_within(wide, wide_input, spec.step_cap, want_trace=False)
            binary_out = accepts_within(binary, binary_input, spec.step_cap, want_trace=False)
            wide_ok = wide_out.verdict == VERDICT_ACCEPTED
            binary_ok = binary_out.verdict == VERDICT_ACCEPTED
            rows.append(
                StepRow(
                    length=l,
                    base=b,
                    word=word,
                    steps_wide=wide_out.steps_used if wide_ok else None,
                    steps_binary=binary_out.steps_used if binary_ok else None,
                    agree=wide_ok == binary_ok,
                    capped=VERDICT_BOUND_EXCEEDED in (wide_out.verdict, binary_out.verdict),
                )
            )
    fitted = fit_exponent(_fit_pairs(rows))
    return StepReport(tuple(rows), _summary(rows, fitted))


def _fit_pairs(rows: Iterable[StepRow]) -> list[tuple[int, int]]:
    """(steps_wide, steps_binary) of each row that enters the fit."""
    return [(r.steps_wide, r.steps_binary) for r in rows
            if not r.capped and None not in (r.steps_wide, r.steps_binary)]


def _summary(rows: Sequence[StepRow], fitted: float | None) -> StepSummary:
    """Everything in a summary but the fit itself follows from the rows and the fit."""
    ratios = [sb / sw for sw, sb in _fit_pairs(rows) if sw > 0]
    return StepSummary(
        fitted_exponent=fitted,
        max_ratio=max(ratios) if ratios else None,
        exponent_at_most_3=None if fitted is None else fitted <= 3.0,
        exponent_at_most_6=None if fitted is None else fitted <= 6.0,
        note=BOUND_NOTE,
    )


def report_to_obj(report: StepReport) -> dict:
    return {
        "rows": [
            {
                "l": r.length,
                "b": r.base,
                "word": format_word(r.word),
                "steps_wide": r.steps_wide,
                "steps_binary": r.steps_binary,
                "agree": r.agree,
                "capped": r.capped,
            }
            for r in report.rows
        ],
        "summary": asdict(report.summary),
    }


@inverts(report_to_obj)
def report_from_obj(obj: dict) -> StepReport:
    """Parse a ``report_to_obj`` document; any other raises ValueError (see
    ``_readback.inverts``).  Row ``l``, ``b`` and ``agree`` and the summary
    figures are computed from the words, step counts and ``fitted_exponent``,
    which is read, not re-fitted: its last bits depend on the platform's
    ``math.log``."""
    rows = tuple(map(_row_from_obj, obj["rows"]))
    fitted = obj["summary"]["fitted_exponent"]
    return StepReport(rows, _summary(rows, None if fitted is None else float(fitted)))


def _row_from_obj(r: dict) -> StepRow:
    word = parse_word(str(r["word"]))
    wide, binary = (None if r[k] is None else int(r[k]) for k in ("steps_wide", "steps_binary"))
    return StepRow(len(word), word.base, word, wide, binary,
                   (wide is None) == (binary is None), bool(r["capped"]))


def emit_report(report: StepReport, fmt: str, sink: IO[str]) -> None:
    """Write the report as CSV rows or as the structured JSON document."""
    if fmt == "csv":
        rows = report_to_obj(report)["rows"]
        writer = csv.writer(sink)
        if rows:  # run_experiment always yields rows; the header is their keys
            writer.writerow(rows[0].keys())
        writer.writerows([_csv_field(v) for v in row.values()] for row in rows)
    elif fmt == "json":
        json.dump(report_to_obj(report), sink, indent=2)
        sink.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _csv_field(value: object) -> object:
    """A JSON row value as a CSV field: null empty, booleans lowercase."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    return value


def summary_line(report: StepReport) -> str:
    """One-line human summary, note included verbatim."""
    s = report.summary
    fitted = "n/a" if s.fitted_exponent is None else f"{s.fitted_exponent:.3f}"
    ratio = "n/a" if s.max_ratio is None else f"{s.max_ratio:.3f}"
    return (
        f"fitted exponent {fitted} (<=3: {s.exponent_at_most_3}, "
        f"<=6: {s.exponent_at_most_6}), max ratio {ratio}. {s.note}"
    )
