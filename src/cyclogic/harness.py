"""Step-count experiments: wide-alphabet machines vs their binary twins.

For each sampled length-l base-b word the harness runs a pair of machines
built from the same family — one over an alphabet of b digit symbols, one
over {0, 1} fed the binary re-encoding of the word — and records the
minimal accepting step counts found by bounded breadth-first search.
A least-squares fit of log(steps_binary) against log(steps_wide) gives a
descriptive growth exponent for the slowdown.

Built-in machine families (each pair accepts a word iff its twin accepts
the rebased word):

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
from dataclasses import dataclass
from typing import IO, Iterable

from .radix import RadixWord, format_word, parse_word, rebase
from .turing import (
    Transition,
    TuringMachine,
    VERDICT_ACCEPTED,
    VERDICT_BOUND_EXCEEDED,
    accepts_within,
    make_machine,
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

_BLANK = "_"
_MARK = "x"


class UnknownFamily(ValueError):
    """The requested machine family is not one of the built-ins."""


class AlphabetTooLarge(ValueError):
    """The wide alphabet would exceed the symbol cap."""


def _digit_symbols(b: int) -> list[str]:
    # digits >= 10 become multi-character symbol names
    return [str(d) for d in range(b)]


def _scan_accept_wide(l: int, b: int) -> TuringMachine:
    syms = _digit_symbols(b)
    transitions = {}
    for i in range(l):
        for s in syms:
            transitions[(f"w{i}", (s,))] = (Transition(f"w{i+1}", (s,), ("R",)),)
    transitions[(f"w{l}", (_BLANK,))] = (Transition("qA", (_MARK,), ("R",)),)
    return make_machine(
        states=[f"w{i}" for i in range(l + 1)] + ["qA", "qR"],
        tape_alphabet=syms + [_MARK, _BLANK],
        blank=_BLANK,
        input_alphabet=syms,
        transitions=transitions,
        initial="w0",
        accept="qA",
        reject="qR",
    )


def _accept_everything_binary() -> TuringMachine:
    transitions = {
        ("s", ("0",)): (Transition("s", ("0",), ("R",)),),
        ("s", ("1",)): (Transition("s", ("1",), ("R",)),),
        ("s", (_BLANK,)): (Transition("qA", (_MARK,), ("R",)),),
    }
    return make_machine(
        states=["s", "qA", "qR"],
        tape_alphabet=["0", "1", _MARK, _BLANK],
        blank=_BLANK,
        input_alphabet=["0", "1"],
        transitions=transitions,
        initial="s",
        accept="qA",
        reject="qR",
    )


def _parity_wide(b: int) -> TuringMachine:
    syms = _digit_symbols(b)
    transitions = {}
    for p in (0, 1):
        for d, s in enumerate(syms):
            transitions[(f"p{p}", (s,))] = (
                Transition(f"p{(p + d) % 2}", (s,), ("R",)),
            )
    transitions[("p0", (_BLANK,))] = (Transition("qA", (_MARK,), ("R",)),)
    transitions[("p1", (_BLANK,))] = (Transition("qR", (_MARK,), ("R",)),)
    return make_machine(
        states=["p0", "p1", "qA", "qR"],
        tape_alphabet=syms + [_MARK, _BLANK],
        blank=_BLANK,
        input_alphabet=syms,
        transitions=transitions,
        initial="p0",
        accept="qA",
        reject="qR",
    )


def _parity_binary(b: int) -> TuringMachine:
    # Each base-b digit occupies log2(b) bits, least significant first, so
    # the digit's parity is the bit at field offset 0.  Track (offset, parity).
    m = b.bit_length() - 1
    transitions = {}
    for j in range(m):
        for p in (0, 1):
            state = f"t{j}p{p}"
            for bit in (0, 1):
                flip = bit if j == 0 else 0
                transitions[(state, (str(bit),))] = (
                    Transition(f"t{(j + 1) % m}p{p ^ flip}", (str(bit),), ("R",)),
                )
            final = "qA" if p == 0 else "qR"
            transitions[(state, (_BLANK,))] = (Transition(final, (_MARK,), ("R",)),)
    return make_machine(
        states=[f"t{j}p{p}" for j in range(m) for p in (0, 1)] + ["qA", "qR"],
        tape_alphabet=["0", "1", _MARK, _BLANK],
        blank=_BLANK,
        input_alphabet=["0", "1"],
        transitions=transitions,
        initial="t0p0",
        accept="qA",
        reject="qR",
    )


def _guessed_digit(b: int) -> TuringMachine:
    syms = _digit_symbols(b)
    transitions = {("g", (syms[0],)): (Transition("g", (syms[0],), ("R",)),)}
    for s in syms[1:]:
        transitions[("g", (s,))] = (
            Transition("g", (s,), ("R",)),
            Transition("qA", (s,), ("R",)),
        )
    return make_machine(
        states=["g", "qA", "qR"],
        tape_alphabet=syms + [_BLANK],
        blank=_BLANK,
        input_alphabet=syms,
        transitions=transitions,
        initial="g",
        accept="qA",
        reject="qR",
    )


def build_machine_pair(family: str, l: int, b: int) -> tuple[TuringMachine, TuringMachine]:
    """Build the (wide, binary) machine pair for a family at length l, base b."""
    if l < 1:
        raise ValueError(f"length must be >= 1, got {l}")
    if b < 2:
        raise ValueError(f"base must be >= 2, got {b}")
    if b > DEFAULT_SYMBOL_CAP:
        raise AlphabetTooLarge(f"alphabet of {b} symbols exceeds the cap {DEFAULT_SYMBOL_CAP}")
    if family == "scan-accept":
        return _scan_accept_wide(l, b), _accept_everything_binary()
    if family == "digit-sum-parity":
        if b & (b - 1) != 0:
            raise ValueError(
                f"digit-sum-parity needs a power-of-two base to align bit fields, got {b}"
            )
        return _parity_wide(b), _parity_binary(b)
    if family == "guessed-digit":
        return _guessed_digit(b), _guessed_digit(2)
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


def _integer(field: str, value: object) -> int:
    # bool is an int subclass, but true is no count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def spec_from_obj(obj: object) -> ExperimentSpec:
    """Build a spec from a parsed configuration document, checking every
    field's JSON type (floats and booleans are not integers)."""
    if not isinstance(obj, dict):
        raise ValueError(f"spec must be a JSON object, got {type(obj).__name__}")
    expected = {"lengths", "base_rule", "words_per_length", "seed", "machine_family", "step_cap"}
    missing = expected - obj.keys()
    if missing:
        raise ValueError(f"spec is missing fields: {sorted(missing)}")
    extra = obj.keys() - expected
    if extra:
        raise ValueError(f"spec has unknown fields: {sorted(extra)}")
    if not isinstance(obj["lengths"], list):
        raise ValueError(f"lengths must be a list, got {obj['lengths']!r}")
    base_rule = obj["base_rule"]
    return ExperimentSpec(
        lengths=tuple(_integer("every length", l) for l in obj["lengths"]),
        base_rule=base_rule if isinstance(base_rule, str) else _integer("base_rule", base_rule),
        words_per_length=_integer("words_per_length", obj["words_per_length"]),
        seed=_integer("seed", obj["seed"]),
        machine_family=obj["machine_family"],
        step_cap=_integer("step_cap", obj["step_cap"]),
    )


def spec_to_obj(spec: ExperimentSpec) -> dict:
    return {
        "lengths": list(spec.lengths),
        "base_rule": spec.base_rule,
        "words_per_length": spec.words_per_length,
        "seed": spec.seed,
        "machine_family": spec.machine_family,
        "step_cap": spec.step_cap,
    }


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

    Rows where either search hits the step cap are flagged as capped and
    excluded from the fit; they are never dropped from the report.
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
    fit_rows = [
        (r.steps_wide, r.steps_binary)
        for r in rows
        if not r.capped and r.steps_wide is not None and r.steps_binary is not None
    ]
    fitted = fit_exponent(fit_rows)
    ratios = [sb / sw for sw, sb in fit_rows if sw > 0]
    summary = StepSummary(
        fitted_exponent=fitted,
        max_ratio=max(ratios) if ratios else None,
        exponent_at_most_3=None if fitted is None else fitted <= 3.0,
        exponent_at_most_6=None if fitted is None else fitted <= 6.0,
        note=BOUND_NOTE,
    )
    return StepReport(tuple(rows), summary)


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
        "summary": {
            "fitted_exponent": report.summary.fitted_exponent,
            "max_ratio": report.summary.max_ratio,
            "exponent_at_most_3": report.summary.exponent_at_most_3,
            "exponent_at_most_6": report.summary.exponent_at_most_6,
            "note": report.summary.note,
        },
    }


def report_from_obj(obj: dict) -> StepReport:
    rows = tuple(
        StepRow(
            length=r["l"],
            base=r["b"],
            word=parse_word(r["word"]),
            steps_wide=r["steps_wide"],
            steps_binary=r["steps_binary"],
            agree=r["agree"],
            capped=r["capped"],
        )
        for r in obj["rows"]
    )
    s = obj["summary"]
    summary = StepSummary(
        fitted_exponent=s["fitted_exponent"],
        max_ratio=s["max_ratio"],
        exponent_at_most_3=s["exponent_at_most_3"],
        exponent_at_most_6=s["exponent_at_most_6"],
        note=s["note"],
    )
    return StepReport(rows, summary)


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
