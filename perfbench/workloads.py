"""Seeded op lists for the three benchmark workloads.

An op is one ``cyclogic`` argv plus a checker bound to its oracle data.  A
workload is a list of rounds; every round holds the same op kinds at the
same input sizes, and the seed picks the words and a small jitter of the
sizes.  A run repeats whole rounds, so the mix it measures does not depend
on where the clock ran out.

Inputs that the program reads from files (machine descriptions and
experiment specs) are written into a fresh directory at set-up, so no op
touches the disk while it is timed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

#: Rounds generated per run, each with its own words; a longer run cycles
#: through them.
ROUNDS = 8

WORKLOADS = ("experiment", "tm-long", "exact-core")

Checker = Callable[[int | None, str, str], "str | None"]


@dataclass(frozen=True)
class Op:
    kind: str
    argv: list[str]
    check: Checker


def _sizes(rng: random.Random, lo: int, hi: int, bands: int, slot: int = 0,
           slots: int = 1, jitter: int = 0) -> list[int]:
    """One input size in each of ``bands`` equal bands of [lo, hi].

    Op kind ``slot`` of ``slots`` sharing a range sits at its own offset
    inside every band, so that together the kinds cover the range evenly.
    A seeded jitter of at most ``jitter`` varies the sizes between seeds; it
    is even, so every seed keeps each size's parity, which decides even-a's
    verdict and with it the cost of the op.  Every round uses the same
    sizes, so a run measures the same mix however many rounds it completes.
    """
    width = (hi - lo) / bands
    return [
        min(hi, max(lo, round(lo + (k + (slot + 0.5) / slots) * width)
                    + 2 * rng.randint(-jitter // 2, jitter // 2)))
        for k in range(bands)
    ]


# ---------------------------------------------------------------------------
# experiment: the paper's step-count experiment, many short searches

FAMILIES = ("scan-accept", "digit-sum-parity", "guessed-digit")
BASE_RULES = ("square", 4, 16)
WORDS_PER_LENGTH = 6
STEP_CAP = 1024  # above every step count the specs can need (16**64 has 256 bits)


def _experiment_rounds(rng: random.Random, workdir: str, note: str) -> list[list[Op]]:
    rounds: list[list[Op]] = [[] for _ in range(ROUNDS)]
    kinds = [(family, rule) for family in FAMILIES for rule in BASE_RULES]
    for slot, (family, rule) in enumerate(kinds):
        if rule == "square":
            lengths = [1, 2, 3]  # b = 2**(l*l) <= 512
        else:
            lengths = _sizes(rng, 1, 64, 4, slot, len(kinds))
        for r, ops in enumerate(rounds):
            spec = {
                "lengths": lengths,
                "base_rule": rule,
                "words_per_length": WORDS_PER_LENGTH,
                "seed": rng.randrange(2**31),
                "machine_family": family,
                "step_cap": STEP_CAP,
            }
            path = os.path.join(workdir, f"spec-{r}-{len(ops)}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(spec, fh)
            ops.append(Op(f"experiment:{family}:{rule}",
                          ["experiment", path, "--format", "json"],
                          partial(checks.check_experiment, spec, note)))
    return rounds


# ---------------------------------------------------------------------------
# tm-long: few long computations on tiny fixture machines

#: (machine name, input symbols, modes); guess-bit is nondeterministic, so it
#: has no deterministic run mode.
TM_CASES = (
    ("even-a", "a", ("run", "accept", "accept-space")),
    ("copy", "a", ("run", "accept", "accept-space")),
    ("real-time-scanner", "ab", ("run", "accept", "accept-space")),
    ("guess-bit", "0", ("accept", "accept-space")),
)
TM_LENGTHS = (500, 3000)
TM_BANDS = 3


def write_machines(workdir: str) -> dict[str, str]:
    """Write the fixture machines in the file grammar; returns name -> path."""
    from cyclogic import fixtures, machinefile

    suite = fixtures.fixture_suite()
    paths = {}
    for name, _, _ in TM_CASES:
        paths[name] = os.path.join(workdir, f"{name}.tm")
        with open(paths[name], "w", encoding="utf-8") as fh:
            fh.write(machinefile.format_machine(suite[name]))
    return paths


def _tm_rounds(rng: random.Random, machines: dict[str, str]) -> list[list[Op]]:
    rounds: list[list[Op]] = [[] for _ in range(ROUNDS)]
    kinds = [(name, symbols, mode) for name, symbols, modes in TM_CASES for mode in modes]
    for slot, (name, symbols, mode) in enumerate(kinds):
        sizes = _sizes(rng, *TM_LENGTHS, TM_BANDS, slot, len(kinds), jitter=8)
        for ops in rounds:
            for n in sizes:
                word = "".join(rng.choice(symbols) for _ in range(n))
                argv = ["tm", machines[name], "--word", word, "--mode", mode,
                        "--steps", str(2 * n + 16), "--json"]
                if mode == "accept-space":
                    argv += ["--space", str(n + 2)]
                ops.append(Op(f"tm:{name}:{mode}", argv,
                              partial(checks.check_tm, name, mode, n)))
    return rounds


# ---------------------------------------------------------------------------
# exact-core: big-word rebasing and whole-family table enumeration

WIDE = 2**64
#: (new base, digits of the base-2**64 words rebased to it); the largest
#: binary rebases cost about as much as the largest enumerations, so both
#: layers reach into the slowest tenth of the ops.
WIDE_REBASES = ((2, (128, 1280)), (10, (128, 1024)))
DECIMAL_LENGTHS = (2560, 20480)  # decimal digits of the words rebased to 2**64
REBASE_BANDS = 4
#: ``value`` words have 3000 base-2**64 digits, a big-word size of the
#: baseline table; every such value exceeds the int-to-str limit.
VALUE_LENGTH = 3000


def _wide_word(rng: random.Random, length: int) -> tuple[str, int]:
    digits = [rng.randrange(WIDE) for _ in range(length)]
    text = f"b:{WIDE}|{','.join(map(str, digits))}"
    return text, checks.shift_add(digits, 64)


def _decimal_word(rng: random.Random, length: int) -> tuple[str, int]:
    digits = [rng.randrange(10) for _ in range(length)]
    msb_first = "".join(map(str, reversed(digits)))
    return f"b:10|{','.join(map(str, digits))}", checks.decimal_to_int(msb_first)


def _exact_rounds(rng: random.Random) -> list[list[Op]]:
    rounds: list[list[Op]] = [[] for _ in range(ROUNDS)]
    for ops in rounds:
        for kind, n in [("unary", n) for n in range(2, 7)] + [("binary", 3)]:
            ops.append(Op(f"enumerate:distinct:{kind}:{n}",
                          ["enumerate", "--n", str(n), "--kind", kind, "--distinct-only"],
                          partial(checks.check_distinct, kind, n)))
        for kind, n in [("unary", n) for n in range(2, 6)] + [("binary", 2), ("binary", 3)]:
            ops.append(Op(f"enumerate:json:{kind}:{n}",
                          ["enumerate", "--n", str(n), "--kind", kind, "--json"],
                          partial(checks.check_enum_json, kind, n)))
        text, value = _wide_word(rng, VALUE_LENGTH)
        ops.append(Op("encode:value", ["encode", text, "value"],
                      partial(checks.check_value, value)))
    for new_base, lengths in WIDE_REBASES:
        sizes = _sizes(rng, *lengths, REBASE_BANDS, jitter=8)
        for ops in rounds:
            for length in sizes:
                text, value = _wide_word(rng, length)
                ops.append(Op(f"encode:rebase:2^64->{new_base}",
                              ["encode", text, "rebase", str(new_base)],
                              partial(checks.check_rebase, value, length, WIDE, new_base)))
    sizes = _sizes(rng, *DECIMAL_LENGTHS, REBASE_BANDS, jitter=64)
    for ops in rounds:
        for length in sizes:
            text, value = _decimal_word(rng, length)
            ops.append(Op("encode:rebase:10->2^64", ["encode", text, "rebase", str(WIDE)],
                          partial(checks.check_rebase, value, length, 10, WIDE)))
    return rounds


def build(workload: str, seed: int, workdir: str) -> list[list[Op]]:
    """The ROUNDS rounds of ops for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "experiment":
        from cyclogic.harness import BOUND_NOTE

        rounds = _experiment_rounds(rng, workdir, BOUND_NOTE)
    elif workload == "tm-long":
        rounds = _tm_rounds(rng, write_machines(workdir))
    elif workload == "exact-core":
        rounds = _exact_rounds(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return rounds
