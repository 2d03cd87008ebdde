"""Independent output checks for every benchmark op.

Each checker takes an op's exit code, stdout and stderr, plus the oracle
data fixed when the op was generated, and returns ``None`` when the output
is right or a short reason when it is not.  No checker imports or calls
the package under test: expected values come from closed forms.

Decimal strings longer than Python's int-to-str limit (4300 digits) are
converted in chunks below the limit, so the checks never need
``sys.set_int_max_str_digits``.
"""

from __future__ import annotations

import json
import math
import random

#: Reason given to the one known defect the benchmark keeps on purpose:
#: ``cyclogic encode <word> value`` cannot print a value of more than 4300
#: decimal digits and exits 1.
KNOWN_DEFECT = "known defect: value exceeds the int-to-str digit limit"

_STR_DIGIT_LIMIT = 4300
_CHUNK = 4000


def decimal_to_int(text: str) -> int:
    """Exact value of a decimal digit string of any length (MSB first)."""
    value = 0
    for i in range(0, len(text), _CHUNK):
        chunk = text[i : i + _CHUNK]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def shift_add(digits: list[int], bits_per_digit: int) -> int:
    """Value of LSB-first digits in base 2**bits_per_digit, by shift and add."""
    value = 0
    for d in reversed(digits):
        value = (value << bits_per_digit) + d
    return value


def _word_digits(text: str, base: int) -> list[int] | str:
    prefix = f"b:{base}|"
    if not text.startswith(prefix):
        return f"expected a base-{base} word, got {text[:40]!r}"
    body = text[len(prefix) :]
    try:
        digits = [int(d) for d in body.split(",")] if body else []
    except ValueError:
        return "malformed digits"
    if any(not 0 <= d < base for d in digits):
        return "digit out of range"
    return digits


def _exit_ok(code: int | None, err: str) -> str | None:
    if code != 0:
        return f"exit {code}: {err.strip()[:120]}"
    return None


def _word_value(digits: list[int], base: int) -> int:
    if base == 10:
        return decimal_to_int("".join(str(d) for d in reversed(digits)) or "0")
    return shift_add(digits, base.bit_length() - 1)


def check_rebase(
    value: int, in_len: int, in_base: int, new_base: int,
    code: int | None, out: str, err: str,
) -> str | None:
    """``encode <word> rebase <new_base>``: same value, minimal length.

    A length-l word in base 2**(l*l) rebased to 2 keeps exactly l**3 digits.
    """
    if (bad := _exit_ok(code, err)) is not None:
        return bad
    digits = _word_digits(out.strip(), new_base)
    if isinstance(digits, str):
        return digits
    if new_base == 2 and in_base == 2 ** (in_len * in_len):
        if len(digits) != in_len**3:
            return f"expected {in_len ** 3} digits, got {len(digits)}"
    elif not digits or (len(digits) > 1 and digits[-1] == 0):
        return "rebased word is not minimal"
    if _word_value(digits, new_base) != value:
        return "rebased word has the wrong value"
    return None


def check_value(value: int, code: int | None, out: str, err: str) -> str | None:
    """``encode <word> value``: prints the exact decimal value.

    A value above the int-to-str limit makes the program exit 1; that is the
    known defect and is reported as such, so it counts as a failed op that
    leaves the run's correctness intact.
    """
    if code == 1 and "Exceeds the limit" in err and value >= 10**_STR_DIGIT_LIMIT:
        return KNOWN_DEFECT
    if (bad := _exit_ok(code, err)) is not None:
        return bad
    text = out.strip()
    if not text.isdigit() or decimal_to_int(text) != value:
        return "wrong value"
    return None


def check_distinct(kind: str, n: int, code: int | None, out: str, err: str) -> str | None:
    """``enumerate --distinct-only``: n**n or n**(n*n) tables, all distinct."""
    if (bad := _exit_ok(code, err)) is not None:
        return bad
    total = n**n if kind == "unary" else n ** (n * n)
    if out.split() != [str(total), str(total)]:
        return f"expected '{total} {total}', got {out.strip()[:40]!r}"
    return None


def check_enum_json(kind: str, n: int, code: int | None, out: str, err: str) -> str | None:
    """``enumerate --json``: every index in lexicographic order with the
    table (a, b) -> a*b + i_ab (binary) or a -> a + i_a (unary), mod n."""
    if (bad := _exit_ok(code, err)) is not None:
        return bad
    try:
        items = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    cells = n if kind == "unary" else n * n
    if len(items) != n**cells:
        return f"expected {n ** cells} tables, got {len(items)}"
    for rank, item in enumerate(items):
        flat = [(rank // n ** (cells - 1 - k)) % n for k in range(cells)]
        if kind == "unary":
            want_index = flat
            want_out = [(a + flat[a]) % n for a in range(n)]
        else:
            want_index = [flat[r * n : (r + 1) * n] for r in range(n)]
            want_out = [[(a * b + flat[a * n + b]) % n for b in range(n)] for a in range(n)]
        if item != {"modulus": n, "kind": kind, "index": want_index, "outputs": want_out}:
            return f"table {rank} is wrong"
    return None


def expected_tm(machine: str, mode: str, n: int) -> dict:
    """Closed-form outcome of the fixture machines on a length-n word.

    Every machine decides in n + 1 steps with its head ending at n + 2.
    even-a accepts iff n is even; on odd n a deterministic run rejects and
    a bounded search exhausts the step graph (dead-end).
    """
    verdict = "accepted"
    if machine == "even-a" and n % 2:
        verdict = "rejected" if mode == "run" else "dead-end"
    return {"verdict": verdict, "steps_used": n + 1, "max_head_position": n + 2,
            "trace": None}


def check_tm(machine: str, mode: str, n: int, code: int | None, out: str, err: str) -> str | None:
    """``tm <file> --word ... --json``."""
    if (bad := _exit_ok(code, err)) is not None:
        return bad
    try:
        got = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    want = expected_tm(machine, mode, n)
    if got != want:
        return f"expected {want}, got {str(got)[:120]}"
    return None


def sample_words(spec: dict) -> list[tuple[int, int, list[int]]]:
    """The (l, b, digits) rows an experiment spec samples, in report order."""
    rng = random.Random(spec["seed"])
    rows = []
    for l in spec["lengths"]:
        b = 2 ** (l * l) if spec["base_rule"] == "square" else spec["base_rule"]
        for _ in range(spec["words_per_length"]):
            rows.append((l, b, [rng.randrange(b) for _ in range(l)]))
    return rows


def expected_steps(family: str, l: int, b: int, digits: list[int]) -> tuple[int | None, int | None]:
    """(steps_wide, steps_binary) of the accepting searches, None if rejected.

    The binary twin reads l**3 bits when b = 2**(l*l), else the value's bit
    length (one bit for value 0).
    """
    value = shift_add(digits, b.bit_length() - 1)
    bits = l**3 if b == 2 ** (l * l) else max(1, value.bit_length())
    if family == "scan-accept":
        return l + 1, bits + 1
    if family == "digit-sum-parity":
        return (l + 1, bits + 1) if sum(digits) % 2 == 0 else (None, None)
    if value == 0:  # guessed-digit: no nonzero digit to guess
        return None, None
    first = next(i for i, d in enumerate(digits) if d)
    lowest_bit = (value & -value).bit_length() - 1
    return first + 1, lowest_bit + 1


def _slope(points: list[tuple[int, int]]) -> float | None:
    if len({x for x, _ in points}) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def check_experiment(spec: dict, note: str, code: int | None, out: str, err: str) -> str | None:
    """``experiment <spec> --format json``: rows, steps, fit and note."""
    if (bad := _exit_ok(code, err)) is not None:
        return bad
    body, _, summary_line = out.rstrip("\n").rpartition("\n")
    try:
        report = json.loads(body)
    except json.JSONDecodeError:
        return "report is not JSON"
    if not summary_line.endswith(note):
        return "summary line does not end with the bound note"
    samples = sample_words(spec)
    rows = report.get("rows", [])
    if len(rows) != len(samples):
        return f"expected {len(samples)} rows, got {len(rows)}"
    fit_points = []
    for row, (l, b, digits) in zip(rows, samples):
        sw, sb = expected_steps(spec["machine_family"], l, b, digits)
        want = {"l": l, "b": b, "word": f"b:{b}|{','.join(map(str, digits))}",
                "steps_wide": sw, "steps_binary": sb, "agree": True, "capped": False}
        if row != want:
            return f"row {want['word'][:40]} expected {sw}/{sb}, got {str(row)[:120]}"
        if sw is not None:
            fit_points.append((sw, sb))
    summary = report.get("summary", {})
    if summary.get("note") != note:
        return "summary note differs from the bound note"
    slope = _slope(fit_points)
    fitted = summary.get("fitted_exponent")
    if (slope is None) != (fitted is None):
        return f"fitted exponent {fitted} where the closed form gives {slope}"
    if slope is not None and not math.isclose(fitted, slope, rel_tol=1e-9, abs_tol=1e-9):
        return f"fitted exponent {fitted} differs from {slope}"
    if slope is not None and summary.get("exponent_at_most_3") != (fitted <= 3.0):
        return "exponent_at_most_3 disagrees with the fitted exponent"
    return None
