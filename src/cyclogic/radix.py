"""Words as positional digit strings with exact big-integer values.

A RadixWord is a base-b digit sequence stored least-significant-first, so
the word (A0, A1, ..., A_{l-1}) has value sum(A_i * b**i).  Values are
plain Python integers (arbitrary precision — the bases of interest grow
like 2**(l*l), past any fixed-width type already at l = 3).  ``word_value``
combines neighbouring digits under repeatedly squared powers of the base,
so it keeps no table of powers and multiplies numbers of balanced size.

``rebase`` changes the digit base while preserving the value exactly.
Targets 2, 2**k and 10 read the digits off the value's binary or decimal
text; any other target keeps a ``divmod`` loop, quadratic in the output
length.  One combination gets a normative padding rule: a length-l word
in base b = 2**(l*l) rebases to binary as exactly l**3 digits, making the
cubic length law a testable equality instead of an asymptotic claim.

``symbol_shift`` rotates a single digit by k modulo the base — the digit
sequence is exactly a word over logic values of arity b, and the shift is
the cyclic-shift generator acting on one symbol.  ``exponent_identity_check``
asks whether two words name the same root of unity z_n^e, i.e. whether
their values agree modulo n.
"""

from __future__ import annotations

import decimal
import re
from dataclasses import dataclass


class WordSpecError(ValueError):
    """The ``b:<base>|<digits>`` text form could not be parsed."""


@dataclass(frozen=True)
class RadixWord:
    """Base-b digit sequence, least-significant digit first.

    Most-significant zero digits are legal and significant: they change
    the word's length, not its value.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.base < 2:
            raise ValueError(f"base must be >= 2, got {self.base}")
        # A word longer than its base repeats digits, and its set of distinct
        # digits is built faster than each digit is compared; the first
        # digit out of range is then found in the word itself.
        distinct = set(self.digits) if len(self.digits) > self.base else self.digits
        for d in distinct:
            if not 0 <= d < self.base:
                first = next(d for d in self.digits if not 0 <= d < self.base)
                raise ValueError(f"digit {first} out of range [0, {self.base})")

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        return format_word(self)


def word_value(w: RadixWord) -> int:
    """Evaluate sum(digit_i * base**i) by pairwise combination.

    Each pass joins neighbouring values as low + high * p, where p is
    base**1, base**2, base**4, ... in successive passes, so ceil(log2(l))
    passes fold the word with products of balanced size and no table of
    powers (Brent & Zimmermann, *Modern Computer Arithmetic*, §1.7).
    """
    values, power = list(w.digits), w.base
    while len(values) > 1:
        if len(values) % 2:
            values.append(0)
        values = [lo + hi * power for lo, hi in zip(values[::2], values[1::2])]
        if len(values) > 1:
            power *= power
    return values[0] if values else 0


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and n & (n - 1) == 0


def rebase(w: RadixWord, new_base: int) -> RadixWord:
    """Re-encode the word in another base, preserving its value exactly.

    Rebasing to the word's own base is the identity.  A length-l word in
    base 2**(l*l) rebases to binary as exactly l**3 digits (zero-padded).
    Every other case yields the minimal digit count: value 0 keeps one
    digit when the input was nonempty, and the empty word stays empty.
    Targets 2 and 2**k take time linear in the output length, target 10
    subquadratic, and any other target quadratic.
    """
    if new_base < 2:
        raise ValueError(f"bad base: must be >= 2, got {new_base}")
    if new_base == w.base:
        return w
    value = word_value(w)
    l = len(w.digits)
    if new_base == 2 and l >= 1 and w.base == 2 ** (l * l):
        return RadixWord(2, _digits_of(value, 2, pad_to=l**3))
    if not w.digits:
        return RadixWord(new_base, ())
    return RadixWord(new_base, _digits_of(value, new_base))


def _digits_of(value: int, base: int, pad_to: int = 1) -> tuple[int, ...]:
    """Base-``base`` digits of ``value`` >= 0, least significant first,
    zero-padded to ``pad_to`` >= 0 digits (value 0 gives ``pad_to`` zeros).

    Bases 2**k read k-bit slices of ``bin``, in time linear in the output
    length, base 10 reads ``decimal_text`` (subquadratic), and any other
    base takes one ``divmod`` per digit, quadratic in the output length.
    """
    if not value:
        return (0,) * pad_to
    if base in (2, 10):
        text = bin(value)[2:] if base == 2 else decimal_text(value)
        ascii_to_digit = bytes.maketrans(b"0123456789", bytes(range(10)))
        digits = tuple(text[::-1].encode("ascii").translate(ascii_to_digit))
    elif _is_power_of_two(base):
        k = base.bit_length() - 1
        bits = format(value, f"0{-(-value.bit_length() // k) * k}b")
        digits = tuple([int(bits[i - k : i], 2) for i in range(len(bits), 0, -k)])
    else:
        found = []
        while value:
            value, d = divmod(value, base)
            found.append(d)
        digits = tuple(found)
    return digits + (0,) * (pad_to - len(digits))


def rebased_length(l: int, b: int) -> int:
    """Zero-padded binary length of a length-l base-b word, b a power of two:
    log2(b) * l.

    ``rebase(w, 2)`` returns exactly this many digits only for b = 2**(l*l),
    where it is l**3; for other bases it returns the minimal digit count, of
    which this is an upper bound.
    """
    if l < 0:
        raise ValueError(f"length must be >= 0, got {l}")
    if b < 2 or not _is_power_of_two(b):
        raise ValueError(f"not a power of two: {b}")
    return (b.bit_length() - 1) * l


def exponent_identity_check(w1: RadixWord, w2: RadixWord, n: int) -> bool:
    """Do the two words denote the same root of unity z_n^e?

    True iff their values agree modulo n; exact residue arithmetic, no
    complex numbers involved.
    """
    if n < 2:
        raise ValueError(f"modulus must be >= 2, got {n}")
    return word_value(w1) % n == word_value(w2) % n


def symbol_shift(w: RadixWord, i: int, k: int) -> RadixWord:
    """Rotate digit i by k modulo the base, leaving the others untouched."""
    if not 0 <= i < len(w.digits):
        raise ValueError(f"digit index {i} out of range [0, {len(w.digits)})")
    if not 0 <= k < w.base:
        raise ValueError(f"shift {k} out of range [0, {w.base})")
    shifted = (w.digits[i] + k) % w.base
    return RadixWord(w.base, w.digits[:i] + (shifted,) + w.digits[i + 1 :])


#: Byte d -> the ASCII numeral of d, for the digits of bases up to 10.
_DIGIT_NUMERALS = bytes.maketrans(bytes(range(10)), b"0123456789")


def format_word(w: RadixWord) -> str:
    """Text form ``b:<base>|<d0>,<d1>,...`` with digits least-significant first.

    Digits of a base up to 10 are single numerals, translated as bytes in
    one pass; larger bases write each digit with ``str``.
    """
    if w.base <= 10:
        body = ",".join(bytes(w.digits).translate(_DIGIT_NUMERALS).decode("ascii"))
    else:
        body = ",".join(map(str, w.digits))
    return f"b:{w.base}|{body}"


#: A written natural number: ASCII decimal, no sign and no leading zero.
NUMERAL = "(?:0|[1-9][0-9]*)"
_WORD_SPEC = re.compile(rf"b:({NUMERAL})\|({NUMERAL}(?:,{NUMERAL})*)?")


def parse_word(text: str) -> RadixWord:
    """Parse the ``b:<base>|<digits>`` text form back into a RadixWord.

    Only the form ``format_word`` writes is read; anything else is a syntax
    problem and raises WordSpecError.  A syntactically fine spec whose
    digits violate the base raises plain ValueError from the constructor.
    """
    head, sep, _ = text.partition("|")
    if not sep or not head.startswith("b:"):
        raise WordSpecError(f"malformed word spec {text!r}; expected b:<base>|<digits>")
    match = _WORD_SPEC.fullmatch(text)
    if not match:
        raise WordSpecError(f"malformed word spec {text!r}")
    base, body = match.groups()
    # An empty body is the empty word; an empty field is malformed.
    return RadixWord(int(base), tuple(map(int, body.split(","))) if body else ())


#: Integers up to this many bits go through ``str`` directly; each is far
#: below the interpreter's int-to-str digit limit.
_DECIMAL_CHUNK_BITS = 2048


def decimal_text(value: int) -> str:
    """Exact decimal digits of a non-negative integer of any size.

    ``str`` refuses integers past the interpreter's int-to-str digit limit
    and is quadratic below it.  This splits the binary form in halves and
    joins the halves in exact ``decimal`` arithmetic, whose large products
    are fast, so the limit setting is neither needed nor changed.
    """
    if value < 0:
        raise ValueError(f"value must be >= 0, got {value}")
    if value.bit_length() <= _DECIMAL_CHUNK_BITS:
        return str(value)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    # powers[k] = 2 ** (_DECIMAL_CHUNK_BITS << k), exactly
    powers = [ctx.power(2, _DECIMAL_CHUNK_BITS)]
    while _DECIMAL_CHUNK_BITS << len(powers) < value.bit_length():
        powers.append(ctx.multiply(powers[-1], powers[-1]))

    def convert(x: int, k: int) -> decimal.Decimal:
        if k < 0:
            return decimal.Decimal(x)
        bits = _DECIMAL_CHUNK_BITS << k
        high = convert(x >> bits, k - 1)
        return ctx.add(ctx.multiply(high, powers[k]), convert(x & ((1 << bits) - 1), k - 1))

    return str(convert(value, len(powers) - 1))
