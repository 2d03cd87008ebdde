"""Exact many-valued logic on the n-th roots of unity.

A logic value is the root z_n^e = exp(2*pi*i*e/n), stored as the residue
exponent e modulo the arity n.  All operations work on exponents in the
ring Z_n, so table equality is exact; the complex form is a derived view
for display and cross-checking only.

Two generator operations build everything else:

* ``exponent_product(n, a, b)`` returns z_n^(a*b),
* ``cyclic_shift(n, k, v)`` rotates a value by k positions, z_n^(e+k).

From these the module enumerates the complete families of one-argument
(n^n members) and two-argument (n^(n*n) members) logic functions, counts
their distinct members in closed form (index -> table is a bijection),
and, for arity 2, classifies each table against the standard boolean
connectives.  A table cell is a plain exponent: the one-argument table
of index i holds (a + i_a) mod n and the two-argument table
(a*b + i_ab) mod n, the generators' results computed directly.  A whole
family is one stream of plain (index, outputs) tuples, a product over
positions of precomputed rows (a binary family shares its n^n index rows
and their output rows among all tables); it feeds the dataclass
enumerators and the ``enumerate`` command alike.  ``LogicValue`` objects
appear only at the edges: the generators, ``make_value``, ``to_complex``
and the ``apply_*`` lookups.

A bundled label catalog records the names the 4 + 16 arity-2 tables are
conventionally printed with; ``label_report`` compares those labels
against the computed classification and flags every disagreement instead
of adopting either side.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Literal

#: Full unary enumeration is refused above this arity (n^n tables) unless
#: the caller passes allow_large=True.
UNARY_ENUM_LIMIT = 8
#: Full binary enumeration is refused above this arity (n^(n*n) tables).
BINARY_ENUM_LIMIT = 3


class EnumerationTooLarge(ValueError):
    """A full family enumeration would exceed the configured guard."""


def _check_arity(n: int) -> None:
    if n < 2:
        raise ValueError(f"arity too small: need n >= 2, got {n}")


@dataclass(frozen=True)
class LogicValue:
    """The root of unity z_n^e, kept as an exact residue exponent."""

    modulus: int
    exponent: int

    def __post_init__(self) -> None:
        _check_arity(self.modulus)
        if not 0 <= self.exponent < self.modulus:
            raise ValueError(
                f"exponent {self.exponent} not in [0, {self.modulus})"
            )

    def __str__(self) -> str:
        return f"z{self.modulus}^{self.exponent}"


def make_value(n: int, a: int) -> LogicValue:
    """Build z_n^a, normalizing any integer a into [0, n)."""
    _check_arity(n)
    return LogicValue(n, a % n)


def to_complex(v: LogicValue) -> tuple[float, float]:
    """Return (re, im) of the value as a point on the unit circle."""
    angle = 2.0 * math.pi * v.exponent / v.modulus
    return (math.cos(angle), math.sin(angle))


def exponent_product(n: int, a: int, b: int) -> LogicValue:
    """The two-argument generator: (z_n^a, z_n^b) -> z_n^(a*b)."""
    _check_arity(n)
    if not 0 <= a < n:
        raise ValueError(f"first argument {a} out of range [0, {n})")
    if not 0 <= b < n:
        raise ValueError(f"second argument {b} out of range [0, {n})")
    return LogicValue(n, (a * b) % n)


def cyclic_shift(n: int, k: int, v: LogicValue) -> LogicValue:
    """The one-argument generator: rotate z_n^e to z_n^(e+k)."""
    _check_arity(n)
    if v.modulus != n:
        raise ValueError(f"modulus mismatch: value has {v.modulus}, expected {n}")
    if not 0 <= k < n:
        raise ValueError(f"shift {k} out of range [0, {n})")
    return LogicValue(n, (v.exponent + k) % n)


def _check_row(n: int, row: tuple[int, ...], what: str, entry: str) -> None:
    if len(row) != n:
        raise ValueError(f"{what} has {len(row)} entries, expected {n}")
    for e in row:
        if not 0 <= e < n:
            raise ValueError(f"{entry} {e} out of range [0, {n})")


def _check_grid(
    n: int, rows: tuple[tuple[int, ...], ...], what: str, entry: str
) -> None:
    if len(rows) != n:
        raise ValueError(f"{what} has {len(rows)} rows, expected {n}")
    for row in rows:
        _check_row(n, row, f"{what} row", entry)


@dataclass(frozen=True)
class UnaryIndex:
    """Index vector (i_0, ..., i_{n-1}) selecting one unary table."""

    modulus: int
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_arity(self.modulus)
        _check_row(self.modulus, self.indices, "index vector", "index entry")

    @property
    def flat(self) -> tuple[int, ...]:
        """The index entries in the order the catalog keys use."""
        return self.indices


@dataclass(frozen=True)
class BinaryIndex:
    """n x n index matrix; row = first-argument exponent, column = second."""

    modulus: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_arity(self.modulus)
        _check_grid(self.modulus, self.matrix, "index matrix", "index entry")

    @property
    def flat(self) -> tuple[int, ...]:
        """The index entries row by row, the order the catalog keys use."""
        return tuple(v for row in self.matrix for v in row)


@dataclass(frozen=True)
class UnaryTable:
    """Truth table of a one-argument function; slot a holds the exponent of
    the output for z_n^a."""

    modulus: int
    outputs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_arity(self.modulus)
        _check_row(self.modulus, self.outputs, "output vector", "output exponent")


@dataclass(frozen=True)
class BinaryTable:
    """Truth table of a two-argument function; cell (a, b) holds the exponent
    of the output."""

    modulus: int
    outputs: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_arity(self.modulus)
        _check_grid(self.modulus, self.outputs, "output table", "output exponent")


@dataclass(frozen=True)
class TruthConvention:
    """Which exponent of z_2 names boolean true (0 by default)."""

    true_exponent: int = 0

    def __post_init__(self) -> None:
        if self.true_exponent not in (0, 1):
            raise ValueError("true_exponent must be 0 or 1")


def unary_from_index(idx: UnaryIndex) -> UnaryTable:
    """Table of a |-> shift(z_n^a, i_a), i.e. exponents (a + i_a) mod n."""
    n = idx.modulus
    return UnaryTable(n, tuple((a + i) % n for a, i in enumerate(idx.indices)))


def binary_from_index(idx: BinaryIndex) -> BinaryTable:
    """Table of (a, b) |-> shift(z_n^(a*b), i_ab), i.e. exponents
    (a*b + i_ab) mod n."""
    n = idx.modulus
    outputs = tuple(
        tuple((a * b + i) % n for b, i in enumerate(row))
        for a, row in enumerate(idx.matrix)
    )
    return BinaryTable(n, outputs)


def _family_cells(family: str, n: int, allow_large: bool) -> int:
    """Cells per table of a family (n unary, n*n binary) after its checks:
    the family name, the arity, then the enumeration size guard."""
    if family not in ("unary", "binary"):
        raise ValueError(f"unknown family {family!r}")
    _check_arity(n)
    cells, limit = (n, UNARY_ENUM_LIMIT) if family == "unary" else (n * n, BINARY_ENUM_LIMIT)
    if n > limit and not allow_large:
        raise EnumerationTooLarge(
            f"{family} enumeration for n={n} yields {n}^{cells} tables; "
            f"pass allow_large=True to force it"
        )
    return cells


def _family_rows(
    family: str, n: int, allow_large: bool
) -> Iterator[tuple[tuple, tuple]]:
    """Stream every (index, outputs) pair of a family, indexes in lexicographic
    order, as plain tuples: flat cells for unary, tuples of rows for binary.

    Position a of a table (a cell for unary, row a for binary) takes each of
    its index pieces with the output piece that generator a gives it, and a
    table is one choice per position.  Each binary row is built once and
    shared by every table that holds it.  The family, arity and size checks
    run at call time, and so does building the n*n^n row pairs (past the
    guard, binary n = 6 takes about half a second and 50 MB); only the
    tables themselves are lazy.
    """
    _family_cells(family, n, allow_large)
    if family == "unary":
        positions = [[(i, (a + i) % n) for i in range(n)] for a in range(n)]
    else:
        rows = list(itertools.product(range(n), repeat=n))
        positions = [
            [(row, tuple((a * b + i) % n for b, i in enumerate(row))) for row in rows]
            for a in range(n)
        ]
    return (tuple(zip(*choice)) for choice in itertools.product(*positions))


def enumerate_unary(
    n: int, allow_large: bool = False
) -> Iterator[tuple[UnaryIndex, UnaryTable]]:
    """Yield all n^n unary (index, table) pairs, indexes in lexicographic order.

    The first index is the all-zero vector.  Refuses n > UNARY_ENUM_LIMIT
    at call time unless allow_large is set.
    """
    rows = _family_rows("unary", n, allow_large)
    return ((UnaryIndex(n, idx), UnaryTable(n, outs)) for idx, outs in rows)


def enumerate_binary(
    n: int, allow_large: bool = False
) -> Iterator[tuple[BinaryIndex, BinaryTable]]:
    """Yield all n^(n*n) binary (index, table) pairs in lexicographic order."""
    rows = _family_rows("binary", n, allow_large)
    return ((BinaryIndex(n, idx), BinaryTable(n, outs)) for idx, outs in rows)


def distinctness_report(
    n: int, family: Literal["unary", "binary"], allow_large: bool = False
) -> tuple[int, int]:
    """Return the (total, distinct) table counts of a whole family.

    Table i holds (generator + i) mod n in every cell, so the index is read
    back from the table as (cell - generator) mod n.  Index -> table is a
    bijection, and both counts are n**cells: n^n unary, n^(n*n) binary.
    Nothing is enumerated, but the enumerators' size guard still applies.
    """
    total = n ** _family_cells(family, n, allow_large)
    return total, total


def apply_unary(t: UnaryTable, v: LogicValue) -> LogicValue:
    """Look up the table output for v."""
    if v.modulus != t.modulus:
        raise ValueError(f"modulus mismatch: value has {v.modulus}, table {t.modulus}")
    return LogicValue(t.modulus, t.outputs[v.exponent])


def apply_binary(t: BinaryTable, a: LogicValue, b: LogicValue) -> LogicValue:
    """Look up the table output for the pair (a, b)."""
    if a.modulus != t.modulus or b.modulus != t.modulus:
        raise ValueError("modulus mismatch between arguments and table")
    return LogicValue(t.modulus, t.outputs[a.exponent][b.exponent])


# Keyed by the truth of f(T), f(F); below, of f(T,T), f(T,F), f(F,T), f(F,F).
_UNARY_PATTERNS = {
    (True, False): "identity",
    (False, True): "negation",
    (True, True): "constant-true",
    (False, False): "constant-false",
}

_BINARY_PATTERNS = {
    (True, False, False, False): "and",
    (True, True, True, False): "or",
    (False, True, True, True): "nand",
    (False, False, False, True): "nor",
    (False, True, True, False): "xor",
    (True, False, False, True): "iff",
    (True, False, True, True): "implies",
    (True, True, False, True): "converse-implies",
    (False, True, False, False): "not-implies",
    (False, False, True, False): "not-converse-implies",
    (True, True, False, False): "left-projection",
    (True, False, True, False): "right-projection",
    (False, False, True, True): "left-complement",
    (False, True, False, True): "right-complement",
    (True, True, True, True): "constant-true",
    (False, False, False, False): "constant-false",
}

UNARY_NAMES = tuple(_UNARY_PATTERNS.values())
BINARY_NAMES = tuple(_BINARY_PATTERNS.values())


def _classify(
    t: UnaryTable | BinaryTable, arity: int, conv: TruthConvention, patterns: dict
) -> str:
    """Name a modulus-2 table by the truth of its cells, arguments taken
    true before false."""
    if t.modulus != 2:
        raise ValueError(f"not boolean: classification needs modulus 2, got {t.modulus}")
    true_e = conv.true_exponent
    cells = [t.outputs]
    for _ in range(arity):
        cells = [cell[e] for cell in cells for e in (true_e, 1 - true_e)]
    return patterns[tuple(cell == true_e for cell in cells)]


def classify_unary(t: UnaryTable, conv: TruthConvention = TruthConvention()) -> str:
    """Name a modulus-2 unary table as one of the four boolean functions."""
    return _classify(t, 1, conv, _UNARY_PATTERNS)


def classify_binary(t: BinaryTable, conv: TruthConvention = TruthConvention()) -> str:
    """Name a modulus-2 binary table as one of the sixteen boolean connectives."""
    return _classify(t, 2, conv, _BINARY_PATTERNS)


# ---------------------------------------------------------------------------
# Label catalog
#
# The catalog below records, for every arity-2 generated table, the label it
# is conventionally printed with and the connective that label names.
# Several labels do not name the function the table actually computes (under
# either truth convention); label_report makes those disagreements explicit
# rather than silently correcting them.
# ---------------------------------------------------------------------------

UNARY_CATALOG: dict[tuple[int, ...], tuple[str, str]] = {
    (0, 0): ("self projection", "identity"),
    (0, 1): ("antilogy", "constant-false"),
    (1, 0): ("tautology", "constant-true"),
    (1, 1): ("complementation", "negation"),
}

BINARY_CATALOG: dict[tuple[int, ...], tuple[str, str]] = {
    (0, 0, 0, 0): ("nand", "nand"),
    (0, 0, 0, 1): ("antilogy", "constant-false"),
    (0, 0, 1, 0): ("left complementation", "left-complement"),
    (0, 0, 1, 1): ("if ... then", "implies"),
    (0, 1, 0, 0): ("right projection", "right-projection"),
    (0, 1, 0, 1): ("if", "converse-implies"),
    (0, 1, 1, 0): ("neither ... nor", "nor"),
    (0, 1, 1, 1): ("if and only if (iff)", "iff"),
    (1, 0, 0, 0): ("xor", "xor"),
    (1, 0, 0, 1): ("or", "or"),
    (1, 0, 1, 0): ("not ... but", "not-converse-implies"),
    (1, 0, 1, 1): ("right projection", "right-projection"),
    (1, 1, 0, 0): ("but not", "not-implies"),
    (1, 1, 0, 1): ("left projection", "left-projection"),
    (1, 1, 1, 0): ("tautology", "constant-true"),
    (1, 1, 1, 1): ("and", "and"),
}


def _catalog_entry(kind: str, index: tuple[int, ...]) -> tuple[str, str] | None:
    return (UNARY_CATALOG if kind == "unary" else BINARY_CATALOG).get(tuple(index))


def catalog_label(kind: Literal["unary", "binary"], index: tuple[int, ...]) -> str | None:
    """Catalog label for a flattened arity-2 index, or None if uncataloged."""
    entry = _catalog_entry(kind, index)
    return None if entry is None else entry[0]


@dataclass(frozen=True)
class LabelCheck:
    """One catalog entry compared against the computed classification."""

    index: tuple[int, ...]
    computed: str
    catalog: str
    catalog_connective: str
    agrees: bool


def check_label(
    kind: Literal["unary", "binary"], index: tuple[int, ...], computed: str
) -> LabelCheck | None:
    """Compare the catalog label of a flattened arity-2 index with the
    computed connective name; None if the index is uncataloged."""
    entry = _catalog_entry(kind, index)
    if entry is None:
        return None
    label, connective = entry
    return LabelCheck(tuple(index), computed, label, connective, connective == computed)


def label_report(
    kind: Literal["unary", "binary"] = "binary",
    conv: TruthConvention = TruthConvention(),
) -> tuple[LabelCheck, ...]:
    """Compare every arity-2 catalog label with the computed connective name."""
    _family_cells(kind, 2, allow_large=False)  # refuses an unknown kind
    if kind == "unary":
        family, classify = enumerate_unary(2), classify_unary
    else:
        family, classify = enumerate_binary(2), classify_binary
    return tuple(check_label(kind, idx.flat, classify(t, conv)) for idx, t in family)
