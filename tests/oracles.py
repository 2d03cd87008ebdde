"""Independent oracles the library is checked against.

The brute-force acceptor re-implements the step semantics from scratch
(plain recursion over all transition-choice sequences, no visited sets),
and the value oracle uses Horner evaluation instead of the library's
pairwise combination under squared powers.
``reference_search`` is the engine's former breadth-first search: it keeps
every visited configuration whole and steps with ``turing.successors``.
``reference_digits`` is the library's former rebasing loop: one ``divmod``
per digit.
"""

from __future__ import annotations

from functools import reduce

from cyclogic import turing
from cyclogic.turing import InstantaneousDescription, RunOutcome, TuringMachine


def naive_value(digits, base):
    """Horner-scheme base conversion, most-significant digit first."""
    return reduce(lambda acc, d: acc * base + d, reversed(tuple(digits)), 0)


def decimal_value(text):
    """Value of a decimal digit string of any length, read in chunks that
    stay below the interpreter's int-to-str digit limit."""
    value = 0
    for i in range(0, len(text), 1000):
        chunk = text[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def naive_binary_digits(value, length=None):
    """LSB-first bits of a value, optionally zero-padded."""
    bits = []
    while value:
        bits.append(value & 1)
        value >>= 1
    if not bits:
        bits.append(0)
    if length is not None:
        while len(bits) < length:
            bits.append(0)
    return tuple(bits)


def reference_digits(value, base, pad_to=1):
    """Base-``base`` digits of ``value``, least significant first, by one
    ``divmod`` per digit, zero-padded to ``pad_to`` digits."""
    digits = []
    while value:
        value, d = divmod(value, base)
        digits.append(d)
    while len(digits) < pad_to:
        digits.append(0)
    return tuple(digits)


def _apply_choice(m: TuringMachine, desc, tr):
    """One step by direct transcription of the step rules; None if the
    transition orders a head off the left end."""
    tapes = []
    heads = []
    for j in range(m.tapes):
        word = list(desc.tapes[j])
        i = desc.heads[j]
        if tr.moves[j] == "L" and i == 1:
            return None
        if i == len(word) + 1:
            word = word + [tr.writes[j]]
        else:
            word[i - 1] = tr.writes[j]
        tapes.append(tuple(word))
        heads.append(i + 1 if tr.moves[j] == "R" else i - 1)
    return InstantaneousDescription(tr.next_state, tuple(tapes), tuple(heads))


def brute_force_accepts(m: TuringMachine, word, t: int) -> bool:
    """Enumerate every transition-choice sequence of length <= t."""
    start = InstantaneousDescription(
        m.initial, (tuple(word),) + ((),) * (m.tapes - 1), (1,) * m.tapes
    )

    def explore(desc, depth):
        if desc.state == m.accept:
            return True
        if depth == t or desc.state == m.reject:
            return False
        scanned = tuple(
            tape[i - 1] if i <= len(tape) else m.blank
            for tape, i in zip(desc.tapes, desc.heads)
        )
        for tr in m.transitions.get((desc.state, scanned), ()):
            nxt = _apply_choice(m, desc, tr)
            if nxt is not None and explore(nxt, depth + 1):
                return True
        return False

    return explore(start, 0)


def reference_search(m: TuringMachine, w, t: int, space=None) -> RunOutcome:
    """Bounded breadth-first acceptance over whole configurations, with a
    visited set and the witness path; ``space`` prunes configurations with
    a head past it."""
    if t < 0:
        raise ValueError(f"step bound must be >= 0, got {t}")
    start = turing.initial_id(m, w)
    if space is not None and max(start.heads) > space:
        return RunOutcome(turing.VERDICT_DEAD_END, 0, max(start.heads))
    parents = {start: None}
    frontier = [start]
    max_head = max(start.heads)
    depth = 0
    while True:
        for desc in frontier:
            if desc.state == m.accept:
                path = [desc]
                while (desc := parents[desc]) is not None:
                    path.append(desc)
                return RunOutcome(turing.VERDICT_ACCEPTED, depth, max_head, tuple(reversed(path)))
        if depth == t:
            return RunOutcome(turing.VERDICT_BOUND_EXCEEDED, t, max_head)
        nxt = []
        for desc in frontier:
            for child in turing.successors(m, desc):
                if space is not None and max(child.heads) > space:
                    continue
                if child in parents:
                    continue
                parents[child] = desc
                nxt.append(child)
                max_head = max(max_head, max(child.heads))
        if not nxt:
            return RunOutcome(turing.VERDICT_DEAD_END, depth, max_head)
        frontier = nxt
        depth += 1


def reference_run(m: TuringMachine, w, max_steps: int) -> RunOutcome:
    """Deterministic run by iterating ``turing.successors``, trace included."""
    cur = turing.initial_id(m, w)
    trace = [cur]
    verdict = None
    while verdict is None:
        if cur.state == m.accept:
            verdict = turing.VERDICT_ACCEPTED
        elif cur.state == m.reject:
            verdict = turing.VERDICT_REJECTED
        elif len(trace) > max_steps:
            verdict = turing.VERDICT_BOUND_EXCEEDED
        elif not (nxt := turing.successors(m, cur)):
            verdict = turing.VERDICT_DEAD_END
        else:
            cur = nxt[0]
            trace.append(cur)
    return RunOutcome(verdict, len(trace) - 1, max(max(d.heads) for d in trace), tuple(trace))


def step_rule_violations(m: TuringMachine, parent, child) -> list[str]:
    """Check one parent -> child pair against the step rules."""
    problems = []
    for j in range(m.tapes):
        old, new = parent.tapes[j], child.tapes[j]
        i, i2 = parent.heads[j], child.heads[j]
        if i2 not in (i - 1, i + 1):
            problems.append(f"tape {j}: head moved {i} -> {i2}, not by one")
        if i2 < 1:
            problems.append(f"tape {j}: head left the tape ({i2})")
        if i == 1 and i2 == 0:
            problems.append(f"tape {j}: moved left from square 1")
        if len(new) not in (len(old), len(old) + 1):
            problems.append(f"tape {j}: length {len(old)} -> {len(new)}")
        if (len(new) == len(old) + 1) != (i == len(old) + 1):
            problems.append(f"tape {j}: grew without the head just past the word")
        for k in range(min(len(old), len(new))):
            if k + 1 != i and old[k] != new[k]:
                problems.append(f"tape {j}: square {k + 1} changed away from the head")
        if any(s == m.blank for s in new):
            problems.append(f"tape {j}: stores the blank")
        if not 1 <= i2 <= len(new) + 1:
            problems.append(f"tape {j}: head {i2} outside [1, {len(new) + 1}]")
    return problems


# ---------------------------------------------------------------------------
# Frozen expected tables: cell-for-cell transcriptions of the 4 + 16
# cataloged arity-2 tables (output exponents; unary slot = input exponent,
# binary grids indexed [first argument][second argument]).
# ---------------------------------------------------------------------------

PRINTED_UNARY_TABLES = {
    (0, 0): (0, 1),
    (0, 1): (0, 0),
    (1, 0): (1, 1),
    (1, 1): (1, 0),
}

PRINTED_BINARY_TABLES = {
    (0, 0, 0, 0): ((0, 0), (0, 1)),
    (0, 0, 0, 1): ((0, 0), (0, 0)),
    (0, 0, 1, 0): ((0, 0), (1, 1)),
    (0, 0, 1, 1): ((0, 0), (1, 0)),
    (0, 1, 0, 0): ((0, 1), (0, 1)),
    (0, 1, 0, 1): ((0, 1), (0, 0)),
    (0, 1, 1, 0): ((0, 1), (1, 1)),
    (0, 1, 1, 1): ((0, 1), (1, 0)),
    (1, 0, 0, 0): ((1, 0), (0, 1)),
    (1, 0, 0, 1): ((1, 0), (0, 0)),
    (1, 0, 1, 0): ((1, 0), (1, 1)),
    (1, 0, 1, 1): ((1, 0), (1, 0)),
    (1, 1, 0, 0): ((1, 1), (0, 1)),
    (1, 1, 0, 1): ((1, 1), (0, 0)),
    (1, 1, 1, 0): ((1, 1), (1, 1)),
    (1, 1, 1, 1): ((1, 1), (1, 0)),
}


def unary_exponents(table):
    return table.outputs


def binary_exponents(table):
    return table.outputs
