"""Multi-tape deterministic and nondeterministic Turing machine engine.

A machine is the 8-tuple (states, tape alphabet, blank, input alphabet,
transition table, initial, accept, reject) over m one-way-infinite tapes.
A configuration (instantaneous description) is <q; tape words; head
positions>: the state, the visited non-blank portion of each tape, and
1-based head positions with 1 <= i <= len(word) + 1.

One step applies a transition chosen from delta(state, scanned symbols):

1. each tape gets its write symbol at the scanned square,
2. every other square is unchanged,
3. the word grows by exactly one symbol when the head sat just past it,
4. a transition ordering a head left from square 1 cannot fire
   (that branch dies without accepting),
5. every head then moves one square left or right.

Machines never print the blank, so the stored words stay blank-free; a
head at position len(word) + 1 is scanning the blank on the first
unvisited square.

Bounded acceptance searches the step graph breadth-first with visited-set
deduplication, so an accepting outcome always carries a minimal-length
witness path.  The space-bounded variant additionally prunes every
configuration whose head positions exceed the bound.

Every step costs O(tapes), whatever the tape length.  A deterministic run
steps on one mutable list per tape.  The search stores each visited
configuration as a node: its parent's id, the symbols its step wrote at
the parent's head positions and the symbols they replaced, its state and
its heads; it keeps no tape.
Only frontier configurations have tapes, and siblings share their
parent's until a second one with children of its own needs them.
Deduplication keys on (state, heads, tape lengths, digest), where the
digest is the XOR of hash((tape, square, symbol)) over the non-blank
cells, taken relative to the input and updated at the written cell only.
Every key match is confirmed exactly, by comparing what the two nodes'
paths wrote since their common ancestor, so verdicts do not depend on
hash values (which change between processes for str).  A witness path is
rebuilt from the parent pointers only when one is asked for.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

Word = Sequence[str]
TransitionKey = tuple[str, tuple[str, ...]]

VERDICT_ACCEPTED = "accepted"
VERDICT_REJECTED = "rejected"
VERDICT_DEAD_END = "dead-end"
VERDICT_BOUND_EXCEEDED = "bound-exceeded"


class NotDeterministic(ValueError):
    """A deterministic run was requested on a nondeterministic machine."""


@dataclass(frozen=True)
class Transition:
    """One transition target: next state, per-tape writes, per-tape moves."""

    next_state: str
    writes: tuple[str, ...]
    moves: tuple[str, ...]


@dataclass(frozen=True)
class TuringMachine:
    states: frozenset[str]
    tape_alphabet: frozenset[str]
    blank: str
    input_alphabet: frozenset[str]
    transitions: Mapping[TransitionKey, tuple[Transition, ...]]
    initial: str
    accept: str
    reject: str
    tapes: int = 1


def make_machine(
    states: Iterable[str],
    tape_alphabet: Iterable[str],
    blank: str,
    input_alphabet: Iterable[str],
    transitions: Mapping[TransitionKey, Iterable[Transition]],
    initial: str,
    accept: str,
    reject: str,
    tapes: int = 1,
) -> TuringMachine:
    """Build a TuringMachine, freezing all the container fields."""
    return TuringMachine(
        states=frozenset(states),
        tape_alphabet=frozenset(tape_alphabet),
        blank=blank,
        input_alphabet=frozenset(input_alphabet),
        transitions={key: tuple(targets) for key, targets in transitions.items()},
        initial=initial,
        accept=accept,
        reject=reject,
        tapes=tapes,
    )


@dataclass(frozen=True)
class InstantaneousDescription:
    """Configuration <state; visited tape words; 1-based head positions>."""

    state: str
    tapes: tuple[tuple[str, ...], ...]
    heads: tuple[int, ...]

    def __str__(self) -> str:
        words = ", ".join(_format_tape(t) for t in self.tapes)
        heads = ", ".join(str(i) for i in self.heads)
        return f"<{self.state}; {words}; {heads}>"


def _format_tape(tape: tuple[str, ...]) -> str:
    if not tape:
        return "Λ"  # the empty word
    if all(len(s) == 1 for s in tape):
        return "".join(tape)
    return " ".join(tape)


@dataclass(frozen=True)
class RunOutcome:
    """Result of a bounded run or search."""

    verdict: str
    steps_used: int
    max_head_position: int
    trace: tuple[InstantaneousDescription, ...] | None = None


@dataclass(frozen=True)
class Violation:
    """One validation finding; warnings flag permitted-but-partial tables."""

    severity: str  # "error" or "warning"
    message: str


def validate(m: TuringMachine) -> list[Violation]:
    """Check every clause of the machine definition.

    Returns an empty list only for a fully well-formed machine with a total
    transition table.  Missing (state, scanned) entries are legal — they
    act as dead ends — so they come back as warnings, not errors.
    """
    out: list[Violation] = []

    def err(msg: str) -> None:
        out.append(Violation("error", msg))

    if m.tapes < 1:
        err(f"tape count must be >= 1, got {m.tapes}")
    for role, q in (("initial", m.initial), ("accept", m.accept), ("reject", m.reject)):
        if q not in m.states:
            err(f"{role} state {q!r} not in the state set")
    if m.blank not in m.tape_alphabet:
        err(f"blank {m.blank!r} not in the tape alphabet")
    for s in m.input_alphabet:
        if s == m.blank:
            err("input alphabet contains the blank")
        elif s not in m.tape_alphabet:
            err(f"input symbol {s!r} not in the tape alphabet")

    for (q, scanned), targets in m.transitions.items():
        key = f"({q}; {','.join(scanned)})"
        if q not in m.states:
            err(f"transition {key} keyed on unknown state {q!r}")
        elif q in (m.accept, m.reject):
            err(f"transition {key} keyed on final state {q!r}")
        if len(scanned) != m.tapes:
            err(f"transition {key} scans {len(scanned)} symbols, expected {m.tapes}")
        for s in scanned:
            if s not in m.tape_alphabet:
                err(f"transition {key} scans unknown symbol {s!r}")
        if not targets:
            err(f"transition {key} has an empty target set")
        for t in targets:
            if t.next_state not in m.states:
                err(f"transition {key} moves to unknown state {t.next_state!r}")
            if len(t.writes) != m.tapes or len(t.moves) != m.tapes:
                err(f"transition {key} target tuple lengths do not match the tape count")
                continue
            for w in t.writes:
                if w == m.blank:
                    err(f"transition {key} writes blank")
                elif w not in m.tape_alphabet:
                    err(f"transition {key} writes unknown symbol {w!r}")
            for mv in t.moves:
                if mv not in ("L", "R"):
                    err(f"transition {key} has move {mv!r}, expected L or R")

    if not any(v.severity == "error" for v in out):
        non_final = sorted(m.states - {m.accept, m.reject})
        for q in non_final:
            for scanned in itertools.product(sorted(m.tape_alphabet), repeat=m.tapes):
                if (q, scanned) not in m.transitions:
                    out.append(
                        Violation(
                            "warning",
                            f"no transition for ({q}; {','.join(scanned)}); "
                            f"that configuration is a dead end",
                        )
                    )
    return out


def validation_errors(m: TuringMachine) -> list[Violation]:
    """Only the error-severity findings of validate()."""
    return [v for v in validate(m) if v.severity == "error"]


def is_deterministic(m: TuringMachine) -> bool:
    """True iff every transition target set is a singleton (vacuously true
    for an empty table)."""
    return all(len(targets) == 1 for targets in m.transitions.values())


def initial_id(m: TuringMachine, w: Word) -> InstantaneousDescription:
    """Initial configuration: input on tape 1, other tapes empty, heads at 1."""
    word = tuple(w)
    for s in word:
        if s not in m.input_alphabet:
            raise ValueError(f"symbol {s!r} not in the input alphabet")
    tapes = (word,) + ((),) * (m.tapes - 1)
    return InstantaneousDescription(m.initial, tapes, (1,) * m.tapes)


def scanned_symbols(m: TuringMachine, desc: InstantaneousDescription) -> tuple[str, ...]:
    """Symbol under each head; the square just past the word scans blank."""
    return _scan(desc.tapes, desc.heads, m.blank)


def _scan(tapes: Sequence[Sequence[str]], heads: Sequence[int], blank: str) -> tuple[str, ...]:
    return tuple([tape[i - 1] if i <= len(tape) else blank for tape, i in zip(tapes, heads)])


def successors(
    m: TuringMachine, desc: InstantaneousDescription
) -> list[InstantaneousDescription]:
    """All configurations one step away, in transition-table order.

    Final states have no successors.  A transition that orders any head
    left from square 1 is discarded.  A missing table entry yields the
    empty list (a dead end).
    """
    if desc.state in (m.accept, m.reject):
        return []
    scanned = scanned_symbols(m, desc)
    results: dict[InstantaneousDescription, None] = {}
    for tr in m.transitions.get((desc.state, scanned), ()):
        heads = _moved(desc.heads, tr.moves)
        if 0 in heads:
            continue
        tapes = tuple(
            tape[: i - 1] + (s,) + tape[i:]
            for tape, i, s in zip(desc.tapes, desc.heads, tr.writes)
        )
        results[InstantaneousDescription(tr.next_state, tapes, heads)] = None
    return list(results)


def _moved(heads: tuple[int, ...], moves: tuple[str, ...]) -> tuple[int, ...]:
    """Head positions after a move; 0 marks a head ordered left from square 1."""
    return tuple([i + 1 if mv == "R" else i - 1 for i, mv in zip(heads, moves)])


def _write(tapes: list[list[str]], heads: Sequence[int], writes: Sequence[str]) -> None:
    """Write one symbol per tape at the head, growing a tape scanned past its end."""
    for tape, i, s in zip(tapes, heads, writes):
        if i > len(tape):
            tape.append(s)
        else:
            tape[i - 1] = s


def _check_bound(what: str, bound: int, least: int) -> None:
    # a float bound would stop the count between steps, and True is no count
    if isinstance(bound, bool) or not isinstance(bound, int):
        raise ValueError(f"{what} bound must be an integer, got {bound!r}")
    if bound < least:
        raise ValueError(f"{what} bound must be >= {least}, got {bound}")


def run_deterministic(
    m: TuringMachine, w: Word, max_steps: int, want_trace: bool = False
) -> RunOutcome:
    """Iterate the unique step of a deterministic machine from the input.

    Verdicts: accepted/rejected on reaching a final state, dead-end when no
    transition applies, bound-exceeded after max_steps steps.
    """
    _check_bound("step", max_steps, 0)
    if not is_deterministic(m):
        raise NotDeterministic("machine has a non-singleton transition target set")
    start = initial_id(m, w)
    table, blank = m.transitions, m.blank
    state, heads = start.state, start.heads
    tapes = [list(tape) for tape in start.tapes]
    steps = 0
    max_head = max(heads)
    trace = [start] if want_trace else None
    while True:
        if state == m.accept:
            verdict = VERDICT_ACCEPTED
            break
        if state == m.reject:
            verdict = VERDICT_REJECTED
            break
        if steps >= max_steps:
            verdict = VERDICT_BOUND_EXCEEDED
            break
        scanned = _scan(tapes, heads, blank)
        targets = table.get((state, scanned))
        if not targets:
            verdict = VERDICT_DEAD_END
            break
        tr = targets[0]
        moved = _moved(heads, tr.moves)
        if 0 in moved:
            verdict = VERDICT_DEAD_END
            break
        _write(tapes, heads, tr.writes)
        state, heads = tr.next_state, moved
        steps += 1
        max_head = max(max_head, *heads)
        if trace is not None:
            trace.append(InstantaneousDescription(state, tuple(map(tuple, tapes)), heads))
    return RunOutcome(verdict, steps, max_head, tuple(trace) if trace is not None else None)


def accepts_within(
    m: TuringMachine, w: Word, t: int, want_trace: bool = True
) -> RunOutcome:
    """Breadth-first bounded acceptance: accepted iff some path of at most
    t steps reaches the accept state.

    On acceptance the trace is one minimal-length witness path.  Otherwise
    the verdict is dead-end if the whole step graph was exhausted before
    the bound, or bound-exceeded if unexplored configurations remained.
    """
    return _bounded_search(m, w, t, space=None, want_trace=want_trace)


def accepts_within_space(
    m: TuringMachine, w: Word, t: int, s: int, want_trace: bool = True
) -> RunOutcome:
    """As accepts_within, but every configuration on the path (initial and
    accepting ones included) must keep all heads at positions <= s."""
    _check_bound("space", s, 1)
    return _bounded_search(m, w, t, space=s, want_trace=want_trace)


# A search node is (parent id, symbols its step wrote, symbols they
# replaced, state, heads); the written squares are the parent's heads, and
# a square the step appended replaced the blank.  The root is node 0, and
# every node's id is larger than its parent's.
_Node = tuple[int, tuple[str, ...], tuple[str, ...], str, tuple[int, ...]]


def _bounded_search(
    m: TuringMachine,
    w: Word,
    t: int,
    space: int | None,
    want_trace: bool,
) -> RunOutcome:
    _check_bound("step", t, 0)
    start = initial_id(m, w)
    max_head = max(start.heads)
    if space is not None and max_head > space:
        return RunOutcome(VERDICT_DEAD_END, 0, max_head)
    if start.state == m.accept:
        return RunOutcome(VERDICT_ACCEPTED, 0, max_head, (start,) if want_trace else None)
    if t == 0:
        return RunOutcome(VERDICT_BOUND_EXCEEDED, 0, max_head)

    table, blank, accept, reject = m.transitions, m.blank, m.accept, m.reject
    # No head gets past square t + 1 within t steps, so t + 1 never prunes.
    limit = t + 1 if space is None else space
    nodes: list[_Node] = [(-1, (), (), start.state, start.heads)]
    lengths = tuple(map(len, start.tapes))
    # dedup key -> the nodes with that key, which differ in their tapes
    seen = {(start.state, start.heads, lengths, 0): [0]}
    # The frontier is a list of sibling groups: the materialised tapes of
    # their parent, shared, and per member (id, state, heads, lengths,
    # digest).  A member's own writes are not yet applied to those tapes.
    frontier = [([list(tape) for tape in start.tapes],
                 [(0, start.state, start.heads, lengths, 0)])]
    depth = 0
    while True:
        expanded = []
        accepted = -1
        for base, members in frontier:
            for nid, state, heads, lengths, digest in members:
                if state == reject:
                    continue
                # A step always moves every head off the square it wrote,
                # so the parent's tapes show what this member scans.
                scanned = _scan(base, heads, blank)
                children = []
                for tr in table.get((state, scanned), ()):
                    moved = _moved(heads, tr.moves)
                    if 0 in moved or max(moved) > limit:
                        continue
                    grown = tuple([n + (i > n) for n, i in zip(lengths, heads)])
                    h = digest
                    for j, (i, old, new) in enumerate(zip(heads, scanned, tr.writes)):
                        if old != new:
                            if old != blank:
                                h ^= hash((j, i, old))
                            if new != blank:
                                h ^= hash((j, i, new))
                    key = (tr.next_state, moved, grown, h)
                    cid = len(nodes)
                    nodes.append((nid, tr.writes, scanned, tr.next_state, moved))
                    same_key = seen.get(key)
                    if same_key is None:
                        seen[key] = [cid]
                    elif any(_same_tapes(nodes, cid, other) for other in same_key):
                        nodes.pop()
                        continue
                    else:
                        same_key.append(cid)
                    children.append((cid, tr.next_state, moved, grown, h))
                    max_head = max(max_head, *moved)
                    if tr.next_state == accept and accepted < 0:
                        accepted = cid
                if children:
                    expanded.append((base, nid, children))
        if not expanded:
            return RunOutcome(VERDICT_DEAD_END, depth, max_head)
        depth += 1
        if accepted >= 0:
            trace = _witness(nodes, start, accepted) if want_trace else None
            return RunOutcome(VERDICT_ACCEPTED, depth, max_head, trace)
        if depth == t:
            return RunOutcome(VERDICT_BOUND_EXCEEDED, t, max_head)
        # Materialise the tapes of every member with children.  Siblings
        # share their parent's tapes; the last sibling that needs them
        # takes them over, the others copy.
        frontier = []
        for k, (base, nid, children) in enumerate(expanded):
            shared = k + 1 < len(expanded) and expanded[k + 1][0] is base
            tapes = [list(tape) for tape in base] if shared else base
            parent, writes, _, _, _ = nodes[nid]
            if parent >= 0:
                _write(tapes, nodes[parent][4], writes)
            frontier.append((tapes, children))


def _same_tapes(nodes: list[_Node], a: int, b: int) -> bool:
    """Exact check behind a dedup-key match: do nodes ``a`` and ``b``, equal
    in state, heads and tape lengths, have the same tapes?

    Walks both up to their lowest common ancestor, always moving the larger
    id (never an ancestor of the smaller), and notes per square the latest
    symbol on each side and the ancestor's symbol, which the earliest write
    on either side replaced.  Squares written on neither side are the
    ancestor's on both.
    """
    mine: dict[tuple[int, int], str] = {}
    theirs: dict[tuple[int, int], str] = {}
    ancestor: dict[tuple[int, int], str] = {}
    while a != b:
        if a > b:
            nid, a, side = a, nodes[a][0], mine
        else:
            nid, b, side = b, nodes[b][0], theirs
        parent, writes, replaced, _, _ = nodes[nid]
        for square, new, old in zip(enumerate(nodes[parent][4]), writes, replaced):
            side.setdefault(square, new)
            ancestor[square] = old
    return all(mine.get(sq, old) == theirs.get(sq, old) for sq, old in ancestor.items())


def _witness(
    nodes: list[_Node], start: InstantaneousDescription, last: int
) -> tuple[InstantaneousDescription, ...]:
    """The path from the root to node ``last``, rebuilt from parent pointers."""
    path = []
    while last > 0:
        path.append(nodes[last])
        last = nodes[last][0]
    tapes = [list(tape) for tape in start.tapes]
    heads = start.heads
    trace = [start]
    for _, writes, _, state, moved in reversed(path):
        _write(tapes, heads, writes)
        heads = moved
        trace.append(InstantaneousDescription(state, tuple(map(tuple, tapes)), heads))
    return tuple(trace)


@dataclass(frozen=True)
class TimeBoundRow:
    """One word checked against a time bound."""

    word: tuple[str, ...]
    length: int
    bound: int
    accepted: bool


@dataclass(frozen=True)
class TimeBoundReport:
    rows: tuple[TimeBoundRow, ...]
    holds: bool


def check_time_bound(
    m: TuringMachine, words: Iterable[Word], bound: Callable[[int], int]
) -> TimeBoundReport:
    """Check that each word is accepted within bound(len(word)) steps.

    The sample should consist of words the machine accepts at all; the
    summary flag holds iff every row was accepted within its bound.
    """
    rows = []
    for w in words:
        word = tuple(w)
        limit = bound(len(word))
        if limit < 0:
            raise ValueError(f"time bound must be >= 0, got {limit} for length {len(word)}")
        outcome = accepts_within(m, word, limit, want_trace=False)
        rows.append(
            TimeBoundRow(word, len(word), limit, outcome.verdict == VERDICT_ACCEPTED)
        )
    return TimeBoundReport(tuple(rows), all(r.accepted for r in rows))
