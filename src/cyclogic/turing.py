"""Multi-tape deterministic and nondeterministic Turing machine engine.

A machine is the 8-tuple (states, tape alphabet, blank, input alphabet,
transition table, initial, accept, reject) over m one-way-infinite tapes.
A configuration (instantaneous description) is <q; tape words; head
positions>: the state, the visited non-blank portion of each tape, and
1-based head positions with 1 <= i <= len(word) + 1.
``make_machine`` builds any machine; ``scanner`` builds a 1-tape one-pass
scanner from a step table, deriving its states and alphabets.

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
configuration whose head positions exceed the bound.  The untraced run
and search first walk the machine as a finite automaton while every step
moves every head right, and step configurations only from where the walk
hands over (``_resume``).

Every step costs O(tapes), whatever the tape length.  A deterministic run
steps on one mutable list per tape, and writes each of them every step,
since its heads may come back.  The search stores each visited
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

import functools
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
    """A machine as in the module docstring; build it with ``make_machine``
    or ``scanner``.

    Its transition table must not change after construction: the walk memo
    (``_memo``) is worked out from the table on first use and kept, so
    walks after a change would step the old table.
    """

    states: frozenset[str]
    tape_alphabet: frozenset[str]
    blank: str
    input_alphabet: frozenset[str]
    transitions: Mapping[TransitionKey, tuple[Transition, ...]]
    initial: str
    accept: str
    reject: str
    tapes: int = 1

    @functools.cached_property
    def _memo(self) -> tuple[list, dict, list]:
        """The walk's memo (``_walk``): the state sets reached, their ids and
        their rows.  Made on first use and kept in the instance, it is no
        field: equality, repr and the machine-file form ignore it,
        ``replace`` starts a fresh one, and it pickles as plain data."""
        return [(), (self.initial,)], {(): 0, (self.initial,): 1}, [{}, {}]


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


_BLANK = "_"
_MARK = "x"


def scanner(initial: str, symbols: Sequence[str], steps: dict, verdicts: dict) -> TuringMachine:
    """A 1-tape one-pass scanner over ``symbols``: each step rewrites the
    scanned symbol unchanged and moves right.

    ``steps[p][s]`` lists, in order, the states entered from p on s;
    ``verdicts[p]`` is the final state p enters on the blank ``_``, writing
    the mark ``x``.  Every state a step enters has steps or a verdict or is
    final, so the states are ``initial``, qA, qR and those named here; the
    tape alphabet is the symbols, the blank, and the mark if there are
    verdicts.
    """
    transitions = {}
    for p, row in steps.items():
        for s, targets in row.items():
            scanned = (s,)
            transitions[(p, scanned)] = tuple([Transition(q, scanned, ("R",)) for q in targets])
    for p, final in verdicts.items():
        transitions[(p, (_BLANK,))] = (Transition(final, (_MARK,), ("R",)),)
    # every target set is a tuple already, so make_machine's copy of the table is not needed
    return TuringMachine(
        states=frozenset((initial, "qA", "qR", *steps, *verdicts, *verdicts.values())),
        tape_alphabet=frozenset((*symbols, _BLANK, *((_MARK,) if verdicts else ()))),
        blank=_BLANK,
        input_alphabet=frozenset(symbols),
        transitions=transitions,
        initial=initial,
        accept="qA",
        reject="qR",
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
            symbols = "symbol" if len(scanned) == 1 else "symbols"
            err(f"transition {key} scans {len(scanned)} {symbols}, expected {m.tapes}")
        for s in scanned:
            if s not in m.tape_alphabet:
                err(f"transition {key} scans unknown symbol {s!r}")
        if not targets:
            err(f"transition {key} has an empty target set")
        for t in targets:
            if t.next_state not in m.states:
                err(f"transition {key} moves to unknown state {t.next_state!r}")
            if len(t.writes) != m.tapes or len(t.moves) != m.tapes:
                if len(scanned) == m.tapes:  # else reported once, for the scanned list
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
    if not m.input_alphabet.issuperset(word):
        foreign = next(s for s in word if s not in m.input_alphabet)
        raise ValueError(f"symbol {foreign!r} not in the input alphabet")
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


def _check_integer(name: str, value: object) -> None:
    # bool is an int subclass, but True is no count
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_bound(what: str, bound: int, least: int, where: str = "") -> None:
    # a float bound would stop the count between steps
    _check_integer(f"{what} bound", bound)
    if bound < least:
        raise ValueError(f"{what} bound must be >= {least}, got {bound}{where}")


def run_deterministic(
    m: TuringMachine, w: Word, max_steps: int, want_trace: bool = False
) -> RunOutcome:
    """Iterate the unique step of a deterministic machine from the input.

    Verdicts: accepted/rejected on reaching a final state, dead-end when no
    transition applies, bound-exceeded after max_steps steps.  Without a
    trace the run steps on tapes only from where the walk hands over
    (``_resume``).
    """
    _check_bound("step", max_steps, 0)
    if not is_deterministic(m):
        raise NotDeterministic("machine has a non-singleton transition target set")
    start = initial_id(m, w)
    resumed = (0, start) if want_trace else _resume(m, start, max_steps, None, run=True)
    if isinstance(resumed, RunOutcome):
        return resumed
    steps, start = resumed
    state, heads = start.state, start.heads
    tapes = [list(tape) for tape in start.tapes]
    table, blank = m.transitions, m.blank
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


def _resume(
    m: TuringMachine, start: InstantaneousDescription, t: int, space: int | None, run: bool
) -> RunOutcome | tuple[int, InstantaneousDescription]:
    """The untraced start of the run (``run`` true, on a deterministic
    machine) or of the search from the initial configuration ``start``:
    the walk's outcome, or the depth and configuration to step on from.

    While every transition that fires moves every head right, no
    configuration repeats and no head reads back a square it wrote: the
    machine is a finite automaton over its input followed by blanks.  So
    the walk (``_walk``) steps the set of states reachable at each depth,
    with no tapes, heads or search bookkeeping, through a memo of the
    subset construction (Rabin & Scott), built lazily, that lives as long
    as the machine (``TuringMachine._memo``) and serves every later word,
    bound and engine on it.

    The walk hands over at depth d, where the first transition fires with
    another move.  If each walked step fired one transition, which holds
    in a run, the configuration at depth d is known: step j wrote square
    j + 1 of every tape, tape 1 keeps the rest of the input, and every
    head is on square d + 1.  The run goes on from it.  So does the search
    where none of the walked configurations, which its visited set lacks,
    can recur: where every later tape is longer than at any depth j < d.
    Every later step writes square d + 1, and tape 2 is j long at depth j,
    tape 1 max(n, j) for an input of length n <= d; so on two tapes, or
    past the input.  Any other search starts over, from ``(0, start)``.
    """
    word = start.tapes[0]
    depth = _walk(m, word, t, space, run)
    if isinstance(depth, RunOutcome):
        return depth
    if not (run or m.tapes > 1 or depth >= len(word)):
        return 0, start
    state, writes, idle = m.initial, [], (m.blank,) * (m.tapes - 1)
    for symbol in itertools.islice(itertools.chain(word, itertools.repeat(m.blank)), depth):
        targets = m.transitions[state, (symbol,) + idle]
        if len(targets) > 1:
            return 0, start
        writes.append(targets[0].writes)
        state = targets[0].next_state
    tapes = [tuple([symbols[j] for symbols in writes]) for j in range(m.tapes)]
    tapes[0] += word[depth:]
    return depth, InstantaneousDescription(state, tuple(tapes), (depth + 1,) * m.tapes)


_HAND_OVER = -1  # a memo entry: a transition that does not move every head right fires here


def _walk(
    m: TuringMachine, word: tuple[str, ...], t: int, space: int | None, run: bool
) -> RunOutcome | int:
    """The untraced outcome of the search (``run`` false) or of the run
    (``run`` true, for a deterministic machine) while every fired
    transition moves every head right; as soon as one does not, the depth
    it fires at (``_resume``).

    Until then every configuration at depth d has every head on square
    d + 1 and scans the same symbols: tape 1 the input, then blanks, and
    every other tape the blank just past what it wrote.  So the set of
    their states, kept in order of discovery, decides the verdict.  The
    search skips the reject state, so a rejection on step t reads as the
    bound reached and one before as a dead end; the run reports it first.
    Every step goes one square further right, so a space bound s allows
    s - 1 steps.

    In the memo (``m._memo``), filled as the walks go, each state set
    reached gets an id, 0 for the empty set and 1 for the initial one, and
    ``rows[id]`` maps a tape-1 symbol to the next set's id or to
    ``_HAND_OVER`` (``_fill``).  So a step is one dict lookup, and a walk
    adds at most one set per step.  The memo holds nothing of a call's
    word or bounds.
    """
    sets, _, rows = m._memo
    blank, accept, reject = m.blank, m.accept, m.reject
    sid, steps = 1, 0
    stop = t if space is None else min(t, space - 1)
    for symbol in itertools.chain(word, itertools.repeat(blank)):
        # No set holding the accept state gets a row, and in a run one
        # holding the reject state holds only it, so its rows lead to the
        # empty set: a known non-empty next set within both bounds is a step.
        nxt = rows[sid].get(symbol, 0)
        if nxt > 0 and steps < stop:
            sid = nxt
            steps += 1
            continue
        states = sets[sid]
        if accept in states:
            verdict = VERDICT_ACCEPTED
        elif run and reject in states:
            verdict = VERDICT_REJECTED
        elif steps == t:
            verdict = VERDICT_BOUND_EXCEEDED
        else:
            nxt = rows[sid].get(symbol)
            if nxt is None:
                nxt = _fill(m, sid, symbol)
            if nxt == _HAND_OVER:
                return steps
            if nxt and steps + 1 != space:
                sid = nxt
                steps += 1
                continue
            verdict = VERDICT_DEAD_END
        return RunOutcome(verdict, steps, steps + 1)


def _fill(m: TuringMachine, sid: int, symbol: str) -> int:
    """Work out and remember the step from state set ``sid`` on a tape-1
    ``symbol``: the next set's id, numbering a new set, or ``_HAND_OVER``."""
    sets, ids, rows = m._memo
    scanned = (symbol,) + (m.blank,) * (m.tapes - 1)
    right = ("R",) * m.tapes
    reached: dict[str, None] = {}
    for state in sets[sid]:
        if state != m.reject:
            for tr in m.transitions.get((state, scanned), ()):
                if tr.moves != right:
                    rows[sid][symbol] = _HAND_OVER
                    return _HAND_OVER
                reached[tr.next_state] = None
    states = tuple(reached)
    if states not in ids:
        ids[states] = len(sets)
        sets.append(states)
        rows.append({})
    rows[sid][symbol] = ids[states]
    return ids[states]


def accepts_within(
    m: TuringMachine, w: Word, t: int, want_trace: bool = True
) -> RunOutcome:
    """Breadth-first bounded acceptance: accepted iff some path of at most
    t steps reaches the accept state.

    On acceptance the trace is one minimal-length witness path.  Otherwise
    the verdict is dead-end if the whole step graph was exhausted before
    the bound, or bound-exceeded if unexplored configurations remained.
    Without a trace the search starts where the walk hands over
    (``_resume``).
    """
    return _bounded_search(m, w, t, space=None, want_trace=want_trace)


def accepts_within_space(
    m: TuringMachine, w: Word, t: int, s: int, want_trace: bool = True
) -> RunOutcome:
    """As accepts_within, but every configuration on the path (initial and
    accepting ones included) must keep all heads at positions <= s.  The
    untraced walk (``_resume``) therefore stops after s - 1 steps, as a
    dead end."""
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
    resumed = (0, start) if want_trace else _resume(m, start, t, space, run=False)
    if isinstance(resumed, RunOutcome):
        return resumed
    depth, start = resumed
    max_head = max(start.heads)
    table, blank, accept, reject = m.transitions, m.blank, m.accept, m.reject
    # No head gets past square t + 1 within t steps, so t + 1 never prunes.
    limit = t + 1 if space is None else space
    nodes: list[_Node] = [(-1, (), (), start.state, start.heads)]
    lengths = tuple(map(len, start.tapes))
    # dedup key -> the nodes with that key, which differ in their tapes
    seen = {(start.state, start.heads, lengths, 0): [0]}
    # Sibling groups to expand, as (tapes, parent id, members): the tapes
    # are the parent's but for the parent's own writes, and groups may
    # share them; a member is (id, state, heads, lengths, digest).  The
    # root is the one member of a group whose parent is the root.
    expanded = [([list(tape) for tape in start.tapes], 0,
                 [(0, start.state, start.heads, lengths, 0)])]
    accepted = 0 if start.state == accept else -1
    while True:
        if accepted >= 0:
            trace = _witness(nodes, start, accepted) if want_trace else None
            return RunOutcome(VERDICT_ACCEPTED, depth, max_head, trace)
        if depth == t:
            return RunOutcome(VERDICT_BOUND_EXCEEDED, t, max_head)
        # The frontier: each group with its parent's tapes.  Of the groups
        # that share tapes, the last takes them over and the others copy.
        frontier = []
        for k, (base, nid, members) in enumerate(expanded):
            shared = k + 1 < len(expanded) and expanded[k + 1][0] is base
            tapes = [list(tape) for tape in base] if shared else base
            parent, writes, _, _, _ = nodes[nid]
            if parent >= 0:
                _write(tapes, nodes[parent][4], writes)
            frontier.append((tapes, members))
        expanded = []
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
                    cid = len(nodes)
                    nodes.append((nid, tr.writes, scanned, tr.next_state, moved))
                    same_key = seen.setdefault((tr.next_state, moved, grown, h), [])
                    if any(_same_tapes(nodes, cid, other) for other in same_key):
                        nodes.pop()
                        continue
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
        _check_bound("time", limit, 0, f" for length {len(word)}")
        outcome = accepts_within(m, word, limit, want_trace=False)
        rows.append(
            TimeBoundRow(word, len(word), limit, outcome.verdict == VERDICT_ACCEPTED)
        )
    return TimeBoundReport(tuple(rows), all(r.accepted for r in rows))
