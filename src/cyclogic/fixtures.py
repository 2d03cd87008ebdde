"""Small machines used throughout the tests, demos, and docs.

Each builder returns a fresh TuringMachine: a one-pass ``turing.scanner``,
except the 2-tape copy machine.  The *_FILE constants carry machines in the
text grammar so the command-line surface can be exercised against known behavior.
"""

from __future__ import annotations

from .turing import Transition, TuringMachine, make_machine, scanner


def even_a_machine() -> TuringMachine:
    """Deterministic 1-tape machine accepting words with an even count of 'a'.

    Walks the input once, flipping between the even/odd states, then takes
    one extra step on the blank to land in accept or reject: a length-l
    word is decided in exactly l + 1 steps.
    """
    steps = {"q0": {"a": ("q1",)}, "q1": {"a": ("q0",)}}
    return scanner("q0", "a", steps, {"q0": "qA", "q1": "qR"})


def guess_bit_machine() -> TuringMachine:
    """Nondeterministic machine with two choices at the start.

    On input "0" the start state branches: one branch keeps scanning and
    dies at the end of the tape, the other reaches the accept state in
    two steps.  The minimal witness therefore has length exactly 2.
    """
    return scanner("q0", "0", {"q0": {"0": ("q0", "q2")}}, {"q2": "qA"})


def walk_right_machine(distance: int = 3) -> TuringMachine:
    """Walks right over 'a's for ``distance`` steps, then accepts.

    The accepting configuration has its head at square distance + 1, so
    the run fits in space s iff s >= distance + 1.  Needs distance >= 1.
    """
    if distance < 1:
        raise ValueError(f"distance must be >= 1, got {distance}")
    steps = {f"w{i}": {"a": (f"w{i + 1}" if i + 1 < distance else "qA",)} for i in range(distance)}
    return scanner("w0", "a", steps, {})


def accept_at_start_machine() -> TuringMachine:
    """Machine whose initial state is the accept state: accepts any input
    in zero steps, never moving a head (every move from square 1 either
    falls off the left end or leaves square 1, so this is the only way to
    accept within space 1)."""
    return scanner("qA", "a", {}, {})


def real_time_scanner() -> TuringMachine:
    """Accepts every word over {a, b}, in exactly len(word) + 1 steps."""
    return scanner("s", "ab", {"s": {"a": ("s",), "b": ("s",)}}, {"s": "qA"})


def copy_machine() -> TuringMachine:
    """2-tape machine copying its input onto the second tape, then accepting."""
    return make_machine(
        states=["q0", "qA", "qR"],
        tape_alphabet=["a", "x", "_"],
        blank="_",
        input_alphabet=["a"],
        transitions={
            ("q0", ("a", "_")): (Transition("q0", ("a", "a"), ("R", "R")),),
            ("q0", ("_", "_")): (Transition("qA", ("x", "x"), ("R", "R")),),
        },
        initial="q0",
        accept="qA",
        reject="qR",
        tapes=2,
    )


def fixture_suite() -> dict[str, TuringMachine]:
    """All fixture machines keyed by name."""
    return {
        "even-a": even_a_machine(),
        "guess-bit": guess_bit_machine(),
        "walk-right-3": walk_right_machine(3),
        "accept-at-start": accept_at_start_machine(),
        "real-time-scanner": real_time_scanner(),
        "copy": copy_machine(),
    }


EVEN_A_FILE = """\
# accepts words with an even number of a's
states q0 q1 qA qR
tapes 1
blank _
input a
tape_alphabet a x _
initial q0
accept qA
reject qR
trans q0 [a] -> q1 [a] [R]
trans q1 [a] -> q0 [a] [R]
trans q0 [_] -> qA [x] [R]
trans q1 [_] -> qR [x] [R]
"""

GUESS_BIT_FILE = """\
# two choices at the start; one branch accepts after 2 steps
states q0 q2 qA qR
tapes 1
blank _
input 0
tape_alphabet 0 x _
initial q0
accept qA
reject qR
trans q0 [0] -> q0 [0] [R]
trans q0 [0] -> q2 [0] [R]
trans q2 [_] -> qA [x] [R]
"""

WRITES_BLANK_FILE = """\
# ill-formed on purpose: the transition writes the blank
states q0 qA qR
tapes 1
blank _
input a
tape_alphabet a _
initial q0
accept qA
reject qR
trans q0 [a] -> qA [_] [R]
"""

FINAL_STATE_TRANS_FILE = """\
# ill-formed on purpose: a transition is keyed on the accept state
states q0 qA qR
tapes 1
blank _
input a
tape_alphabet a x _
initial q0
accept qA
reject qR
trans q0 [a] -> qA [x] [R]
trans qA [a] -> q0 [a] [R]
"""
