"""Line-oriented text format for machine descriptions.

Grammar (one directive per line, ``#`` starts a comment, blank lines are
ignored)::

    states        q0 q1 qA qR
    tapes         1
    blank         _
    input         a
    tape_alphabet a x _
    initial       q0
    accept        qA
    reject        qR
    trans q0 [a] -> q1 [a] [R]
    trans q1 [_] -> qR [x] [R]

Symbols and state names are whitespace-separated names of any length (``0`` and
``1023`` alike) holding no ``#``, ``[`` or ``]``; the blank is spelled ``_``.
Each ``trans`` line names one target <p; writes; moves> for the key (q; scanned
symbols); duplicate keys accumulate into a nondeterministic target set in file
order.  Bracketed lists carry exactly one symbol (or move) per tape.

Parsing is purely syntactic: a file that, say, writes the blank parses
fine and is then flagged by ``turing.validate``.
"""

from __future__ import annotations

import re

from .turing import Transition, TuringMachine, make_machine

_TRANS_RE = re.compile(
    r"^trans\s+(\S+)\s+\[([^\]]*)\]\s*->\s*(\S+)\s+\[([^\]]*)\]\s*\[([^\]]*)\]$"
)

_UNWRITABLE = re.compile(r"[\s#\[\]]")

_DIRECTIVES = (
    "states",
    "tapes",
    "blank",
    "input",
    "tape_alphabet",
    "initial",
    "accept",
    "reject",
)


class MachineFileError(ValueError):
    """The machine description text does not follow the grammar."""


def parse_machine(text: str) -> TuringMachine:
    """Parse a machine description; raises MachineFileError on bad syntax."""
    fields: dict[str, object] = {}
    transitions: dict[tuple[str, tuple[str, ...]], list[Transition]] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("trans"):
            match = _TRANS_RE.match(line)
            if not match:
                raise MachineFileError(f"line {lineno}: malformed trans line {raw!r}")
            q, scanned_s, p, writes_s, moves_s = match.groups()
            scanned = tuple(scanned_s.split())
            writes = tuple(writes_s.split())
            moves = tuple(moves_s.split())
            if not (len(scanned) == len(writes) == len(moves)):
                raise MachineFileError(
                    f"line {lineno}: scanned/write/move lists have different lengths"
                )
            key = (q, scanned)
            transitions.setdefault(key, []).append(Transition(p, writes, moves))
            continue
        name, _, rest = line.partition(" ")
        if name not in _DIRECTIVES:
            raise MachineFileError(f"line {lineno}: unknown directive {name!r}")
        if name in fields:
            raise MachineFileError(f"line {lineno}: duplicate directive {name!r}")
        fields[name] = rest.split()

    for required in ("states", "blank", "initial", "accept", "reject"):
        if required not in fields:
            raise MachineFileError(f"missing directive {required!r}")

    def single(name: str) -> str:
        values = fields[name]
        if len(values) != 1:
            raise MachineFileError(f"directive {name!r} needs exactly one value")
        return values[0]

    tapes = 1
    if "tapes" in fields:
        try:
            tapes = int(single("tapes"))
        except ValueError:
            raise MachineFileError("directive 'tapes' needs an integer") from None

    blank = single("blank")
    tape_alphabet = set(fields.get("tape_alphabet", []))
    tape_alphabet.add(blank)
    input_alphabet = fields.get("input", [])

    return make_machine(
        states=fields["states"],
        tape_alphabet=tape_alphabet,
        blank=blank,
        input_alphabet=input_alphabet,
        transitions={k: tuple(v) for k, v in transitions.items()},
        initial=single("initial"),
        accept=single("accept"),
        reject=single("reject"),
        tapes=tapes,
    )


def parse_machine_file(path: str) -> TuringMachine:
    with open(path, encoding="utf-8") as fh:
        return parse_machine(fh.read())


def format_machine(m: TuringMachine) -> str:
    """Render a machine back into the file grammar.

    Refuses symbols and state names the grammar cannot carry: empty ones
    and those holding whitespace, ``#``, ``[`` or ``]``.
    """
    for kind, names in (("symbol", m.tape_alphabet | m.input_alphabet),
                        ("state", m.states | {m.initial, m.accept, m.reject})):
        for name in names:
            if not name or _UNWRITABLE.search(name):
                raise ValueError(f"{kind} {name!r} cannot be written in a machine file")
    lines = [
        "states " + " ".join(sorted(m.states)),
        f"tapes {m.tapes}",
        f"blank {m.blank}",
        "input " + " ".join(sorted(m.input_alphabet)),
        "tape_alphabet " + " ".join(sorted(m.tape_alphabet)),
        f"initial {m.initial}",
        f"accept {m.accept}",
        f"reject {m.reject}",
    ]
    for (q, scanned), targets in sorted(m.transitions.items()):
        for t in targets:
            lines.append(
                f"trans {q} [{' '.join(scanned)}] -> "
                f"{t.next_state} [{' '.join(t.writes)}] [{' '.join(t.moves)}]"
            )
    return "\n".join(lines) + "\n"
