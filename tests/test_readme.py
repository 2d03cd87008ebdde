"""The README's examples run as written.

Each ``cyclogic ...`` line of the *Command line* block goes through
``cli.main`` from the repository root (``--output`` lands in a temporary
directory) and must exit 0.  A trailing comment that is a literal output
(one bare token, or a double-quoted string) must equal stdout.  The
*Library example* block is executed as it stands.
"""

import re
import shlex
from pathlib import Path

import pytest

from cyclogic import cli, fixtures

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, lang: str) -> str:
    section = README.split(f"## {heading}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def command_lines() -> list[tuple[list[str], str | None]]:
    cases = []
    for line in fenced_block("Command line", "sh").splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "cyclogic", line
        comment = comment.strip()
        if comment.startswith('"') and comment.endswith('"'):
            expected = comment[1:-1]
        elif comment and " " not in comment:
            expected = comment
        else:
            expected = None
        cases.append((argv[1:], expected))
    return cases


@pytest.mark.parametrize("argv, expected", command_lines(),
                         ids=lambda case: " ".join(case) if isinstance(case, list) else None)
def test_command_line_example(argv, expected, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(ROOT)
    if "--output" in argv:
        at = argv.index("--output") + 1
        argv = argv[:at] + [str(tmp_path / argv[at])] + argv[at + 1:]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    if expected is not None:
        assert out == expected + "\n"


def test_library_example(capsys):
    exec(compile(fenced_block("Library example", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("accepted 2\n")


@pytest.mark.parametrize("name, text", [("even_a.tm", fixtures.EVEN_A_FILE),
                                        ("guess_bit.tm", fixtures.GUESS_BIT_FILE)])
def test_machine_files_are_the_fixtures(name, text):
    # the files the examples run are the texts the parser tests check
    assert (ROOT / "demos" / "machines" / name).read_text(encoding="utf-8") == text
