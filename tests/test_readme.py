"""The README's library example and CLI walkthrough run as written."""

import re
import shlex
from pathlib import Path

from sidkit.cli import EXIT_OK, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def code_block(heading: str, language: str) -> str:
    """The first ```language block under the README's `## heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"^```{language}\n(.*?)^```", section, re.M | re.S).group(1)


def test_library_in_five_lines_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(code_block("Library in five lines", "python"), "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    """Each `sidkit ...` command, its `\\`-continued lines joined, exits 0."""
    monkeypatch.chdir(tmp_path)
    script = code_block("CLI walkthrough", "sh").replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines() if line.strip()]
    assert commands
    for argv in commands:
        assert argv[0] == "sidkit", argv
        assert main(argv[1:]) == EXIT_OK, (argv, capsys.readouterr().err)
