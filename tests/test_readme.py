"""README.md's examples run as written.

The ``python`` block runs as a script, and each ``effectprob ...`` line of
the ``sh`` blocks runs through ``cli.main`` in a scratch directory, in
order, so later commands read the files earlier ones wrote. A public name
or flag the README uses cannot go away without failing here.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from effectprob.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)


def test_python_blocks_run(tmp_path, monkeypatch):
    codes = blocks("python")
    assert codes
    monkeypatch.chdir(tmp_path)
    for code in codes:
        exec(compile(code, "README.md", "exec"), {"__name__": "__readme__"})


def test_cli_lines_exit_0(tmp_path, monkeypatch):
    lines = [line for block in blocks("sh") for line in block.splitlines()]
    commands = [shlex.split(line, comments=True) for line in lines if line.startswith("effectprob ")]
    assert commands
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
