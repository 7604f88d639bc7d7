"""The README's library quick start and CLI examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from detform.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["matrix"].size == 14
    assert capsys.readouterr().out.strip()


def test_readme_cli_examples_match_the_cli(capsys):
    text = README.read_text(encoding="utf-8")
    paths = re.findall(r"^detform \S+ (\S+)", text, re.M)
    assert paths and all((ROOT / path).is_file() for path in paths)
    support, shown = re.search(
        r"^detform predict-size (\S+)\n  -> (.*)$", text, re.M).groups()
    with pytest.raises(SystemExit) as exc:
        main(["predict-size", str(ROOT / support)])
    assert exc.value.code == 0
    assert capsys.readouterr().out == shown + "\n"
