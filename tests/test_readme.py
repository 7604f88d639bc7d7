"""The README's library quick start and CLI examples run as written."""

from __future__ import annotations

import random
import re
from pathlib import Path

import pytest

from detform.bracket import format_coefficients, random_coefficients
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


def test_readme_cli_examples_run(tmp_path):
    # the files an example writes (--output) or would need the reader to
    # supply (--coeffs) live under tmp_path; every other file ships here
    commands = re.findall(r"^detform (.*)$", README.read_text(encoding="utf-8"), re.M)
    made = {"matrix.json": tmp_path / "matrix.json", "coeffs.txt": tmp_path / "coeffs.txt"}
    octa_points = 7  # the rows of coeffs.txt give one entry per support point
    made["coeffs.txt"].write_text(
        format_coefficients(random_coefficients(octa_points, random.Random(0))))
    assert len(commands) == 8
    for command in commands:
        argv = [str(made.get(tok) or (ROOT / tok if (ROOT / tok).is_file() else tok))
                for tok in command.split()]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0, command
    assert made["matrix.json"].is_file()
