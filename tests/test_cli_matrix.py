"""The command line's pinned outputs (tests/cli_matrix.py): every entry of
tests/cli_matrix.json that is not slow, run in-process, must give its
pinned exit code and output digests."""

from __future__ import annotations

import pytest

from cli_matrix import KNOWN_HANGS, ROOT, commands, differences, load

from conftest import time_limit

MATRIX = load()


def test_the_pins_are_the_matrix():
    # the file pins every command of the list, in its order, and no known hang
    assert [entry["argv"] for entry in MATRIX["entries"]] == commands()
    assert MATRIX["known_hangs"] == KNOWN_HANGS
    assert not any(hang["argv"] in commands() for hang in KNOWN_HANGS)


@pytest.mark.parametrize("entry", [entry for entry in MATRIX["entries"] if not entry["slow"]],
                         ids=lambda entry: " ".join(entry["argv"]))
def test_the_command_gives_its_pinned_output(entry, monkeypatch):
    monkeypatch.chdir(ROOT)
    with time_limit(20):
        assert not differences(entry)
