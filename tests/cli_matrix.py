"""The command line's behaviour, pinned: argv, exit code and output digests.

commands() lists the matrix: all eight commands on the octahedron, the unit
cube, the 2-simplex, the 3x2x2 box, the prism and the annulus support
(supports/facets14.txt), with auto, indices= and direction= selections,
valid and not, the options that change an output, evaluate on random and
common-root coefficients, and the refusals: supports of the wrong dimension
or with no generic direction, unreadable files and bad arguments. Its inputs
are checked in, under supports/ and tests/cli_inputs/.

tests/cli_matrix.json holds one entry per command, in this order: its argv,
its exit code, a digest of stdout and of stderr's last line (the first 16
hex digits of their sha256), that line and its error type in clear text, so
a failure names what changed, and whether the command is slow (more than
SLOW seconds in-process when it was pinned). known_hangs lists commands
that do not end within minutes and gigabytes at the pinned commit; nothing
runs them.

Every command runs in-process through cli.main, from the repository root,
so the argv's relative paths resolve. Tier-1 checks the entries that are not
slow (test_cli_matrix.py); this script checks them all, or the slow ones:

    PYTHONPATH=src:tests python tests/cli_matrix.py [--slow]

and --write pins the outputs of the code on PYTHONPATH. A change that means
to change an output pins it again and lists each changed entry, with its old
and new output, in CHANGES.md; no test writes the file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path

from detform import cli

ROOT = Path(__file__).resolve().parents[1]
MATRIX = ROOT / "tests" / "cli_matrix.json"
SLOW = 0.5  # seconds in-process

COMMANDS = ("facets", "shell", "predict-size", "build-matrix", "evaluate", "verify",
            "cohomology", "feasibility")
INPUTS = "tests/cli_inputs/"
OCTA = "supports/octa.txt"
ANNULUS = "supports/facets14.txt"  # its facets but 0 and 7 form an annulus
SUPPORTS = {  # the 3-polytopes every command runs on, and their random coefficients
    OCTA: INPUTS + "octa_random.coeffs",
    INPUTS + "cube.txt": INPUTS + "cube_random.coeffs",
    INPUTS + "simplex2.txt": INPUTS + "simplex2_random.coeffs",
    INPUTS + "box12.txt": INPUTS + "box12_random.coeffs",
    INPUTS + "prism.txt": INPUTS + "prism_random.coeffs",
}
SELECTIONS = {  # a disk, no disk, out of range, repeated, not a list, every facet
    OCTA: ["indices=0,1,2,4", "indices=0,7", "indices=0,8", "indices=1,1", "indices=a",
           "indices=0,1,2,3,4,5,6,7"],
    INPUTS + "cube.txt": ["indices=0,1,4", "indices=2,4,5", "indices=0,5", "indices=0,6",
                          "indices=0,1,2,3,4,5"],
}
DIRECTIONS = [  # generic, tied, wrong length, steps out of range, not a direction
    "direction=1,2,3:2", "direction=1,2,3:4", "direction=1,1,1:3", "direction=1,2:2",
    "direction=1,2,3:0", "direction=1,2,3:8", "direction=1,x,3:2", "spiral",
]
ANNULUS_FACETS = "indices=1,2,3,4,5,6,8,9,10,11,12,13"


def plain(command: str, support: str, coeffs: str = INPUTS + "octa_random.coeffs") -> list[str]:
    """The command on the support with default options, and the coefficient
    file evaluate requires (a support it refuses is refused first)."""
    return [command, support] + (["--coeffs", coeffs] if command == "evaluate" else [])


KNOWN_HANGS = [{"argv": plain(command, ANNULUS),
                "why": "builds the window of a 200 x 200 matrix, which outgrows 1.5 GB in 20 s"}
               for command in ("build-matrix", "evaluate", "verify")]


def commands() -> list[list[str]]:
    """The argv of every pinned command, in the order of the matrix."""
    out = []
    for support, coeffs in SUPPORTS.items():
        out += [plain(command, support, coeffs) for command in COMMANDS]
    for support, specs in SELECTIONS.items():
        for spec in specs + DIRECTIONS:
            out.append(["shell", support, "--shelling", spec])
        for command in ("predict-size", "build-matrix", "verify", "cohomology", "feasibility"):
            for spec in (specs[0], specs[1], specs[2], DIRECTIONS[0], DIRECTIONS[3]):
                out.append([command, support, "--shelling", spec])
    cube = INPUTS + "cube.txt"
    out += [
        # output options
        ["predict-size", OCTA, "--json"],
        ["predict-size", cube, "--json", "--shelling", "indices=0,1,4"],
        ["build-matrix", OCTA, "--dump-tate"],
        ["build-matrix", cube, "--dump-tate", "--shelling", "indices=2,4,5"],
        ["facets", OCTA, "--json"],
        ["verify", OCTA, "--roots", "2"],
        ["verify", OCTA, "--roots", "0"],
        ["verify", OCTA, "--box-radius", "3"],
        ["verify", OCTA, "--box-radius", "0"],
        ["cohomology", OCTA, "--box-radius", "4"],
        ["cohomology", OCTA, "--box-radius", "-1"],
        ["cohomology", OCTA, "--k-range=-1..1"],
        ["cohomology", OCTA, "--k-range", "-3..-1"],
        ["cohomology", cube, "--k-range", "0..3"],
        ["cohomology", OCTA, "--k-range", "2..1"],
        ["cohomology", OCTA, "--k-range", "a..b"],
        # evaluate
        ["evaluate", OCTA, "--coeffs", INPUTS + "octa_root.coeffs"],
        ["evaluate", OCTA, "--coeffs", INPUTS + "octa_root.coeffs", "--json"],
        ["evaluate", OCTA, "--coeffs", INPUTS + "octa_random.coeffs", "--json",
         "--shelling", "indices=0,1,2,4"],
        ["evaluate", OCTA, "--coeffs", INPUTS + "octa_root.coeffs",
         "--shelling", "indices=0,1,2,4"],
        ["evaluate", cube, "--coeffs", INPUTS + "cube_root.coeffs"],
        ["evaluate", cube, "--coeffs", INPUTS + "cube_root.coeffs", "--shelling", "indices=2,4,5"],
        ["evaluate", cube, "--coeffs", INPUTS + "octa_random.coeffs"],  # 7 columns for 8 points
        ["evaluate", OCTA, "--coeffs", INPUTS + "bad.coeffs"],
        ["evaluate", OCTA, "--coeffs", INPUTS + "missing.coeffs"],
        ["evaluate", OCTA],
        # the annulus support: its auto selection, and the annulus itself
        ["facets", ANNULUS],
        ["shell", ANNULUS],
        ["shell", ANNULUS, "--shelling", "direction=9,5,3:5"],
        ["predict-size", ANNULUS],
        ["feasibility", ANNULUS],
        ["cohomology", ANNULUS, "--k-range", "0..1"],
    ]
    for command in ("shell", "build-matrix", "feasibility"):  # no disk: refused, or infeasible
        out.append([command, ANNULUS, "--shelling", ANNULUS_FACETS])
    for seed in ("1", "2", "5"):  # the seed moves auto selections and verify's draws
        for support in (OCTA, cube, INPUTS + "simplex2.txt"):
            for command in ("shell", "predict-size", "build-matrix", "verify"):
                out.append([command, support, "--seed", seed])
    # refusals: the wrong dimension, no generic direction, unreadable input
    for support in ("supports/simplex4.txt", INPUTS + "simplex5x2.txt", INPUTS + "cross5.txt"):
        out += [plain(command, support) for command in COMMANDS]
        out.append(["shell", support, "--shelling", "indices=0"])
        out.append(["feasibility", support, "--shelling", "indices=0"])
        out.append(["feasibility", support, "--shelling", "indices=0,1"])
    out += [
        ["facets", "supports/cross7.txt", "--json"],
        ["shell", "supports/cross7.txt"],
        ["feasibility", "supports/cross7.txt"],
        ["shell", "supports/ball3.txt"],
        ["predict-size", "supports/ball3.txt"],
        ["verify", "supports/ball3.txt"],
        ["shell", INPUTS + "plane.txt"],
        ["facets", INPUTS + "plane.txt"],
        ["facets", INPUTS + "empty.txt"],
        ["facets", INPUTS + "garbled.txt"],
        ["facets", INPUTS + "missing.txt"],
        ["facets", OCTA, "--seed", "x"],
        [],
    ]
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv), run from the root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli.main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def outcome(argv: list[str]) -> dict:
    """The pinned fields of one command's run. stderr is one line of JSON
    from cli.main, a refused argument included; its last line is pinned."""
    code, out, err = run(argv)
    line = err.splitlines()[-1] if err else None
    try:
        kind = json.loads(line)["error"]["type"]
    except (TypeError, ValueError, KeyError):
        kind = None
    return {"argv": argv, "exit": code, "stdout": digest(out), "stderr": digest(line or ""),
            "stderr_type": kind, "stderr_line": line}


def differences(entry: dict) -> list[str]:
    """How the command's run differs from its pin; empty if it does not."""
    got = outcome(entry["argv"])
    return [f"{key}: pinned {entry[key]!r}, got {got[key]!r}"
            for key in got if got[key] != entry[key]]


def load() -> dict:
    return json.loads(MATRIX.read_text())


def write() -> None:
    entries = []
    for argv in commands():
        start = time.perf_counter()
        entry = outcome(argv)
        entry["slow"] = time.perf_counter() - start > SLOW
        entries.append(entry)
        print(f"{time.perf_counter() - start:7.2f} s  exit {entry['exit']}  {' '.join(argv)}")
    MATRIX.write_text(json.dumps({"entries": entries, "known_hangs": KNOWN_HANGS},
                                 indent=1) + "\n")


def check(slow_only: bool) -> int:
    failed = 0
    for entry in load()["entries"]:
        if slow_only and not entry["slow"]:
            continue
        for line in differences(entry):
            failed += 1
            print(f"{' '.join(entry['argv'])}: {line}")
    return failed


if __name__ == "__main__":
    os.chdir(ROOT)
    if "--write" in sys.argv[1:]:
        write()
    else:
        sys.exit(1 if check("--slow" in sys.argv[1:]) else 0)
