"""Seeded mutation testing of src/detform against tier-1.

Each mutant changes one expression of one module: a comparison swapped
(< and <=, > and >=, == and !=, in and not in, is and is not), + and -
swapped (also in += and -=), an integer constant moved by +1 or -1, or a
`not` dropped. The mutants of a module are drawn from all of its sites by
a seeded sample, so a seed and a count name the same mutants on the same
source. Each runs alone, never two at once: the tree is copied once to a
temporary directory, the mutated module is written into the copy's src/,
and tier-1 runs there with -x under a per-mutant timeout and address-space
limit, the module's own test files first. Tier-1 first runs once on the
unmutated copy: it must pass, or every mutant would read killed, and the
timeout defaults to twice its time. A mutant that fails tier-1, or times
out, is killed; one that passes survives. tests/test_mutants.py is left
out of these runs: it checks this tool's reading of the source text, and
would fail on any mutant of a site listed in EQUIVALENT.

A surviving mutant needs a test that kills it, a deletion that makes it
moot, or an entry in EQUIVALENT with the reason no input can tell it from
the source. The run fails on any survivor not listed there.

    python tests/mutants.py [--modules linalg,exterior] [--count 10] [--seed 0]
                            [--timeout SECONDS]

Standard library only; it needs pytest and hypothesis only to run tier-1.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "detform"
MEMORY_MB = 2048  # address-space limit of each tier-1 run
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".benchmarks", "*.egg-info", "build")

# a mutant's id, as Site.name prints it, and why no input tells it apart
EQUIVALENT = {
    "bracket.CoefficientSystem.npoints: 0 -> (-1)":
        "__init__ refuses rows of unequal length, so the first row's length is the last's",
    "bracket.evaluate: 0 -> (1)": "index 0 pads the rows so points count from 1; nothing reads it",
    "bracket.evaluate: 0 -> (-1)": "index 0 pads the rows so points count from 1; nothing reads it",
    "cli._cmd_verify.root_vanishing: 2 -> (1)":
        "every point of the torus is a common root: the check passes and prints the same "
        "for any nonzero coordinates drawn",
    "cli._cmd_verify.root_vanishing: 1 -> (2)":
        "every point of the torus is a common root: the check passes and prints the same "
        "for any nonzero coordinates drawn",
    "cli._cmd_verify.root_vanishing: 2 -> (1) #2":
        "every point of the torus is a common root: the check passes and prints the same "
        "for any nonzero coordinates drawn",
    "cli._cmd_feasibility: 5 -> (4)": "dimension 4 takes the branch above",
    "ehrhart.ehrhart_pair: 4 -> (5) #2":
        "the added check, interior reciprocity at k = 4, holds for every lattice 3-polytope",
    "ehrhart.ehrhart_pair: d[3] <= 0 -> (d[3] < 0)":
        "d[3] is six times the volume of a 3-polytope the hull accepted, never 0",
    "exterior.annihilates: total.get(r, 0) + x * v -> (total.get(r, 0) - x * v)":
        "it sums the negated products, which vanish exactly when the products do",
    "exterior.minimal_free_cover: 1 -> (2)":
        "with no source degree, any start below degree_floor gives an empty scan",
    "exterior.wedge_subsets: t > s -> (t >= s)": "t == s has returned just above",
    "lattice.parse_support: 1 -> (2) #2": "only the text before the first # is read",
    "linalg.primitive_integer_vector: vec[min(vec)] < 0 -> (vec[min(vec)] <= 0)":
        "a sparse vector holds no zero entry, so its leading entry is never 0",
    "linalg.det_bareiss: 1 -> (0) #8":
        "lead is read before the loop, and column k below the pivot is never read again",
    "linalg.Echelon.insert: 1 -> (0)":
        "scale is a pivot entry over a gcd, never 0, and scaling the row by 1 changes nothing",
    "linalg.Echelon.kernel_vector: 1 -> (0) #2":
        "scale is a pivot entry over a gcd, never 0, and scaling x by 1 changes nothing",
}

SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
         ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.Add: ast.Sub, ast.Sub: ast.Add}


class Site(NamedTuple):
    """One mutant: the span it replaces, in bytes, its text before and after,
    and where it sits. name is its id, which survives edits elsewhere in the
    module: the enclosing function, the change, and its rank among equal
    changes there."""

    start: int
    end: int
    before: str
    after: str
    name: str


def _mutations(node: ast.AST):
    """Each mutant of one node, a mutated copy."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in SWAPS:
                ops = list(node.ops)
                ops[i] = SWAPS[type(op)]()
                yield ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BinOp) and type(node.op) in (ast.Add, ast.Sub):
        yield ast.BinOp(node.left, SWAPS[type(node.op)](), node.right)
    elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
        yield ast.AugAssign(node.target, SWAPS[type(node.op)](), node.value)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield ast.Constant(node.value + 1)
        yield ast.Constant(node.value - 1)
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand


def sites(module: str, source: str) -> list[Site]:
    """Every mutant of a module's source, in source order. Expressions inside
    f-strings are left out: before Python 3.12 their positions are not
    reliable."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.JoinedStr):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}"
        for mutant in _mutations(node):
            start = starts[node.lineno - 1] + node.col_offset
            end = starts[node.end_lineno - 1] + node.end_col_offset
            text = ast.unparse(mutant)
            # an expression is parenthesized, so it keeps its precedence
            after = text if isinstance(node, ast.stmt) else f"({text})"
            found.append((start, end, ast.unparse(node), after, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), module)
    found.sort(key=lambda site: site[:2])  # stable: a node's mutants in the order made
    seen: dict[str, int] = {}
    out = []
    for start, end, before, after, scope in found:
        name = f"{scope}: {before} -> {after}"
        seen[name] = seen.get(name, 0) + 1
        out.append(Site(start, end, before, after,
                        name if seen[name] == 1 else f"{name} #{seen[name]}"))
    return out


def apply(source: str, site: Site) -> str:
    data = source.encode()
    return (data[:site.start] + site.after.encode() + data[site.end:]).decode()


def draw(modules: list[str], count: int, seed: int) -> list[tuple[str, Site]]:
    """count mutants of each module (all if it has fewer), in source order."""
    drawn = []
    for module in modules:
        every = sites(module, (SRC / f"{module}.py").read_text(encoding="utf-8"))
        picked = random.Random(f"{seed}/{module}").sample(range(len(every)),
                                                        min(count, len(every)))
        drawn += [(module, every[i]) for i in sorted(picked)]
    return drawn


def _limit(memory_mb: int):
    def limit() -> None:
        size = memory_mb << 20
        resource.setrlimit(resource.RLIMIT_AS, (size, size))
    return limit


def run_tier1(copy: Path, module: str, timeout: float | None) -> str:
    """'killed', 'timeout' or 'survived': tier-1 in the copy with -x, the
    module's own test files first."""
    tests = sorted(t for t in (copy / "tests").glob("test_*.py") if t.name != "test_mutants.py")
    own = [t for t in tests if t.stem.startswith(f"test_{module.strip('_')}")]
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-W", "error", "-p", "no:cacheprovider"]
    argv += [str(t.relative_to(copy)) for t in own + [t for t in tests if t not in own]]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    env.pop("PYTHONPATH", None)  # the copy's pyproject puts its own src/ first
    proc = subprocess.Popen(argv, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True,
                            preexec_fn=_limit(MEMORY_MB))
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # anything the run left behind
        except ProcessLookupError:
            pass
    return "survived" if code == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    every = sorted(p.stem for p in SRC.glob("*.py"))
    parser.add_argument("--modules", default=",".join(every),
                        help="comma-separated modules of src/detform (default: all)")
    parser.add_argument("--count", type=int, default=20, help="mutants per module")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float,
                        help="seconds per mutant (default: twice the unmutated run)")
    args = parser.parse_args(argv)
    modules = args.modules.split(",")
    unknown = sorted(set(modules) - set(every))
    if unknown:
        parser.error(f"no such modules: {', '.join(unknown)}")
    drawn = draw(modules, args.count, args.seed)

    counts = {"killed": 0, "timeout": 0, "equivalent": 0, "survived": 0}
    survivors = []
    with tempfile.TemporaryDirectory(prefix="detform-mutants-") as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        start = time.perf_counter()
        if run_tier1(copy, "", None) != "survived":
            print("tier-1 fails on the unmutated tree", file=sys.stderr)
            return 2
        timeout = args.timeout or 2 * (time.perf_counter() - start)
        print(f"unmutated  {time.perf_counter() - start:6.1f} s", flush=True)
        for module, site in drawn:
            path = copy / "src" / "detform" / f"{module}.py"
            original = path.read_text(encoding="utf-8")
            path.write_text(apply(original, site), encoding="utf-8")
            start = time.perf_counter()
            try:
                outcome = run_tier1(copy, module, timeout)
            finally:
                path.write_text(original, encoding="utf-8")
            if outcome == "survived" and site.name in EQUIVALENT:
                outcome = "equivalent"
            elif outcome == "survived":
                survivors.append(site.name)
            counts[outcome] += 1
            print(f"{outcome:10} {time.perf_counter() - start:6.1f} s  {site.name}", flush=True)
    print(json.dumps({"mutants": len(drawn), **counts, "survivors": survivors}))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
