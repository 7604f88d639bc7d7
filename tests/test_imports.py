"""Every name a detform module imports is used in that module, and every
private module-level name and every public function, method and property it
defines is read somewhere in the package.

No linter ships with the project, so this stands in for one: a name bound by
an import and never read again is dead code. A name listed in the module's
``__all__`` is a re-export and counts as used. A function, class or constant
whose name has one leading underscore is private to the package, so if no
module reads it (outside its own definition) it is dead code too. A public
function or method that the package neither reads nor re-exports is kept for
tests alone, unless a named reader outside ``src/`` needs it; a module-level
``alias = function`` is a second name for one thing.

The benchmark's traced run wraps detform functions and methods by name
(``perfbench/spans.py``), so every name it lists must exist as well. And
importing the package and its command line front end imports no
``dataclasses`` (``tests/no_dataclasses.py``).
"""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "detform"


def load_spans():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


SPANS = load_spans()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "*":
                    imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os, sys as system\n"
              "from math import gcd, lcm\nfrom .x import kept\n"
              "__all__ = ['kept']\nprint(system.argv, lcm)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: gcd"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# the polytope layer counts and ranks in integers; the covers' maps have
# integer entries
INTEGER_MODULES = ("lattice", "shelling", "ehrhart", "tate", "exterior")
RATIONAL_NAMES = {"fractions", "Fraction", "QQ", "qq"}


def rational_imports(source: str) -> set[str]:
    """The modules and names among RATIONAL_NAMES that the source imports."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update([node.module or ""] + [alias.name for alias in node.names])
    return imported & RATIONAL_NAMES


def test_rational_imports_are_found():
    source = ("import fractions\nfrom fractions import Fraction as F\n"
              "from .linalg import Echelon, qq\n")
    assert rational_imports(source) == {"fractions", "Fraction", "qq"}


@pytest.mark.parametrize("module", INTEGER_MODULES)
def test_integer_module_imports_no_rationals(module):
    assert rational_imports((SRC / f"{module}.py").read_text(encoding="utf-8")) == set()


def test_importing_detform_imports_no_dataclasses():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, str(ROOT / "tests" / "no_dataclasses.py")], env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert Path(run.stdout.strip()).parent == SRC


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in SPANS.FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert hasattr(importlib.import_module(f"detform.{module}"), attr)


@pytest.mark.parametrize("module, cls, method", [entry[:3] for entry in SPANS.METHODS])
def test_traced_method_is_defined_on_its_class(module, cls, method):
    assert method in vars(getattr(importlib.import_module(f"detform.{module}"), cls))


def private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, classes and assigned constants whose name has
    one leading underscore."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node
    return out


def name_reads(trees) -> dict[str, set[ast.AST]]:
    """The nodes that read each name: as a variable, an attribute or an import."""
    reads: dict[str, set[ast.AST]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, set()).add(node)
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, set()).add(node)
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    reads.setdefault(alias.name, set()).add(node)
    return reads


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names, as 'module: name', read nowhere else: not
    as a variable, an attribute or an import, in any of the sources."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = name_reads(trees.values())
    orphans = []
    for mod, tree in trees.items():
        for name, node in private_definitions(tree).items():
            inside = set(ast.walk(node))
            if not reads.get(name, set()) - inside:
                orphans.append(f"{mod}: {name}")
    return orphans


def test_orphaned_private_names_are_found():
    sources = {
        "a": "_LIMIT = 3\n_used: int = 1\ndef _walk(n):\n    return _walk(n - 1)\n"
             "class _Node:\n    pass\ndef _kept():\n    return _used\n",
        "b": "from .a import _kept\nimport a\nprint(_kept(), a._LIMIT)\n",
    }
    assert orphaned_private_names(sources) == ["a: _walk", "a: _Node"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert orphaned_private_names(sources) == []


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)

# public names that only a reader outside src/ calls, each with that reader
KEPT_FOR_OUTSIDE_READERS = {
    "bracket: CoefficientSystem.scale_row": "tests/test_acceptance.py, the gate",
    "bracket: CoefficientSystem.permute_rows": "tests/test_acceptance.py, the gate",
    "exterior: GradedPiece.source_coords": "perfbench/spans.py, the tracer",
    "exterior: FreeModuleMap.compose": "perfbench/spans.py, the tracer",
    "cli: _Parser.error": "argparse, on every argument it refuses",
}


def public_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Module-level functions, and methods and properties of module-level
    classes, whose name has no leading underscore, as 'f' or 'Class.f'."""
    out = {}
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            out[node.name] = node
        elif isinstance(node, ast.ClassDef):
            out.update({f"{node.name}.{item.name}": item
                        for item in node.body if isinstance(item, FUNCTIONS)})
    return {name: node for name, node in out.items() if not node.name.startswith("_")}


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Module-level aliases of a function, as 'module: alias = function', and
    public definitions, as 'module: name', read nowhere but in their own
    definition. The package's __init__ imports exactly what its __all__
    lists, so a re-exported name counts as read."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = name_reads(trees.values())
    unread = []
    for mod, tree in trees.items():
        functions = {node.name for node in tree.body if isinstance(node, FUNCTIONS)}
        unread += [f"{mod}: {target.id} = {node.value.id}" for node in tree.body
                   if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
                   and node.value.id in functions
                   for target in node.targets if isinstance(target, ast.Name)]
        unread += [f"{mod}: {name}" for name, node in public_definitions(tree).items()
                   if not reads.get(node.name, set()) - set(ast.walk(node))]
    return unread


def test_unread_public_names_are_found():
    sources = {
        "a": "def used():\n    return 1\ndef alone(n):\n    return alone(n - 1)\n"
             "second = used\nclass Box:\n    def size(self):\n        return 1\n"
             "    @property\n    def area(self):\n        return self.size()\n"
             "    def _hidden(self):\n        pass\n",
        "b": "from .a import used\nimport a\nprint(used(), a.Box)\n",
    }
    assert unread_public_names(sources) == ["a: second = used", "a: alone", "a: Box.area"]


def test_every_public_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert sorted(unread_public_names(sources)) == sorted(KEPT_FOR_OUTSIDE_READERS)
