"""Every name a detform module imports is used in that module.

No linter ships with the project, so this stands in for one: a name bound by
an import and never read again is dead code. A name listed in the module's
``__all__`` is a re-export and counts as used.

The benchmark's traced run wraps detform functions and methods by name
(``perfbench/spans.py``), so every name it lists must exist as well.
"""

from __future__ import annotations

import ast
import importlib.util
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


@pytest.mark.parametrize("module, attr", [entry[:2] for entry in SPANS.FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert hasattr(importlib.import_module(f"detform.{module}"), attr)


@pytest.mark.parametrize("module, cls, method", [entry[:3] for entry in SPANS.METHODS])
def test_traced_method_is_defined_on_its_class(module, cls, method):
    assert method in vars(getattr(importlib.import_module(f"detform.{module}"), cls))
