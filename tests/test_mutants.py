"""The mutation tool's sites and its equivalence table; no mutant runs here."""

from __future__ import annotations

import ast

from mutants import EQUIVALENT, SRC, apply, draw, sites

SOURCE = '''\
def f(a, b):
    """∧ before the code, so byte and character offsets differ."""
    if not (a < b or a in b):
        a += 1
    return f"{a - 1}" + str(a - b)


class C:
    def g(self, x):
        return x is None and x != 2
'''


def test_every_kind_of_mutant_is_found_once_and_parses():
    found = sites("m", SOURCE)
    assert [site.name for site in found] == [
        "m.f: not (a < b or a in b) -> (a < b or a in b)",
        "m.f: a < b -> (a <= b)",
        "m.f: a in b -> (a not in b)",
        "m.f: a += 1 -> a -= 1",
        "m.f: 1 -> (2)",
        "m.f: 1 -> (0)",
        # the f-string's a - 1 is left out
        "m.f: f'{a - 1}' + str(a - b) -> (f'{a - 1}' - str(a - b))",
        "m.f: a - b -> (a + b)",
        "m.C.g: x is None -> (x is not None)",
        "m.C.g: x != 2 -> (x == 2)",
        "m.C.g: 2 -> (3)",
        "m.C.g: 2 -> (1)",
    ]
    data = SOURCE.encode()
    for site in found:
        # the span replaced, in bytes, is the node's own text
        assert ast.unparse(ast.parse(data[site.start:site.end].decode())) == site.before
        ast.parse(apply(SOURCE, site))


def test_equal_changes_in_one_function_are_numbered():
    names = [site.name for site in sites("m", "def h(x):\n    return x[0] + x[0]\n")]
    assert names == ["m.h: x[0] + x[0] -> (x[0] - x[0])", "m.h: 0 -> (1)", "m.h: 0 -> (-1)",
                     "m.h: 0 -> (1) #2", "m.h: 0 -> (-1) #2"]


def test_a_seed_draws_the_same_mutants():
    assert draw(["linalg", "exterior"], 10, 0) == draw(["linalg", "exterior"], 10, 0)
    assert draw(["linalg"], 10, 0) != draw(["linalg"], 10, 1)


def test_every_equivalent_mutant_is_a_site_of_the_source():
    # a stale entry, whose code has changed, would excuse nothing
    names = {site.name for path in SRC.glob("*.py")
             for site in sites(path.stem, path.read_text(encoding="utf-8"))}
    assert set(EQUIVALENT) <= names
    assert all(reason.strip() for reason in EQUIVALENT.values())
