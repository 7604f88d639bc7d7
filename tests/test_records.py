"""Value semantics of the package's record types.

Each record is frozen (assigning to a field raises AttributeError), except
the two a build fills in place, FreeModuleMap and GradedPiece. Instances
built from equal fields are equal, and equal to their copies; equal
instances hash equal, while a record with a dict field, or a mutable one,
refuses to hash with TypeError.
"""

from __future__ import annotations

import copy
from fractions import Fraction

import pytest

from detform.bracket import BracketCell, BracketMatrix, CoefficientSystem, LinearCell
from detform.cli import RunConfig
from detform.ehrhart import EhrhartPair
from detform.exterior import (
    ExteriorAlgebra,
    FreeModuleMap,
    Generator,
    GradedFreeModule,
    GradedPiece,
    lay_out,
)
from detform.lattice import Edge, Facet, Polytope, convex_hull_with_facets
from detform.shelling import PartialShelling, ShellingStep
from detform.tate import TateWindow, build_phi2
from detform.verify import CohomologyEntry

from conftest import CUBE_POINTS, OCTA_POINTS


def algebra():
    return ExteriorAlgebra(2, ((1, 0), (0, 1)))


def module():
    return GradedFreeModule(algebra(), (Generator(0, (0, 0)), Generator(1, (1, 0))))


def free_map():
    return FreeModuleMap(module(), module(), [{(0, (0,)): 1}, {}])


def bracket_matrix():
    cells = {(0, 0): BracketCell((((1, 2, 3, 4), Fraction(1, 2)),)),
             (0, 1): LinearCell(2, ((3, Fraction(-1)),))}
    labels = (("point", (0, 0, 0)), ("copy", 1, (1, 0, 0)))
    return BracketMatrix(((0, 0, 0), (1, 0, 0)), labels, labels, cells)


# (record, a factory of equal instances, a field to assign and its other
# value, whether the record is frozen, whether it hashes)
RECORDS = [
    (Facet, lambda: Facet((0, 0, 1), 0, (0, 1, 2)), "offset", 1, True, True),
    (Edge, lambda: Edge((0, 1), (2, 3)), "facet_ids", (2, 4), True, True),
    (Polytope, lambda: convex_hull_with_facets(CUBE_POINTS), "dim", 4, True, True),
    (ShellingStep, lambda: ShellingStep(1, ((0, 1),), True), "ok", False, True, True),
    (PartialShelling, lambda: PartialShelling((0, 1), (ShellingStep(0, (), True),
                                                       ShellingStep(1, ((0, 1),), True))),
     "order", (1, 0), True, True),
    (EhrhartPair, lambda: EhrhartPair((1, 7, 12, 6), (0, 0, 0, 6), (0,), 1, 6, 1, 26, 9),
     "chi", 0, True, True),
    (CohomologyEntry, lambda: CohomologyEntry(-2, (0, 1, 0, 0), 3, True), "k", 2, True, True),
    (BracketCell, lambda: BracketCell((((1, 2, 3, 4), Fraction(1, 2)),)), "terms", (), True, True),
    (LinearCell, lambda: LinearCell(2, ((3, Fraction(-1)),)), "poly", 1, True, True),
    (BracketMatrix, bracket_matrix, "cells", {}, True, False),
    (CoefficientSystem, lambda: CoefficientSystem(((1, Fraction(2, 3)),) * 4),
     "rows", ((1, 1),) * 4, True, True),
    (TateWindow, lambda: TateWindow((0,), {0: free_map()}, {2: {0: (1, 0)}}),
     "selection", (1,), True, False),
    (RunConfig, lambda: RunConfig("facets", "supports/octa.txt"), "seed", 1, True, True),
    (ExteriorAlgebra, algebra, "nvars", 3, True, True),
    (Generator, lambda: Generator(1, (1, 0)), "degree", 2, True, True),
    (GradedFreeModule, module, "generators", (), True, True),
    (FreeModuleMap, free_map, "columns", [{}, {}], False, False),
    (GradedPiece, lambda: GradedPiece(free_map(), 0, ({0: 0}, 1), [], 2, {}), "d", 1,
     False, False),
]


@pytest.mark.parametrize("make, field, other, frozen, hashes",
                         [record[1:] for record in RECORDS],
                         ids=[record[0].__name__ for record in RECORDS])
def test_record_value_semantics(make, field, other, frozen, hashes):
    a, b = make(), make()
    assert a == b and not a != b
    assert copy.copy(a) == a
    if frozen:
        with pytest.raises(AttributeError):
            setattr(a, field, other)
        assert a == b
    else:
        setattr(a, field, other)
        assert getattr(a, field) == other and a != b
    if hashes:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_a_graded_piece_leaves_its_terms_cache_out_of_equality():
    # serving block_columns fills the terms cache of one piece only, and
    # each piece lays out its own pattern tables; equality reads phi and d,
    # which define the rest
    phi = build_phi2(convex_hull_with_facets(OCTA_POINTS), (0, 1, 2, 4))
    a, b = lay_out(phi, 1), lay_out(phi, 1)
    a.block_columns(a.blocks[0][0])
    assert a.terms and not b.terms
    assert a.odd_columns(a.blocks[0][0]) == b.odd_columns(b.blocks[0][0])
    assert a.odd == b.odd and not any(a.odd[j] is b.odd[j] for j in a.odd)
    assert a == b
