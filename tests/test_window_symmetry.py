"""Oracle sweep: the window of a polytope moved by a lattice automorphism.

A signed axis permutation P and a translation t map Q onto PQ + t and each
facet normal n onto Pn. Everything the window predicts from lattice points
must move along: generator counts and the matrix size stay, and a point of
kQ moves to P p + k t.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from detform.ehrhart import ehrhart_pair, predicted_size
from detform.lattice import affine_rank, convex_hull_with_facets, lattice_points_scaled
from detform.shelling import best_selection
from detform.tate import build_window, point_of

from conftest import facet_index

# Dilation k of the points each window degree stands for: term 2 is 4Q,
# term 1 is 3Q, term 0 is 2Q and dual Q, term -1 is Q and dual 2Q.
DILATION = {2: 4, 1: 3, 0: 2, -1: 1, -3: 1, -4: 2}

small_supports = st.lists(st.tuples(*[st.integers(0, 2)] * 3),
                          min_size=4, max_size=8, unique=True)
signed_permutations = st.tuples(st.permutations(range(3)),
                                st.tuples(*[st.sampled_from((-1, 1))] * 3))
translations = st.tuples(*[st.integers(-3, 3)] * 3)


def _points_by_degree(w):
    out = {}
    for module in w.terms.values():
        for g in module.generators:
            out.setdefault(g.degree, set()).add(point_of(g))
    return out


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(small_supports, signed_permutations, translations)
def test_window_moves_with_lattice_automorphisms(points, signed_perm, t):
    assume(affine_rank(points) == 3)
    Q = convex_hull_with_facets(points)
    assume(len(lattice_points_scaled(Q, 1)) <= 8)
    perm, signs = signed_perm

    def P(x):
        return tuple(s * x[p] for s, p in zip(signs, perm))

    Q2 = convex_hull_with_facets([tuple(c + s for c, s in zip(P(x), t)) for x in points])
    sel = best_selection(Q).selection
    sel2 = tuple(sorted(facet_index(Q2, P(Q.facets[i].normal)) for i in sel))

    w, w2 = build_window(Q, sel), build_window(Q2, sel2)
    counts = w.generator_counts()
    assert w2.generator_counts() == counts
    size = predicted_size(ehrhart_pair(Q, sel))
    assert predicted_size(ehrhart_pair(Q2, sel2)) == size
    # the matrix has a column per degree -4 generator, four per degree -1 one
    assert counts[-1].get(-4, 0) + 4 * counts[-1].get(-1, 0) == size
    moved = {d: {tuple(c + DILATION[d] * s for c, s in zip(P(m), t)) for m in pts}
             for d, pts in _points_by_degree(w).items()}
    assert moved == _points_by_degree(w2)
