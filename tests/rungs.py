"""The pinned instances, one row each, and the one check every row takes.

check(name) hulls the row's support, asserts the selection that
best_selection(Q, seed=0) gives, builds the window twice in one process
(the second build reads the tables the first one left) and checks the
window and matrix digests after each, the blocks each build's covers
hand to kernel_vectors and those of them that reach block_kernel, both
counted by (cover, degree), and certifies exactness once. It prints one
line of wall and CPU times, both counts and peak RSS, and only then
asserts that the window's two compositions vanish (composes_to_zero), so
the ceiling measures the build alone. It fails naming the row and the
check.
Tier-1 runs the rows without a peak-RSS ceiling (test_golden.py); CI runs
each other row in its own process, with pytest not imported:

    PYTHONPATH=src:tests python tests/rungs.py box24

box18 also checks initial forms (test_initial_forms.py) on the first
build's matrix, after the peak RSS is read.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import resource
import sys
import time
from collections import Counter
from dataclasses import dataclass

from detform import exterior
from detform.bracket import apply_U4, export_matrix
from detform.exterior import GradedPiece
from detform.lattice import convex_hull_with_facets
from detform.shelling import best_selection
from detform.tate import TateWindow, build_window, check_exactness, window_dump


def digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()[:16]


def box(*sides: int) -> tuple:
    return tuple(itertools.product(*map(range, sides)))


@dataclass(frozen=True)
class Rung:
    points: tuple
    selection: tuple[int, ...]
    window: str  # digest of window_dump
    matrix: str  # digest of the exported U4 matrix
    # blocks a build's covers hand to kernel_vectors, by (cover, degree):
    # the middle cover reduces phi_2, the left cover the middle map
    fallbacks: dict[tuple[str, int], int]
    # those of them whose signed kernel fails, which block_kernel reduces
    reduced: dict[tuple[str, int], int]
    ceiling: int | None = None  # peak RSS in MB; a row with one runs in CI
    initial_forms: bool = False


RUNGS = {
    "cube": Rung(box(2, 2, 2), (0, 1, 4), "f0710d057a4fb249", "392586e8fd7e4ea4",
                 {("left", -4): 6, ("middle", 0): 6}, {}),
    "octahedron": Rung(((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                        (0, 0, -1)), (0, 1, 2, 4), "22b805c2197eae7e", "a3ff0bed791d37e6",
                       {("left", -4): 10, ("left", -1): 1, ("middle", -3): 1, ("middle", 0): 10},
                       {}),
    # the 3x2x2 box (N=12): the largest weight blocks tier-1 can afford
    "box12": Rung(box(3, 2, 2), (0, 1, 4), "5ec2edb4a2141b51", "6db4d8901b747966",
                  {("left", -4): 12, ("middle", 0): 12}, {}),
    # 3x3x2 (N=18): degree -3 positions up to C(18, 5) = 8,568; a build takes
    # 1-2 s CPU on a 2-core machine, initial forms 24-29 s (bracket.evaluate)
    "box18": Rung(box(3, 3, 2), (0, 1, 4), "9438d59e126dd587", "012267aa9cc99edf",
                  {("left", -4): 20, ("left", -1): 4, ("middle", 0): 36}, {("left", -4): 6},
                  ceiling=60, initial_forms=True),
    # 3Δ (N=20): 78 blocks the mod-2 certificate cannot clear; 1-5 s CPU a build
    "simplex3": Rung(tuple(p for p in box(4, 4, 4) if sum(p) <= 3), (0, 1),
                     "4db2b26e7c6f4a20", "87263e5a18a48a72",
                     {("left", -4): 35, ("left", -1): 4, ("middle", -3): 4, ("middle", 0): 35},
                     {("left", -4): 7}, ceiling=90),
    # 4x3x2 (N=24): the middle map's degree -4 piece sends 30 blocks of
    # 106,108 columns to kernel_vectors, 10 of them on to block_kernel;
    # 4-6 s CPU a build
    "box24": Rung(box(4, 3, 2), (0, 1, 4), "666ca55d4ada41df", "54d01976fa6478a2",
                  {("left", -4): 30, ("left", -1): 6, ("middle", 0): 54},
                  {("left", -4): 10}, ceiling=180),
}


def composes_to_zero(w: TateWindow) -> bool:
    """True if maps[2] ∘ maps[1] and maps[1] ∘ maps[0] are zero, composed by
    FreeModuleMap.compose. The build never composes: kernel_vectors proves
    each cover column a kernel vector over block keys, so this also checks the
    keys' translation back to (generator, subset) coordinates."""
    return not any(w.maps[2].compose(w.maps[1]).columns) and \
        not any(w.maps[1].compose(w.maps[0]).columns)


def fallback_blocks(build) -> tuple[TateWindow, dict[tuple[str, int], int],
                                   dict[tuple[str, int], int]]:
    """build()'s window, the blocks its covers hand to kernel_vectors and
    those of them that reach block_kernel, each counted by (cover, degree)."""
    handed, reduced = [], []
    kernel_vectors, block_kernel = GradedPiece.kernel_vectors, exterior.block_kernel

    def counted(piece, ids, products=()):
        handed.append((id(piece.phi), piece.d))
        return kernel_vectors(piece, ids, products)

    def reducing(src_ids, columns, products=()):
        reduced.append(handed[-1])
        return block_kernel(src_ids, columns, products)

    GradedPiece.kernel_vectors, exterior.block_kernel = counted, reducing
    try:
        w = build()
    finally:
        GradedPiece.kernel_vectors, exterior.block_kernel = kernel_vectors, block_kernel
    cover = {id(w.maps[2]): "middle", id(w.maps[1]): "left"}
    return w, *(dict(sorted(Counter((cover[phi], d) for phi, d in calls).items()))
                for calls in (handed, reduced))


def clocks() -> tuple[float, float]:
    return time.perf_counter(), time.process_time()


def since(start: tuple[float, float]) -> str:
    """Wall and CPU seconds since start, a reading of clocks()."""
    wall, cpu = (now - then for now, then in zip(clocks(), start))
    return f"{wall:.2f} s ({cpu:.2f} s CPU)"


def check(name: str) -> None:
    row, what = RUNGS[name], "selection"
    try:
        Q = convex_hull_with_facets(row.points)
        selection = best_selection(Q, seed=0).selection
        assert selection == row.selection, f"{selection}, not {row.selection}"
        built = []
        for repeat in range(2):
            what = f"build {repeat + 1}"
            start = clocks()
            w, fallbacks, reduced = fallback_blocks(lambda: build_window(Q, row.selection))
            shown = [", ".join(f"{cover} {d}: {n}" for (cover, d), n in counts.items())
                     for counts in (fallbacks, reduced)]
            built.append(f"{since(start)} [fallback blocks {shown[0]}; reduced {shown[1]}]")
            what = f"fallback blocks of build {repeat + 1}"
            assert fallbacks == row.fallbacks, fallbacks
            what = f"reduced blocks of build {repeat + 1}"
            assert reduced == row.reduced, reduced
            what = f"window digest after build {repeat + 1}"
            assert digest(window_dump(w)) == row.window, digest(window_dump(w))
            what = f"matrix digest after build {repeat + 1}"
            matrix = apply_U4(w.maps[0])
            assert digest(export_matrix(matrix)) == row.matrix, digest(export_matrix(matrix))
            if not repeat:
                what, first, start = "exactness", matrix, clocks()
                check_exactness(w)
                exact = since(start)
                del w  # the second build must not hold the first window: peak RSS is per build
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{name}: build {built[0]}, again {built[1]}, exactness {exact},"
              f" peak RSS {rss:.0f} MB")
        what = "peak RSS"
        assert row.ceiling is None or rss <= row.ceiling, \
            f"{rss:.0f} MB above the {row.ceiling} MB ceiling"
        # the second window's digest is the first's, so its maps are the first's
        what = "compositions"
        assert composes_to_zero(w), "a composition of the window's maps is not zero"
        if row.initial_forms:
            what = "initial forms"
            from test_initial_forms import check_initial_forms
            start = time.perf_counter()
            top = check_initial_forms(first, seed=0)
            print(f"{name}: initial forms in {time.perf_counter() - start:.2f} s, highest term"
                  f" {'checked' if top else 'skipped: upper hull no triangulation'}")
    except Exception as err:
        raise AssertionError(f"rung {name}: {what}: {err}") from err


if __name__ == "__main__":
    check(sys.argv[1])
