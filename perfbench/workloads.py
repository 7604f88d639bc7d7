"""Inputs, operations and correctness checks of the detform benchmark.

Every input is drawn from the run's seed. Operations call the library
through module attributes (``df.tate.build_window``), looked up at call time,
so that the traced run's wrappers see every call.

An operation fails when it raises, when an independent oracle rejects its
output, or when its output differs from the digest recorded for the same
seed in ``digests.json`` (fixed seeds must give bit-identical output).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path

DIGESTS = Path(__file__).with_name("digests.json")

# The N-ladder: cube (N=8), octahedron (N=7), twice the standard simplex
# (N=10). The 3x2x2 box (N=12) is left out: one certified build takes about
# 47 s on a 2-core machine, too long to repeat in every benchmark run.
LADDER = (
    ("cube", tuple((x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1))),
    ("octahedron", ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                    (0, 0, 1), (0, 0, -1))),
    ("simplex2", ((0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2))),
)

CORPUS_SIZE = 25
CORPUS_BOX = 3
# Seed of the acceptance gate's corpus (tests/test_acceptance.py). The
# benchmark's corpus is that corpus, each polytope moved by a symmetry of the
# box [0,3]^3 drawn from the run's seed. Fresh random corpora differed from
# seed to seed by 10% or more in predicted work, even when stratified by
# cost, because the few largest instances set the total; symmetric copies
# keep the work of every seed the same while the inputs, selections and
# matrices still change with the seed.
ACCEPTANCE_SEED = 1729

# Stream positions per seed whose determinant digests are recorded.
RECORDED_EVALS = 60


def digest(value) -> str:
    """Short stable digest of a JSON-ready value or a string."""
    text = value if isinstance(value, str) else json.dumps(
        value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


@dataclass(frozen=True)
class Instance:
    name: str
    points: tuple
    select_seed: int


@dataclass(frozen=True)
class EvalDraw:
    """Inputs of one oracle evaluation: a common root and two system seeds."""

    root: tuple
    common_seed: int
    generic_seed: int


def draw_eval(rng: random.Random) -> EvalDraw:
    root = []
    for _ in range(3):
        if rng.random() < 0.3:
            root.append(f"{rng.choice((-5, -3, -2, 2, 3, 5))}/{rng.randint(2, 7)}")
        else:
            root.append(rng.choice((-3, -2, -1, 1, 2, 3)))
    return EvalDraw(tuple(root), rng.randint(0, 2 ** 31), rng.randint(0, 2 ** 31))


def ladder_instances() -> list[Instance]:
    return [Instance(name, points, 0) for name, points in LADDER]


def cost_model(df, Q, selection) -> dict:
    """N, |kQ off sel| for k = 1..4 and the predicted column count."""
    n = len(df.lattice.lattice_points_scaled(Q, 1))
    off = [len(df.lattice.points_off_facets(Q, k, selection)) for k in range(1, 5)]
    return {"N": n, "off": off,
            "columns": sum(c * comb(n, k) for k, c in enumerate(off, start=1))}


def acceptance_corpus(df) -> list[tuple[Instance, int]]:
    """The acceptance gate's 25 random polytopes with vertices in [0,3]^3,
    each with its predicted column count.

    Same draw and filter as the gate: at most 10 lattice points, at most 90
    points of 4Q off the selection.
    """
    rng = random.Random(ACCEPTANCE_SEED)
    out = []
    while len(out) < CORPUS_SIZE:
        npts = rng.randint(4, 8)
        pts = tuple(sorted({tuple(rng.randint(0, CORPUS_BOX) for _ in range(3))
                            for _ in range(npts)}))
        try:
            Q = df.lattice.convex_hull_with_facets(pts)
        except df.errors.DetformError:
            continue
        if len(df.lattice.lattice_points_scaled(Q, 1)) > 10:
            continue
        select_seed = rng.randint(0, 10 ** 6)
        cost = filtered_cost(df, pts, select_seed)
        if cost is not None:
            out.append((Instance(f"corpus-{len(out)}", pts, select_seed), cost))
    return out


def filtered_cost(df, pts, select_seed: int) -> int | None:
    """Predicted column count, or None when the filter rejects the polytope."""
    Q = df.lattice.convex_hull_with_facets(pts)
    try:
        selection = df.shelling.best_selection(Q, seed=select_seed).selection
    except ValueError:
        return None
    cost = cost_model(df, Q, selection)
    return cost["columns"] if cost["off"][3] <= 90 else None


def box_symmetry(rng: random.Random):
    """A random symmetry of [0,3]^3: permute the axes, reflect some."""
    axes = rng.sample(range(3), 3)
    flips = [rng.random() < 0.5 for _ in range(3)]
    return lambda p: tuple(CORPUS_BOX - p[a] if f else p[a] for a, f in zip(axes, flips))


def corpus_instances(df, seed: int) -> list[Instance]:
    """The acceptance corpus, each polytope moved by a seeded box symmetry.

    A moved polytope may prefer a selection of equal score but other cost;
    such a move is redrawn, so every seed's corpus predicts the same work.
    """
    rng = random.Random(f"corpus:{seed}")
    out = []
    for inst, cost in acceptance_corpus(df):
        while True:
            pts = tuple(sorted(map(box_symmetry(rng), inst.points)))
            if filtered_cost(df, pts, inst.select_seed) == cost:
                break
        out.append(Instance(inst.name, pts, inst.select_seed))
    return out


@dataclass
class BuildOutcome:
    build_s: float
    certify_s: float
    export: dict
    size: int
    predicted: int
    zero_det: object
    generic_det: object


def build(df, inst: Instance):
    """hull -> selection -> window -> U4: (Q, selection, window, matrix)."""
    Q = df.lattice.convex_hull_with_facets(inst.points)
    selection = df.shelling.best_selection(Q, seed=inst.select_seed).selection
    window = df.tate.build_window(Q, selection)
    return Q, selection, window, df.bracket.apply_U4(window.maps[0])


def build_matrix(df, inst: Instance):
    """The uncertified build the evaluate workload does in set-up."""
    return build(df, inst)[3]


def certified_build(df, inst: Instance, draw: EvalDraw, clock=time.perf_counter) -> BuildOutcome:
    """The build and its export, then the certificate: exactness, size
    prediction, one common-root and one generic evaluation."""
    t0 = clock()
    Q, selection, window, matrix = build(df, inst)
    exported = df.bracket.export_matrix(matrix)
    t1 = clock()
    df.tate.check_exactness(window)
    predicted = df.ehrhart.predicted_size(df.ehrhart.ehrhart_pair(Q, selection))
    zero = evaluation(df, matrix, "zero", draw)
    generic = evaluation(df, matrix, "generic", draw)
    t2 = clock()
    return BuildOutcome(t1 - t0, t2 - t1, exported, matrix.size, predicted, zero, generic)


def check_build(out: BuildOutcome, expected_digest: str | None) -> list[str]:
    problems = check_evaluation("zero", out.zero_det, None)
    problems += check_evaluation("generic", out.generic_det, None)
    if out.size != out.predicted:
        problems.append(f"size {out.size} != predicted {out.predicted}")
    if expected_digest is not None and digest(out.export) != expected_digest:
        problems.append("export_matrix differs from the recorded digest")
    return problems


def build_draws(seed: int, p: int, count: int) -> list[EvalDraw]:
    """Oracle inputs for pass p of a ladder or corpus run."""
    rng = random.Random(f"build:{seed}:{p}")
    return [draw_eval(rng) for _ in range(count)]


def eval_pass(seed: int, p: int, nmatrices: int) -> list[tuple[int, str, EvalDraw]]:
    """Pass p of the evaluate stream: (matrix index, kind, draw) triples.

    A pass evaluates every matrix once on a common-root system ("zero") and
    once on a generic one, so half the stream must vanish.
    """
    rng = random.Random(f"evaluate:{seed}:{p}")
    out = []
    for m in range(nmatrices):
        draw = draw_eval(rng)
        out += [(m, "zero", draw), (m, "generic", draw)]
    return out


def evaluation(df, matrix, kind: str, draw: EvalDraw):
    if kind == "zero":
        system = df.verify.common_root_system(matrix.support, draw.root, seed=draw.common_seed)
    else:
        system = df.bracket.random_coefficients(
            len(matrix.support), random.Random(draw.generic_seed))
    return df.bracket.evaluate(matrix, system)


def check_evaluation(kind: str, value, expected_digest: str | None) -> list[str]:
    problems = []
    if kind == "zero" and value != 0:
        problems.append("determinant does not vanish on a common-root system")
    if kind == "generic" and value == 0:
        problems.append("determinant vanishes on a generic system")
    if expected_digest is not None and digest(str(value)) != expected_digest:
        problems.append("determinant differs from the recorded digest")
    return problems
