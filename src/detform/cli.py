"""Command line front end.

Every command reads a support file (one lattice point per line), resolves a
facet selection, and writes one JSON object, its first key the --seed value,
to stdout or to --output; predict-size and evaluate print one line of text
instead unless --json or --output is given.  All randomness flows from --seed.

Exit codes: 0 success, else the exit_code of the DetformError raised (see
errors.py), 2 for a file that cannot be read, 6 for a failed verify check,
and 7 for any other exception, a ValueError included: a bug, not bad input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import traceback
from typing import NamedTuple

from .bracket import (
    apply_U4,
    evaluate,
    export_matrix,
    parse_coefficients,
    random_coefficients,
)
from .ehrhart import (
    ehrhart_pair,
    predicted_size,
    resultant_degree,
    size_bounds_report,
    squareness_check,
)
from .errors import (
    DegenerateSpan,
    DetformError,
    InvariantViolation,
    NoDiskSelection,
    NotStabilized,
    ParseError,
    UnsupportedDimension,
)
from .lattice import convex_hull_with_facets, lattice_points_scaled, parse_support
from .linalg import rat_str
from .shelling import (
    best_selection,
    boundary_lattice_count,
    is_disk,
    line_shelling,
    shelling_order_for,
)
from .tate import build_window, check_exactness, window_dump
from .verify import (
    cohomology_profile,
    common_root_system,
    feasibility_dim4,
    feasibility_high_dim,
    high_dim_feasible_selection,
    reduced_cohomology,
)

class RunConfig(NamedTuple):
    command: str
    support_path: str
    shelling: str = "auto"
    coeffs_path: str | None = None
    output_path: str | None = None
    seed: int = 0
    box_radius: int | None = None
    k_range: str = "-2..2"
    roots: int = 5
    dump_tate: bool = False
    as_json: bool = False


def _load_polytope(path: str):
    with open(path) as fh:
        points = parse_support(fh.read())
    return convex_hull_with_facets(points)


def _parse_indices(spec: str, num_facets: int) -> tuple[int, ...]:
    try:
        ids = tuple(int(t) for t in spec[len("indices="):].split(","))
    except ValueError:
        raise ParseError(f"bad facet index list in {spec!r}") from None
    if not all(0 <= i < num_facets for i in ids):
        raise ParseError(f"facet ids in {spec!r} must lie in 0..{num_facets - 1}")
    if len(set(ids)) != len(ids):
        raise ParseError(f"facet ids in {spec!r} repeat")
    return ids


def _resolve_shelling(config: RunConfig, Q):
    """The --shelling selection, once any support but a 3-polytope is refused."""
    if Q.dim != 3:
        raise UnsupportedDimension(
            f"{config.command} needs a 3-polytope; the support spans dimension {Q.dim}")
    spec = config.shelling
    if spec == "auto":
        return best_selection(Q, seed=config.seed)
    if spec.startswith("indices="):
        return shelling_order_for(Q, _parse_indices(spec, Q.num_facets))
    if spec.startswith("direction="):
        try:
            coords, steps = spec[len("direction="):].split(":")
            direction = tuple(int(t) for t in coords.split(","))
            k = int(steps)
        except ValueError:
            raise ParseError(f"bad direction spec {spec!r}") from None
        if len(direction) != Q.dim:
            raise ParseError(f"direction in {spec!r} needs {Q.dim} coordinates")
        if not 1 <= k < Q.num_facets:
            raise ParseError(f"step count in {spec!r} outside 1..{Q.num_facets - 1}")
        return line_shelling(Q, direction, k)
    raise ParseError(f"unknown shelling spec {spec!r}")


def _require_positive(flag: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ParseError(f"{flag} must be at least 1, got {value}")


def _emit(config: RunConfig, payload: dict, text: str | None = None) -> None:
    """Print `text` if given and neither --json nor --output is set; else write
    {"seed": config.seed, **payload} as JSON to --output or stdout."""
    if text is not None and not (config.as_json or config.output_path):
        print(text)
        return
    out = json.dumps({"seed": config.seed, **payload}, indent=2)
    if config.output_path:
        with open(config.output_path, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _diagnose(code: int, exc: Exception, **extra) -> int:
    sys.stderr.write(json.dumps({"error": {
        "code": code,
        "type": type(exc).__name__,
        "message": str(exc),
        **extra,
    }}) + "\n")
    return code


def _cmd_facets(config: RunConfig, Q) -> int:
    _emit(config, {
        "dimension": Q.dim,
        "lattice_points": [list(p) for p in lattice_points_scaled(Q, 1)],
        "vertices": [list(v) for v in Q.vertices],
        "facets": [
            {"id": i, "normal": list(f.normal), "offset": f.offset,
             "vertex_ids": list(f.vertex_ids)}
            for i, f in enumerate(Q.facets)
        ],
    })
    return 0


def _cmd_shell(config: RunConfig, Q) -> int:
    shelling = _resolve_shelling(config, Q)
    sel = shelling.selection
    _emit(config, {
        "selection": list(sel),
        "order": list(shelling.order),
        "steps": [
            {"facet": s.facet_id, "shared_edges": [list(e) for e in s.shared_edges]}
            for s in shelling.steps
        ],
        "is_disk": is_disk(Q, sel),
        "boundary_lattice_count": boundary_lattice_count(Q, sel),
    })
    return 0


def _cmd_predict_size(config: RunConfig, Q) -> int:
    shelling = _resolve_shelling(config, Q)
    pair = ehrhart_pair(Q, shelling)
    size = predicted_size(pair)
    per_poly, total = resultant_degree(pair)
    lower, ceiling = size_bounds_report(pair)
    _emit(config, {
        "selection": list(shelling.selection),
        "predicted_size": size,
        "normalized_volume": per_poly,
        "resultant_degree_total": total,
        "interior_count": pair.interior,
        "boundary_count": pair.boundary,
        "boundary_selected_count": pair.boundary_selected,
        "size_lower_bound": lower,
        "size_ceiling_with_interior": ceiling,
        "square": squareness_check(pair),
    }, text=f"size {size}, normalized volume {per_poly}, degree total {total}")
    return 0


def _build(config: RunConfig, Q):
    shelling = _resolve_shelling(config, Q)
    window = build_window(Q, shelling.selection)
    return shelling, window, apply_U4(window.maps[0])


def _cmd_build_matrix(config: RunConfig, Q) -> int:
    shelling, window, matrix = _build(config, Q)
    out = {
        "selection": list(shelling.selection),
        "support_order": [list(p) for p in matrix.support],
        **export_matrix(matrix),
    }
    if config.dump_tate:
        out["tate_window"] = window_dump(window)
    _emit(config, out)
    return 0


def _cmd_evaluate(config: RunConfig, Q) -> int:
    if not config.coeffs_path:
        raise ParseError("evaluate requires --coeffs FILE")
    shelling, _, matrix = _build(config, Q)
    with open(config.coeffs_path) as fh:
        system = parse_coefficients(fh.read(), expected_points=len(matrix.support))
    det = rat_str(evaluate(matrix, system))
    _emit(config, {
        "selection": list(shelling.selection),
        "support_order": [list(p) for p in matrix.support],
        "determinant": det,
    }, text=det)
    return 0


def _cmd_verify(config: RunConfig, Q) -> int:
    _require_positive("--roots", config.roots)
    _require_positive("--box-radius", config.box_radius)
    rng = random.Random(config.seed)
    sel = _resolve_shelling(config, Q).selection
    matrix = None  # set by window_counts once the window is built

    def built():
        return matrix if matrix is not None else _fail("matrix unavailable")

    def window_counts():
        nonlocal matrix
        window = build_window(Q, sel)
        check_exactness(window)
        matrix = apply_U4(window.maps[0])
        return {str(k): dict(v) for k, v in window.generator_counts().items()}

    def size_agreement():
        want = predicted_size(ehrhart_pair(Q, sel))
        got = getattr(matrix, "size", None)
        return {"size": want} if got == want else _fail(f"matrix size {got}, predicted {want}")

    def middle_cohomology():
        for entry in cohomology_profile(Q, sel, -2, 2, box_radius=config.box_radius):
            if any(entry.dims[1:Q.dim]):
                _fail(f"twist {entry.k} has middle cohomology {entry.dims}")
        return "zero for k in -2..2"

    def root_vanishing():
        M = built()
        for _ in range(config.roots):
            x0 = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(Q.dim))
            det = evaluate(M, common_root_system(M.support, x0, seed=rng.randint(0, 2 ** 31)))
            if det != 0:
                _fail(f"determinant {det} at common root {x0}")
        return f"{config.roots} common-root systems vanish"

    def generic_nonzero():
        M = built()
        if any(evaluate(M, random_coefficients(len(M.support), rng)) != 0 for _ in range(3)):
            return "nonzero on a generic system"
        _fail("determinant vanished on 3 random systems")

    checks = []
    for name, check in (
        ("selection_is_disk", lambda: is_disk(Q, sel) or _fail("not a disk")),
        ("facet_union_contractible", lambda: reduced_cohomology(Q, sel) == (0,) * Q.dim
         or _fail("facet union has reduced homology")),
        ("window_counts_and_exactness", window_counts),
        ("matrix_size_matches_prediction", size_agreement),
        ("middle_cohomology_vanishes", middle_cohomology),
        ("common_root_determinants_vanish", root_vanishing),
        ("generic_determinant_nonzero", generic_nonzero),
    ):
        try:
            checks.append({"name": name, "passed": True, "detail": check()})
        except (DetformError, AssertionError) as exc:
            if getattr(exc, "exit_code", None) == InvariantViolation.exit_code:
                raise  # a bug, not a failed check
            checks.append({"name": name, "passed": False,
                           "detail": f"{type(exc).__name__}: {exc}"})
    all_passed = all(c["passed"] for c in checks)
    _emit(config, {"selection": list(sel), "checks": checks, "all_passed": all_passed})
    return 0 if all_passed else NotStabilized.exit_code


def _fail(message: str):
    raise AssertionError(message)


def _cmd_cohomology(config: RunConfig, Q) -> int:
    _require_positive("--box-radius", config.box_radius)
    try:
        lo, hi = config.k_range.split("..")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ParseError(f"bad twist range {config.k_range!r}") from None
    if lo > hi:
        raise ParseError(f"empty twist range {config.k_range!r}")
    shelling = _resolve_shelling(config, Q)
    entries = cohomology_profile(Q, shelling.selection, lo, hi,
                                 box_radius=config.box_radius)
    _emit(config, {
        "selection": list(shelling.selection),
        "entries": [
            {"k": e.k, "cohomology_dims": list(e.dims),
             "box_radius": e.box_radius, "stabilized": e.stabilized}
            for e in entries
        ],
    })
    return 0


def _cmd_feasibility(config: RunConfig, Q) -> int:
    if Q.dim == 3:
        try:
            out = {"feasible": True, "selection": list(_resolve_shelling(config, Q).selection)}
        except NoDiskSelection as exc:
            out = {"feasible": False, "detail": str(exc)}
    elif Q.dim == 4:
        feasible, witness = feasibility_dim4(Q)
        out = {"feasible": feasible, "witness_facet": witness}
    elif Q.dim >= 5 and config.shelling.startswith("indices="):
        ids = _parse_indices(config.shelling, Q.num_facets)
        try:
            out = {"feasible": feasibility_high_dim(Q, ids), "selection": list(ids)}
        except NoDiskSelection as exc:
            out = {"feasible": False, "detail": str(exc), "selection": list(ids)}
    elif Q.dim >= 5:
        sel = high_dim_feasible_selection(Q)
        out = {"feasible": sel is not None, "selection": list(sel) if sel else None}
    else:
        raise DegenerateSpan(f"feasibility undefined in dimension {Q.dim}")
    _emit(config, {"dimension": Q.dim, **out})
    return 0


_COMMANDS = {
    "facets": _cmd_facets,
    "shell": _cmd_shell,
    "predict-size": _cmd_predict_size,
    "build-matrix": _cmd_build_matrix,
    "evaluate": _cmd_evaluate,
    "verify": _cmd_verify,
    "cohomology": _cmd_cohomology,
    "feasibility": _cmd_feasibility,
}


def run(config: RunConfig) -> int:
    try:
        Q = _load_polytope(config.support_path)
        return _COMMANDS[config.command](config, Q)
    except DetformError as exc:
        return _diagnose(exc.exit_code, exc)
    except (OSError, UnicodeDecodeError) as exc:
        return _diagnose(ParseError.exit_code, exc)
    except Exception as exc:  # a bug: diagnosed with its type and origin, not a traceback
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return _diagnose(InvariantViolation.exit_code, exc,
                         where=f"{frame.filename}:{frame.lineno} in {frame.name}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detform",
        description="Exact determinantal resultant matrices for trivariate "
                    "Laurent systems sharing a Newton polytope.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("facets", "hull, facet normals, and lattice points of a support file"),
        ("shell", "resolve and certify a partial shelling"),
        ("predict-size", "matrix size and resultant degree from counting"),
        ("build-matrix", "construct the bracket matrix as JSON"),
        ("evaluate", "substitute a coefficient file and print the determinant"),
        ("verify", "run the independent oracle suite"),
        ("cohomology", "divisor cohomology dimensions over a twist range"),
        ("feasibility", "determinantal-formula feasibility for the input"),
    ):
        # unset options stay out of the namespace, so RunConfig holds every default
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("support_path", metavar="support",
                       help="path to a support point file")
        p.add_argument("--shelling", help="auto | indices=i1,i2,... | direction=x,y,z:k")
        p.add_argument("--seed", type=int)
        p.add_argument("--output", dest="output_path", metavar="OUTPUT",
                       help="write JSON here instead of stdout")
        p.add_argument("--json", dest="as_json", action="store_true",
                       help="structured output for commands that default to text")
        if name == "build-matrix":
            p.add_argument("--dump-tate", action="store_true",
                           help="include the resolution window in the output")
        if name == "evaluate":
            p.add_argument("--coeffs", dest="coeffs_path", metavar="COEFFS", required=True,
                           help="coefficient file: 4 rows of rationals")
        if name == "verify":
            p.add_argument("--roots", type=int,
                           help="number of common-root systems to test")
        if name in ("verify", "cohomology"):
            p.add_argument("--box-radius", type=int)
        if name == "cohomology":
            p.add_argument("--k-range", help="twist range a..b")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**vars(args))


def _merge_dash_values(argv: list[str]) -> list[str]:
    # argparse reads a space-separated "-2..2" as an option flag, so fold the
    # value into --k-range= form before parsing
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if (token == "--k-range" and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            merged.append(f"--k-range={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def main(argv=None) -> None:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(_merge_dash_values(list(argv)))
    sys.exit(run(config_from_args(args)))


if __name__ == "__main__":
    main()
