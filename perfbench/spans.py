"""Span and counter recorder for the benchmark's traced run.

Nothing inside detform is instrumented. The recorder wraps the public
functions and methods of each detform module from the outside, records one
span per call (name, start, end, parent span, operation id) and a few exact
counters, and restores the originals afterwards.

A module that imports a name from another module holds its own binding
(``tate`` imports ``graded_piece`` and ``minimal_free_cover`` from
``exterior``, ``bracket`` imports ``det_bareiss`` from ``linalg``, and so
on). ``install`` therefore rebinds every detform module attribute that refers
to the wrapped object, not only the defining module's, or those calls would
go uncounted.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, span name or None for a call that is only counted).
# Only-counted calls are made thousands of times per build inside an
# enclosing span of the same layer's caller, which already holds their time.
FUNCTIONS = (
    ("lattice", "convex_hull_with_facets", "lattice.hull"),
    ("lattice", "lattice_points_scaled", "lattice.points"),
    ("lattice", "points_off_facets", "lattice.points"),
    ("lattice", "interior_points", "lattice.points"),
    ("shelling", "best_selection", "shelling.select"),
    ("shelling", "is_disk", None),
    ("ehrhart", "ehrhart_pair", "ehrhart.predict"),
    ("ehrhart", "predicted_size", "ehrhart.predict"),
    ("tate", "build_phi2", "tate.phi2"),
    ("tate", "step_left", "tate.covers"),
    ("tate", "check_exactness", "tate.exactness"),
    ("exterior", "minimal_free_cover", "exterior.cover"),
    ("exterior", "graded_piece", "exterior.piece"),
    ("linalg", "det_bareiss", "linalg.det"),
    ("bracket", "apply_U4", "bracket.u4"),
    ("bracket", "export_matrix", "bracket.export"),
    ("bracket", "evaluate", "bracket.evaluate"),
    ("bracket", "bracket_value", None),
    ("verify", "common_root_system", "verify.common_root"),
)
METHODS = (
    ("exterior", "FreeModuleMap", "compose", "exterior.compose"),
    ("exterior", "GradedPiece", "kernel_vectors", "exterior.kernel"),
    ("exterior", "GradedPiece", "rank", "exterior.rank"),
    ("linalg", "Echelon", "insert", "linalg.echelon"),
    ("linalg", "Echelon", "kernel_vector", "linalg.echelon"),
)
COUNTED_CALLS = {
    "lattice.lattice_points_scaled": "lattice.points_calls",
    "lattice.points_off_facets": "lattice.points_calls",
    "lattice.interior_points": "lattice.points_calls",
    "shelling.is_disk": "shelling.is_disk_calls",
    "linalg.det_bareiss": "linalg.det_calls",
    "linalg.Echelon.insert": "linalg.inserts",
    "bracket.bracket_value": "bracket.bracket_values",
}
LAYERS = ("lattice", "shelling", "ehrhart", "tate", "exterior", "linalg",
          "bracket", "verify")


class Tracer:
    """Spans and counters of one traced run, kept in memory.

    A span is ``[name, start, end, parent, op]``; ``parent`` is the index of
    the enclosing span or -1. ``op`` is the benchmark operation the span
    belongs to, so spans of one operation share an identifier.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.times: Counter = Counter()
        self._stack: list[int] = []
        self.op: int | None = None

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def note_max(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    def spanned(self, name: str, fn, after=None):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if after is not None:
                after(result)
            return result
        return wrapper

    def counted(self, key: str, fn, after=None):
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _after_piece(self, piece) -> None:
        # graded_piece runs for the covers and again for check_exactness;
        # the enclosing span tells the two apart.
        part = "exactness" if self.inside("tate.exactness") else "cover"
        _, start, end, _, _ = self.spans[-1]  # graded_piece has no child spans
        self.times[f"exterior.piece_s.{part}"] += end - start
        self.counts[f"exterior.pieces.{part}"] += 1
        self.counts["exterior.blocks"] += len(piece.blocks)
        self.note_max("exterior.piece_cols.max", len(piece.source_coords))
        for src_ids, _, _ in piece.blocks:
            self.note_max("exterior.block_cols.max", len(src_ids))

    def _after_insert(self, kept: bool) -> None:
        if kept:
            self.counts["linalg.inserts_kept"] += 1

    def _wrap(self, qualname: str, span: str | None, fn):
        hook = {"exterior.graded_piece": self._after_piece,
                "linalg.Echelon.insert": self._after_insert}.get(qualname)
        if span is not None:
            fn, hook = self.spanned(span, fn, hook), None
        if qualname in COUNTED_CALLS:
            fn = self.counted(COUNTED_CALLS[qualname], fn, hook)
        return fn

    def install(self):
        """Wrap every listed boundary; returns a function that undoes it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "detform" or name.startswith("detform."))]
        undo: list[tuple[object, str, object]] = []
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[f"detform.{mod_name}"], attr)
            wrapped = self._wrap(f"{mod_name}.{attr}", span, original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, name, original))
                        setattr(mod, name, wrapped)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"detform.{mod_name}"], cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self._wrap(f"{mod_name}.{cls_name}.{attr}", span, original))

        def restore() -> None:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
        return restore


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread and nest strictly, so the children of a span
    are disjoint and lie inside it; ``check_nesting`` verifies this.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def check_nesting(spans: list[list], tol: float = 1e-6) -> list[tuple[int, str]]:
    """(operation, problem) pairs: children outside their parents or their
    operation, overlapping siblings."""
    problems = []
    last_end: dict[int, float] = {}
    for i, (name, start, end, parent, op) in enumerate(spans):
        if parent >= 0:
            p = spans[parent]
            if p[4] != op or start < p[1] - tol or end > p[2] + tol:
                problems.append((op, f"span {i} ({name}) leaves its parent {p[0]}"))
        if start < last_end.get(parent, float("-inf")) - tol:
            problems.append((op, f"span {i} ({name}) overlaps its previous sibling"))
        last_end[parent] = end
    return problems


def summarize(spans: list[list], op_walls: dict[int, float], bound: float) -> dict:
    """Inclusive and self time per span name and per layer, and the
    per-operation accounting.

    For every operation, the self times of its spans plus the time spent in
    no span must add up to the operation's measured wall time. The time in
    no span is reported as ``unattributed``; a span tree that counts some
    time twice shows up as self times exceeding the wall time by more than
    ``bound`` times the wall time, and is reported as a problem of that
    operation.
    """
    selfs = self_times(spans)
    inclusive: Counter = Counter()
    own: Counter = Counter()
    op_self: Counter = Counter()
    op_inclusive: dict[int, Counter] = {}
    for s, self_t in zip(spans, selfs):
        inclusive[s[0]] += s[2] - s[1]
        own[s[0]] += self_t
        op_self[s[4]] += self_t
        op_inclusive.setdefault(s[4], Counter())[s[0]] += s[2] - s[1]
    problems: dict[int, list[str]] = {}
    for op, text in check_nesting(spans):
        problems.setdefault(op, []).append(text)
    unattributed = 0.0
    for op, wall in op_walls.items():
        rest = wall - op_self.get(op, 0.0)
        if rest < -bound * wall:
            problems.setdefault(op, []).append(
                f"span self times exceed the wall time by {-rest:.6f} s")
        unattributed += rest
    layer_self: Counter = Counter()
    for name, t in own.items():
        layer_self[name.split(".", 1)[0]] += t
    return {"inclusive": inclusive, "self": own, "layer_self": layer_self,
            "op_inclusive": op_inclusive, "unattributed": unattributed,
            "problems": problems}
