"""detform benchmark: one command, three workloads, untraced or traced.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the library is imported from its
``src`` directory. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1`` (see BENCHMARK.json). The lines before it are a report: the
environment stamp, the per-workload metrics under their own names, the cost
model of every instance and the first failures.

All workloads are closed loops: one caller, one process, no threads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib.util import find_spec
from pathlib import Path
from types import SimpleNamespace

import calibrate
import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MODULES = ("errors", "linalg", "lattice", "shelling", "ehrhart", "exterior",
           "tate", "bracket", "verify")
# Set-up runs at least SETUP_REPEATS times, and more while the set-ups so
# far took under SETUP_MIN_S, so that a set-up of milliseconds is measured
# over enough repeats for a steady median.
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 25
# Every run measures at least this many whole passes, so that every
# instance's time is a median of two or more.
MIN_PASSES = 2
# Share of an operation's wall time by which its span self times may exceed
# it before the traced run reports the operation as failed.
ACCOUNTING_BOUND = 0.01


def import_detform() -> SimpleNamespace:
    """Import detform afresh from the checkout; part of every set-up."""
    for name in [n for n in sys.modules if n == "detform" or n.startswith("detform.")]:
        del sys.modules[name]
    package = importlib.import_module("detform")
    if Path(package.__file__).resolve().parent != SRC / "detform":
        raise ImportError(f"detform was imported from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"detform.{m}") for m in MODULES})


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(df, args) -> dict:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count()
    return {
        "python": platform.python_version(),
        "gmpy2": find_spec("gmpy2") is not None,
        "rational_type": f"{df.linalg.QQ.__module__}.{df.linalg.QQ.__name__}",
        "nproc": cpus,
        "machine": platform.machine(),
        "seed": args.seed,
        "commit": git_commit(),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{label}: {'; '.join(problems)}")


def pct(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------- set-up

def setup(workload: str, seed: int, clock=time.perf_counter) -> tuple[SimpleNamespace, dict]:
    """Import plus inputs; for evaluate also the three matrix builds."""
    df = import_detform()
    digests = wl.load_digests()
    state = {"seed": seed}
    if workload == "evaluate":
        insts = wl.ladder_instances()
        start, c0 = time.perf_counter(), clock()
        state["matrices"] = [wl.build_matrix(df, inst) for inst in insts]
        state["build"] = (start, time.perf_counter(), clock() - c0)
        state["names"] = [inst.name for inst in insts]
        state["expected"] = digests["evaluate"].get(str(seed), [])
    else:
        if workload == "ladder":
            insts = wl.ladder_instances()
            expected = [digests["ladder"].get(inst.name) for inst in insts]
        else:
            insts = wl.corpus_instances(df, seed)
            expected = digests["corpus"].get(str(seed), [None] * len(insts))
        state["instances"] = insts
        state["expected"] = expected
    return df, state


def timed_setup(workload: str, seed: int, clock):
    """Repeated set-ups: the last one's result, and (start, end, seconds) of
    every set-up and of every evaluate set-up's builds."""
    setups, builds = [], []
    while len(setups) < SETUP_REPEATS or (
            sum(dt for *_, dt in setups) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS):
        start, c0 = time.perf_counter(), clock()
        df, state = setup(workload, seed, clock)
        setups.append((start, time.perf_counter(), clock() - c0))
        if "build" in state:
            builds.append(state["build"])
    return df, state, setups, builds


# ---------------------------------------------------------------- passes

def run_pass(workload: str, df, state: dict, p: int, tracer=None,
             clock=time.perf_counter) -> list[dict]:
    """One pass over the workload's inputs; returns one record per operation
    with its start and end (``perf_counter``) and its time by ``clock``.

    Pass p of a seed always has the same inputs, so an untraced and a traced
    pass with the same p do the same work.
    """
    records = []
    if workload == "evaluate":
        ops = wl.eval_pass(state["seed"], p, len(state["matrices"]))
        for j, (m, kind, draw) in enumerate(ops):
            if tracer is not None:
                tracer.op = j
            start, c0 = time.perf_counter(), clock()
            try:
                value = wl.evaluation(df, state["matrices"][m], kind, draw)
                problems = None
            except Exception as exc:  # a raising operation is a failed one
                problems = [f"raised {exc!r}"]
            wall, end = clock() - c0, time.perf_counter()
            index = p * len(ops) + j
            if problems is None:
                expected = state["expected"]
                problems = wl.check_evaluation(
                    kind, value, expected[index] if index < len(expected) else None)
            records.append({"op": j, "start": start, "end": end, "wall": wall,
                            "problems": problems,
                            "label": f"eval {index} ({state['names'][m]}, {kind})"})
        return records
    draws = wl.build_draws(state["seed"], p, len(state["instances"]))
    for i, (inst, draw) in enumerate(zip(state["instances"], draws)):
        if tracer is not None:
            tracer.op = i
        start, c0 = time.perf_counter(), clock()
        try:
            out = wl.certified_build(df, inst, draw, clock)
            problems = None
        except Exception as exc:  # a raising operation is a failed one
            out, problems = None, [f"raised {exc!r}"]
        wall, end = clock() - c0, time.perf_counter()
        if problems is None:
            problems = wl.check_build(out, state["expected"][i])
        records.append({"op": i, "start": start, "end": end, "wall": wall,
                        "problems": problems,
                        "label": f"{inst.name} pass {p}",
                        "build": out.build_s if out else None,
                        "certify": out.certify_s if out else None})
    return records


def tally_pass(tally: Tally, records: list[dict]) -> None:
    for r in records:
        tally.record(r["label"], r["problems"])


def pass_wall(records: list[dict]) -> float:
    return sum(r["wall"] for r in records)


# ---------------------------------------------------------------- untraced

def measure(workload: str, df, state: dict, seconds: float, tally: Tally, clock) -> list:
    """Whole passes until their operations have taken ``seconds``."""
    passes = []
    spent = 0.0
    while True:
        records = run_pass(workload, df, state, len(passes), clock=clock)
        spent += pass_wall(records)
        tally_pass(tally, records)
        passes.append(records)
        if spent >= seconds and len(passes) >= MIN_PASSES:
            return passes


def end_to_end(workload: str, passes: list, setups: list, builds: list,
               calibrator: calibrate.Calibrator) -> tuple[dict, dict]:
    """The BENCHMARK.json end-to-end metrics at reference speed (see
    calibrate.py), and the report's raw figures under its own names."""
    def ref(start, end, seconds):
        return seconds * calibrator.scale(start, end)

    records = [r for rs in passes for r in rs]
    raw_ops = [r["wall"] for r in records]
    ref_ops = [ref(r["start"], r["end"], r["wall"]) for r in records]
    if workload == "evaluate":
        build = [statistics.median(b[2] for b in builds),
                 statistics.median(ref(*b) for b in builds)]
        certify = [statistics.median(pass_wall(rs) for rs in passes),
                   statistics.median(sum(ref(r["start"], r["end"], r["wall"]) for r in rs)
                                     for rs in passes)]
        latency = [raw_ops, ref_ops]
        named = {
            "evals_per_s": (len(raw_ops) / sum(raw_ops), "1/s"),
            "eval_ms.p50": (pct(raw_ops, 50) * 1e3, "ms"),
            "eval_ms.p99": (pct(raw_ops, 99) * 1e3, "ms"),
            "eval_ms.samples": (len(raw_ops), "count"),
        }
    else:
        # Each instance's median over passes. The ladder's instances differ
        # sevenfold, so percentiles pooled over operations would depend on
        # how many passes a run completes.
        def per_instance(key: str, scaled: bool) -> list[float]:
            by_inst: dict[int, list[float]] = {}
            for r in records:
                if not r["problems"]:
                    value = ref(r["start"], r["end"], r[key]) if scaled else r[key]
                    by_inst.setdefault(r["op"], []).append(value)
            return [statistics.median(v) for v in by_inst.values()]
        build = [sum(per_instance("build", scaled)) for scaled in (False, True)]
        certify = [sum(per_instance("certify", scaled)) for scaled in (False, True)]
        latency = [per_instance("wall", scaled) for scaled in (False, True)]
        named = {
            "instance_s.p50": (pct(latency[0], 50), "s"),
            "instance_s.p90": (pct(latency[0], 90), "s"),
            "instance_s.samples": (len(records), "count"),
        }
    setup = [statistics.median(s[2] for s in setups), statistics.median(ref(*s) for s in setups)]
    ops = [raw_ops, ref_ops]

    def figures(k: int) -> dict:
        return {
            "setup_s": (setup[k], "s"),
            "build_s": (build[k], "s"),
            "certify_s": (certify[k], "s"),
            "ops_per_s": (len(ops[k]) / sum(ops[k]), "1/s"),
            "op_ms.p90": (pct(latency[k], 90) * 1e3, "ms"),
        }
    metrics = figures(1)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = {f"wall.{name}": value for name, value in figures(0).items()}
    # The median latency is only reported: on ladder and corpus it is one
    # mid-sized instance's median of two samples, too unsteady for a bound.
    raw["wall.op_ms.p50"] = (pct(latency[0], 50) * 1e3, "ms")
    return metrics, {**raw, **named}


# ---------------------------------------------------------------- traced

TIME_SPANS = {
    "lattice.hull_s": "lattice.hull",
    "lattice.points_s": "lattice.points",
    "shelling.select_s": "shelling.select",
    "ehrhart.predict_s": "ehrhart.predict",
    "tate.phi2_s": "tate.phi2",
    "tate.covers_s": "tate.covers",
    "tate.exactness_s": "tate.exactness",
    "exterior.compose_s": "exterior.compose",
    "exterior.kernel_s": "exterior.kernel",
    "exterior.rank_s": "exterior.rank",
    "linalg.det_s": "linalg.det",
    "linalg.echelon_s": "linalg.echelon",
    "bracket.u4_s": "bracket.u4",
    "bracket.export_s": "bracket.export",
    "bracket.evaluate_s": "bracket.evaluate",
    "verify.common_root_s": "verify.common_root",
}
COUNTS = ("lattice.points_calls", "shelling.is_disk_calls", "exterior.pieces.cover",
          "exterior.pieces.exactness", "exterior.blocks", "linalg.inserts",
          "linalg.det_calls", "bracket.bracket_values")
MAXIMA = ("exterior.block_cols.max", "exterior.piece_cols.max")


def traced_pass(workload: str, df, state: dict, p: int):
    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        records = run_pass(workload, df, state, p, tracer)
    finally:
        restore()
    summary = spans.summarize(tracer.spans, {r["op"]: r["wall"] for r in records},
                              ACCOUNTING_BOUND)
    for r in records:
        r["problems"] = r["problems"] + summary["problems"].get(r["op"], [])
    times = {name: summary["inclusive"][span] for name, span in TIME_SPANS.items()}
    times["exterior.cover_s"] = summary["self"]["exterior.cover"]
    for part in ("cover", "exactness"):
        times[f"exterior.piece_s.{part}"] = tracer.times[f"exterior.piece_s.{part}"]
    for layer in spans.LAYERS:
        times[f"{layer}.self_s"] = summary["layer_self"][layer]
    times["trace.unattributed_s"] = summary["unattributed"]
    times["trace.pass_s"] = pass_wall(records)
    counts = {name: tracer.counts[name] for name in COUNTS}
    counts.update({name: tracer.maxima.get(name, 0) for name in MAXIMA})
    counts["linalg.inserts_kept"] = tracer.counts["linalg.inserts_kept"]
    counts["trace.spans"] = len(tracer.spans)
    covers = {r["op"]: summary["op_inclusive"].get(r["op"], {}).get("tate.covers", 0.0)
              for r in records}
    return records, times, counts, covers


def measure_traced(workload: str, df, state: dict, seconds: float, tally: Tally):
    """Untraced and traced passes over the same inputs, alternating."""
    plain, traced, times, counts, covers = [], [], [], [], []
    t0 = time.perf_counter()
    p = 0
    while True:
        records = run_pass(workload, df, state, p)
        tally_pass(tally, records)
        plain.append(pass_wall(records))
        records, t, c, cov = traced_pass(workload, df, state, p)
        tally_pass(tally, records)
        traced.append(pass_wall(records))
        times.append(t)
        counts.append(c)
        covers.append(cov)
        p += 1
        if time.perf_counter() - t0 >= seconds:
            break
    metrics = {name: (statistics.median(t[name] for t in times), "s") for name in times[0]}
    for name, value in counts[0].items():
        if name != "linalg.inserts_kept":
            metrics[name] = (value, "count")
    kept, inserts = counts[0]["linalg.inserts_kept"], counts[0]["linalg.inserts"]
    metrics["linalg.insert_kept_ratio"] = (kept / inserts if inserts else 0.0, "ratio")
    untraced_s = statistics.median(plain)
    metrics["trace.overhead_s"] = (statistics.median(traced) - untraced_s, "s")
    metrics["trace.overhead_ratio"] = (metrics["trace.overhead_s"][0] / untraced_s, "ratio")
    detail = {
        "traced_passes": len(traced),
        "untraced_pass_s": untraced_s,
        "counts_repeat": all(c == counts[0] for c in counts),
        "covers_s": {op: statistics.median(c[op] for c in covers) for op in covers[0]},
    }
    return metrics, detail


# ---------------------------------------------------------------- report

def cost_table(df, state: dict, covers_s: dict | None) -> list[dict]:
    rows = []
    for i, inst in enumerate(state.get("instances", [])):
        Q = df.lattice.convex_hull_with_facets(inst.points)
        selection = df.shelling.best_selection(Q, seed=inst.select_seed).selection
        row = {"instance": inst.name, **wl.cost_model(df, Q, selection)}
        if covers_s is not None:
            row["tate.covers_s"] = covers_s[i]
        rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("ladder", "corpus", "evaluate"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "detform" / "__init__.py").is_file():
        print(f"error: no detform sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    tally = Tally()
    try:
        if args.trace:  # per-layer times are raw; no set-up time, no calibration
            df, state = setup(args.workload, args.seed)
            metrics, detail = measure_traced(args.workload, df, state, args.seconds, tally)
        else:
            with calibrate.Calibrator() as calibrator:
                df, state, setups, builds = timed_setup(
                    args.workload, args.seed, calibrator.clock)
                passes = measure(args.workload, df, state, args.seconds, tally,
                                 calibrator.clock)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = {"environment": environment(df, args)}
    if args.trace:
        report.update(detail)
        covers = detail["covers_s"]
    else:
        metrics, named = end_to_end(args.workload, passes, setups, builds, calibrator)
        report["passes"] = len(passes)
        report["calibration"] = {
            "samples": len(calibrator.samples),
            "kernel_s.p50": statistics.median(calibrator.samples),
            "kernel_reference_s": calibrate.KERNEL_REFERENCE_S}
        report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
        covers = None
    report["fail_frac"] = tally.failed / tally.attempted
    report["failures"] = tally.reasons
    report["cost_model"] = cost_table(df, state, covers)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
