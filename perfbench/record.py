"""Record the output digests that benchmark runs are checked against.

    python3 perfbench/record.py 0-49

Rewrites perfbench/digests.json with the export_matrix digest of every
ladder instance, of every corpus instance of each listed seed, and of the
determinants of the first RECORDED_EVALS evaluations of each listed seed's
evaluate stream. Record only from a commit whose output is trusted: every
later run of a recorded seed must reproduce these digests bit for bit.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    df = run.import_detform()
    ladder = wl.ladder_instances()
    matrices = [wl.build_matrix(df, inst) for inst in ladder]
    out = {
        "ladder": {inst.name: wl.digest(df.bracket.export_matrix(m))
                   for inst, m in zip(ladder, matrices)},
        "corpus": {},
        "evaluate": {},
    }
    per_pass = 2 * len(matrices)
    for seed in parse_seeds(argv[0]):
        out["corpus"][str(seed)] = [
            wl.digest(df.bracket.export_matrix(wl.build_matrix(df, inst)))
            for inst in wl.corpus_instances(df, seed)]
        values = []
        for p in range(-(-wl.RECORDED_EVALS // per_pass)):
            for m, kind, draw in wl.eval_pass(seed, p, len(matrices)):
                values.append(wl.digest(str(wl.evaluation(df, matrices[m], kind, draw))))
        out["evaluate"][str(seed)] = values[:wl.RECORDED_EVALS]
        print(f"seed {seed} recorded", file=sys.stderr)
    wl.DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
