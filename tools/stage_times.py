"""Best-of stage timings of the check path on the certify set, per source tree.

Usage: python tools/stage_times.py [--runs N] [--reps R] SRC [SRC ...]

Each SRC is a directory holding the ``oneplane`` package (a checkout's
``src``).  It is copied without its bytecode, and the runs alternate
between the trees, as in ``import_cost.py``, so that a slow spell of the
host hits all of them.  Each run is a fresh interpreter.  It takes the
drawings of the certify workload (YH and XH at k = 3, 4, XM at k = 4..6,
t1 and t2) as ``.1pg`` text and, R times over, parses each one afresh and
times the stages that ``check --maximal --immovable --bounds`` goes
through, in its order:

- ``parse``: ``interchange.parse`` of the text;
- ``underlying``: the drawing's simple graph;
- ``kappa``: ``analyze.vertex_connectivity`` of that graph;
- ``is_triangulation``, ``is_maximal``, ``is_immovable``;
- ``verify_bounds``: what is left of it once the facts above are kept.

The one JSON object printed holds, per tree, each stage's best time per
drawing over all runs and repetitions, summed over the set, in ms, and
the sum of the stages.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

STAGES = ("parse", "underlying", "kappa", "is_triangulation", "is_maximal",
          "is_immovable", "verify_bounds")

PROBE = """\
import json, sys
from time import perf_counter
from oneplane import analyze, interchange, maximality
from oneplane.core import underlying
from oneplane.generators import fixture_path, generate

texts = [interchange.serialize(generate(f, k))
         for f, k in (("yh", 3), ("yh", 4), ("xh", 3), ("xh", 4),
                      ("xm", 4), ("xm", 5), ("xm", 6))]
texts += [fixture_path(t).read_text(encoding="utf-8") for t in ("t1", "t2")]
best = [[float("inf")] * 7 for _ in texts]
for _ in range(int(sys.argv[1])):
    for row, text in zip(best, texts):
        t = [perf_counter()]
        g = interchange.parse(text)
        t.append(perf_counter())
        sg = underlying(g)
        t.append(perf_counter())
        analyze.vertex_connectivity(sg)
        t.append(perf_counter())
        analyze.is_triangulation(g.map)
        t.append(perf_counter())
        maximality.is_maximal(g)
        t.append(perf_counter())
        maximality.is_immovable(g)
        t.append(perf_counter())
        analyze.verify_bounds(g)
        t.append(perf_counter())
        row[:] = map(min, row, [b - a for a, b in zip(t, t[1:])])
print(json.dumps(best))
"""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--reps", type=int, default=20)
    ap.add_argument("src", nargs="+", type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for i, src in enumerate(args.src):
            trees[str(src)] = Path(tmp, str(i))
            shutil.copytree(src, trees[str(src)], ignore=shutil.ignore_patterns("__pycache__"))
        best = {name: None for name in trees}
        for _ in range(args.runs):
            for name, copy in trees.items():
                env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
                out = subprocess.run([sys.executable, "-c", PROBE, str(args.reps)], env=env,
                                     capture_output=True, text=True, check=True).stdout
                rows = json.loads(out)
                if best[name] is not None:
                    rows = [list(map(min, a, b)) for a, b in zip(best[name], rows)]
                best[name] = rows
    report = {}
    for name, rows in best.items():
        stages = {s: round(1000 * sum(col), 3) for s, col in zip(STAGES, zip(*rows))}
        report[name] = {"stages_ms": stages, "total_ms": round(sum(stages.values()), 3)}
    print(json.dumps({"runs": args.runs, "reps": args.reps, "trees": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
