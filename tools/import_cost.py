"""What ``import oneplane.cli`` costs a fresh interpreter, per source tree.

Usage: python tools/import_cost.py [--runs N] SRC [SRC ...]

Each SRC is a directory holding the ``oneplane`` package (a checkout's
``src``).  It is copied without its bytecode, and the runs alternate
between the trees, so that a slow spell of the host hits all of them.
The one JSON object printed holds, per tree, medians over N runs of:

- ``import_ms``: wall time of the import, with bytecode cached
  (``bytecode``) and compiled from source with bytecode writing off
  (``source``, as in a fresh checkout under ``PYTHONDONTWRITEBYTECODE=1``);
- ``maxrss_mb``: ``ru_maxrss`` just before and just after the import,
  compiling from source;
- ``self_us``: ``python -X importtime`` self time of each module the
  import loads (those a bare interpreter has not loaded), bytecode cached.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = """\
import json, resource, time
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
t0 = time.perf_counter()
import oneplane.cli
t1 = time.perf_counter()
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps([1000 * (t1 - t0), before / 1024, after / 1024]))
"""


def _run(src: Path, code: str, bytecode: bool, *flags: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, *flags, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


def _self_times(stderr: str, skip: set[str]) -> dict[str, int]:
    out = {}
    for line in stderr.splitlines()[1:]:
        self_us, _, name = line.removeprefix("import time:").split("|")
        if name.strip() not in skip:
            out[name.strip()] = int(self_us)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=15)
    ap.add_argument("src", nargs="+", type=Path)
    args = ap.parse_args(argv)
    bare = set(_self_times(_run(Path(), "pass", True, "-X", "importtime").stderr, set()))
    with tempfile.TemporaryDirectory() as tmp:
        trees = {}
        for i, src in enumerate(args.src):
            trees[str(src)] = {}
            for mode in ("bytecode", "source"):
                copy = Path(tmp, f"{i}-{mode}")
                shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
                trees[str(src)][mode] = copy
            _run(trees[str(src)]["bytecode"], "import oneplane.cli", True)   # writes it
        runs = {name: {"bytecode": [], "source": [], "before": [], "after": [], "self": []}
                for name in trees}
        for _ in range(args.runs):
            for name, copies in trees.items():
                r = runs[name]
                ms, _, _ = json.loads(_run(copies["bytecode"], PROBE, True).stdout)
                r["bytecode"].append(ms)
                ms, before, after = json.loads(_run(copies["source"], PROBE, False).stdout)
                r["source"].append(ms)
                r["before"].append(before)
                r["after"].append(after)
                r["self"].append(_self_times(_run(copies["bytecode"], "import oneplane.cli",
                                                  True, "-X", "importtime").stderr, bare))
    med = statistics.median
    report = {}
    for name, r in runs.items():
        modules = sorted(set().union(*r["self"]))
        report[name] = {
            "import_ms": {"bytecode": round(med(r["bytecode"]), 2),
                          "source": round(med(r["source"]), 2)},
            "maxrss_mb": {"before": round(med(r["before"]), 3),
                          "after": round(med(r["after"]), 3)},
            "self_us": {m: med(s.get(m, 0) for s in r["self"]) for m in modules},
        }
    print(json.dumps({"runs": args.runs, "trees": report}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
