"""Whether two source trees give the same outputs on one fixed corpus.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the ``oneplane`` package (a checkout's
``src``).  It is copied without its bytecode, as in ``import_cost.py``,
and the whole corpus runs in one fresh interpreter per tree:

- ``generate``, ``check --maximal --immovable --bounds --near-optimal``,
  ``check --near-optimal``, ``stats`` and ``export-dot`` for yh, xh, xm,
  hh and m at k = 1..4, and for the fixtures t1 and t2, each drawing read
  from the file that tree's own ``generate`` wrote;
- five seeded saturations of random seeds, serialized;
- ``fuzz --count 60 --n 6..40 --seed 11`` and
  ``fuzz --count 5 --n 60..80 --seed 1401``;
- κ and ``min_vertex_separator`` of the underlying graph of each drawing
  above, as is and with 1 to 4 random vertices removed (where the rest
  stays connected).

A command's output is its stdout lines, then its stderr lines, then its
exit code.  The one JSON object printed holds the commands run and, for
each command whose outputs differ, the first line where they do.  The
exit code is 1 when any command differs, else 0.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PROBE = """\
import contextlib, io, json, random, sys
from pathlib import Path
from oneplane import analyze, interchange, maximality
from oneplane.cli import main
from oneplane.core import underlying
from oneplane.generators import fixture_path, gen_random_seed

out, drawings = [], []
tmp = Path(sys.argv[1])

# run one command and keep its output lines; return its stdout and exit code
def record(command, run):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = run()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            code = "raised"
    lines = stdout.getvalue().splitlines()
    lines += ["[stderr] " + s for s in stderr.getvalue().splitlines()]
    out.append([command, lines + [f"[exit] {code}"]])
    return stdout.getvalue(), code

def cli(*argv):
    return record(" ".join(argv), lambda: main(list(argv)))

sources = [(f"{f}{k}", ("generate", f, "--k", str(k)))
           for f in ("yh", "xh", "xm", "hh", "m") for k in range(1, 5)]
sources += [(t, ("generate", "fixture", "--path", str(fixture_path(t)))) for t in ("t1", "t2")]
for name, argv in sources:
    text, code = record(f"generate {name}", lambda: main(list(argv)))
    if code != 0:
        continue
    path = tmp / f"{name}.1pg"
    path.write_text(text, encoding="utf-8")
    for cmd, *flags in (["check", "--maximal", "--immovable", "--bounds", "--near-optimal"],
                        ["check", "--near-optimal"], ["stats"], ["export-dot"]):
        record(" ".join([cmd, name, *flags]), lambda: main([cmd, str(path), *flags]))
    drawings.append((name, interchange.load(path)))

for n, seed in [(8, 3), (12, 5), (20, 1), (30, 2), (60, 7)]:
    def saturation(n=n, seed=seed):
        m = maximality.saturate(gen_random_seed(n, seed), maximality.SaturationPolicy.SEEDED, seed)
        sys.stdout.write(interchange.serialize(m))
        drawings.append((f"saturated n={n} seed={seed}", m))
        return 0
    record(f"saturate seeded n={n} seed={seed}", saturation)

cli("fuzz", "--count", "60", "--n", "6..40", "--seed", "11")
cli("fuzz", "--count", "5", "--n", "60..80", "--seed", "1401")

for name, g in drawings:
    sg, rng = underlying(g), random.Random(name)
    graphs = [("", sg)]
    for r in range(1, min(5, sg.order - 1)):
        gone = sorted(rng.sample(sg.vertices, r))
        h = sg.without(gone)
        if h.order >= 2 and h.is_connected():
            graphs.append((f" minus {gone}", h))
    for label, h in graphs:
        def connectivity(h=h):
            print(f"kappa {analyze.vertex_connectivity(h)}")
            print(f"separator {sorted(analyze.min_vertex_separator(h))}")
            return 0
        record(f"kappa {name}{label}", connectivity)
print(json.dumps(out))
"""


def _outputs(src: Path) -> list:
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as files:
        return json.loads(subprocess.run([sys.executable, "-c", PROBE, files], env=env,
                                         capture_output=True, text=True, check=True).stdout)


def _first_difference(a: list, b: list):
    for i in range(max(len(a), len(b))):
        x, y = (a[i] if i < len(a) else None), (b[i] if i < len(b) else None)
        if x != y:
            return {"line": i + 1, "parent": x, "change": y}
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        runs = []
        for i, src in enumerate((args.parent_src, args.change_src)):
            copy = Path(tmp, str(i))
            shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
            runs.append(dict(_outputs(copy)))
    parent, change = runs
    commands = list(dict.fromkeys([*parent, *change]))
    differ = {c: _first_difference(parent.get(c, []), change.get(c, [])) for c in commands}
    differ = {c: d for c, d in differ.items() if d is not None}
    print(json.dumps({"commands": commands, "differ": differ}, indent=1))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
