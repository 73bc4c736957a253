"""Whether the tests kill every mutant of the committed catalogue.

Usage: python tools/mutants.py

The catalogue, ``tools/mutants.json``, is a list of mutants.  Each one
names a file of this repository, a snippet that occurs in it exactly once,
the snippet's replacement, and the pytest node that should fail on the
mutated code.  For each mutant, the repository (without ``.git`` and
without bytecode) is copied to a temporary directory, the snippet is
replaced, and the named test runs there.  Only if it passes does tier-1
run (``pytest -x``); a mutant that passes both survives.

A mutant is stale when its snippet does not occur exactly once, or when
its test is not among those tier-1 collects on the unmutated tree.  Stale
mutants are not run.

The one JSON object printed gives each mutant's result (``killed``,
``killed by tier-1``, ``survived`` or ``stale``) and lists the stale and
surviving ones.  The exit code is 1 when any is stale or survives, else 0.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = Path(__file__).resolve().parent / "mutants.json"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "_work")
ENV = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
PYTEST = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]


def _pytest(tree: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([*PYTEST, *args], cwd=tree, env=ENV, capture_output=True, text=True)


def _collected(tmp: Path) -> set[str]:
    """The node ids that tier-1 collects on an unmutated copy."""
    tree = Path(tmp, "unmutated")
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    return set(_pytest(tree, "--collect-only").stdout.splitlines())


def _run(mutant: dict, tmp: Path) -> str:
    tree = Path(tmp, "mutant")
    shutil.copytree(ROOT, tree, ignore=IGNORE)
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace(mutant["snippet"], mutant["replacement"]), encoding="utf-8")
    try:
        if _pytest(tree, mutant["test"]).returncode:
            return "killed"
        return "killed by tier-1" if _pytest(tree, "-x").returncode else "survived"
    finally:
        shutil.rmtree(tree)


def main() -> int:
    mutants = json.loads(CATALOGUE.read_text(encoding="utf-8"))
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        collected = _collected(Path(tmp))
        for m in mutants:
            source = ROOT / m["file"]
            fresh = (source.is_file() and m["test"] in collected
                     and source.read_text(encoding="utf-8").count(m["snippet"]) == 1)
            results.append({"name": m["name"], "test": m["test"],
                            "result": _run(m, Path(tmp)) if fresh else "stale"})
    stale = [r["name"] for r in results if r["result"] == "stale"]
    survived = [r["name"] for r in results if r["result"] == "survived"]
    print(json.dumps({"mutants": results, "stale": stale, "survived": survived}, indent=1))
    return 1 if stale or survived else 0


if __name__ == "__main__":
    sys.exit(main())
