"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload roundtrip --seeds 1-10 [--trace 1]

Prints, per metric, the median, the quartiles (statistics.quantiles, n=4)
and the distance between the quartiles as a share of the median, then the
share of failed operations of every run.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=int,
                    default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    results = []
    for seed in range(lo, hi + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True, cwd=HERE.parent)
        result = json.loads(proc.stdout.splitlines()[-1])
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':45} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>10}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:45} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:10.2%}")
    shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in results})
    print("correct:", all(r["correct"] for r in results), " failed/attempted:", shares)
    return 0


if __name__ == "__main__":
    sys.exit(main())
