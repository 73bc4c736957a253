"""Benchmark of oneplane's CLI paths: certify, fuzz-large, roundtrip.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports oneplane from ``src/``.
A run sets up the workload, then repeats whole passes over its instance set
until the next pass would end after ``--seconds``, always at least two.
The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics:

- ``instances_per_s``: operations of one pass divided by the sum over its
  operations of each one's best time across the run's passes (README.md
  says why the best and not the median);
- ``setup_s``: median of seven set-ups (importing oneplane and building the
  inputs), this process's own and six in fresh interpreters;
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` it holds per-layer metrics from spans recorded around
oneplane's public functions, on passes that alternate with as many untraced
ones (see spans.py and README.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 6
MIN_PASSES = 2
SCALING_LABELS = ("yh3", "yh4", "xh3", "xh4")
# Per-layer metrics: span name + "calls" (per operation), "self_s" (self
# seconds per operation) or "<label>.s" (inclusive seconds per call on one
# certify instance).  generators.generate runs during set-up only; its
# self_s is per operation of one pass.
PER_LAYER = (
    "maximality.min_redraw_crossings.self_s", "maximality.min_redraw_crossings.calls",
    "build.finish.self_s", "build.finish.calls",
    "core.validate.self_s", "core.validate.calls",
    "core.faces.self_s", "core.faces.calls",
    "maximality.is_immovable.calls", "maximality.is_maximal.calls",
    "analyze.vertex_connectivity.calls", "analyze.connectivity_at_least.calls",
    "analyze.vertex_connectivity.self_s", "analyze.degree_profile.self_s",
    "maximality.insertion_candidates.self_s", "maximality.insertion_candidates.calls",
    "maximality.apply_insertion.self_s", "maximality.apply_insertion.calls",
    "generators.gen_random_seed.self_s",
    "transform.skeleton.self_s", "transform.skeleton.calls", "transform.dual.calls",
    "interchange.parse.self_s", "interchange.parse.calls",
    "interchange.serialize.self_s", "interchange.to_dot.self_s",
    "generators.generate.self_s",
) + tuple(f"{span}.{label}.s" for span in ("maximality.is_immovable",
                                            "analyze.vertex_connectivity")
          for label in SCALING_LABELS)


def setup(workload: str, seed: int, work: Path, recorder=None):
    """Import oneplane and build the workload's inputs: (workload, seconds).
    With a recorder, spans are recorded from just after the import."""
    def after_import():
        if recorder is not None:
            recorder.label = "setup"
            recorder.install()
    t0 = perf_counter()
    wl = WORKLOADS[workload]()
    wl.setup(seed, work, after_import)
    dt = perf_counter() - t0
    if recorder is not None:
        recorder.uninstall()
    return wl, dt


def probe_setup(workload: str, seed: int, work: Path) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--probe-setup", str(work)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def best_pass(passes: list[list[float]]) -> float:
    """Sum over operations of each one's best time across passes."""
    return sum(min(op) for op in zip(*passes))


def layer_metrics(recorder, traced_ops: int, ops_per_pass: int, overhead: float) -> dict:
    by_name: dict[str, list] = {}
    setup_self: dict[str, float] = {}
    by_label = {}
    for (name, label), (calls, incl, self_s) in recorder.totals().items():
        if label == "setup":
            setup_self[name] = setup_self.get(name, 0.0) + self_s
            continue
        acc = by_name.setdefault(name, [0, 0.0])
        acc[0] += calls
        acc[1] += self_s
        by_label[(name, label)] = (calls, incl)
    out = {}
    for metric in PER_LAYER:
        span, _, stat = metric.rpartition(".")
        if stat == "s":
            span, _, label = span.rpartition(".")
            calls, incl = by_label.get((span, label), (0, 0.0))
            out[metric] = {"value": incl / calls if calls else 0.0, "unit": "s"}
        elif span == "generators.generate":
            out[metric] = {"value": setup_self.get(span, 0.0) / ops_per_pass, "unit": "s"}
        else:
            calls, self_s = by_name.get(span, (0, 0.0))
            value = calls / traced_ops if stat == "calls" else self_s / traced_ops
            out[metric] = {"value": value, "unit": "count" if stat == "calls" else "s"}
    out["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "oneplane").is_dir():
        # never measure some other installed copy of the package
        sys.exit(f"error: no oneplane sources under {ROOT / 'src'}")

    if args.probe_setup:
        probe_work = Path(args.probe_setup) / "probe"
        probe_work.mkdir(exist_ok=True)
        _, dt = setup(args.workload, args.seed, probe_work)
        print(repr(dt))
        return 0

    work = HERE / "_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    recorder = spans.Recorder() if args.trace else None
    wl, setup_time = setup(args.workload, args.seed, work, recorder)
    setup_times = [setup_time]
    if not args.trace:
        setup_times += [probe_setup(args.workload, args.seed, work)
                        for _ in range(SETUP_PROBES)]
    wl.expect()

    def no_mark(name):
        pass

    def mark(name):
        recorder.label = name

    untraced, traced = [], []      # per pass: each operation's seconds
    attempted = failed = 0
    problems: list[str] = []
    elapsed = 0.0
    while True:
        trace_this = bool(args.trace) and len(untraced) > len(traced)
        if trace_this:
            recorder.install()
        gc.collect()
        outputs, times = wl.run_pass(mark if trace_this else no_mark)
        if trace_this:
            recorder.uninstall()
            traced.append(times)
        else:
            untraced.append(times)
        f, p = wl.check(outputs, first=attempted == 0)
        attempted += wl.ops
        failed += f
        problems += p
        elapsed += sum(times)
        # a traced run stops after a traced pass, so that both kinds of pass
        # are equally many and their best times compare like with like
        if len(untraced) + len(traced) >= MIN_PASSES \
                and (not args.trace or len(traced) == len(untraced)) \
                and elapsed + max(map(sum, untraced + traced)) > args.seconds:
            break

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if args.trace:
        overhead = 100.0 * (best_pass(traced) / best_pass(untraced) - 1)
        metrics = layer_metrics(recorder, len(traced) * wl.ops, wl.ops, overhead)
        recorder.dump(work.parent / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "instances_per_s": {"value": wl.ops / best_pass(untraced), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
