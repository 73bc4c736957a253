"""Command-line surface: generate, check, export-dot, fuzz, stats.

Exit codes: 0 success, 1 a requested check failed, 2 bad parameters or a
parse/validation error.  Output lines are deterministic for fixed inputs
and seeds so reports can be diffed.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import analyze, generators, interchange, maximality
from .core import DrawingError, ValidationError, underlying

CHECK_FAILED = 1
BAD_INPUT = 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        for v in exc.violations:
            print(f"invalid: {v}", file=sys.stderr)
        return BAD_INPUT
    except DrawingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    parser = argparse.ArgumentParser(
        prog="oneplane",
        description="combinatorial 1-plane drawings: generate, verify, export")
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("generate", help="write a family member or fixture")
    p.add_argument("family", choices=generators.FAMILIES + ("fixture", "random"))
    p.add_argument("--k", type=int, default=1, help="family parameter (k >= 1)")
    p.add_argument("--path", help="fixture file to ingest (family=fixture)")
    p.add_argument("--n", type=int, default=8, help="order for family=random")
    p.add_argument("--seed", type=int, default=0, help="seed for family=random")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("check", help="validate a drawing and run checks")
    p.add_argument("path")
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--immovable", action="store_true")
    p.add_argument("--bounds", action="store_true")
    p.add_argument("--near-optimal", action="store_true")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("export-dot", help="write the planarization as DOT")
    p.add_argument("path")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("fuzz", help="saturate seeded drawings, assert invariants")
    p.add_argument("--count", type=int, default=50)
    p.add_argument("--n", default="6..14", help="order range lo..hi")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("stats", help="print summary statistics of a drawing")
    p.add_argument("path")
    p.set_defaults(func=cmd_stats)
    return parser


def cmd_generate(args) -> int:
    if args.family == "fixture":
        if not args.path:
            print("error: family=fixture needs --path", file=sys.stderr)
            return BAD_INPUT
        g = interchange.load(args.path)
    elif args.family == "random":
        g = generators.gen_random_seed(args.n, args.seed)
    else:
        if args.k < 1:
            print(f"error: BAD_PARAMETER: k must be >= 1, got {args.k}",
                  file=sys.stderr)
            return BAD_INPUT
        g = generators.generate(args.family, args.k)
    text = interchange.serialize(g)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"n={g.n} cr={g.crossing_count} E={g.size} -> {args.out}")
    else:
        sys.stdout.write(text)
        print(f"# n={g.n} cr={g.crossing_count} E={g.size}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    g = interchange.load(args.path)
    fs = g.face_set
    kappa = analyze.vertex_connectivity(underlying(g))
    tri = analyze.is_triangulation(g.map)
    print(f"valid n={g.n} cr={g.crossing_count} E={g.size} faces={len(fs)} "
          f"kappa={kappa} triangulated={tri}")
    failed = False

    mx = None
    if args.maximal or args.immovable or args.bounds:
        mx = maximality.is_maximal(g)
        print(f"maximal {'PASS' if mx.is_maximal else 'FAIL'}")
        if not mx.is_maximal:
            w = mx.witness
            print(f"  insertable: {w.u}-{w.v} via {w.kind.value} "
                  f"faces={w.faces} crossing-edge={w.cross_edge}")
            if args.maximal:
                failed = True

    if args.immovable:
        if mx.is_maximal:
            im = maximality.is_immovable(g)
            print(f"immovable {'PASS' if im.is_immovable else 'FAIL'}")
            if not im.is_immovable:
                e, redraw = im.witness
                print(f"  edge {e} redrawable with {redraw.crossings} crossings")
                failed = True
        else:
            print("immovable FAIL (drawing is not maximal)")
            failed = True

    if args.near_optimal:
        rep = analyze.is_near_optimal(g)
        print(f"near-optimal {'PASS' if rep.is_near_optimal else 'FAIL'}")
        for v in rep.violations:
            print(f"  {v}")
        if not rep.is_near_optimal:
            failed = True

    if args.bounds:
        if mx.is_maximal:
            rep = analyze.verify_bounds(g)
            for line in rep.lines():
                print(line)
            if not rep.all_pass:
                failed = True
        else:
            print("bounds FAIL (drawing is not maximal)")
            failed = True

    return CHECK_FAILED if failed else 0


def cmd_export_dot(args) -> int:
    g = interchange.load(args.path)
    text = interchange.to_dot(g)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return BAD_INPUT
    else:
        sys.stdout.write(text)
    return 0


def cmd_fuzz(args) -> int:
    try:
        lo, hi = (int(x) for x in args.n.split(".."))
    except ValueError:
        print(f"error: bad range {args.n!r}, expected lo..hi", file=sys.stderr)
        return BAD_INPUT
    if args.count < 1 or lo < 4 or hi < lo:
        print("error: need count >= 1 and 4 <= lo <= hi", file=sys.stderr)
        return BAD_INPUT
    violations = 0
    for i in range(args.count):
        seed = args.seed + i
        n = lo + (seed % (hi - lo + 1))
        g = generators.gen_random_seed(n, seed)
        m = maximality.saturate(g, maximality.SaturationPolicy.SEEDED, seed=seed)
        bad = analyze.property_suite(m)
        for b in bad:
            print(f"violation seed={seed} n={n}: {b}")
            violations += 1
    print(f"fuzz: {args.count} instances, {violations} violations")
    return CHECK_FAILED if violations else 0


def cmd_stats(args) -> int:
    g = interchange.load(args.path)
    fs = g.face_set
    ug = underlying(g)
    prof = analyze.degree_profile(ug)
    kappa = analyze.vertex_connectivity(ug)
    print(f"n {g.n}")
    print(f"crossings {g.crossing_count}")
    print(f"edges {g.size}")
    print(f"kappa {kappa}")
    print(f"faces {len(fs)}")
    print(f"triangulated {analyze.is_triangulation(g.map)}")
    hist = " ".join(f"{k}:{v}" for k, v in prof.histogram.items())
    print(f"degrees {hist}")
    print(f"lambda {prof.lambda1} {prof.lambda2} {prof.lambda3}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
