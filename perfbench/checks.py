"""Output checks that do not rely on oneplane's own analysis code.

Expected values come from closed forms, from the paper's inequalities
re-evaluated here in exact arithmetic, from a brute-force insertion search
over face walks traced here from the raw rotation system, and from counting
lines of the program's text output.  Every checker returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations

# Connectivity each construction states, and the bound row it meets with
# equality (the family is extremal for that row).
KAPPA = {"yh": 3, "xm": 4, "xh": 6, "t": 7}
TIGHT = {"yh": ("cr-k3", "size-k3"), "xm": ("cr-k4", "size-k4"),
         "xh": ("cr-k56", "size-k56"), "t": ("cr-k7", "size-k7")}
FIXTURES = {"t1": (24, 18), "t2": (56, 42)}      # (n, crossings)


def family_counts(family: str, k: int) -> tuple[int, int, int]:
    """Closed-form (n, crossings, |E|) of a family member or fixture."""
    if family == "yh":
        n, cr = 9 * 2 ** (k + 1) - 16, 3 * 2 ** (k + 1) - 6
    elif family == "xh":
        n, cr = 5 * 2 ** (k + 1) - 8, 3 * 2 ** (k + 1) - 6
    elif family == "xm":
        n, cr = 8 * k - 2, 4 * k - 2
    else:
        n, cr = FIXTURES[f"t{k}"]
    return n, cr, 3 * n - 6 + cr


# ---------------------------------------------------------------------------
# certify: `check --maximal --immovable --bounds`
# ---------------------------------------------------------------------------

def edges_from_text(text: str) -> list[tuple[int, int]]:
    """Endpoints of every ``e`` record of a .1pg document."""
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "e":
            out.append((int(parts[2]), int(parts[3])))
    return out


def _connected(adj: dict[int, set[int]], removed: set[int]) -> bool:
    rest = [v for v in adj if v not in removed]
    if not rest:
        return True
    seen = {rest[0]}
    todo = [rest[0]]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen and w not in removed:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(rest)


def lambdas(edges: list[tuple[int, int]]) -> tuple[int, int, int]:
    """(lambda1, lambda2, lambda3): vertices of degree 2, of degree 4, and
    of odd degree w with deg(w) <= 9 or G - w 2-connected (checked by
    deleting every second vertex in turn)."""
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    deg = {v: len(ns) for v, ns in adj.items()}
    lam3 = 0
    for w, d in deg.items():
        if d % 2 == 1 and (d <= 9 or all(_connected(adj, {w, x}) for x in adj if x != w)):
            lam3 += 1
    degs = list(deg.values())
    return degs.count(2), degs.count(4), lam3


def bound_lines(n: int, cr: int, m: int, kappa: int,
                lam: tuple[int, int, int]) -> dict[str, str]:
    """Every bound line of an immovable maximal drawing, recomputed."""
    N, C, M = Fraction(n), Fraction(cr), Fraction(m)
    l1, l2, l3 = lam
    g3 = kappa >= 3 and n >= 5
    g4 = kappa >= 4 and n >= 6
    rows = [
        ("cr-k3", g3, C, ">=", (N - 2) / 3),
        ("cr-k4", g4, C, ">=", (N - 2) / 2),
        ("cr-k56", kappa >= 5, C, ">=", (3 * N - 6) / 5),
        ("cr-k7", kappa >= 7, C, ">=", 3 * N / 4),
        ("size-k3", g3, M, ">=", Fraction(10, 3) * (N - 2)),
        ("size-k4", g4, M, ">=", Fraction(7, 2) * (N - 2)),
        ("size-k56", kappa >= 5, M, ">=", Fraction(18, 5) * (N - 2)),
        ("size-k7", kappa >= 7, M, ">=", Fraction(15, 4) * (N - 2) + Fraction(3, 2)),
        ("size-min", n >= 5, M, ">=", Fraction(-(-7 * n // 3) - 3)),
        ("cr-max", n >= 3, C, "<=", N - 2),
        ("cr-max-slack", n >= 3, C, "<=", N - 2 - Fraction(2 * l1 + 2 * l2 + l3, 6)),
    ]
    out = {}
    for bid, applicable, lhs, op, rhs in rows:
        ok = lhs >= rhs if op == ">=" else lhs <= rhs
        status = "PASS" if ok else "FAIL"
        out[bid] = f"{bid} {lhs} {op} {rhs} {status if applicable else 'NOT_APPLICABLE'}"
    return out


def certify_expectation(family: str, k: int, text: str) -> dict:
    """Everything `check --maximal --immovable --bounds` must print for one
    family member (or fixture ``t``/k), given its .1pg text."""
    n, cr, m = family_counts(family, k)
    kappa = KAPPA[family]
    lines = bound_lines(n, cr, m, kappa, lambdas(edges_from_text(text)))
    return {
        "valid": {"n": str(n), "cr": str(cr), "E": str(m),
                  # Euler on the planarization: V = n + cr, E = m + 2cr
                  "faces": str(m + cr - n + 2), "kappa": str(kappa),
                  "triangulated": "True"},
        "bounds": lines,
        "tight": TIGHT[family],
    }


def check_certify(expect: dict, rc, out: str) -> list[str]:
    if rc != 0:
        return [f"exit code {rc}"]
    lines = out.splitlines()
    problems = []
    valid = next((ln for ln in lines if ln.startswith("valid ")), None)
    if valid is None:
        return ["no 'valid' line"]
    fields = dict(tok.split("=", 1) for tok in valid.split()[1:])
    for key, want in expect["valid"].items():
        if fields.get(key) != want:
            problems.append(f"{key}={fields.get(key)}, expected {want}")
    for verdict in ("maximal PASS", "immovable PASS"):
        if verdict not in lines:
            problems.append(f"missing '{verdict}'")
    printed = {ln.split()[0]: ln for ln in lines if ln.split()
               and ln.split()[0] in expect["bounds"]}
    for bid, want in expect["bounds"].items():
        if printed.get(bid) != want:
            problems.append(f"bound line {printed.get(bid)!r}, expected {want!r}")
    for bid in expect["tight"]:
        parts = printed.get(bid, "").split()
        if len(parts) != 5 or Fraction(parts[1]) != Fraction(parts[3]):
            problems.append(f"{bid} not met with equality: {printed.get(bid)!r}")
    return problems


# ---------------------------------------------------------------------------
# fuzz-large: `fuzz` exit status and the saturated drawings it produced
# ---------------------------------------------------------------------------

FUZZ_SUMMARY = re.compile(r"fuzz: (\d+) instances, (\d+) violations")


def check_fuzz_output(rc, out: str, count: int) -> list[str]:
    lines = out.splitlines()
    match = FUZZ_SUMMARY.fullmatch(lines[-1]) if lines else None
    if rc != 0 or match is None or match.groups() != (str(count), "0"):
        return [f"exit code {rc}, summary {lines[-1] if lines else None!r}"]
    return []


def face_boundaries(rotations, opposite, fake) -> tuple[list[set[int]], list[int]]:
    """True-vertex boundary of every face, and the face of every dart,
    traced from the rotation system: the walk successor of dart d is the
    rotation successor of opposite[d]."""
    vertex_of, succ = {}, {}
    for v, rot in enumerate(rotations):
        for i, d in enumerate(rot):
            vertex_of[d] = v
            succ[d] = rot[(i + 1) % len(rot)]
    face_of = [-1] * len(opposite)
    bounds: list[set[int]] = []
    for d0 in range(len(opposite)):
        if face_of[d0] >= 0:
            continue
        b, d = set(), d0
        while face_of[d] < 0:
            face_of[d] = len(bounds)
            if not fake[vertex_of[d]]:
                b.add(vertex_of[d])
            d = succ[opposite[d]]
        bounds.append(b)
    return bounds, face_of


def brute_force_insertable(g) -> tuple[int, int] | None:
    """A non-adjacent true pair that some edge could join (inside one face,
    or through two faces across an uncrossed edge incident to neither end),
    found by trying every pair; None when the drawing is maximal."""
    fake = [kind.value == "fake" for kind in g.map.kinds]
    bounds, face_of = face_boundaries(g.map.rotations, g.map.opposite, fake)
    adjacent = {frozenset((r.u, r.v)) for r in g.edges}
    across = []
    for d, e in enumerate(g.dart_edge):
        o = g.map.opposite[d]
        rec = g.edges[e]
        if d < o and rec.crossing is None and face_of[d] != face_of[o]:
            across.append((bounds[face_of[d]], bounds[face_of[o]], {rec.u, rec.v}))
    true_vertices = [v for v, f in enumerate(fake) if not f]
    for u, v in combinations(true_vertices, 2):
        if frozenset((u, v)) in adjacent:
            continue
        if any(u in b and v in b for b in bounds):
            return u, v
        for b1, b2, ends in across:
            if u in ends or v in ends:
                continue
            if (u in b1 and u not in b2 and v in b2 and v not in b1) or \
               (v in b1 and v not in b2 and u in b2 and u not in b1):
                return u, v
    return None


def check_saturated(g, n: int) -> list[str]:
    problems = []
    if g.n != n:
        problems.append(f"n={g.n}, seed asked for {n}")
    pair = brute_force_insertable(g)
    if pair is not None:
        problems.append(f"not maximal: {pair[0]}-{pair[1]} insertable")
    if g.size < -(-7 * g.n // 3) - 3:
        problems.append(f"|E|={g.size} < ceil(7n/3)-3")
    if g.crossing_count > g.n - 2:
        problems.append(f"cr={g.crossing_count} > n-2")
    return problems


# ---------------------------------------------------------------------------
# roundtrip: parse -> serialize -> to_dot
# ---------------------------------------------------------------------------

DOT_NODE = re.compile(r"\s*n\d+ \[")
DOT_EDGE = re.compile(r"\s*n\d+ -- n\d+ ")


def check_roundtrip(counts: tuple[int, int, int], source, g, text: str, dot: str,
                    reparsed, reserialized) -> list[str]:
    """``counts`` is the drawing's (n, crossings, |E|) and ``source`` the
    drawing the document was written from (None for a fixture file);
    ``g``, ``text`` and ``dot`` are the timed parse, serialize and to_dot
    outputs, and ``reparsed`` / ``reserialized`` are parse(text) and
    serialize(parse(text)), made after the timed pass."""
    n, cr, m = counts
    problems = []
    if (g.n, g.crossing_count, g.size) != counts:
        problems.append(f"parsed counts {(g.n, g.crossing_count, g.size)}, expected {counts}")
    if source is not None and g != source:
        problems.append("parse(serialize(source)) != source")
    if reparsed != g:
        problems.append("parse(serialize(g)) != g")
    if reserialized != text:
        problems.append("serialization not byte-stable")
    lines = dot.splitlines()
    nodes = sum(1 for ln in lines if DOT_NODE.match(ln))
    edges = sum(1 for ln in lines if DOT_EDGE.match(ln))
    if nodes != n + cr or edges != m + 2 * cr:
        problems.append(f"DOT has {nodes} nodes / {edges} edges, "
                        f"expected {n + cr} / {m + 2 * cr}")
    return problems

