"""Deterministic constructions of the extremal drawing families, the three
face-triangulation operations, seeded random bases for fuzzing, and the
paths of the bundled fixtures.

Ring constructions: H(k) stacks concentric cycles C4, C8, ..., C(2^(k+1))
with two radial edges per inner vertex; consecutive inner vertices share an
outer target, so each ring gap is tiled by alternating triangles and
quadrangles.  HH(k) glues two mirrored copies of H(k) along a ring of new
degree-4 vertices.  All faces are triangles or quadrangles and no two faces
of the same size are adjacent, which forces the triangle/quadrangle counts
used by the crossing-number identities.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from itertools import accumulate
from operator import itemgetter

from .build import DrawingBuilder
from .core import OnePlaneGraph, OperationError


# ---------------------------------------------------------------------------
# Face operations (single-face public API)
# ---------------------------------------------------------------------------

def _face(g: OnePlaneGraph, face_index: int) -> list[int]:
    """The walk of face ``face_index`` of ``g.map.face_walks``."""
    walks = g.map.face_walks
    if not 0 <= face_index < len(walks):
        raise OperationError("UNKNOWN_FACE", f"no face {face_index}")
    return list(walks[face_index])


def k1_triangulate(g: OnePlaneGraph, face_index: int) -> OnePlaneGraph:
    """Insert a new vertex inside the face, joined to every boundary vertex."""
    walk = _face(g, face_index)
    vertices = tuple(g.map.dart_vertex[d] for d in walk)
    if len(set(vertices)) != len(vertices) or len(vertices) < 3:
        raise OperationError("BOUNDARY_NOT_SIMPLE",
                             f"face {face_index} boundary {vertices}")
    if any(g.map.is_fake(v) for v in vertices):
        raise OperationError("BOUNDARY_NOT_SIMPLE",
                             f"face {face_index} touches a crossing")
    b = DrawingBuilder.from_graph(g)
    b.cone(walk)
    return b.finish()


def tx_triangulate(g: OnePlaneGraph, face_index: int,
                   first_diagonal: int = 0) -> OnePlaneGraph:
    """Insert a pair of crossing diagonals into a quadrangular face."""
    walk = _face(g, face_index)
    b = DrawingBuilder.from_graph(g)
    b.cross_quad(walk, first_diagonal=first_diagonal)
    return b.finish()


def k2_triangulate(g: OnePlaneGraph, face_index: int,
                   anchor: int = 0) -> OnePlaneGraph:
    """Insert an adjacent pair x,y inside a quadrangular face, joined to the
    four boundary vertices with six edges so the face is triangulated
    without crossings.  ``anchor`` picks the corner adjacent to both."""
    walk = _face(g, face_index)
    b = DrawingBuilder.from_graph(g)
    _k2_on_builder(b, walk, anchor)
    return b.finish()


def _k2_on_builder(b: DrawingBuilder, walk, anchor: int) -> tuple[int, int]:
    """Returns the two new vertex ids (x adjacent to corners a,a+1,a+2 and
    y adjacent to corners a+2,a+3,a and x)."""
    if err := b.quad_error(walk, diagonals=False):
        raise err
    a = anchor % 4
    first = b.cone(walk, corners=[a, (a + 1) % 4, (a + 2) % 4])
    x = first.center
    # remaining face: (corner a+2, corner a+3, corner a, x)
    s_a = first.spokes[0][0]
    t_mid = first.spokes[2][1]
    rest = [walk[(a + 2) % 4], walk[(a + 3) % 4], s_a, t_mid]
    second = b.cone(rest)
    return x, second.center


# ---------------------------------------------------------------------------
# Ring tables for H(k), HH(k) and M(k)
# ---------------------------------------------------------------------------

def _ring_table(sizes, out, into):
    """Rotation-ordered neighbor lists of concentric cycles of the given
    sizes, innermost first, numbered ring by ring.

    Vertex i of a ring is joined to vertices ``out(i)`` of the next ring,
    its next ring neighbor, vertices ``into(i)`` of the previous ring and
    its previous ring neighbor, in that rotation order; indices are taken
    modulo the size of the ring they name.
    """
    starts = [0, *accumulate(sizes)]
    table = []
    for j, size in enumerate(sizes):
        for i in range(size):
            rot = []
            if j + 1 < len(sizes):
                rot += [starts[j + 1] + t % sizes[j + 1] for t in out(i)]
            rot.append(starts[j] + (i + 1) % size)
            if j > 0:
                rot += [starts[j - 1] + s % sizes[j - 1] for s in into(i)]
            rot.append(starts[j] + (i - 1) % size)
            table.append(rot)
    return table


def _h_table(k: int):
    """H(k)'s rings of 4, 8, ..., 2^(k+1) vertices.  Ring vertex i connects
    to next-ring vertices 2i and 2i+2, so consecutive inner vertices share
    the outer target 2i+2 (triangle) and each inner vertex spans the outer
    path 2i..2i+2 (quadrangle)."""
    _require_k(k)
    return _ring_table([2 ** (j + 2) for j in range(k)],
                       lambda i: (2 * i, 2 * i + 2),
                       lambda i: () if i % 2 else (i // 2, i // 2 - 1))


def gen_H(k: int) -> OnePlaneGraph:
    """The plane ring graph H(k); H(1) is the plain 4-cycle."""
    return DrawingBuilder.from_neighbors(_h_table(k)).finish()


def gen_HH(k: int) -> OnePlaneGraph:
    """Two mirrored copies of H(k) glued along a ring of new vertices, each
    joined to the two nearest periphery vertices of both copies."""
    return _hh(k).finish()


def _hh(k: int) -> DrawingBuilder:
    table_a = _h_table(k)
    n_h, size = len(table_a), 2 ** (k + 1)
    per = range(n_h - size, n_h)            # the outer ring of H(k)
    z0 = 2 * n_h

    def b_of(v: int) -> int:
        return v + n_h

    def z_of(i: int) -> int:
        return z0 + (i % size)

    table = [list(rot) for rot in table_a]
    # mirrored copy: reversed rotations keep the gluing orientable
    table += [[b_of(w) for w in reversed(rot)] for rot in table_a]
    table += [[] for _ in range(size)]

    for i, v in enumerate(per):
        # periphery of copy A gains z(i-1), z(i) around the outside
        table[v] = [z_of(i)] + table[v] + [z_of(i - 1)]
        rot_b = table[b_of(v)]
        table[b_of(v)] = [z_of(i - 1)] + rot_b + [z_of(i)]
    for i in range(size):
        table[z_of(i)] = [per[i], b_of(per[i]),
                          b_of(per[(i + 1) % size]), per[(i + 1) % size]]
    return DrawingBuilder.from_neighbors(table)


def _require_k(k: int) -> None:
    if k < 1:
        raise OperationError("BAD_PARAMETER", f"k must be >= 1, got {k}")


# ---------------------------------------------------------------------------
# XH(k) and YH(k)
# ---------------------------------------------------------------------------

def _quad_first_diagonal(vs, deg) -> int:
    """Canonical diagonal orientation for a batch of crossing insertions:
    the first-inserted diagonal, which the default skeleton keeps (it
    removes the larger id of each crossing pair), is the one whose
    endpoint degrees ``deg`` in the base drawing are smallest.  This
    realizes the low-degree spanning triangulation the connectivity
    criteria need."""
    key0 = (deg[vs[0]] + deg[vs[2]], min(vs[0], vs[2]))
    key1 = (deg[vs[1]] + deg[vs[3]], min(vs[1], vs[3]))
    return 0 if key0 <= key1 else 1


def _triangulate_all(b: DrawingBuilder, triangles: bool) -> DrawingBuilder:
    """Cross every quadrangle, and cone every triangle if ``triangles``."""
    deg = [len(rot) for rot in b.rotations]
    # recorded walks stay valid: each operation only touches corners of its
    # own face
    for walk in b.face_walks():
        vs = [b.dart_vertex[d] for d in walk]
        if len(vs) == 4:
            b.cross_quad(walk, first_diagonal=_quad_first_diagonal(vs, deg))
        elif triangles and len(vs) == 3:
            b.cone(walk)
    return b


def gen_XH(k: int) -> OnePlaneGraph:
    """Crossing diagonals in every quadrangle of HH(k)."""
    return _triangulate_all(_hh(k), triangles=False).finish()


def gen_YH(k: int) -> OnePlaneGraph:
    """Crossing diagonals in every quadrangle and a cone vertex in every
    triangle of HH(k)."""
    return _triangulate_all(_hh(k), triangles=True).finish()


# ---------------------------------------------------------------------------
# M(k) and XM(k)
# ---------------------------------------------------------------------------

def gen_M(k: int) -> OnePlaneGraph:
    """The prism C4 x P_k drawn as k concentric quadrangles."""
    return _m(k).finish()


def _m(k: int) -> DrawingBuilder:
    _require_k(k)
    return DrawingBuilder.from_neighbors(
        _ring_table([4] * k, lambda i: (i,), lambda i: (i,)))


def gen_XM(k: int) -> OnePlaneGraph:
    """Triangulated prism: an adjacent pair in the innermost quadrangle,
    crossing diagonals in the outermost, a cone vertex in each intermediate
    quadrangle, and one diagonal added across each triangulated quadrangle
    (crossing the lowest-id spoke)."""
    _require_k(k)
    if k == 1:
        return _xm1()
    b = _m(k)
    cone_centers = []
    for walk in b.face_walks():
        quad = [b.dart_vertex[d] for d in walk]
        rings = {v // 4 for v in quad}
        if rings == {0}:
            a = _lowest_diagonal_anchor(quad)
            k2_pair = (_k2_on_builder(b, walk, a), quad, a)
        elif rings == {k - 1}:
            b.cross_quad(walk, first_diagonal=_lowest_diagonal_anchor(quad))
        else:
            cone_centers.append((b.cone(walk), quad))

    # diagonal across the adjacent pair of the innermost quadrangle
    (x, y), quad, a = k2_pair
    _insert_crossing_diagonal(b, quad[a], quad[(a + 2) % 4], (x, y))
    # One diagonal per intermediate quadrangle, crossing the spoke at the
    # quad's cyclically-first inner-ring corner.  Cutting the cone vertex
    # off from the two boundary edges at that corner blocks, over all
    # quads, every insertion between neighboring cone vertices.
    for cone_res, quad in cone_centers:
        pos = _first_inner_corner(quad)
        u, v = quad[(pos - 1) % 4], quad[(pos + 1) % 4]
        _insert_crossing_diagonal(b, u, v, (cone_res.center, quad[pos]))
    return b.finish()


def _xm1() -> OnePlaneGraph:
    """The 6-vertex instance: the two quadrangles of C4 x P1 coincide on the
    ring, so the generic inner/outer treatments would collide on diagonals.
    Instead, cone one face of the plane K4 on each side and reconnect each
    new vertex across the opposite diagonal, giving the same counts."""
    b = _xm1_base()
    for tri, far, crossed in (({0, 1, 2}, 3, (0, 2)), ({0, 1, 3}, 2, (1, 3))):
        walk = next(w for w in b.face_walks()
                    if {b.dart_vertex[d] for d in w} == tri)
        _insert_crossing_diagonal(b, b.cone(walk).center, far, crossed)
    return b.finish()


def gen_M_triangulated(k: int) -> OnePlaneGraph:
    """The plane triangulation on the prism's own vertices: M(k) plus one
    diagonal drawn inside each quadrangle (no crossings).  Orientation of
    the diagonals matches gen_XM, so for k >= 2 the degree sequence is
    6^(4k-8) 5^4 4^4."""
    _require_k(k)
    if k == 1:
        return _xm1_base().finish()
    b = _m(k)
    for walk in b.face_walks():
        quad = [b.dart_vertex[d] for d in walk]
        if len({v // 4 for v in quad}) == 1:       # innermost or outermost
            a = _lowest_diagonal_anchor(quad)
            b.insert_edge_one_face(walk, quad[a], quad[(a + 2) % 4])
        else:
            pos = _first_inner_corner(quad)
            b.insert_edge_one_face(walk, quad[(pos - 1) % 4], quad[(pos + 1) % 4])
    return b.finish()


def _first_inner_corner(quad) -> int:
    """Position, in an intermediate prism quadrangle's vertex cycle, of its
    cyclically-first inner-ring corner."""
    inner = [v for v in quad if v // 4 == min(w // 4 for w in quad)]
    first = inner[0] if (inner[0] % 4 + 1) % 4 == inner[1] % 4 else inner[1]
    return quad.index(first)


def _xm1_base() -> DrawingBuilder:
    b = DrawingBuilder.from_neighbors([[3, 1], [0, 2], [1, 3], [2, 0]])
    b.insert_edge_one_face(b.face_walk_from(0), 0, 2)
    b.insert_edge_one_face(b.face_walk_from(b.opposite[0]), 1, 3)
    return b


def _lowest_diagonal_anchor(vs) -> int:
    return 0 if min(vs[0], vs[2]) < min(vs[1], vs[3]) else 1


def _insert_crossing_diagonal(b: DrawingBuilder, u: int, v: int,
                              crossed: tuple[int, int]) -> None:
    """Insert edge u-v, smaller endpoint first, across the uncrossed edge
    joining the pair ``crossed``."""
    b.insert_edge_crossing(min(u, v), max(u, v), b.edge_between(*crossed))


# ---------------------------------------------------------------------------
# Family bookkeeping
# ---------------------------------------------------------------------------

_GENERATORS = {
    "h": gen_H, "hh": gen_HH, "xh": gen_XH, "yh": gen_YH,
    "m": gen_M, "xm": gen_XM,
}
FAMILIES = tuple(_GENERATORS)


def generate(family: str, k: int) -> OnePlaneGraph:
    if family not in _GENERATORS:
        raise OperationError("BAD_PARAMETER", f"unknown family {family!r}")
    return _GENERATORS[family](k)


def expected_stats(family: str, k: int) -> dict:
    """Closed-form n / crossings / size per family."""
    _require_k(k)
    two = 2 ** (k + 1)
    if family == "h":
        n = 2 ** (k + 2) - 4
        return {"n": n, "crossings": 0, "size": 2 * n - 4}
    if family == "hh":
        n = 5 * two - 8
        return {"n": n, "crossings": 0, "size": 3 * n - 6 - (3 * two - 6)}
    if family == "xh":
        n, cr = 5 * two - 8, 3 * two - 6
    elif family == "yh":
        n, cr = 9 * two - 16, 3 * two - 6
    elif family == "m":
        n = 4 * k
        return {"n": n, "crossings": 0, "size": 8 * k - 4}
    elif family == "xm":
        n, cr = 8 * k - 2, 4 * k - 2
    else:
        raise OperationError("BAD_PARAMETER", f"unknown family {family!r}")
    return {"n": n, "crossings": cr, "size": 3 * n - 6 + cr}


# ---------------------------------------------------------------------------
# Seeded random bases for fuzzing
# ---------------------------------------------------------------------------

def gen_random_seed(n: int, seed: int) -> OnePlaneGraph:
    """Deterministic random drawing on exactly n vertices.

    Either a stacked plane triangulation or a cycle filled with cone
    insertions, optionally with crossing diagonals in quadrangular faces.
    The output is a validated (usually non-maximal) drawing to feed the
    saturation fuzzer.
    """
    if n < 4:
        raise OperationError("BAD_PARAMETER", f"need n >= 4, got {n}")
    rng = random.Random(seed)
    if rng.random() < 0.5:
        base = [[2, 1], [0, 2], [1, 0]]        # triangle
        start = 3
    else:
        m = rng.randint(4, min(6, n))
        base = [[(i - 1) % m, (i + 1) % m] for i in range(m)]
        start = m
    b = DrawingBuilder.from_neighbors(base)
    # face walks in ascending order of their minimum dart (rotation order in
    # a fresh builder), each starting there; filling a face (cone or crossing
    # pair) makes each of its darts start a triangle whose other darts are new
    walks = b.face_walks()
    first = itemgetter(0)

    def fill(w, op):
        op(w)
        walks[bisect_left(walks, w[0], key=first)] = b.face_walk_from(w[0])
        for d in w[1:]:
            insort(walks, b.face_walk_from(d), key=first)

    for _ in range(start, n):
        fill(rng.choice(walks), b.cone)
    if rng.random() < 0.6:
        for _ in range(rng.randint(1, 3)):
            quads = [w for w in walks if b.quad_error(w) is None]
            if not quads:
                break
            fill(rng.choice(quads), b.cross_quad)
    return b.finish()


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def fixture_path(name: str):
    """Path of a bundled fixture drawing (``t1`` or ``t2``), or None if the
    file is not shipped."""
    from importlib import resources
    ref = resources.files(__package__) / "fixtures" / f"{name}.1pg"
    return ref if ref.is_file() else None
