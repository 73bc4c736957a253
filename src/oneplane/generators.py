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
from operator import itemgetter

from .build import DrawingBuilder
from .core import (
    OnePlaneGraph,
    OperationError,
    VertexKind,
)
from .maximality import InsertionCandidate, RouteKind, apply_insertion


# ---------------------------------------------------------------------------
# Face operations (single-face public API)
# ---------------------------------------------------------------------------

def k1_triangulate(g: OnePlaneGraph, face_index: int) -> OnePlaneGraph:
    """Insert a new vertex inside the face, joined to every boundary vertex."""
    f = g.face_set[face_index]
    if len(f.boundary) != len(f.vertices) or len(f.vertices) < 3:
        raise OperationError("BOUNDARY_NOT_SIMPLE",
                             f"face {face_index} boundary {f.vertices}")
    if any(g.map.is_fake(v) for v in f.vertices):
        raise OperationError("BOUNDARY_NOT_SIMPLE",
                             f"face {face_index} touches a crossing")
    b = DrawingBuilder.from_graph(g)
    b.cone(list(f.darts))
    return b.graph()


def tx_triangulate(g: OnePlaneGraph, face_index: int,
                   first_diagonal: int = 0) -> OnePlaneGraph:
    """Insert a pair of crossing diagonals into a quadrangular face."""
    f = g.face_set[face_index]
    b = DrawingBuilder.from_graph(g)
    b.cross_quad(list(f.darts), first_diagonal=first_diagonal)
    return b.graph()


def k2_triangulate(g: OnePlaneGraph, face_index: int,
                   anchor: int = 0) -> OnePlaneGraph:
    """Insert an adjacent pair x,y inside a quadrangular face, joined to the
    four boundary vertices with six edges so the face is triangulated
    without crossings.  ``anchor`` picks the corner adjacent to both."""
    f = g.face_set[face_index]
    b = DrawingBuilder.from_graph(g)
    _k2_on_builder(b, list(f.darts), anchor)
    return b.graph()


def _k2_on_builder(b: DrawingBuilder, walk, anchor: int) -> tuple[int, int]:
    """Returns the two new vertex ids (x adjacent to corners a,a+1,a+2 and
    y adjacent to corners a+2,a+3,a and x)."""
    if len(walk) != 4:
        raise OperationError("FACE_NOT_QUAD", f"face walk has length {len(walk)}")
    vs = [b.dart_vertex[d] for d in walk]
    if len(set(vs)) != 4 or any(b.kinds[v] is VertexKind.FAKE for v in vs):
        raise OperationError("BOUNDARY_NOT_SIMPLE",
                             f"need 4 distinct true boundary vertices, got {vs}")
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
# Ring tables for H(k) and HH(k)
# ---------------------------------------------------------------------------

def _h_rings(k: int):
    """Vertex ids per ring: ring j (0-based) has 2^(j+2) vertices."""
    rings = []
    nxt = 0
    for j in range(k):
        size = 2 ** (j + 2)
        rings.append(list(range(nxt, nxt + size)))
        nxt += size
    return rings


def _h_neighbor_table(k: int):
    """Rotation-ordered neighbor lists of H(k).

    Radials: ring-j vertex i connects to ring-(j+1) vertices 2i and 2i+2,
    so consecutive inner vertices share the outer target 2i+2 (triangle)
    and each inner vertex spans the outer path 2i..2i+2 (quadrangle).
    """
    rings = _h_rings(k)
    table = [[] for _ in range(sum(len(r) for r in rings))]
    for j, ring in enumerate(rings):
        size = len(ring)
        for i, v in enumerate(ring):
            nxt = ring[(i + 1) % size]
            prv = ring[(i - 1) % size]
            rot = []
            if j + 1 < k:
                outer = rings[j + 1]
                rot.append(outer[(2 * i) % len(outer)])
                rot.append(outer[(2 * i + 2) % len(outer)])
            rot.append(nxt)
            if j > 0 and i % 2 == 0:
                inner = rings[j - 1]
                rot.append(inner[(i // 2) % len(inner)])
                rot.append(inner[(i // 2 - 1) % len(inner)])
            rot.append(prv)
            table[v] = rot
    return table, rings


def gen_H(k: int) -> OnePlaneGraph:
    """The plane ring graph H(k); H(1) is the plain 4-cycle."""
    _require_k(k)
    table, _ = _h_neighbor_table(k)
    return DrawingBuilder.from_neighbors(table).graph()


def gen_HH(k: int) -> OnePlaneGraph:
    """Two mirrored copies of H(k) glued along a ring of new vertices, each
    joined to the two nearest periphery vertices of both copies."""
    _require_k(k)
    table_a, rings = _h_neighbor_table(k)
    n_h = len(table_a)
    per = rings[-1]
    size = len(per)
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
    return DrawingBuilder.from_neighbors(table).graph()


def _require_k(k: int) -> None:
    if k < 1:
        raise OperationError("BAD_PARAMETER", f"k must be >= 1, got {k}")


# ---------------------------------------------------------------------------
# XH(k) and YH(k)
# ---------------------------------------------------------------------------

def _quad_first_diagonal(g: OnePlaneGraph, face) -> int:
    """Canonical diagonal orientation for a batch of crossing insertions:
    the first-inserted (hence skeleton-kept, under the default LEX_MAX
    removal) diagonal is the one whose endpoint degrees in the base drawing
    are smallest.  This realizes the low-degree spanning triangulation the
    connectivity criteria need."""
    vs = face.vertices
    deg = [g.map.degree(v) for v in vs]
    key0 = (deg[0] + deg[2], min(vs[0], vs[2]))
    key1 = (deg[1] + deg[3], min(vs[1], vs[3]))
    return 0 if key0 <= key1 else 1


def _triangulate_all(g: OnePlaneGraph, quads: bool, triangles: bool) -> OnePlaneGraph:
    fs = g.face_set
    b = DrawingBuilder.from_graph(g)
    # recorded walks stay valid: each operation only touches corners of its
    # own face
    for f in fs:
        if quads and f.is_quadrangle():
            b.cross_quad(list(f.darts), first_diagonal=_quad_first_diagonal(g, f))
        elif triangles and f.is_triangle():
            b.cone(list(f.darts))
    return b.graph()


def gen_XH(k: int) -> OnePlaneGraph:
    """Crossing diagonals in every quadrangle of HH(k)."""
    return _triangulate_all(gen_HH(k), quads=True, triangles=False)


def gen_YH(k: int) -> OnePlaneGraph:
    """Crossing diagonals in every quadrangle and a cone vertex in every
    triangle of HH(k)."""
    return _triangulate_all(gen_HH(k), quads=True, triangles=True)


# ---------------------------------------------------------------------------
# M(k) and XM(k)
# ---------------------------------------------------------------------------

def gen_M(k: int) -> OnePlaneGraph:
    """The prism C4 x P_k drawn as k concentric quadrangles."""
    _require_k(k)
    table = []
    for r in range(k):
        for i in range(4):
            nxt = 4 * r + (i + 1) % 4
            prv = 4 * r + (i - 1) % 4
            rot = []
            if r + 1 < k:
                rot.append(4 * (r + 1) + i)
            rot.append(nxt)
            if r > 0:
                rot.append(4 * (r - 1) + i)
            rot.append(prv)
            table.append(rot)
    return DrawingBuilder.from_neighbors(table).graph()


def gen_XM(k: int) -> OnePlaneGraph:
    """Triangulated prism: an adjacent pair in the innermost quadrangle,
    crossing diagonals in the outermost, a cone vertex in each intermediate
    quadrangle, and one diagonal added across each triangulated quadrangle
    (crossing the lowest-id spoke)."""
    _require_k(k)
    if k == 1:
        return _xm1()
    g = gen_M(k)
    fs = g.face_set
    ring0 = frozenset(range(4))
    ring_last = frozenset(range(4 * (k - 1), 4 * k))

    b = DrawingBuilder.from_graph(g)
    k2_pair = None
    cone_centers = []
    for f in fs:
        # for k=1 the two faces share the ring vertex set: the first is the
        # innermost quadrangle, the second the outermost
        if f.boundary == ring0 and k2_pair is None:
            a = _lowest_diagonal_anchor(f.vertices)
            k2_pair = (_k2_on_builder(b, list(f.darts), a), f.vertices, a)
        elif f.boundary == ring_last:
            b.cross_quad(list(f.darts),
                         first_diagonal=_lowest_diagonal_anchor(f.vertices))
        else:
            cone_centers.append((b.cone(list(f.darts)), f.vertices))

    g = b.graph()
    # diagonal across the adjacent pair of the innermost quadrangle
    (x, y), quad, a = k2_pair
    g = _insert_crossing_diagonal(g, quad[a], quad[(a + 2) % 4], (x, y))
    # One diagonal per intermediate quadrangle, crossing the spoke at the
    # quad's cyclically-first inner-ring corner.  Cutting the cone vertex
    # off from the two boundary edges at that corner blocks, over all
    # quads, every insertion between neighboring cone vertices.
    for cone_res, quad in cone_centers:
        pos = _first_inner_corner(quad)
        u, v = quad[(pos - 1) % 4], quad[(pos + 1) % 4]
        g = _insert_crossing_diagonal(g, u, v, (cone_res.center, quad[pos]))
    return g


def _xm1() -> OnePlaneGraph:
    """The 6-vertex instance: the two quadrangles of C4 x P1 coincide on the
    ring, so the generic inner/outer treatments would collide on diagonals.
    Instead, cone one face of the plane K4 on each side and reconnect each
    new vertex across the opposite diagonal, giving the same counts."""
    g = _xm1_base()

    def cone_and_cross(g, tri, far, crossed):
        fs = g.face_set
        fi = next(f.index for f in fs if f.boundary == frozenset(tri))
        g = k1_triangulate(g, fi)
        return _insert_crossing_diagonal(g, g.map.n_vertices - 1, far, crossed)

    g = cone_and_cross(g, (0, 1, 2), 3, (0, 2))
    g = cone_and_cross(g, (0, 1, 3), 2, (1, 3))
    return g


def gen_M_triangulated(k: int) -> OnePlaneGraph:
    """The plane triangulation on the prism's own vertices: M(k) plus one
    diagonal drawn inside each quadrangle (no crossings).  Orientation of
    the diagonals matches gen_XM, so for k >= 2 the degree sequence is
    6^(4k-8) 5^4 4^4."""
    _require_k(k)
    g = gen_M(k)
    if k == 1:
        return _xm1_base()
    fs = g.face_set
    ring0 = frozenset(range(4))
    ring_last = frozenset(range(4 * (k - 1), 4 * k))
    b = DrawingBuilder.from_graph(g)
    for f in fs:
        walk, quad = list(f.darts), list(f.vertices)
        if f.boundary == ring0 or f.boundary == ring_last:
            a = _lowest_diagonal_anchor(quad)
            b.insert_edge_one_face(walk, a, (a + 2) % 4)
        else:
            pos = _first_inner_corner(quad)
            b.insert_edge_one_face(walk, (pos - 1) % 4, (pos + 1) % 4)
    return b.graph()


def _first_inner_corner(quad) -> int:
    """Position, in an intermediate prism quadrangle's vertex cycle, of its
    cyclically-first inner-ring corner."""
    inner = [v for v in quad if v // 4 == min(w // 4 for w in quad)]
    first = inner[0] if (inner[0] % 4 + 1) % 4 == inner[1] % 4 else inner[1]
    return quad.index(first)


def _xm1_base() -> OnePlaneGraph:
    b = DrawingBuilder.from_neighbors([[3, 1], [0, 2], [1, 3], [2, 0]])
    w1 = b.face_walk_from(0)
    vs1 = [b.dart_vertex[d] for d in w1]
    b.insert_edge_one_face(w1, vs1.index(0), vs1.index(2))
    w2 = b.face_walk_from(b.opposite[0])
    vs2 = [b.dart_vertex[d] for d in w2]
    b.insert_edge_one_face(w2, vs2.index(1), vs2.index(3))
    return b.graph()


def _lowest_diagonal_anchor(vs) -> int:
    return 0 if min(vs[0], vs[2]) < min(vs[1], vs[3]) else 1


def _insert_crossing_diagonal(g: OnePlaneGraph, u: int, v: int,
                              crossed: tuple[int, int]) -> OnePlaneGraph:
    """Insert edge u-v crossing the edge with the given endpoints."""
    e = next(i for i, r in enumerate(g.edges)
             if {r.u, r.v} == set(crossed) and r.crossing is None)
    fs = g.face_set
    d = g.edge_darts[e][0]
    f1, f2 = fs.face_of_dart[d], fs.face_of_dart[g.map.opposite[d]]
    if u not in fs[f1].boundary:
        f1, f2 = f2, f1
    if u > v:
        u, v, f1, f2 = v, u, f2, f1
    cand = InsertionCandidate(u, v, RouteKind.TWO_FACES, (f1, f2), e)
    return apply_insertion(g, cand)


# ---------------------------------------------------------------------------
# Family bookkeeping
# ---------------------------------------------------------------------------

FAMILIES = ("h", "hh", "xh", "yh", "m", "xm")

_GENERATORS = {
    "h": gen_H, "hh": gen_HH, "xh": gen_XH, "yh": gen_YH,
    "m": gen_M, "xm": gen_XM,
}


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
    # face walks in ascending order of their minimum dart, each starting
    # there; filling a face (cone or crossing pair) makes each of its darts
    # start a triangle whose other darts are new
    walks, seen = [], set()
    for d in range(len(b.opposite)):
        if d not in seen and b.opposite[d] >= 0:
            walks.append(b.face_walk_from(d))
            seen.update(walks[-1])
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
            quads = [w for w in walks if _crossable_quad(b, w)]
            if not quads:
                break
            fill(rng.choice(quads), b.cross_quad)
    return b.graph()


def _crossable_quad(b: DrawingBuilder, walk) -> bool:
    if len(walk) != 4:
        return False
    vs = [b.dart_vertex[d] for d in walk]
    if len(set(vs)) != 4 or any(b.kinds[v] is VertexKind.FAKE for v in vs):
        return False
    return not (b.edges_between(vs[0], vs[2]) or b.edges_between(vs[1], vs[3]))


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------

def fixture_path(name: str):
    """Path of a bundled fixture drawing (``t1`` or ``t2``), or None if the
    file is not shipped."""
    from importlib import resources
    ref = resources.files(__package__) / "fixtures" / f"{name}.1pg"
    return ref if ref.is_file() else None
