"""Regenerate the 7-connected fixture drawings t1.1pg and t2.1pg.

t1: the 24-vertex 4-regular ring solid (two square cupolas over an octagon
prism; 8 triangles, 18 quadrangles) with crossing diagonals in every
quadrangle.  t2: the 56-vertex analogue with doubled middle rings
(square | cupola | octagon | doubling band | 16-ring | prism | mirrored),
24 triangles and 42 quadrangles, again fully diagonalized.  Both come out
7-connected and maximal with crossings = 3n/4; the loader re-verifies all
of that, so these files are reviewable data, not trusted code.

Usage: python tools/make_fixtures.py [outdir]
"""

import math
import sys
from pathlib import Path

from oneplane.build import DrawingBuilder
from oneplane.core import underlying
from oneplane.maximality import is_maximal
from oneplane.analyze import vertex_connectivity
from oneplane.generators import _triangulate_all
from oneplane import interchange


def _require(holds: bool, what: str) -> None:
    """Stop with an error naming what a fixture lacks; an explicit test, so
    that ``python -O`` keeps it."""
    if not holds:
        raise RuntimeError(f"fixture check failed: {what}")


def _ring_graph(rings, radii, offsets, edges):
    pos = {}
    for (ring, radius, off) in zip(rings, radii, offsets):
        size = len(ring)
        for idx, v in enumerate(ring):
            ang = 2 * math.pi * (idx + off) / size
            pos[v] = (radius * math.cos(ang), radius * math.sin(ang))
    n = sum(len(r) for r in rings)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    table = []
    for v in range(n):
        px, py = pos[v]
        table.append(sorted(adj[v],
                            key=lambda w: math.atan2(pos[w][1] - py,
                                                     pos[w][0] - px)))
    return DrawingBuilder.from_neighbors(table)


def make_t1():
    rings = [list(range(0, 4)), list(range(4, 12)),
             list(range(12, 20)), list(range(20, 24))]
    radii = [1.0, 2.0, 3.2, 5.2]
    offsets = [0.0, -0.5, -0.5, 0.0]
    edges = set()

    def add(u, v):
        edges.add((min(u, v), max(u, v)))

    for ring in rings:
        size = len(ring)
        for i in range(size):
            add(ring[i], ring[(i + 1) % size])
    for i in range(4):                       # cupolas
        add(i, 4 + (2 * i) % 8)
        add(i, 4 + (2 * i + 1) % 8)
        add(20 + i, 12 + (2 * i) % 8)
        add(20 + i, 12 + (2 * i + 1) % 8)
    for j in range(8):                       # prism band
        add(4 + j, 12 + j)
    base = _ring_graph(rings, radii, offsets, edges)
    sizes = [len(w) for w in base.face_walks()]
    _require(sizes.count(3) == 8 and sizes.count(4) == 18,
             "t1's base needs 8 triangles and 18 quadrangles")
    return _triangulate_all(base, triangles=False).finish()


def make_t2():
    rings = [list(range(0, 4)), list(range(4, 12)), list(range(12, 28)),
             list(range(28, 44)), list(range(44, 52)), list(range(52, 56))]
    radii = [1.0, 2.0, 3.0, 4.2, 5.4, 8.0]
    offsets = [0.0, -0.5, -1.0, -1.0, -0.5, 0.0]
    edges = set()

    def add(u, v):
        edges.add((min(u, v), max(u, v)))

    for ring in rings:
        size = len(ring)
        for i in range(size):
            add(ring[i], ring[(i + 1) % size])
    for i in range(4):                       # cupolas at both caps
        add(i, 4 + (2 * i) % 8)
        add(i, 4 + (2 * i + 1) % 8)
        add(52 + i, 44 + (2 * i) % 8)
        add(52 + i, 44 + (2 * i + 1) % 8)
    for j in range(8):                       # doubling bands 8 -> 16
        add(4 + j, 12 + (2 * j - 1) % 16)
        add(4 + j, 12 + (2 * j) % 16)
        add(44 + j, 28 + (2 * j - 1) % 16)
        add(44 + j, 28 + (2 * j) % 16)
    for m in range(16):                      # prism band 16 <-> 16
        add(12 + m, 28 + m)
    base = _ring_graph(rings, radii, offsets, edges)
    sizes = [len(w) for w in base.face_walks()]
    _require(sizes.count(3) == 24 and sizes.count(4) == 42,
             "t2's base needs 24 triangles and 42 quadrangles")
    return _triangulate_all(base, triangles=False).finish()


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "oneplane" / "fixtures")
    outdir.mkdir(parents=True, exist_ok=True)
    for name, maker, want_n, want_cr in (("t1", make_t1, 24, 18),
                                         ("t2", make_t2, 56, 42)):
        g = maker()
        _require(g.n == want_n and g.crossing_count == want_cr,
                 f"{name} needs n={want_n} and cr={want_cr}")
        _require(is_maximal(g).is_maximal, f"{name} must be maximal")
        _require(vertex_connectivity(underlying(g)) == 7, f"{name} must be 7-connected")
        path = outdir / f"{name}.1pg"
        interchange.dump(g, path)
        print(f"{path}: n={g.n} cr={g.crossing_count} E={g.size} kappa=7 maximal")


if __name__ == "__main__":
    main()
