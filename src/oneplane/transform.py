"""Derived objects of a drawing: the skeleton obtained by removing one edge
from each crossing pair, and the colored dual of the skeleton."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .build import merge_deletion
from .core import (
    Face,
    FaceClass,
    FaceSet,
    OnePlaneGraph,
    OperationError,
    PlanarMap,
    once,
)


class RemovalStrategy(Enum):
    LEX_MAX = "lex-max"   # drop the larger edge id of each crossing pair
    LEX_MIN = "lex-min"
    EXPLICIT = "explicit"


@dataclass(frozen=True)
class Skeleton:
    """A plane subdrawing keeping one edge per crossing pair.

    ``vertex_ids``/``edge_ids`` map skeleton ids back to the source drawing;
    ``removed`` records (removed edge, kept partner) per crossing; red faces
    carry the set of source fake-face ids they merge."""

    graph: OnePlaneGraph             # crossing-free
    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    removed: tuple[tuple[int, int], ...]
    faces: FaceSet                   # RED/BLUE classified
    face_members: tuple[frozenset[int], ...]   # source planarization face ids

    @property
    def map(self) -> PlanarMap:
        return self.graph.map


def skeleton(g: OnePlaneGraph, strategy: RemovalStrategy = RemovalStrategy.LEX_MAX,
             explicit=None) -> Skeleton:
    """Remove one edge from each crossing pair of the drawing.

    The result is a plane drawing on the true vertices; its faces are BLUE
    when they coincide with a true face of the planarization and RED when
    they merge at least two adjacent fake faces.  DISCONNECTED when the
    removals disconnect the drawing.
    """
    pairs = _select_removals(g, strategy, explicit)
    # the kept partners need not keep the drawing connected: a vertex all of
    # whose edges are removed is cut off
    cut = merge_deletion(g, (e for e, _ in pairs))
    if cut is None:
        raise OperationError("DISCONNECTED",
                             "removing the edges disconnects the drawing")
    res, merge = cut.result, cut.merge
    sk = res.graph

    src_faces = g.face_set
    class_faces: dict[int, set[int]] = {}
    for i in range(len(src_faces)):
        class_faces.setdefault(merge.find(i), set()).add(i)
    members = tuple(frozenset(class_faces[c]) for c in cut.face_class)
    # a removed segment ends at a crossing, so the faces on its two sides
    # are distinct fake faces: a class holding a true face holds only it
    classified = [
        FaceClass.BLUE if len(ids) == 1
        and src_faces[next(iter(ids))].classification is FaceClass.TRUE
        else FaceClass.RED
        for ids in members
    ]

    base = sk.face_set
    colored = FaceSet(
        tuple(
            Face(f.index, f.darts, f.vertices, classified[f.index])
            for f in base
        ),
        base.face_of_dart,
    )

    inv_vertex = {new: old for old, new in res.vertex_map.items()}
    inv_edge = {new: old for old, new in res.edge_map.items()}
    return Skeleton(
        graph=sk,
        vertex_ids=tuple(inv_vertex[v] for v in range(sk.map.n_vertices)),
        edge_ids=tuple(inv_edge[e] for e in range(sk.size)),
        removed=tuple(sorted(pairs)),
        faces=colored,
        face_members=members,
    )


def _select_removals(g: OnePlaneGraph, strategy: RemovalStrategy, explicit):
    """(removed edge, kept partner) per crossing pair."""
    pairs = [(a, b) for _, a, b in g.crossing_pairs]
    if strategy is RemovalStrategy.LEX_MAX:
        return [(b, a) for a, b in pairs]
    if strategy is RemovalStrategy.LEX_MIN:
        return pairs
    if strategy is not RemovalStrategy.EXPLICIT:
        raise OperationError("BAD_PARAMETER", f"unknown strategy {strategy}")
    chosen = set(explicit or ())
    out = []
    for a, b in pairs:
        hit = chosen & {a, b}
        if len(hit) != 1:
            raise OperationError(
                "BAD_EXPLICIT_SELECTION",
                f"crossing pair ({a},{b}) needs exactly one removed edge")
        out.append((a, b) if a in hit else (b, a))
    stray = chosen - {e for e, _ in out}
    if stray:
        raise OperationError(
            "BAD_EXPLICIT_SELECTION",
            f"edges {sorted(stray)} are not part of any crossing pair")
    return out


# ---------------------------------------------------------------------------
# Dual
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DualMap:
    """Dual of a skeleton: one vertex per face (colored), one edge per
    skeleton edge, multi-adjacency preserved."""

    colors: tuple[FaceClass, ...]
    edges: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.colors)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for a, b in self.edges:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    def vertices_of_color(self, color: FaceClass) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.colors) if c is color)

    def is_regular(self, k: int) -> bool:
        return all(d == k for d in self.degrees)


@once
def dual(s: Skeleton) -> DualMap:
    """The colored dual of a skeleton; dual degrees equal face boundary
    lengths by construction (one dual edge per primal segment)."""
    pmap = s.map
    fod = pmap.face_of_dart
    edges = []
    for d in range(pmap.n_darts):
        o = pmap.opposite[d]
        if d < o:
            edges.append((fod[d], fod[o]))
    colors = tuple(f.classification for f in s.faces)
    return DualMap(colors=colors, edges=tuple(sorted(edges)))
