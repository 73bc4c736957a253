"""Derived objects of a drawing: the skeleton obtained by removing one edge
from each crossing pair, and the colored dual of the skeleton."""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import NamedTuple

from .build import delete_edges
from .core import FaceClass, OnePlaneGraph, OperationError, PlanarMap, once


class RemovalStrategy(Enum):
    LEX_MAX = "lex-max"   # drop the larger edge id of each crossing pair
    LEX_MIN = "lex-min"
    EXPLICIT = "explicit"


class _SkeletonFields(NamedTuple):
    graph: OnePlaneGraph             # crossing-free
    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    removed: tuple[tuple[int, int], ...]
    colors: tuple[FaceClass, ...]    # RED or BLUE per face
    face_members: tuple[frozenset[int], ...]   # source planarization face ids


class Skeleton(_SkeletonFields):
    """A plane subdrawing keeping one edge per crossing pair.

    ``vertex_ids``/``edge_ids`` map skeleton ids back to the source drawing;
    ``removed`` records (removed edge, kept partner) per crossing;
    ``colors`` and ``face_members`` follow ``graph.map.face_walks``, and red
    faces carry the set of source fake-face ids they merge."""

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
    sub = delete_edges(g, (e for e, _ in pairs))
    if sub is None:
        raise OperationError("DISCONNECTED",
                             "removing the edges disconnects the drawing")
    members = sub.face_members
    # a removed segment ends at a crossing, so the faces on its two sides
    # are distinct fake faces; each fake face has one, since its walk turns
    # at a crossing from one edge to the other.  So the faces left alone are
    # exactly the true faces.
    colors = tuple(FaceClass.BLUE if len(ids) == 1 else FaceClass.RED
                   for ids in members)
    return Skeleton(graph=sub.graph, vertex_ids=sub.vertex_ids,
                    edge_ids=sub.edge_ids, removed=tuple(sorted(pairs)),
                    colors=colors, face_members=members)


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

class _DualMapFields(NamedTuple):
    colors: tuple[FaceClass, ...]
    edges: tuple[tuple[int, int], ...]


class DualMap(_DualMapFields):
    """Dual of a skeleton: one vertex per face (colored), one edge per
    skeleton edge, multi-adjacency preserved."""

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
    return DualMap(colors=s.colors, edges=tuple(sorted(edges)))
