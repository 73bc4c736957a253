"""Derived objects of a drawing: the skeleton obtained by removing one edge
from each crossing pair, and the colored dual of the skeleton."""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from .build import Subdrawing, delete_edges
from .core import FaceClass, OnePlaneGraph, OperationError, once


def skeleton(g: OnePlaneGraph, removed=None) -> Subdrawing:
    """The drawing minus one edge of each crossing pair: the edges
    ``removed``, by default the larger id of each pair.  BAD_EXPLICIT_SELECTION
    when ``removed`` does not hold exactly one edge of every pair and no
    other edge; DISCONNECTED when the removals disconnect the drawing.

    The result is a plane drawing on the true vertices.  A removed segment
    ends at a crossing, so the faces on its two sides are distinct fake
    faces; each fake face has one, since its walk turns at a crossing from
    one edge to the other.  So the faces left alone, BLUE in ``colors``,
    are exactly the true faces, and each RED face merges at least two fake
    faces.
    """
    pairs = g.crossing_pairs
    cut = {b for _, _, b in pairs} if removed is None else set(removed)
    for _, a, b in pairs:
        if (a in cut) == (b in cut):
            raise OperationError(
                "BAD_EXPLICIT_SELECTION",
                f"crossing pair ({a},{b}) needs exactly one removed edge")
    stray = cut.difference(e for _, a, b in pairs for e in (a, b))
    if stray:
        raise OperationError(
            "BAD_EXPLICIT_SELECTION",
            f"edges {sorted(stray)} are not part of any crossing pair")
    # the kept partners need not keep the drawing connected: a vertex all of
    # whose edges are removed is cut off
    sub = delete_edges(g, cut)
    if sub is None:
        raise OperationError("DISCONNECTED",
                             "removing the edges disconnects the drawing")
    return sub


# ---------------------------------------------------------------------------
# Dual
# ---------------------------------------------------------------------------

class _DualMapFields(NamedTuple):
    colors: tuple[FaceClass, ...]
    edges: tuple[tuple[int, int], ...]


class DualMap(_DualMapFields):
    """Dual of a skeleton: one vertex per face (colored), one edge per
    skeleton edge, multi-adjacency preserved."""

    @cached_property
    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        adj: list[set[int]] = [set() for _ in range(len(self.colors))]
        for a, b in self.edges:
            if a != b:
                adj[a].add(b)
                adj[b].add(a)
        return tuple(frozenset(s) for s in adj)

    def vertices_of_color(self, color: FaceClass) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.colors) if c is color)


@once
def dual(s: Subdrawing) -> DualMap:
    """The colored dual of a skeleton; dual degrees equal face boundary
    lengths by construction (one dual edge per primal segment)."""
    fod = s.graph.map.face_of_dart
    edges = sorted((fod[d], fod[o]) for d, o in enumerate(s.graph.map.opposite) if d < o)
    return DualMap(colors=s.colors, edges=tuple(edges))
