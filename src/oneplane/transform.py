"""Derived objects of a drawing: the skeleton obtained by removing one edge
from each crossing pair, and the part of a map's dual on the faces of one
color."""

from __future__ import annotations

from .build import Subdrawing, delete_edges
from .core import OnePlaneGraph, OperationError, PlanarMap, SimpleGraph


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

def dual(pmap: PlanarMap, colors, color) -> SimpleGraph:
    """The subgraph of the map's dual induced by the faces of one color:
    each face f with ``colors[f] is color``, in id order, to the other such
    faces that share a segment with it.  Only those faces' walks are read;
    a face on both sides of a segment is not its own neighbor."""
    fod, opposite = pmap.face_of_dart, pmap.opposite
    return SimpleGraph({f: frozenset(j for j in (fod[opposite[d]] for d in walk)
                                     if j != f and colors[j] is color)
                        for f, walk in enumerate(pmap.face_walks) if colors[f] is color})
