"""Exact edge-insertion search over the faces of a planarization.

A new edge keeping the drawing simple, good and 1-plane either lies inside
one face (crossing nothing) or runs through two faces, crossing their
shared edge exactly once.  The crossed edge must currently be uncrossed
(crossing a segment of an already-crossed edge would cross that edge twice)
and must not be incident to either endpoint (good drawing).  This is the
complete move set; tests check it against a brute-force oracle on small
instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .build import DrawingBuilder, delete_edges
from .core import FaceMerge, OnePlaneGraph, OperationError, once


class RouteKind(Enum):
    ONE_FACE = "one-face"
    TWO_FACES = "two-faces"


class SaturationPolicy(Enum):
    DETERMINISTIC = "deterministic"
    SEEDED = "seeded"


@dataclass(frozen=True)
class InsertionCandidate:
    u: int
    v: int
    kind: RouteKind
    faces: tuple[int, ...]
    cross_edge: int | None = None

    @property
    def delta(self) -> int:
        """Crossings added when this candidate is applied."""
        return 0 if self.kind is RouteKind.ONE_FACE else 1

    @property
    def sort_key(self):
        return (self.u, self.v, self.kind.value, self.faces,
                -1 if self.cross_edge is None else self.cross_edge)


@dataclass(frozen=True)
class MaximalityResult:
    is_maximal: bool
    witness: InsertionCandidate | None


@dataclass(frozen=True)
class RedrawResult:
    crossings: int
    route: InsertionCandidate | None     # ids refer to `without`
    without: OnePlaneGraph | None        # the drawing with the edge deleted


@dataclass(frozen=True)
class ImmovabilityResult:
    is_immovable: bool
    witness: tuple[int, RedrawResult] | None   # (edge id, crossing-free redraw)


def insertion_candidates(g: OnePlaneGraph) -> tuple[InsertionCandidate, ...]:
    """Every admissible single-edge insertion, in canonical order.

    Empty iff the drawing is maximal.
    """
    fs = g.face_set
    pmap = g.map
    out = []

    for f in fs:
        true_boundary = sorted(
            {v for v in f.boundary if not pmap.is_fake(v)}
        )
        for u, v in combinations(true_boundary, 2):
            if not g.has_edge(u, v):
                out.append(InsertionCandidate(u, v, RouteKind.ONE_FACE, (f.index,)))

    for e, rec in enumerate(g.edges):
        if rec.crossing is not None:
            continue
        d = g.edge_darts[e][0]
        o = pmap.opposite[d]
        f1, f2 = fs.face_of_dart[d], fs.face_of_dart[o]
        if f1 == f2:
            continue
        b1, b2 = fs[f1].boundary, fs[f2].boundary
        # e's endpoints lie on both boundaries, so the set differences below
        # already exclude them (no candidate crosses an incident edge)
        only1 = sorted(v for v in b1 - b2 if not pmap.is_fake(v))
        only2 = sorted(v for v in b2 - b1 if not pmap.is_fake(v))
        for u in only1:
            for v in only2:
                if g.has_edge(u, v):
                    continue
                if u < v:
                    out.append(InsertionCandidate(
                        u, v, RouteKind.TWO_FACES, (f1, f2), e))
                else:
                    out.append(InsertionCandidate(
                        v, u, RouteKind.TWO_FACES, (f2, f1), e))

    return tuple(sorted(out, key=lambda c: c.sort_key))


@once
def is_maximal(g: OnePlaneGraph) -> MaximalityResult:
    """True iff no edge can be added to the drawing."""
    cands = insertion_candidates(g)
    return MaximalityResult(not cands, cands[0] if cands else None)


def apply_insertion(g: OnePlaneGraph, cand: InsertionCandidate) -> OnePlaneGraph:
    """Insert the candidate edge, returning a new validated drawing."""
    b = DrawingBuilder.from_graph(g)
    fs = g.face_set
    if cand.kind is RouteKind.ONE_FACE:
        walk = list(fs[cand.faces[0]].darts)
        i = _corner_of(g, walk, cand.u)
        j = _corner_of(g, walk, cand.v)
        b.insert_edge_one_face(walk, i, j)
    else:
        if cand.cross_edge is None:
            raise OperationError("BAD_PARAMETER",
                                 "a two-face insertion needs the edge it crosses")
        walk1 = list(fs[cand.faces[0]].darts)
        walk2 = list(fs[cand.faces[1]].darts)
        i = _corner_of(g, walk1, cand.u)
        j = _corner_of(g, walk2, cand.v)
        b.insert_edge_crossing(walk1, i, walk2, j, cand.cross_edge)
    return b.graph()


def _corner_of(g: OnePlaneGraph, walk, v: int) -> int:
    """Walk position of v's corner; for several corners of v on one face,
    the first in v's rotation order (a pure tie-break)."""
    rot = g.map.rotations[v]
    best = None
    for pos, d in enumerate(walk):
        if g.map.dart_vertex[d] == v:
            key = rot.index(d)
            if best is None or key < best[0]:
                best = (key, pos)
    if best is None:
        raise OperationError("BAD_PARAMETER", f"vertex {v} not on the face")
    return best[1]


def saturate(g: OnePlaneGraph,
             policy: SaturationPolicy = SaturationPolicy.DETERMINISTIC,
             seed: int | None = None) -> OnePlaneGraph:
    """Greedy closure: apply insertion candidates until none remain.

    DETERMINISTIC takes the lexicographically first candidate each round;
    SEEDED draws uniformly with the given seed.  The vertex set never
    changes, so the result is a maximal drawing on the same vertices.
    """
    rng = random.Random(seed) if policy is SaturationPolicy.SEEDED else None
    while True:
        cands = insertion_candidates(g)
        if not cands:
            return g
        cand = cands[0] if rng is None else rng.choice(cands)
        g = apply_insertion(g, cand)


def min_redraw_crossings(g: OnePlaneGraph, e: int) -> RedrawResult:
    """Minimum crossings over all re-insertions of edge ``e`` into g - e.

    0 iff the endpoints share a face of the planarization of g - e (also
    when g - e is disconnected: separate sphere components can always be
    joined crossing-free); otherwise 1, achieved by restoring the original
    route across the old crossing partner.
    """
    if not (0 <= e < len(g.edges)):
        raise OperationError("UNKNOWN_EDGE", f"no edge {e}")
    rec = g.edges[e]
    cut = delete_edges(g, (e,))
    if cut is None:
        return RedrawResult(0, None, None)
    res = cut.result
    h = res.graph
    u, v = res.vertex_map[rec.u], res.vertex_map[rec.v]

    at_u = cut.merge.at(rec.u)
    common = at_u & cut.merge.at(rec.v)
    if common:
        f = next(i for i, c in enumerate(cut.face_class) if c in common)
        route = InsertionCandidate(min(u, v), max(u, v), RouteKind.ONE_FACE, (f,))
        return RedrawResult(0, route, h)

    # No common face: e was crossed (deleting an uncrossed edge merges the
    # two faces at both its endpoints), and re-crossing its old partner is
    # always available (the partner's two sides now hold u and v).
    p = res.edge_map[g.crossing_partner(e)]
    d = h.edge_darts[p][0]
    f1 = h.map.face_of_dart[d]
    f2 = h.map.face_of_dart[h.map.opposite[d]]
    if cut.face_class[f1] not in at_u:
        f1, f2 = f2, f1
    if u < v:
        route = InsertionCandidate(u, v, RouteKind.TWO_FACES, (f1, f2), p)
    else:
        route = InsertionCandidate(v, u, RouteKind.TWO_FACES, (f2, f1), p)
    return RedrawResult(1, route, h)


@once
def is_immovable(g: OnePlaneGraph) -> ImmovabilityResult:
    """True iff no crossed edge admits a crossing-free redraw.

    Redrawing an uncrossed edge cannot lower the crossing count, so only
    crossed edges are examined, each by merging the faces on both sides of
    its segments; the witness is the first redrawable edge in id order.
    Requires a maximal drawing.
    """
    if not is_maximal(g).is_maximal:
        raise OperationError("NOT_MAXIMAL",
                             "immovability is defined for maximal drawings")
    for e, rec in enumerate(g.edges):
        if rec.crossing is not None and FaceMerge(g, (e,)).share_face(rec.u, rec.v):
            return ImmovabilityResult(False, (e, min_redraw_crossings(g, e)))
    return ImmovabilityResult(True, None)
