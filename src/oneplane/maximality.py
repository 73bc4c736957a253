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
from bisect import bisect_left, insort
from enum import Enum
from itertools import combinations
from typing import NamedTuple

from .build import DrawingBuilder, delete_edges
from .core import OnePlaneGraph, OperationError, VertexKind, once, underlying


class SaturationPolicy(Enum):
    DETERMINISTIC = "deterministic"
    SEEDED = "seeded"


class InsertionCandidate(NamedTuple):
    u: int
    v: int
    faces: tuple[int, ...]
    cross_edge: int | None = None    # None exactly for a one-face route

    @property
    def delta(self) -> int:
        """Crossings added when this candidate is applied."""
        return 0 if self.cross_edge is None else 1


class MaximalityResult(NamedTuple):
    is_maximal: bool
    witness: InsertionCandidate | None


class RedrawResult(NamedTuple):
    crossings: int
    route: InsertionCandidate | None     # ids refer to `without`
    without: OnePlaneGraph | None        # the drawing with the edge deleted


class ImmovabilityResult(NamedTuple):
    is_immovable: bool
    witness: tuple[int, RedrawResult] | None   # (edge id, crossing-free redraw)


def insertion_candidates(g: OnePlaneGraph) -> tuple[InsertionCandidate, ...]:
    """Every admissible single-edge insertion, in canonical order: by
    endpoints, then one-face before two-face (by the number of faces),
    then face ids (those of ``g.map.face_walks``), then the crossed edge.

    Empty iff the drawing is maximal.
    """
    return tuple(sorted(_Closure(g).candidates(),
                        key=lambda c: (c.u, c.v, len(c.faces), c.faces, c.cross_edge)))


def _in_face(faces, on, adj) -> list[InsertionCandidate]:
    """The one-face insertions of the given faces: every pair of the true
    vertices ``on[f]`` on the boundary of a face f that are not neighbours
    in ``adj``."""
    return [InsertionCandidate(u, v, (f,))
            for f in faces for u, v in combinations(sorted(on[f]), 2) if v not in adj[u]]


def _across(across, on, adj) -> list[InsertionCandidate]:
    """The two-face insertions crossing the uncrossed edges of ``across``,
    which maps each to the faces f1 and f2 on its two sides, whose true
    boundary vertices are ``on[f1]`` and ``on[f2]``.  None across an edge
    with one face on both sides."""
    out = []
    for e, (f1, f2) in across.items():
        if f1 == f2:
            continue
        on1, on2 = on[f1], on[f2]
        # e's endpoints lie on both boundaries, so the set differences below
        # already exclude them (no candidate crosses an incident edge)
        for u in on1 - on2:
            for v in on2 - on1:
                if v in adj[u]:
                    continue
                out.append(InsertionCandidate(u, v, (f1, f2), e) if u < v
                           else InsertionCandidate(v, u, (f2, f1), e))
    return out


def _sides(g: OnePlaneGraph) -> dict[int, tuple[int, int]]:
    """The faces beside each uncrossed edge, read at its lower dart."""
    fod, de, edges = g.map.face_of_dart, g.dart_edge, g.edges
    return {de[d]: (fod[d], fod[o]) for d, o in enumerate(g.map.opposite)
            if d < o and edges[de[d]].crossing is None}


@once
def is_maximal(g: OnePlaneGraph) -> MaximalityResult:
    """True iff no edge can be added to the drawing."""
    cands = insertion_candidates(g)
    return MaximalityResult(not cands, cands[0] if cands else None)


def apply_insertion(g: OnePlaneGraph, cand: InsertionCandidate) -> OnePlaneGraph:
    """Insert the candidate edge, returning a new validated drawing."""
    walks = g.map.face_walks
    if not all(0 <= f < len(walks) for f in cand.faces):
        raise OperationError("UNKNOWN_FACE", f"no face among {cand.faces}")
    if len(cand.faces) != (1 if cand.cross_edge is None else 2):
        raise OperationError("BAD_PARAMETER",
                             f"cross_edge={cand.cross_edge} with {len(cand.faces)} faces")
    b = DrawingBuilder.from_graph(g)
    _insert(b, cand, walks)
    return b.finish()


def _insert(b: DrawingBuilder, cand: InsertionCandidate, walks) -> None:
    """Insert the candidate into the builder, whose faces are ``walks[f]``."""
    if cand.cross_edge is None:
        (f,) = cand.faces
        b.insert_edge_one_face(walks[f], cand.u, cand.v)
    else:
        f1, f2 = cand.faces
        b.insert_edge_two_faces(walks[f1], walks[f2], cand.u, cand.v, cand.cross_edge)


class _Closure:
    """The one table of insertion candidates, and the one order on them:
    ``insertion_candidates``, ``is_maximal``, ``min_redraw_crossings`` and
    ``saturate`` all read it.  It holds the faces and the live candidates;
    the first insertion copies the drawing into a builder, and a saturation
    keeps the tables up to date locally after each insertion.

    Faces are named by ids that are never reused; ``walks`` and ``on`` (true
    boundary vertices) are kept per live face.  The tables start from the
    drawing's own (face walks, ``face_of_dart``, ``opposite``) in
    whole-table passes, and ``_add`` lists the candidates of those faces
    and of the faces each insertion makes, in no particular order.  A
    candidate's group key is its endpoint pair (u, v): ``groups`` maps each
    key to its live candidates, and ``keys`` holds the key once per live
    candidate, sorted.  The order is the key, then the number of faces,
    then the faces' ranks (``rank``), then the crossed edge.  ``select``
    finds the group of an index in ``keys`` by bisection and ranks that
    group alone; before any insertion a face's rank is its id, and
    ``insertion_candidates`` sorts by the ids directly.  Candidates are also
    indexed by face, so an insertion drops exactly those it invalidates; a
    face's list may still hold a candidate dropped through the other face
    or the new vertex pair, so a candidate is dropped only while it is still
    in its group.
    """

    def __init__(self, g: OnePlaneGraph):
        self.g = g
        self.b: DrawingBuilder | None = None     # made by the first insertion
        self.adj = underlying(g).adjacency       # copied to sets by it
        self.face_of = list(g.map.face_of_dart)
        self.walks = dict(enumerate(g.map.face_walks))
        self.on: dict[int, frozenset] = {}
        self.groups: dict[tuple[int, int], list[InsertionCandidate]] = {}
        self.by_face: dict[int, list[InsertionCandidate]] = {}    # made on first use
        # the true vertex at each dart: its tail, or at a crossing its head,
        # which is true and the tail of the next dart on its face; so a
        # face's true boundary vertices are those of its darts
        dv, opposite = g.map.dart_vertex, g.map.opposite
        self.true_at = list(dv)
        for c in g.map.fake_vertices:
            for d in g.map.rotations[c]:
                self.true_at[d] = dv[opposite[d]]
        self.next_face = len(self.walks)
        self.keys = sorted(self._add(range(self.next_face), _sides(g)))

    def candidates(self) -> list[InsertionCandidate]:
        """The live candidates, in no particular order."""
        return [c for group in self.groups.values() for c in group]

    def rank(self, f: int):
        """Sort rank of face ``f``, ordering faces as their indices in the
        drawing the step-by-step closure holds.  That is the input until the
        first insertion, numbered by its own dart ids; after it, a finished
        drawing, whose dart ids follow (vertex, rotation position), so the
        rank is that pair for the face's minimum dart.  It is found from the
        walk when asked for: insertions never reorder the darts already in a
        rotation, so that dart is the one the face had when it was made."""
        if self.b is None:
            return f
        dv, walk = self.b.dart_vertex, self.walks[f]
        low = min(dv[d] for d in walk)
        rot = self.b.rotations[low]
        return (low, min(rot.index(d) for d in walk if dv[d] == low))

    def select(self, i: int) -> InsertionCandidate:
        """The live candidate at index ``i`` of the order."""
        key = self.keys[i]
        group = self.groups[key]
        if len(group) > 1:
            group = sorted(group, key=lambda c: (len(c.faces),
                                                 tuple(map(self.rank, c.faces)),
                                                 c.cross_edge))
        return group[i - bisect_left(self.keys, key)]

    def _add(self, faces, across) -> list[tuple[int, int]]:
        """Take in the given faces, whose walks are in ``walks``, and list
        the candidates inside them and across the uncrossed edges
        ``across``, a map from each to the faces on its two sides; returns
        the group keys of the new candidates."""
        on, adj = self.on, self.adj
        true_at = self.true_at.__getitem__
        for f in faces:
            on[f] = frozenset(map(true_at, self.walks[f]))
        new = _in_face(faces, on, adj) + _across(across, on, adj)
        keys = []
        for c in new:
            key = c.u, c.v
            keys.append(key)
            self.groups.setdefault(key, []).append(c)
            for f in c.faces:
                self.by_face.setdefault(f, []).append(c)
        return keys

    def insert(self, cand: InsertionCandidate) -> None:
        """Apply the candidate, replace the faces it splits by the new ones
        and update the candidates."""
        if self.b is None:
            self.b = DrawingBuilder.from_graph(self.g)
            self.adj = {v: set(ws) for v, ws in self.adj.items()}
        b, face_of = self.b, self.face_of
        n0 = len(b.opposite)
        _insert(b, cand, self.walks)
        self.adj[cand.u].add(cand.v)
        self.adj[cand.v].add(cand.u)
        # every candidate across the crossed edge refers to one of its two
        # faces, so dropping the split faces' candidates drops them too
        gone = [c for f in cand.faces for c in self.by_face.pop(f, ())]
        gone += self.groups.get((cand.u, cand.v), ())
        for c in gone:
            key = c.u, c.v
            group = self.groups.get(key, ())
            if c in group:
                group.remove(c)
                del self.keys[bisect_left(self.keys, key)]
                if not group:
                    del self.groups[key]
        for f in cand.faces:
            del self.walks[f], self.on[f]
        # each new face contains a new dart: one of the new edge's at a
        # corner, or one of the four at a new crossing
        dv, opposite = b.dart_vertex, b.opposite
        face_of += [-1] * (len(opposite) - n0)
        self.true_at += [dv[d] if b.kinds[dv[d]] is VertexKind.TRUE else dv[opposite[d]]
                         for d in range(n0, len(opposite))]
        born = self.next_face
        for d in range(n0, len(opposite)):
            if face_of[d] < born:
                walk = self.walks[self.next_face] = b.face_walk_from(d)
                for x in walk:
                    face_of[x] = self.next_face
                self.next_face += 1
        new = range(born, self.next_face)
        across = {b.dart_edge[d]: (face_of[d], face_of[opposite[d]])
                  for f in new for d in self.walks[f] if b.edges[b.dart_edge[d]][2] is None}
        for key in self._add(new, across):
            insort(self.keys, key)


def saturate(g: OnePlaneGraph,
             policy: SaturationPolicy = SaturationPolicy.DETERMINISTIC,
             seed: int | None = None) -> OnePlaneGraph:
    """Greedy closure: apply insertion candidates until none remain.

    DETERMINISTIC takes the first candidate of the ``_Closure`` order each
    round, and ignores ``seed``.  SEEDED draws an index uniformly with the
    given seed (BAD_PARAMETER without one, so a run is never seeded from
    the system), by ``randrange`` over the live count, which consumes the
    random stream as ``choice`` over the sorted list would.  A step does
    not re-sort the live set: its index picks a group from the sorted group
    keys, and only that group is sorted, by the ranks of its faces.
    The vertex set never changes, so the result is a maximal drawing on the
    same vertices.

    The closure runs on one builder: after each insertion only the
    candidates of the faces it split and of the new vertex pair are dropped,
    and those of the new faces added, so a step costs time in the faces it
    touches.  ``finish()`` validates once, at the end, and that is as strong
    as validating every step: saturation only adds (each step an edge, and
    perhaps a crossing that splits one segment) and deletes or renumbers
    nothing, so a violation made at any step persists to the end.  Splitting
    a face with a chord always gives two distinct faces, so the four faces
    at a new crossing are distinct.  The result equals, byte for byte, that
    of the closure that rebuilds and revalidates the drawing after every
    insertion.
    """
    if policy is SaturationPolicy.SEEDED and seed is None:
        raise OperationError("BAD_PARAMETER", "SEEDED saturation needs a seed")
    rng = random.Random(seed) if policy is SaturationPolicy.SEEDED else None
    s = _Closure(g)
    while s.keys:
        s.insert(s.select(0 if rng is None else rng.randrange(len(s.keys))))
    return g if s.b is None else s.b.finish()


def min_redraw_crossings(g: OnePlaneGraph, e: int) -> RedrawResult:
    """Minimum crossings over all re-insertions of edge ``e`` into g - e.

    0 iff the endpoints share a face of the planarization of g - e (also
    when g - e is disconnected: separate sphere components can always be
    joined crossing-free); otherwise 1, achieved by restoring the original
    route across the old crossing partner.
    """
    sub = delete_edges(g, (e,))
    if sub is None:
        return RedrawResult(0, None, None)
    rec, h = g.edges[e], sub.graph
    ends = tuple(sorted(map(sub.vertex_ids.index, rec.ends)))
    # one-face routes sort first; without one, e was crossed (deleting an
    # uncrossed edge merges the two faces at both its endpoints), and
    # re-crossing its old partner, whose two sides now hold the endpoints,
    # is always available
    partner = None if rec.crossing is None else sub.edge_ids.index(g.crossing_partner(e))
    route = next(c for c in insertion_candidates(h) if (c.u, c.v) == ends
                 and c.cross_edge in (None, partner))
    return RedrawResult(route.delta, route, h)


@once
def is_immovable(g: OnePlaneGraph) -> ImmovabilityResult:
    """True iff no crossed edge admits a crossing-free redraw.

    Redrawing an uncrossed edge cannot lower the crossing count, so only
    crossed edges are examined, each by set tests on the faces around its
    endpoints (``_redrawable``); the witness is the first redrawable edge
    in id order, and only its g - e is built.  Requires a maximal drawing.
    """
    if not is_maximal(g).is_maximal:
        raise OperationError("NOT_MAXIMAL",
                             "immovability is defined for maximal drawings")
    e = next(_redrawable(g), None)
    if e is None:
        return ImmovabilityResult(True, None)
    return ImmovabilityResult(False, (e, min_redraw_crossings(g, e)))


def _redrawable(g: OnePlaneGraph):
    """The crossed edges e = uv, in id order, whose endpoints share a face
    of g - e: those with a crossing-free redraw.

    Deleting e, which crosses at c, merges the two faces beside segment
    u-c into one face and the two beside c-v into another, and changes no
    other face; the four faces at c are distinct, so these two stay apart.
    So u and v share a face of g - e iff their sets of faces in g meet, or
    u's set meets the faces beside c-v, or v's set meets those beside u-c.
    (Distinct faces at c also mean that u and v keep a dart each, so
    neither is left isolated.)  The face sets are built once per drawing,
    and the faces beside u-c and c-v, keyed by u and v, are read at e's
    darts in the rotation of c, every other one there.
    """
    fod, dv, opposite, de = g.map.face_of_dart, g.map.dart_vertex, g.map.opposite, g.dart_edge
    at = [set(map(fod.__getitem__, rot)) for rot in g.map.rotations]
    for e, rec in enumerate(g.edges):
        if rec.crossing is None:
            continue
        u, v, r = rec.u, rec.v, g.map.rotations[rec.crossing]
        beside = {dv[opposite[d]]: (fod[d], fod[opposite[d]])
                  for d in (r[::2] if de[r[0]] == e else r[1::2])}
        if not (at[u].isdisjoint(at[v]) and at[u].isdisjoint(beside[v])
                and at[v].isdisjoint(beside[u])):
            yield e
