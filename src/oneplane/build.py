"""Mutable construction workspace for drawings.

All structural surgery lives here: building a plane map from a rotation
table, inserting an edge inside a face or across two faces (creating a
crossing), and coning a face with a new vertex.  Public immutable values
are produced by ``finish()``, which compacts ids and runs full validation.
Deleting edges needs no workspace: ``delete_edges`` builds the smaller
drawing in one pass over the tables of the given one.

Dart conventions (shared with core): the walk successor of dart ``d`` is the
rotation successor of ``opposite[d]``.  A corner of a face is the angular gap
at one of its vertices just before the walk dart leaving that vertex, and a
new dart for the corner is spliced into the rotation there.  Edge insertion
names endpoints by vertex; a vertex with several corners on one face uses
the one whose walk dart comes first in its rotation.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain
from typing import NamedTuple

from .core import (
    DrawingError,
    FaceClass,
    OnePlaneGraph,
    OperationError,
    ValidationError,
    VertexKind,
    edge_rec,
    validate,
)


class DrawingBuilder:
    """Workspace mirroring OnePlaneGraph with list-backed, mutable state."""

    def __init__(self):
        self.kinds: list[VertexKind] = []
        self.rotations: list[list[int]] = []
        self.opposite: list[int] = []
        self.dart_vertex: list[int] = []
        self.dart_edge: list[int] = []
        self.edges: list[list] = []           # [u, v, crossing|None], None if deleted

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_graph(cls, g: OnePlaneGraph) -> "DrawingBuilder":
        b = cls()
        b.kinds = list(g.map.kinds)
        b.rotations = [list(r) for r in g.map.rotations]
        b.opposite = list(g.map.opposite)
        b.dart_vertex = list(g.map.dart_vertex)
        b.dart_edge = list(g.dart_edge)
        b.edges = [[r.u, r.v, r.crossing] for r in g.edges]
        return b

    @classmethod
    def from_neighbors(cls, neighbors) -> "DrawingBuilder":
        """Plane simple graph from per-vertex neighbor lists in rotation
        order.  Edge ids follow first appearance in vertex-id order."""
        b = cls()
        n = len(neighbors)
        b.kinds = [VertexKind.TRUE] * n
        b.rotations = [[] for _ in range(n)]
        pending: dict[tuple[int, int], int] = {}
        for v in range(n):
            for w in neighbors[v]:
                if not (0 <= w < n) or w == v:
                    raise OperationError("BAD_PARAMETER",
                                         f"bad neighbor {w} of vertex {v}")
                if (v, w) in pending:
                    raise OperationError("BAD_PARAMETER",
                                         f"vertex {v} lists neighbor {w} twice")
                d = b._new_dart(v, -1)
                b.rotations[v].append(d)
                key = (w, v)
                if key in pending:
                    o = pending.pop(key)
                    b._link(o, d)
                    e = b._new_edge(w, v, None)
                    b.dart_edge[o] = e
                    b.dart_edge[d] = e
                else:
                    pending[(v, w)] = d
        if pending:
            raise OperationError("BAD_PARAMETER",
                                 f"unmatched rotation entries: {sorted(pending)[:4]}")
        return b

    # -- low-level allocation --------------------------------------------------

    def _new_dart(self, v: int, e: int) -> int:
        d = len(self.opposite)
        self.opposite.append(-1)
        self.dart_vertex.append(v)
        self.dart_edge.append(e)
        return d

    def _link(self, p: int, q: int) -> None:
        """Pair darts p and q into one segment."""
        self.opposite[p] = q
        self.opposite[q] = p

    def _new_edge(self, u: int, v: int, crossing) -> int:
        self.edges.append([u, v, crossing])
        return len(self.edges) - 1

    def new_vertex(self, kind: VertexKind) -> int:
        self.kinds.append(kind)
        self.rotations.append([])
        return len(self.kinds) - 1

    def _splice_before(self, anchor: int, new_dart: int) -> None:
        """Insert new_dart into the rotation of anchor's vertex, just before
        anchor (i.e. into the corner gap that anchor closes)."""
        rot = self.rotations[self.dart_vertex[anchor]]
        rot.insert(rot.index(anchor), new_dart)

    # -- traversal over current state ------------------------------------------

    def rotation_successor(self, d: int) -> int:
        rot = self.rotations[self.dart_vertex[d]]
        i = rot.index(d)
        return rot[(i + 1) % len(rot)]

    def face_walk_from(self, d0: int) -> list[int]:
        if not 0 <= d0 < len(self.opposite):
            raise OperationError("UNKNOWN_DART", f"no dart {d0}")
        walk = [d0]
        d = self.rotation_successor(self.opposite[d0])
        while d != d0:
            walk.append(d)
            d = self.rotation_successor(self.opposite[d])
        return walk

    def face_walks(self) -> list[list[int]]:
        """The faces of the drawing ``finish()`` returns, in its order: each
        walk starts at its first dart in (vertex, rotation position) order."""
        walks, seen = [], set()
        for rot in self.rotations:
            for d in rot:
                if d not in seen:
                    walks.append(self.face_walk_from(d))
                    seen.update(walks[-1])
        return walks

    def _edge(self, e: int) -> list:
        """The record [u, v, crossing] of a live edge, or UNKNOWN_EDGE."""
        if not (0 <= e < len(self.edges)) or self.edges[e] is None:
            raise OperationError("UNKNOWN_EDGE", f"no edge {e}")
        return self.edges[e]

    # -- edge insertion ----------------------------------------------------------

    def _rotation(self, v: int) -> list[int]:
        """The rotation of vertex v, or UNKNOWN_VERTEX."""
        if not 0 <= v < len(self.rotations):
            raise OperationError("UNKNOWN_VERTEX", f"no vertex {v}")
        return self.rotations[v]

    def _corner(self, v: int, face) -> int | None:
        """v's corner on the face with dart set ``face``: the first of v's
        darts on it in rotation order, or None when v is not on the face."""
        return next((d for d in self._rotation(v) if d in face), None)

    def insert_edge_one_face(self, walk, u: int, v: int) -> int:
        """Add edge u-v inside the face ``walk``, from each endpoint's
        corner on it."""
        face = set(walk)
        cu, cv = self._corner(u, face), self._corner(v, face)
        if cu is None or cv is None:
            raise OperationError("BAD_PARAMETER",
                                 f"vertices {u},{v} are not both on the face")
        return self._chord(cu, cv)

    def _chord(self, cu: int, cv: int) -> int:
        """Add an edge between the corners closed by darts cu and cv of one
        face."""
        u, v = self.dart_vertex[cu], self.dart_vertex[cv]
        e = self._new_edge(u, v, None)
        p = self._new_dart(u, e)
        q = self._new_dart(v, e)
        self._link(p, q)
        self._splice_before(cu, p)
        self._splice_before(cv, q)
        return e

    def insert_edge_crossing(self, u: int, v: int, e: int) -> tuple[int, int]:
        """Add edge u-v crossing the uncrossed edge ``e``, from u's corner on
        one face of e to v's corner on the other.  u must lie on exactly one
        of the two faces.

        Returns (new edge id, fake vertex id).
        """
        d = next(d for d in self.rotations[self._edge(e)[0]] if self.dart_edge[d] == e)
        walks = [self.face_walk_from(d), self.face_walk_from(self.opposite[d])]
        if all(self.dart_vertex[x] != u for x in walks[0]):
            walks.reverse()
        return self.insert_edge_two_faces(*walks, u, v, e)

    def insert_edge_two_faces(self, walk_u, walk_v, u: int, v: int,
                              e: int) -> tuple[int, int]:
        """Add edge u-v from u's corner on the face ``walk_u`` to v's corner
        on the face ``walk_v``, crossing the uncrossed edge ``e``, which must
        have ``walk_u`` on one side and ``walk_v`` on the other.  u must not
        lie on ``walk_v``.

        Returns (new edge id, fake vertex id).
        """
        rec = self._edge(e)
        if rec[2] is not None:
            raise OperationError("BAD_PARAMETER", f"edge {e} is already crossed")
        if u in rec[:2] or v in rec[:2]:
            raise OperationError("ADJACENT_EDGES_CROSS",
                                 "crossed edge is incident to an endpoint")
        face_u, face_v = set(walk_u), set(walk_v)
        d_e = next((d for d in walk_u if self.dart_edge[d] == e), None)
        if d_e is None or self.opposite[d_e] not in face_v:
            raise OperationError("BAD_PARAMETER",
                                 f"edge {e} does not lie between the two faces")
        cu = self._corner(u, face_u)
        if cu is None or self._corner(u, face_v) is not None:
            raise OperationError("BAD_PARAMETER",
                                 f"vertex {u} is not on the first face of edge {e} alone")
        cv = self._corner(v, face_v)
        if cv is None:
            raise OperationError("BAD_PARAMETER",
                                 f"vertex {v} is not on the other face of edge {e}")
        return self._cross(cu, cv, d_e)

    def _cross(self, cu: int, cv: int, d_e: int) -> tuple[int, int]:
        """Add an edge from the corner closed by dart cu, on the face of dart
        d_e, to the corner closed by cv on the face of d_e's opposite,
        crossing d_e's edge."""
        u, v = self.dart_vertex[cu], self.dart_vertex[cv]
        cross_edge = self.dart_edge[d_e]
        d_b = self.opposite[d_e]
        c = self.new_vertex(VertexKind.FAKE)
        e_new = self._new_edge(u, v, c)
        self.edges[cross_edge][2] = c

        p = self._new_dart(u, e_new)
        q = self._new_dart(v, e_new)
        t_a = self._new_dart(c, cross_edge)
        t_b = self._new_dart(c, cross_edge)
        t_u = self._new_dart(c, e_new)
        t_v = self._new_dart(c, e_new)

        # split the crossed edge: a--c and c--b; the new edge: u--c and c--v
        self._link(d_e, t_a)
        self._link(d_b, t_b)
        self._link(p, t_u)
        self._link(q, t_v)

        # transversal rotation at the crossing; derived so that both face
        # splits close up (see module docstring for the walk convention)
        self.rotations[c] = [t_a, t_u, t_b, t_v]
        self._splice_before(cu, p)
        self._splice_before(cv, q)
        return e_new, c

    # -- face filling ------------------------------------------------------------

    def cone(self, walk, corners=None) -> int:
        """Insert a new true vertex inside the face, join it to the chosen
        corners (all corners by default, in walk order) and return its id.
        Its rotation lists its spokes in reverse corner order.

        With all corners chosen every created face is a triangle; with a
        contiguous subset the remainder stays a single face.
        """
        if corners is None:
            corners = range(len(walk))
        elif not all(0 <= i < len(walk) for i in corners):
            raise OperationError("BAD_PARAMETER",
                                 f"corners {corners} are not all in range({len(walk)})")
        x = self.new_vertex(VertexKind.TRUE)
        for i in corners:
            vi = self.dart_vertex[walk[i]]
            e = self._new_edge(x, vi, None)
            s = self._new_dart(vi, e)
            t = self._new_dart(x, e)
            self._link(s, t)
            self._splice_before(walk[i], s)
            # reversed spoke order at the center keeps the map on the sphere
            self.rotations[x].insert(0, t)
        return x

    def quad_error(self, walk, diagonals: bool = True) -> OperationError | None:
        """Why the face ``walk`` cannot be filled as a quadrangle: it is not
        a 4-walk of distinct true vertices, or (with ``diagonals``) one of
        its diagonals is already an edge.  None when it can."""
        if len(walk) != 4:
            return OperationError("FACE_NOT_QUAD", f"face walk has length {len(walk)}")
        vs = [self.dart_vertex[d] for d in walk]
        if len(set(vs)) != 4 or any(self.kinds[v] is VertexKind.FAKE for v in vs):
            return OperationError("BOUNDARY_NOT_SIMPLE",
                                  f"need 4 distinct true boundary vertices, got {vs}")
        for p, r in ((0, 2), (1, 3)) if diagonals else ():
            if self.edge_between(vs[p], vs[r]) is not None:
                return OperationError("DIAGONAL_EXISTS",
                                      f"vertices {vs[p]},{vs[r]} already adjacent")
        return None

    def cross_quad(self, walk, first_diagonal: int = 0) -> tuple[int, int, int]:
        """Insert a pair of crossing diagonals into a quadrangular face.

        first_diagonal 0 gives the (corner0, corner2) diagonal the smaller
        edge id, 1 the (corner1, corner3) one; any other value is
        BAD_PARAMETER.  Returns (edge id of the first diagonal, edge id of
        the second, fake vertex id).
        """
        if first_diagonal not in (0, 1):
            raise OperationError("BAD_PARAMETER",
                                 f"first_diagonal {first_diagonal} is not 0 or 1")
        if err := self.quad_error(walk):
            raise err
        o = (0, 2, 1, 3) if first_diagonal == 0 else (1, 3, 0, 2)
        e1 = self._chord(walk[o[0]], walk[o[1]])
        # the first diagonal splits the face in two triangles; on the one at
        # corner o[2], the walk goes from that corner along the diagonal
        e2, c = self._cross(walk[o[2]], walk[o[3]],
                            self.rotation_successor(self.opposite[walk[o[2]]]))
        # _cross leaves the crossing's rotation toward corners 2, 1, 0, 3
        # (first_diagonal 0) or 1, 0, 3, 2; start it at corner 3
        rot, k = self.rotations[c], 3 if first_diagonal == 0 else 2
        self.rotations[c] = rot[k:] + rot[:k]
        return e1, e2, c

    def edge_between(self, u: int, v: int) -> int | None:
        """The edge joining true vertices u and v (it has a dart at u), or
        None."""
        return next((self.dart_edge[d] for d in self._rotation(u)
                     if v in self.edges[self.dart_edge[d]][:2]), None)

    # -- finish --------------------------------------------------------------------

    def finish(self) -> OnePlaneGraph:
        """Compact ids, validate, and return the immutable graph."""
        return _compact(self.kinds, self.rotations, self.opposite,
                        self.dart_edge, self.edges)[0]


def _compact(kinds, rotations, opposite, dart_edge, edges):
    """The validated drawing of the tables, ids compacted, with the old id
    of each new vertex, edge and dart.

    A fake vertex without darts and an edge recorded as None are dropped;
    every other record is ``(u, v, crossing)``.  Vertices and edges keep
    their order and darts are numbered in rotation-scan order, so
    structurally equal drawings compare equal and serialization round-trips
    exactly."""
    vertex_ids = [v for v, rot in enumerate(rotations)
                  if rot or kinds[v] is VertexKind.TRUE]
    edge_ids = [e for e, rec in enumerate(edges) if rec is not None]
    dart_ids = list(chain.from_iterable(map(rotations.__getitem__, vertex_ids)))
    # new vertex, edge and dart ids all come from one tuple, of which the
    # rotations are slices, so the drawing's tables share one int per id
    ids = tuple(range(max(len(dart_ids), len(vertex_ids), len(edge_ids))))
    new_vertex = dict(zip(vertex_ids, ids))
    new_edge = dict(zip(edge_ids, ids))
    new_dart = dict(zip(dart_ids, ids))
    ends = list(accumulate(len(rotations[v]) for v in vertex_ids))
    rots = [ids[a:b] for a, b in zip([0] + ends[:-1], ends)]
    recs = [edge_rec((new_vertex[u], new_vertex[v], None if c is None else new_vertex[c]))
            for u, v, c in map(edges.__getitem__, edge_ids)]
    g = validate([kinds[v] for v in vertex_ids], rots,
                 [new_dart[opposite[d]] for d in dart_ids], recs,
                 [new_edge[dart_edge[d]] for d in dart_ids])
    return g, tuple(vertex_ids), tuple(edge_ids), tuple(dart_ids)


def plane_graph(neighbors) -> OnePlaneGraph:
    """Validated crossing-free drawing from rotation-ordered neighbor lists."""
    return DrawingBuilder.from_neighbors(neighbors).finish()


class _SubdrawingFields(NamedTuple):
    graph: OnePlaneGraph
    vertex_ids: tuple[int, ...]
    edge_ids: tuple[int, ...]
    dart_ids: tuple[int, ...]
    source: OnePlaneGraph
    removed: tuple[int, ...]


class Subdrawing(_SubdrawingFields):
    """``source`` minus the edges ``removed``, their crossings smoothed:
    the validated ``graph``, and the id in ``source`` of each of its
    vertices, edges and darts.  Vertex and edge ids keep their order."""

    @cached_property
    def face_members(self) -> tuple[frozenset[int], ...]:
        """The faces of ``source`` that make up each face of ``graph``
        (``_merge_classes``), computed when first read."""
        return _merge_classes(self)

    @cached_property
    def colors(self) -> tuple[FaceClass, ...]:
        """Per face of ``graph``: BLUE when it is one face of ``source``,
        RED when it merges several."""
        return tuple(FaceClass.BLUE if len(ids) == 1 else FaceClass.RED
                     for ids in self.face_members)


def _merge_classes(sub: Subdrawing) -> tuple[frozenset[int], ...]:
    """One pass over the source's ``dart_edge`` joins, by union-find, the
    two faces beside each dart of a removed edge; smoothing a crossing
    changes no face, so each class is one face of the result.  A face of
    the source that loses every dart (one bounded by removed edges alone)
    is in the class of the faces it was merged with."""
    g = sub.source
    fod, opposite = g.map.face_of_dart, g.map.opposite
    parent = list(range(len(g.map.face_walks)))
    removed = set(sub.removed)

    def find(f):
        while parent[f] != f:
            parent[f] = f = parent[parent[f]]       # path halving
        return f

    for d, e in enumerate(g.dart_edge):
        if e in removed:
            a, b = find(fod[d]), find(fod[opposite[d]])
            parent[max(a, b)] = min(a, b)
    walks = sub.graph.map.face_walks
    face = {find(fod[sub.dart_ids[w[0]]]): i for i, w in enumerate(walks)}
    roots = list(map(find, range(len(parent))))
    if len(face) != len(walks) or len(set(roots)) != len(walks):
        raise DrawingError("the faces left by the deletion are not the "
                           "merge classes of the removed segments")
    members: list[list[int]] = [[] for _ in walks]
    for f, r in enumerate(roots):
        members[face[r]].append(f)
    return tuple(map(frozenset, members))


def delete_edges(g: OnePlaneGraph, edges) -> Subdrawing | None:
    """``g`` minus the given edges, built in one pass over its tables.

    The edges' darts are dropped, and so is a crossing on any of them: a
    kept edge through it becomes one segment, its two far darts opposite
    each other.  ``_compact`` numbers the ids, so equal deletions give
    equal drawings, and validates once; like every validated drawing, the
    result keeps the face walks of that check.  ``removed`` lists the edges
    in id order.  None when the deletion disconnects the drawing."""
    removed = tuple(sorted(edges))
    recs, pmap, de = g.edges, g.map, g.dart_edge
    table = [[r.u, r.v, r.crossing] for r in recs]
    for e in removed:
        if not (0 <= e < len(recs)) or table[e] is None:
            raise OperationError("UNKNOWN_EDGE", f"no edge {e}")
        table[e] = None
    rotations = [[d for d in rot if table[de[d]] is not None] for rot in pmap.rotations]
    opposite = list(pmap.opposite)
    for c in {recs[e].crossing for e in removed} - {None}:
        # the crossing goes; the two darts of one edge sit opposite each
        # other there, so a kept edge's far darts become one segment
        r = pmap.rotations[c]
        rotations[c] = []
        for t1, t2 in ((r[0], r[2]), (r[1], r[3])):
            if table[de[t1]] is not None:
                far1, far2 = opposite[t1], opposite[t2]
                opposite[far1], opposite[far2] = far2, far1
                table[de[t1]][2] = None
    try:
        compacted = _compact(pmap.kinds, rotations, opposite, de, table)
    except ValidationError as err:
        # connectivity is the first invariant tested on a well-formed map
        if err.codes() == {"NOT_CONNECTED"}:
            return None
        raise
    return Subdrawing(*compacted, g, removed)
