"""Mutable construction workspace for drawings.

All structural surgery lives here: building a plane map from a rotation
table, inserting an edge inside a face or across two faces (creating a
crossing), coning a face with a new vertex, and deleting an edge (smoothing
its crossing away).  Public immutable values are produced by ``finish()``,
which compacts ids and runs full validation.

Dart conventions (shared with core): the walk successor of dart ``d`` is the
rotation successor of ``opposite[d]``; the corner of a walk at position
``i`` is the angular gap immediately before the walk dart ``d_i`` in the
rotation of its vertex.  New darts for a corner are spliced in at the list
position of ``d_i``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    DrawingError,
    EdgeRec,
    FaceMerge,
    OnePlaneGraph,
    OperationError,
    VertexKind,
    validate,
)

DEAD = -2


@dataclass
class ConeResult:
    center: int
    # one triple per chosen corner, in corner order:
    # (spoke dart at the rim vertex, spoke dart at the center, rim vertex)
    spokes: list[tuple[int, int, int]]
    edge_ids: list[int]


@dataclass(frozen=True)
class BuildResult:
    graph: OnePlaneGraph
    vertex_map: dict[int, int]     # builder vertex id -> final id
    edge_map: dict[int, int]
    dart_map: dict[int, int]


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
                d = b._new_dart(v, -1)
                b.rotations[v].append(d)
                key = (w, v)
                if key in pending:
                    o = pending.pop(key)
                    b.opposite[o] = d
                    b.opposite[d] = o
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
        walk = [d0]
        d = self.rotation_successor(self.opposite[d0])
        while d != d0:
            walk.append(d)
            d = self.rotation_successor(self.opposite[d])
        return walk

    def face_walks(self) -> list[list[int]]:
        """The faces of ``graph()``, in its order: each walk starts at its
        first dart in (vertex, rotation position) order, as ``finish()``."""
        walks, seen = [], set()
        for rot in self.rotations:
            for d in rot:
                if d not in seen:
                    walks.append(self.face_walk_from(d))
                    seen.update(walks[-1])
        return walks

    def is_connected(self) -> bool:
        # smoothed-away fakes (empty rotation) no longer exist; an isolated
        # true vertex, however, is a real component of its own
        live = [v for v in range(len(self.kinds))
                if self.rotations[v] or self.kinds[v] is VertexKind.TRUE]
        if not live:
            return False
        seen = {live[0]}
        stack = [live[0]]
        while stack:
            v = stack.pop()
            for d in self.rotations[v]:
                w = self.dart_vertex[self.opposite[d]]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen & set(live)) == len(live)

    # -- edge insertion ----------------------------------------------------------

    def insert_edge_one_face(self, walk, i: int, j: int) -> int:
        """Add edge between the corners at walk positions i and j of one face."""
        u = self.dart_vertex[walk[i]]
        v = self.dart_vertex[walk[j]]
        e = self._new_edge(u, v, None)
        p = self._new_dart(u, e)
        q = self._new_dart(v, e)
        self.opposite[p] = q
        self.opposite[q] = p
        self._splice_before(walk[i], p)
        self._splice_before(walk[j], q)
        return e

    def insert_edge_crossing(self, walk1, i: int, walk2, j: int,
                             cross_edge: int) -> tuple[int, int]:
        """Add edge from corner i of face walk1 to corner j of face walk2,
        crossing the currently uncrossed edge shared by the two faces.

        Returns (new edge id, fake vertex id).
        """
        u = self.dart_vertex[walk1[i]]
        v = self.dart_vertex[walk2[j]]
        if self.edges[cross_edge][2] is not None:
            raise OperationError("BAD_PARAMETER",
                                 f"edge {cross_edge} is already crossed")
        d_e = next((d for d in walk1 if self.dart_edge[d] == cross_edge), None)
        if d_e is None:
            raise OperationError("BAD_PARAMETER",
                                 f"edge {cross_edge} not on the first face")
        d_b = self.opposite[d_e]
        if d_b not in walk2:
            raise OperationError("BAD_PARAMETER",
                                 f"edge {cross_edge} not shared with the second face")
        a = self.dart_vertex[d_e]
        bvert = self.dart_vertex[d_b]
        if u in (a, bvert) or v in (a, bvert):
            raise OperationError("ADJACENT_EDGES_CROSS",
                                 "crossed edge is incident to an endpoint")

        c = self.new_vertex(VertexKind.FAKE)
        e_new = self._new_edge(u, v, c)
        self.edges[cross_edge][2] = c

        p = self._new_dart(u, e_new)
        q = self._new_dart(v, e_new)
        t_a = self._new_dart(c, cross_edge)
        t_b = self._new_dart(c, cross_edge)
        t_u = self._new_dart(c, e_new)
        t_v = self._new_dart(c, e_new)

        # split the crossed edge: a--c and c--b
        self.opposite[d_e] = t_a
        self.opposite[t_a] = d_e
        self.opposite[d_b] = t_b
        self.opposite[t_b] = d_b
        # the new edge: u--c and c--v
        self.opposite[p] = t_u
        self.opposite[t_u] = p
        self.opposite[q] = t_v
        self.opposite[t_v] = q

        # transversal rotation at the crossing; derived so that both face
        # splits close up (see module docstring for the walk convention)
        self.rotations[c] = [t_a, t_u, t_b, t_v]
        self._splice_before(walk1[i], p)
        self._splice_before(walk2[j], q)
        return e_new, c

    # -- face coning -------------------------------------------------------------

    def cone(self, walk, corners=None, kind=VertexKind.TRUE) -> ConeResult:
        """Insert a new vertex inside the face and join it to the chosen
        corners (all corners by default, in walk order).

        With all corners chosen every created face is a triangle; with a
        contiguous subset the remainder stays a single face.  Each spoke is
        its own (uncrossed) edge unless the caller rewires dart_edge.
        """
        if corners is None:
            corners = range(len(walk))
        corners = list(corners)
        x = self.new_vertex(kind)
        spokes = []
        edge_ids = []
        t_list = []
        for i in corners:
            vi = self.dart_vertex[walk[i]]
            e = self._new_edge(x, vi, None)
            s = self._new_dart(vi, e)
            t = self._new_dart(x, e)
            self.opposite[s] = t
            self.opposite[t] = s
            self._splice_before(walk[i], s)
            spokes.append((s, t, vi))
            edge_ids.append(e)
            t_list.append(t)
        # reversed spoke order at the center keeps the map on the sphere
        self.rotations[x] = list(reversed(t_list))
        return ConeResult(center=x, spokes=spokes, edge_ids=edge_ids)

    def cross_quad(self, walk, first_diagonal: int = 0) -> tuple[int, int, int]:
        """Insert a pair of crossing diagonals into a quadrangular face.

        first_diagonal 0 gives the (corner0, corner2) diagonal the smaller
        edge id, 1 the (corner1, corner3) one.  Returns (edge id of the
        first diagonal, edge id of the second, fake vertex id).
        """
        if len(walk) != 4:
            raise OperationError("FACE_NOT_QUAD",
                                 f"face walk has length {len(walk)}")
        vs = [self.dart_vertex[d] for d in walk]
        if len(set(vs)) != 4 or any(self.kinds[v] is VertexKind.FAKE for v in vs):
            raise OperationError("BOUNDARY_NOT_SIMPLE",
                                 f"need 4 distinct true boundary vertices, got {vs}")
        for p, r in ((0, 2), (1, 3)):
            if self.adjacent(vs[p], vs[r]):
                raise OperationError("DIAGONAL_EXISTS",
                                     f"vertices {vs[p]},{vs[r]} already adjacent")
        res = self.cone(walk, kind=VertexKind.FAKE)
        c = res.center
        order = (0, 2, 1, 3) if first_diagonal == 0 else (1, 3, 0, 2)
        # merge the four spokes into two crossing edges
        self.edges[res.edge_ids[order[0]]] = None
        self.edges[res.edge_ids[order[1]]] = None
        self.edges[res.edge_ids[order[2]]] = None
        self.edges[res.edge_ids[order[3]]] = None
        e1 = self._new_edge(vs[order[0]], vs[order[1]], c)
        e2 = self._new_edge(vs[order[2]], vs[order[3]], c)
        for corner, e in ((order[0], e1), (order[1], e1), (order[2], e2), (order[3], e2)):
            s, t, _ = res.spokes[corner]
            self.dart_edge[s] = e
            self.dart_edge[t] = e
        return e1, e2, c

    def adjacent(self, u: int, v: int) -> bool:
        """Whether an edge joins true vertices u and v (it has a dart at u)."""
        return any(v in self.edges[self.dart_edge[d]][:2] for d in self.rotations[u])

    # -- edge deletion -----------------------------------------------------------

    def delete_edge(self, e: int) -> None:
        """Remove an edge from the drawing; a crossing on it is smoothed,
        restoring the partner edge to a single whole segment."""
        rec = self.edges[e]
        if rec is None:
            raise OperationError("UNKNOWN_EDGE", f"no edge {e}")
        crossing = rec[2]
        # e's darts sit at its endpoints and, when crossed, at its crossing
        ends = rec if crossing is not None else rec[:2]
        darts = [d for w in ends for d in self.rotations[w] if self.dart_edge[d] == e]
        for d in darts:
            self._kill_dart(d)
        self.edges[e] = None
        if crossing is not None:
            self._smooth(crossing)

    def _kill_dart(self, d: int) -> None:
        self.rotations[self.dart_vertex[d]].remove(d)
        self.opposite[d] = DEAD

    def _smooth(self, c: int) -> None:
        """Remove a degree-2 fake vertex, merging its two segments."""
        rot = self.rotations[c]
        if len(rot) != 2:
            raise OperationError("BAD_CROSSING",
                                 f"cannot smooth vertex {c} of degree {len(rot)}")
        t1, t2 = rot
        e = self.dart_edge[t1]
        far1 = self.opposite[t1]
        far2 = self.opposite[t2]
        self.opposite[far1] = far2
        self.opposite[far2] = far1
        self.rotations[c] = []
        self.opposite[t1] = DEAD
        self.opposite[t2] = DEAD
        self.kinds[c] = VertexKind.FAKE   # stays; dropped at compaction
        self.edges[e][2] = None

    # -- finish --------------------------------------------------------------------

    def finish(self) -> BuildResult:
        """Compact ids, validate, and return the immutable graph plus the
        id maps from builder state to the final graph."""
        vertex_map: dict[int, int] = {}
        kinds = []
        for v, rot in enumerate(self.rotations):
            if rot or self.kinds[v] is VertexKind.TRUE:
                vertex_map[v] = len(kinds)
                kinds.append(self.kinds[v])
        # canonical dart numbering: rotation-scan order, so structurally
        # equal drawings compare equal and serialization round-trips exactly
        dart_map: dict[int, int] = {}
        for v in vertex_map:
            for d in self.rotations[v]:
                dart_map[d] = len(dart_map)
        edge_map: dict[int, int] = {}
        edges = []
        for e, rec in enumerate(self.edges):
            if rec is not None:
                edge_map[e] = len(edges)
                edges.append(rec)

        rotations = tuple(
            tuple(dart_map[d] for d in self.rotations[v])
            for v in vertex_map
        )
        opposite = [0] * len(dart_map)
        dart_edge = [0] * len(dart_map)
        for old, new in dart_map.items():
            opposite[new] = dart_map[self.opposite[old]]
            dart_edge[new] = edge_map[self.dart_edge[old]]
        edge_recs = tuple(
            EdgeRec(vertex_map[u], vertex_map[v],
                    None if c is None else vertex_map[c])
            for u, v, c in edges
        )
        g = validate(tuple(kinds), rotations, tuple(opposite), edge_recs,
                     tuple(dart_edge))
        return BuildResult(graph=g, vertex_map=vertex_map,
                           edge_map=edge_map, dart_map=dart_map)

    def graph(self) -> OnePlaneGraph:
        return self.finish().graph


def plane_graph(neighbors) -> OnePlaneGraph:
    """Validated crossing-free drawing from rotation-ordered neighbor lists."""
    return DrawingBuilder.from_neighbors(neighbors).graph()


@dataclass(frozen=True)
class Deletion:
    """A drawing minus some edges: the finished result with its id maps, the
    face merge on the source drawing, and the merge class of each face of
    ``result.graph``."""

    result: BuildResult
    merge: FaceMerge
    face_class: tuple[int, ...]


def delete_edges(g: OnePlaneGraph, edges) -> Deletion | None:
    """Delete the edges from ``g``, smoothing their crossings, and map each
    face of the result to its merge class.  None when the deletion
    disconnects the drawing."""
    edges = tuple(edges)
    b = DrawingBuilder.from_graph(g)
    for e in edges:
        b.delete_edge(e)
    if not b.is_connected():
        return None
    res = b.finish()
    merge = FaceMerge(g, edges)
    # deletion keeps every surviving dart, so its face in the result is the
    # merge class of its face in g
    g_face, h_face = g.map.face_of_dart, res.graph.map.face_of_dart
    face_class: list[int | None] = [None] * len(res.graph.map.face_walks)
    for old, new in res.dart_map.items():
        f, cls = h_face[new], merge.find(g_face[old])
        if face_class[f] is None:
            face_class[f] = cls
        elif face_class[f] != cls:
            raise DrawingError(
                f"face {f} left by the deletion spans merge classes "
                f"{face_class[f]} and {cls}")
    return Deletion(res, merge, tuple(face_class))
